"""Smoke runs of the benchmark harness in perfbench/.

The harness wraps package functions from outside (``perfbench/layers.py``
reads ``ProjectionBasis.envelope`` and the positional arguments of
``eval_radial_series`` and ``norm_plm_table``), so a change to those names
or signatures breaks it without breaking any package test.  Each run is a
one-second traced run; no timing is checked.

The tracer wraps functions only in the package modules loaded when it is
installed, so a module that loads later keeps its unwrapped bindings and the
layers it runs read zero without being missing.  Each workload's per-layer
times of the layers it runs must therefore be non-zero.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


RUN_LAYERS = {
    "cli": ["sampler.basis_s", "sampler.projection_s", "likelihood.newton_mle_s",
            "diagnostics.validate_s", "models.resolve_s"],
    "fit": ["likelihood.newton_mle_s", "likelihood.log_density_s", "spectra.radial_eval_s"],
}


@pytest.mark.parametrize("workload", ["fit", "cli"])
def test_traced_run(workload):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [name for name, metric in result["metrics"].items() if metric.get("missing")]
    assert missing == []
    unseen = [name for name in RUN_LAYERS[workload] if not result["metrics"][name]["value"]]
    assert unseen == []

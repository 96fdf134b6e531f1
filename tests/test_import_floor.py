"""The benchmark's command paths run on numpy alone, and without quadrature.

scipy is loaded only by the Matern kernel with nu < 1/2 (``matern_psi``) and
by the tests, and fractions only by the first compact-family coefficient
call (``models._compact_form``).  Gauss-Legendre nodes are built only for the
families whose coefficients come from quadrature (Matern, and the compactly
supported ones with support past pi), so the benchmark's models leave the
node cache empty.  numpy.fft is loaded only when a radial series is summed,
which of the benchmark's commands only ``mle`` does.  The checks run in a
fresh interpreter, because this test process has imported scipy already.
The models and the fit pattern are the benchmark's own
(``perfbench/inputs.py``, standard library and numpy only).
"""

import json
import os
import subprocess
import sys

import spheredpp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(spheredpp.__file__)))

SCRIPT = """
import json, sys

import spheredpp, spheredpp.cli
from spheredpp import load_model, resolve, substream
from spheredpp.spectra import _gl_nodes
from spheredpp.sampler import draw_bernoulli_basis

def watched_modules():
    return sorted(m for m in sys.modules if m in ("scipy", "fractions") or m.startswith("scipy."))

loaded = {"import": watched_modules()}
sys.path.insert(0, sys.argv[1])
from inputs import MODELS, fit_model, hard_core_pattern, rng_for, write_pattern_csv

specs = dict(MODELS, fit=fit_model(0.74))
resolved = {name: resolve(load_model(spec)) for name, spec in specs.items()}
draw_bernoulli_basis(resolved["mq10-400"].kernel, substream(1, "basis"))
loaded["resolve"] = watched_modules()
for name, spec in specs.items():
    with open(name + ".json", "w") as fh:
        json.dump(spec, fh)
write_pattern_csv("fit-pattern.csv", hard_core_pattern(rng_for(1, 0)))
commands = [
    ["coeffs", "--model", "mq1-400.json", "--out", "coeffs.csv"],
    ["simulate", "--model", "mq10-400.json", "--seed", "3", "--out", "sim.csv"],
    ["mle", "--model", "mq10-400.json", "--pattern", "fit-pattern.csv"],
    ["validate", "--model", "sp-8-1-2.json", "--reps", "3", "--seed", "5"],
]
for argv in commands:
    if spheredpp.cli.run(argv) != 0:
        sys.exit("command failed: " + " ".join(argv))
loaded["commands"] = watched_modules()
loaded["quadrature_node_sets"] = _gl_nodes.cache_info().currsize
print(json.dumps(loaded))
"""


def test_command_paths_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench")]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "resolve": [], "commands": [], "quadrature_node_sets": 0}


def test_cli_import_leaves_numpy_fft_unloaded():
    # of the benchmark's commands only mle sums a radial series, so the others
    # must not pay for numpy.fft; the evaluator loads it on its first call
    script = (
        "import sys, spheredpp.cli\n"
        "before = 'numpy.fft' in sys.modules\n"
        "spheredpp.spectra.eval_radial_series([0.5, 0.5], 2, 1.0)\n"
        "print(before, 'numpy.fft' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "True"]

"""The benchmark's command paths run on numpy alone, and without quadrature.

scipy is loaded only by the Matern kernel with nu < 1/2 (``matern_psi``) and
by the tests, and fractions only by the first compact-family coefficient
call (``models._compact_form``).  The composite Gauss-Legendre rule
(``spectra._panel_rule``), and numpy.polynomial with it, is built only for
the families whose coefficients come from quadrature (Matern, and the
compactly supported ones with support past pi), so the benchmark's models
leave its cache empty and numpy.polynomial unloaded.  numpy.fft is loaded
only when a radial series is summed, which of the benchmark's commands only
``mle`` does.  The checks run in a
fresh interpreter, because this test process has imported scipy already.
The models and the fit pattern are the benchmark's own
(``perfbench/inputs.py``, standard library and numpy only).

numpy itself is loaded only by a command that computes: ``import spheredpp``
registers the submodules lazily, and the CLI parses and checks its
arguments before any of them runs.  A command runs only the modules it
uses, so ``coeffs`` and ``mle`` leave the sampler, ``hashlib`` and
``numpy.random`` alone.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import spheredpp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(spheredpp.__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))

# the package's public names by home module, listed here independently of it
EXPORTS = {
    "diagnostics": [
        "LocalRepulsiveness", "RepulsivenessReport", "ValidationReport",
        "eta_times_global_repulsiveness", "global_repulsiveness", "joint_intensity",
        "local_repulsiveness", "montecarlo_validate", "most_repulsive_curvature",
        "pair_correlation", "pcf", "repulsiveness_report",
    ],
    "likelihood": [
        "DensityContext", "FitResult", "ScaledFitSpec", "log_density", "loglik_score_info",
        "newton_mle",
    ],
    "models": [
        "ModelSpec", "ResolvedModel", "TruncationError", "circular_matern_spectrum",
        "compact_support_coeffs", "compact_support_psi", "load_model", "matern_eta_max_d1",
        "matern_psi", "most_repulsive_spectrum", "multiquadric_eta_max", "resolve",
        "spectral_model_spectrum",
    ],
    "sampler": [
        "ProjectionBasis", "SampleResult", "SamplingError", "draw_bernoulli_basis",
        "sample_dpp", "sample_projection",
    ],
    "spectra": [
        "DSchoenbergSeq", "ExistenceError", "MercerSpectrum", "QuadratureError",
        "SchoenbergSeq", "TruncationPolicy", "beta_from_kernel", "correlation_mercer",
        "d_schoenberg_from_psi", "eval_psi_series", "from_density_kernel", "mercer_from_d",
        "rho_max", "schoenberg_to_d", "sequence_from_json", "to_density_kernel",
    ],
    "sphere": [
        "PointPattern", "SpherePoint", "equal_area_project", "geodesic_distance",
        "surface_measure",
    ],
    "streams": ["substream"],
}


def python(*args, cwd=None):
    """Run a fresh interpreter on the checkout's package."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=ENV, capture_output=True,
                          text=True, timeout=300)


def imported(importtime_stderr):
    """Module names that ``-X importtime`` reports as imported."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.fixture
def bench_inputs(tmp_path):
    """The benchmark's model files and fit pattern, written into tmp_path."""
    spec = importlib.util.spec_from_file_location("inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for name, model in dict(inputs.MODELS, fit=inputs.fit_model(0.74)).items():
        (tmp_path / f"{name}.json").write_text(json.dumps(model))
    inputs.write_pattern_csv(tmp_path / "fit-pattern.csv", inputs.hard_core_pattern(inputs.rng_for(1, 0)))
    return tmp_path


SCRIPT = """
import json, sys

import spheredpp, spheredpp.cli
from spheredpp import load_model, resolve, substream
from spheredpp.spectra import _panel_rule
from spheredpp.sampler import draw_bernoulli_basis

def watched_modules():
    return sorted(m for m in sys.modules
                  if m in ("scipy", "fractions", "numpy.polynomial") or m.startswith("scipy."))

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
loaded["quadrature_node_sets"] = _panel_rule.cache_info().currsize
print(json.dumps(loaded))
"""


def test_command_paths_load_no_scipy(tmp_path):
    proc = python("-c", SCRIPT, os.path.join(ROOT, "perfbench"), cwd=tmp_path)
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
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "True"]


def test_package_import_loads_no_numpy():
    proc = python("-c", "import sys, spheredpp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["simulate", "--help"], 0),
    (["simulate", "--model", "m.json", "--out", "x.csv", "--seed", "-1"], 2),
])
def test_cli_parses_before_numpy(argv, code):
    # -W error also turns runpy's warning about a module found in sys.modules
    # before it runs into a failure
    proc = python("-W", "error", "-X", "importtime", "-m", "spheredpp.cli", *argv)
    assert proc.returncode == code, proc.stderr[-2000:]
    assert "numpy" not in imported(proc.stderr)


def test_bad_arguments_load_no_numpy():
    bad = [
        ["simulate", "--model", "m.json", "--out", "x.csv", "--seed", "-1"],
        ["validate", "--model", "m.json", "--reps", "1"],
        ["pcf", "--model", "m.json", "--out", "x.csv", "--grid", "0"],
        ["mle", "--model", "m.json", "--pattern", "p.csv", "--zeta0", "1e300"],
    ]
    script = (
        "import json, sys, spheredpp.cli\n"
        f"codes = [spheredpp.cli.run(argv) for argv in {bad!r}]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[2, 2, 2, 2], False]


def test_coeffs_and_mle_run_only_their_modules(bench_inputs):
    script = (
        "import json, sys, types, spheredpp.cli\n"
        "assert 'hashlib' not in sys.modules\n"
        "for argv in (['coeffs', '--model', 'mq1-400.json', '--out', 'coeffs.csv'],\n"
        "             ['mle', '--model', 'mq10-400.json', '--pattern', 'fit-pattern.csv']):\n"
        "    assert spheredpp.cli.run(argv) == 0, argv\n"
        "executed = type(sys.modules['spheredpp.sampler']) is types.ModuleType\n"
        "print(json.dumps(['hashlib' in sys.modules, 'numpy.random' in sys.modules, executed]))\n"
    )
    proc = python("-c", script, cwd=bench_inputs)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [False, False, False]


def test_public_names_are_their_home_modules_objects():
    script = (
        "import importlib, json, spheredpp\n"
        f"exports = {EXPORTS!r}\n"
        "same = all(getattr(spheredpp, name) is getattr(importlib.import_module('spheredpp.' + home), name)\n"
        "           for home, names in exports.items() for name in names)\n"
        "print(json.dumps([same, sorted(spheredpp.__all__), set(spheredpp.__all__) <= set(dir(spheredpp))]))\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    same, names, listed = json.loads(proc.stdout.strip().splitlines()[-1])
    assert same and listed
    assert names == sorted(name for group in EXPORTS.values() for name in group)
    assert len(names) == 59

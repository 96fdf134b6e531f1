"""Isotropic determinantal point processes on the unit spheres S^1 and S^2.

Importing the package loads no numpy and runs none of its modules.  Each
submodule but ``cli`` is registered in ``sys.modules`` here through
``importlib.util.LazyLoader``: ``spheredpp.models`` is the real module
object from the first import on, and its code runs at its first attribute
access.  So code that rebinds functions in every loaded module (a per-layer
tracer, say) finds all of them from ``import spheredpp`` on.  The public
names (``spheredpp.resolve``, ...) are looked up in their home module on
each access, so they are always the objects that module holds.  ``cli`` is
not registered, because ``python -m spheredpp.cli`` warns when it finds the
module in ``sys.modules`` before running it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every submodule but cli, with the public names it exports
_EXPORTS = {
    "diagnostics": (
        "LocalRepulsiveness",
        "RepulsivenessReport",
        "ValidationReport",
        "eta_times_global_repulsiveness",
        "global_repulsiveness",
        "joint_intensity",
        "local_repulsiveness",
        "montecarlo_validate",
        "most_repulsive_curvature",
        "pair_correlation",
        "pcf",
        "repulsiveness_report",
    ),
    "harmonics": (),
    "likelihood": (
        "DensityContext",
        "FitResult",
        "ScaledFitSpec",
        "log_density",
        "loglik_score_info",
        "newton_mle",
    ),
    "models": (
        "ModelSpec",
        "ResolvedModel",
        "TruncationError",
        "circular_matern_spectrum",
        "compact_support_coeffs",
        "compact_support_psi",
        "load_model",
        "matern_eta_max_d1",
        "matern_psi",
        "most_repulsive_spectrum",
        "multiquadric_eta_max",
        "resolve",
        "spectral_model_spectrum",
    ),
    "sampler": (
        "ProjectionBasis",
        "SampleResult",
        "SamplingError",
        "draw_bernoulli_basis",
        "sample_dpp",
        "sample_projection",
    ),
    "spectra": (
        "DSchoenbergSeq",
        "ExistenceError",
        "MercerSpectrum",
        "QuadratureError",
        "SchoenbergSeq",
        "TruncationPolicy",
        "beta_from_kernel",
        "correlation_mercer",
        "d_schoenberg_from_psi",
        "eval_psi_series",
        "from_density_kernel",
        "mercer_from_d",
        "rho_max",
        "schoenberg_to_d",
        "sequence_from_json",
        "to_density_kernel",
    ),
    "sphere": (
        "PointPattern",
        "SpherePoint",
        "equal_area_project",
        "geodesic_distance",
        "surface_measure",
    ),
    "streams": ("substream",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Isotropic determinantal point processes on the unit spheres S^1 and S^2."""

from .diagnostics import (
    LocalRepulsiveness,
    RepulsivenessReport,
    ValidationReport,
    eta_times_global_repulsiveness,
    global_repulsiveness,
    joint_intensity,
    local_repulsiveness,
    montecarlo_validate,
    most_repulsive_curvature,
    pair_correlation,
    pcf,
    repulsiveness_report,
)
from .likelihood import (
    DensityContext,
    FitResult,
    ScaledFitSpec,
    log_density,
    loglik_score_info,
    newton_mle,
)
from .models import (
    ModelSpec,
    ResolvedModel,
    TruncationError,
    circular_matern_spectrum,
    compact_support_coeffs,
    compact_support_psi,
    load_model,
    matern_eta_max_d1,
    matern_psi,
    most_repulsive_spectrum,
    multiquadric_eta_max,
    resolve,
    spectral_model_spectrum,
)
from .sampler import (
    ProjectionBasis,
    SampleResult,
    SamplingError,
    draw_bernoulli_basis,
    sample_dpp,
    sample_projection,
)
from .spectra import (
    DSchoenbergSeq,
    ExistenceError,
    MercerSpectrum,
    QuadratureError,
    SchoenbergSeq,
    TruncationPolicy,
    beta_from_kernel,
    correlation_mercer,
    d_schoenberg_from_psi,
    eval_psi_series,
    from_density_kernel,
    mercer_from_d,
    rho_max,
    schoenberg_to_d,
    sequence_from_json,
    to_density_kernel,
)
from .sphere import (
    PointPattern,
    SpherePoint,
    equal_area_project,
    geodesic_distance,
    surface_measure,
)
from .streams import substream

__version__ = "0.1.0"

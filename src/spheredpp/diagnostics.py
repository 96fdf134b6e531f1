"""Moment and repulsiveness functionals for isotropic DPPs.

The pair correlation of an isotropic DPP with correlation R_0 is
g_0(s) = 1 - R_0(s)^2.  Repulsiveness is summarized globally by

    I(g_0) = 1/eta - Var(#X)/eta^2,
    eta * I(g_0) = 1 - (1/eta) sum_l m_(l,d) lambda_l (1 - lambda_l),

and locally by the slope g_0'(0) and curvature g_0''(0); when
sum l^2 beta_(l,d) converges the slope is 0 and

    g_0''(0) = (2/d) sum_l l (l + d - 1) beta_(l,d).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .harmonics import multiplicities
from .models import TruncationError, resolve
from .sampler import level_counts
from .spectra import (
    DSchoenbergSeq,
    MercerSpectrum,
    QuadratureError,
    TruncationPolicy,
    eval_psi_series,
)
from .sphere import pairwise_geodesic
from .streams import substream


def joint_intensity(points, radial, rho: float | None = None) -> float:
    """n-th order joint intensity det(C_0(s(x_i, x_j))).

    ``points`` is a PointPattern or a sequence of SpherePoint (repeats
    allowed here: the determinant degenerates to 0).  ``radial`` is the
    kernel's radial part C_0; alternatively pass the correlation R_0
    together with the intensity rho, so C_0 = rho R_0.  Tiny negative
    determinants (positive semi-definiteness roundoff) are clamped to 0.
    """
    s = pairwise_geodesic(points)
    n = len(s)
    if n == 0:
        return 1.0
    mat = np.asarray(radial(s), dtype=float).reshape(n, n)
    if rho is not None:
        mat = rho * mat
    det = float(np.linalg.det(mat))
    scale = max(1.0, float(np.prod(np.diag(mat))))
    if det < 0.0 and det > -1e-10 * scale:
        return 0.0
    return det


def pair_correlation(radial_correlation, s):
    """g_0(s) = 1 - R_0(s)^2 for a radial correlation R_0 with |R_0| <= 1."""
    r = np.asarray(radial_correlation(s), dtype=float)
    out = 1.0 - r * r
    return float(out) if np.ndim(out) == 0 else out


def global_repulsiveness(spec: MercerSpectrum) -> float:
    """I(g_0) computed from the kernel spectrum (exact given coefficients)."""
    return eta_times_global_repulsiveness(spec) / spec.eta


def eta_times_global_repulsiveness(spec: MercerSpectrum) -> float:
    """eta * I(g_0) = 1 - Var(#X)/eta; equals 1 exactly for projections."""
    if spec.kind != "kernel":
        raise ValueError("global repulsiveness needs a kernel spectrum")
    eta = spec.eta
    if eta <= 0:
        raise ValueError("eta must be positive")
    return 1.0 - spec.count_variance / eta


@dataclass(frozen=True)
class LocalRepulsiveness:
    """Slope and curvature of g_0 at 0; None marks 'not derivable from
    the represented coefficients' (the variance condition fails)."""

    slope: float | None
    curvature: float | None


def _tail_of_weighted_sum(values: np.ndarray, dim: int) -> float | None:
    """Estimate the tail of sum l(l+d-1) beta_l beyond the represented prefix.

    Fits a geometric or polynomial majorant to the trailing entries, so the
    estimate is not a bound; returns None when neither indicates convergence.
    """
    nz = np.nonzero(values > 0.0)[0]
    if len(nz) == 0:
        return None  # no decay information at all
    L = int(nz[-1])
    k = min(8, L // 2)
    if k < 2:
        return None
    head, last = values[L - k], values[L]
    if head <= 0 or last <= 0:
        return None
    r = (last / head) ** (1.0 / k)
    if r < 1.0 - 1e-6:
        # sum_{j>=1} (L+j)^2 r^j, closed form
        g1 = r / (1.0 - r)
        g2 = r / (1.0 - r) ** 2
        g3 = r * (1.0 + r) / (1.0 - r) ** 3
        return last * (L * L * g1 + 2.0 * L * g2 + g3)
    # polynomial decay beta_l ~ C l^-q
    q = -(math.log(last) - math.log(head)) / (math.log(L) - math.log(L - k))
    if q <= 3.0 + 1e-9:
        return None
    C = last * L**q
    return C * L ** (3.0 - q) / (q - 3.0)


def local_repulsiveness(
    beta_d: DSchoenbergSeq, slope_override: float | None = None
) -> LocalRepulsiveness:
    """Slope and curvature of g_0 at 0 from d-Schoenberg masses.

    When the represented tail of sum l^2 beta_l is estimated below
    1e-8 (a geometric/polynomial majorant fitted to the last 8 entries,
    not a certified bound), the slope is 0 and the
    curvature is (2/d) sum l(l+d-1) beta_l.  Otherwise both are flagged
    unavailable; an analytic ``slope_override`` (e.g. 2/c for the
    exponential correlation) is passed through in that case.
    """
    vals = beta_d.values
    d = beta_d.dim
    ells = np.arange(len(vals), dtype=float)
    weighted = float(np.sum(ells * (ells + d - 1.0) * vals))
    if beta_d.tail_bound == 0.0:
        tail = 0.0  # the representation carries all the mass
    else:
        tail = _tail_of_weighted_sum(vals, d)
    if tail is None or tail > 1e-8 * max(weighted, 1.0):
        return LocalRepulsiveness(slope=slope_override, curvature=None)
    return LocalRepulsiveness(slope=0.0, curvature=2.0 / d * weighted)


def most_repulsive_curvature(n: int, dim: int) -> float:
    """Closed-form g_0''(0) of the projection DPP filled through level n:
    (2/3)n^2 + (2/3)n on S^1 and n^2/2 + n on S^2."""
    if dim == 1:
        return 2.0 / 3.0 * n * n + 2.0 / 3.0 * n
    if dim == 2:
        return 0.5 * n * n + n
    m = multiplicities(n, dim)
    ells = np.arange(n + 1, dtype=float)
    return 2.0 * float(np.sum(ells * (ells + dim - 1.0) * m)) / (dim * float(np.sum(m)))


@dataclass(frozen=True)
class RepulsivenessReport:
    """Bundle of eta, I(g_0), eta*I, slope and curvature diagnostics."""

    eta: float
    global_index: float
    eta_times_index: float
    slope: float | None
    curvature: float | None

    def __post_init__(self):
        if not -1e-12 <= self.global_index <= 1.0 + 1e-12:
            raise ValueError(f"I(g_0) = {self.global_index} outside [0, 1]")
        if self.eta_times_index > 1.0 + 1e-10:
            raise ValueError(f"eta * I = {self.eta_times_index} exceeds 1")

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "global_repulsiveness": self.global_index,
            "eta_times_I": self.eta_times_index,
            "pcf_slope_at_zero": None if self.slope is None else float(self.slope),
            "pcf_curvature_at_zero": self.curvature,
        }


def repulsiveness_report(model) -> RepulsivenessReport:
    """Diagnostics for a resolved model (see models.resolve).

    An exact curvature in ``model.pcf_derivatives`` is used as is.
    Otherwise the curvature needs the represented tail of sum l^2 beta_l
    below 1e-8; if the model's own truncation is coarser, the coefficients
    are re-derived once at tail tolerance 1e-12 before flagging the
    curvature unavailable (a coarse default truncation must not
    misreport a model that satisfies the variance condition).
    """
    spec = model.kernel
    slope, curvature = model.pcf_derivatives or (None, None)
    if curvature is not None:
        local = LocalRepulsiveness(slope, curvature)
    else:
        local = local_repulsiveness(model.correlation_beta, slope)
    if local.curvature is None and model.spec.trunc.tail_tol > 1e-12:
        fine_spec = dataclasses.replace(
            model.spec,
            trunc=TruncationPolicy(model.spec.trunc.max_level, 1e-12),
        )
        try:
            fine = resolve(fine_spec)
        except (TruncationError, QuadratureError):
            pass  # the coarse verdict stands: curvature unavailable
        else:
            local = local_repulsiveness(fine.correlation_beta, slope)
    return RepulsivenessReport(
        eta=spec.eta,
        global_index=global_repulsiveness(spec),
        eta_times_index=eta_times_global_repulsiveness(spec),
        slope=local.slope,
        curvature=local.curvature,
    )


def radial_correlation(model, s):
    """R_0(s) of a resolved model: its closed form where it has one,
    else the truncated coefficient series of the kernel spectrum."""
    if model.psi is not None:
        return np.asarray(model.psi(s), dtype=float)
    return eval_psi_series(model.correlation_beta, s)


def pcf(model, s):
    """Pair correlation curve g_0(s) = 1 - R_0(s)^2 of a resolved model."""
    return pair_correlation(lambda t: radial_correlation(model, t), s)


@dataclass(frozen=True)
class ValidationReport:
    """Monte Carlo count-moment check against spectrum predictions."""

    n_reps: int
    mean_count: float
    var_count: float
    se_mean: float
    se_var: float
    theory_eta: float
    theory_var: float
    mean_ok: bool
    var_ok: bool

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.var_ok

    def to_json(self) -> dict:
        return {
            "replicates": self.n_reps,
            "mean_count": self.mean_count,
            "var_count": self.var_count,
            "se_mean": self.se_mean,
            "se_var": self.se_var,
            "theory_eta": self.theory_eta,
            "theory_var": self.theory_var,
            "mean_within_3se": self.mean_ok,
            "var_within_3se": self.var_ok,
            "pass": self.passed,
        }


def montecarlo_validate(model, n_reps: int, seed: int) -> ValidationReport:
    """Check the count moments of the Bernoulli stage at 3 sigma.

    Each replicate draws the per-level counts (``sampler.level_counts``) from
    an independently seeded substream ('replicate:i' derived from the root
    seed).  They are the first draw of a sample from that substream, whose
    count is their sum, so neither the kept orders nor the points are drawn.
    """
    if n_reps < 2:
        raise ValueError("need at least 2 replicates")
    counts = np.array([level_counts(model.kernel, substream(seed, "replicate", i)).sum() for i in range(n_reps)])

    mean = float(np.mean(counts))
    var = float(np.var(counts, ddof=1))
    se_mean = float(np.std(counts, ddof=1) / math.sqrt(n_reps))
    centered = counts - mean
    m4 = float(np.mean(centered**4))
    se_var = float(math.sqrt(max(m4 - var * var, 0.0) / n_reps))
    theory_eta = model.kernel.eta
    theory_var = model.kernel.count_variance
    mean_ok = abs(mean - theory_eta) <= 3.0 * max(se_mean, 1e-15)
    var_ok = abs(var - theory_var) <= 3.0 * max(se_var, 1e-15)
    return ValidationReport(
        n_reps, mean, var, se_mean, se_var, theory_eta, theory_var, mean_ok, var_ok
    )

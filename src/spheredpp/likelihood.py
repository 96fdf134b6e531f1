"""Density evaluation and likelihood fitting for isotropic DPPs.

With density-kernel eigenvalues lambda~ and D = sum m log(1 + lambda~),
the density with respect to the unit-rate Poisson process is

    log f({x_1..x_n}) = sigma_d - D + log det(C~_0(s(x_i, x_j))).

For the scaled family C~_0 = chi psi with fixed correlation psi (Mercer
coefficients alpha_(l,d)) and zeta = ln chi,

    l(zeta)  = n zeta + log det(psi(s_ij)) - sum m log(1 + alpha chi),
    score    = n - sum m alpha chi / (1 + alpha chi),
    info     = sum m alpha chi / (1 + alpha chi)^2  > 0,

so Newton-Raphson in zeta finds the unique root of the monotone score.

ScaledFitSpec and newton_mle read their numbers through the checkers of
``spectra``, which raise ValueError naming the field.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .harmonics import multiplicities
from .spectra import MercerSpectrum, _coefficients, _integer, _number, eval_radial_series
from .sphere import PointPattern, surface_measure

# |score| below which Newton-Raphson stops, and the most steps it takes
NEWTON_TOL = 1e-10
NEWTON_MAX_ITERATIONS = 100
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # the largest zeta with exp(zeta) finite


@dataclass(frozen=True)
class DensityContext:
    """Everything needed to evaluate the DPP density: the density-kernel
    spectrum, its log-normalizer D, and the radial evaluator C~_0."""

    density: MercerSpectrum

    def __post_init__(self):
        if self.density.kind != "density-kernel":
            raise ValueError("DensityContext needs a density-kernel spectrum")

    @property
    def dim(self) -> int:
        return self.density.dim

    @property
    def log_normalizer(self) -> float:
        """D = sum m_(l,d) log(1 + lambda~_(l,d)) >= 0."""
        return float(np.sum(self.density.mults * np.log1p(self.density.values)))

    def radial(self, s):
        """C~_0(s), the radial function of the density-kernel spectrum."""
        return _radial(self.density.values, self.dim, s)


def _radial(values, dim: int, s):
    """sum_l values_l m_(l,d) / sigma_d G_l(s) (normalized Gegenbauer): C~_0 of
    density-kernel eigenvalues, psi of a correlation's Mercer coefficients."""
    coeffs = values * multiplicities(len(values) - 1, dim) / surface_measure(dim)
    return eval_radial_series(coeffs, dim, s)


def _chol_logdet(mat: np.ndarray) -> float:
    """log det via Cholesky of the symmetric matrix whose lower triangle is
    mat's (np.linalg.cholesky reads no other entry); -inf when not PD
    (a non-positive pivot is the feasibility boundary, not an error)."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return -math.inf
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _radial_logdet(pattern: PointPattern, radial) -> float:
    """log det of radial(s(x_i, x_j)), evaluated once per pair on the
    pattern's upper-triangle distances and written once, into the upper
    triangle of ``mat``: that is the lower triangle of ``mat.T``, the one
    Cholesky reads, and the other is left unset."""
    mat = np.empty((len(pattern),) * 2)
    mat[pattern.upper_mask] = radial(pattern.upper_distances)
    return _chol_logdet(mat.T)


def _check_sphere(pattern: PointPattern, dim: int) -> None:
    if pattern.dim != dim:
        raise ValueError("pattern dimension does not match the density context")


def log_density(pattern: PointPattern, ctx: DensityContext) -> float:
    """log f of a point configuration; the empty pattern gives
    sigma_d - D, and infeasible configurations give -inf."""
    _check_sphere(pattern, ctx.dim)
    base = surface_measure(ctx.dim) - ctx.log_normalizer
    return base if len(pattern) == 0 else base + _radial_logdet(pattern, ctx.radial)


@dataclass(frozen=True)
class ScaledFitSpec:
    """Fixed correlation (Mercer coefficients alpha_(l,d)) with a free
    positive scaling chi of the density kernel; spectra's checkers read dim, alpha
    and chi as an int >= 1, a float array of finite entries >= 0 and a float > 0."""

    dim: int
    alpha: np.ndarray
    chi: float = 1.0

    def __post_init__(self):
        dim, chi = _integer(self.dim, "dim"), _number(self.chi, "chi")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if chi <= 0:
            raise ValueError("chi must be positive")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "alpha", _coefficients(self.alpha, "alpha"))
        object.__setattr__(self, "chi", chi)

    @classmethod
    def from_correlation(cls, spec: MercerSpectrum, chi: float = 1.0) -> "ScaledFitSpec":
        if spec.kind != "correlation":
            raise ValueError("expected a correlation spectrum")
        return cls(spec.dim, spec.values, chi)


def _fit_terms(pattern: PointPattern, spec: ScaledFitSpec):
    """(n, multiplicities, log det psi(s_ij)) of a nonempty pattern on the fit's sphere."""
    _check_sphere(pattern, spec.dim)
    if len(pattern) == 0:
        raise ValueError("cannot fit chi to an empty pattern")
    m = multiplicities(len(spec.alpha) - 1, spec.dim)
    return len(pattern), m, _radial_logdet(pattern, lambda s: _radial(spec.alpha, spec.dim, s))


@dataclass(frozen=True)
class LoglikTriple:
    loglik: float
    score: float
    information: float


def _profile(alpha: np.ndarray, m: np.ndarray, n: int, zeta: float, logdet: float):
    """Log-likelihood n zeta + logdet - sum m log(1 + alpha e^zeta), score
    and information at zeta, where logdet = log det(psi(s_ij))."""
    ax = alpha * math.exp(zeta)
    return (
        n * zeta + logdet - float(np.sum(m * np.log1p(ax))),
        n - float(np.sum(m * ax / (1.0 + ax))),
        float(np.sum(m * ax / (1.0 + ax) ** 2)),
    )


def loglik_score_info(pattern: PointPattern, spec: ScaledFitSpec) -> LoglikTriple:
    """Log-likelihood, score, and observed information at zeta = ln chi."""
    n, m, logdet = _fit_terms(pattern, spec)
    return LoglikTriple(*_profile(spec.alpha, m, n, math.log(spec.chi), logdet))


@dataclass(frozen=True)
class FitResult:
    chi: float
    zeta: float
    loglik: float
    score: float
    information: float
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return asdict(self)


def newton_mle(pattern: PointPattern, spec: ScaledFitSpec, zeta0: float = 0.0) -> FitResult:
    """Maximum likelihood estimate of chi by safeguarded Newton-Raphson.

    The score is strictly decreasing in zeta, so its root is unique; it
    exists when 0 < n < sum of multiplicities over levels with
    alpha > 0.  Newton steps get step-halving when the likelihood drops
    and bisection when they leave the running sign bracket.  The fit stops
    once |score| < NEWTON_TOL and raises RuntimeError when that takes more
    than NEWTON_MAX_ITERATIONS steps.  zeta0 must be a finite number with
    exp(zeta0) finite, or ValueError names it.
    """
    zeta = _number(zeta0, "zeta0")
    if zeta > _LOG_FLOAT_MAX:
        raise ValueError(f"zeta0 must be finite with exp(zeta0) finite, got {zeta0!r}")
    n, m, psi_logdet = _fit_terms(pattern, spec)
    m_total = float(np.sum(m[spec.alpha > 0]))
    if n >= m_total:
        raise ValueError(
            f"score has no root: need n < sum of multiplicities with alpha > 0 "
            f"({n} >= {m_total:.0f}); represent more levels"
        )
    lo, hi = -math.inf, math.inf  # score > 0 at lo, < 0 at hi
    loglik, sc, info = _profile(spec.alpha, m, n, zeta, psi_logdet)
    it = 0
    while abs(sc) >= NEWTON_TOL and it < NEWTON_MAX_ITERATIONS:
        it += 1
        if sc > 0:
            lo = max(lo, zeta)
        else:
            hi = min(hi, zeta)
        cand = zeta + sc / info if info > 0 else math.inf
        if not math.isfinite(cand):
            cand = zeta + math.copysign(1.0, sc)
        if not lo < cand < hi:
            # Newton never crosses the side it just updated, so both
            # bracket ends are finite whenever this triggers
            cand = 0.5 * (lo + hi)
        # step halving on likelihood decrease
        step = _profile(spec.alpha, m, n, cand, psi_logdet)
        halvings = 0
        while step[0] < loglik - 1e-13 * max(1.0, abs(loglik)) and halvings < 60:
            cand = 0.5 * (zeta + cand)
            step = _profile(spec.alpha, m, n, cand, psi_logdet)
            halvings += 1
        zeta = cand
        loglik, sc, info = step
    converged = abs(sc) < NEWTON_TOL
    if not converged:
        raise RuntimeError(f"Newton-Raphson did not converge in {NEWTON_MAX_ITERATIONS} iterations")
    return FitResult(math.exp(zeta), zeta, loglik, sc, info, it, converged)

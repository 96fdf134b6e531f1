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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import multiplicities
from .spectra import MercerSpectrum, eval_radial_series, to_density_kernel
from .sphere import PointPattern, surface_measure


@dataclass(frozen=True)
class DensityContext:
    """Everything needed to evaluate the DPP density: the density-kernel
    spectrum, its log-normalizer D, and the radial evaluator C~_0."""

    density: MercerSpectrum

    def __post_init__(self):
        if self.density.kind != "density-kernel":
            raise ValueError("DensityContext needs a density-kernel spectrum")

    @classmethod
    def from_kernel(cls, spec: MercerSpectrum) -> "DensityContext":
        return cls(to_density_kernel(spec))

    @property
    def dim(self) -> int:
        return self.density.dim

    @property
    def log_normalizer(self) -> float:
        """D = sum m_(l,d) log(1 + lambda~_(l,d)) >= 0."""
        m = self.density.mults
        return float(np.sum(m * np.log1p(self.density.values)))

    def radial(self, s):
        """C~_0(s) = sum_l lambda~_l m_l / sigma_d * normalized Gegenbauer."""
        coeffs = self.density.values * self.density.mults / surface_measure(self.dim)
        return eval_radial_series(coeffs, self.dim, s)


def _chol_logdet(mat: np.ndarray) -> float:
    """log det of a symmetric matrix via Cholesky; -inf when not PD
    (a non-positive pivot is the feasibility boundary, not an error)."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return -math.inf
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _radial_logdet(pattern: PointPattern, radial) -> float:
    """log det of radial(s(x_i, x_j)), evaluated once per pair on the
    pattern's upper-triangle distances and mirrored."""
    upper = np.triu_indices(len(pattern))
    mat = np.empty((len(pattern),) * 2)
    mat[upper] = mat.T[upper] = radial(pattern.upper_distances)
    return _chol_logdet(mat)


def log_density(pattern: PointPattern, ctx: DensityContext) -> float:
    """log f of a point configuration; the empty pattern gives
    sigma_d - D, and infeasible configurations give -inf."""
    if pattern.dim != ctx.dim:
        raise ValueError("pattern dimension does not match the density context")
    sigma = surface_measure(ctx.dim)
    base = sigma - ctx.log_normalizer
    if len(pattern) == 0:
        return base
    return base + _radial_logdet(pattern, ctx.radial)


@dataclass(frozen=True)
class ScaledFitSpec:
    """Fixed correlation (Mercer coefficients alpha_(l,d)) with a free
    positive scaling chi of the density kernel."""

    dim: int
    alpha: np.ndarray
    chi: float = 1.0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if np.any(alpha < 0):
            raise ValueError("Mercer coefficients must be nonnegative")
        if self.chi <= 0:
            raise ValueError("chi must be positive")
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def from_correlation(cls, spec: MercerSpectrum, chi: float = 1.0) -> "ScaledFitSpec":
        if spec.kind != "correlation":
            raise ValueError("expected a correlation spectrum")
        return cls(spec.dim, spec.values, chi)

    def with_chi(self, chi: float) -> "ScaledFitSpec":
        return ScaledFitSpec(self.dim, self.alpha, chi)


def _psi_logdet(pattern: PointPattern, spec: ScaledFitSpec) -> float:
    sigma = surface_measure(spec.dim)
    beta = spec.alpha * multiplicities(len(spec.alpha) - 1, spec.dim) / sigma
    return _radial_logdet(pattern, lambda s: eval_radial_series(beta, spec.dim, s))


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
    n = len(pattern)
    if n == 0:
        raise ValueError("the likelihood in chi requires a nonempty pattern")
    m = multiplicities(len(spec.alpha) - 1, spec.dim)
    logdet = _psi_logdet(pattern, spec)
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
        return {
            "chi": self.chi,
            "zeta": self.zeta,
            "loglik": self.loglik,
            "score": self.score,
            "information": self.information,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def newton_mle(
    pattern: PointPattern,
    spec: ScaledFitSpec,
    tol: float = 1e-10,
    max_iter: int = 100,
    zeta0: float = 0.0,
) -> FitResult:
    """Maximum likelihood estimate of chi by safeguarded Newton-Raphson.

    The score is strictly decreasing in zeta, so its root is unique; it
    exists when 0 < n < sum of multiplicities over levels with
    alpha > 0.  Newton steps get step-halving when the likelihood drops
    and bisection when they leave the running sign bracket.
    """
    n = len(pattern)
    if n == 0:
        raise ValueError("cannot fit chi to an empty pattern")
    m = multiplicities(len(spec.alpha) - 1, spec.dim)
    m_total = float(np.sum(m[spec.alpha > 0]))
    if n >= m_total:
        raise ValueError(
            f"score has no root: need n < sum of multiplicities with alpha > 0 "
            f"({n} >= {m_total:.0f}); represent more levels"
        )
    psi_logdet = _psi_logdet(pattern, spec)
    zeta = float(zeta0)
    lo, hi = -math.inf, math.inf  # score > 0 at lo, < 0 at hi
    loglik, sc, info = _profile(spec.alpha, m, n, zeta, psi_logdet)
    it = 0
    while abs(sc) >= tol and it < max_iter:
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
    converged = abs(sc) < tol
    if not converged:
        raise RuntimeError(f"Newton-Raphson did not converge in {max_iter} iterations")
    return FitResult(math.exp(zeta), zeta, loglik, sc, info, it, converged)

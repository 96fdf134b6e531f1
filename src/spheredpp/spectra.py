"""Coefficient sequences for isotropic correlation functions on S^d.

Three equivalent representations are handled, together with all maps
between them:

  * Schoenberg coefficients beta_l of psi(s) = sum_l beta_l cos^l(s),
    valid on every sphere;
  * d-Schoenberg coefficients beta_(l,d) of the normalized Gegenbauer
    expansion on a fixed S^d;
  * Mercer (spectral) coefficients per level: alpha_(l,d) for a
    correlation, lambda_(l,d) for a DPP kernel (eigenvalues carry
    multiplicity m_(l,d)), and lambda~_(l,d) for the density kernel.

The links are alpha = sigma_d beta / m, lambda = eta beta / m, and
lambda~ = lambda / (1 - lambda).

Public constructors here, in ``models`` and in ``likelihood`` read every
number through ``_number``, ``_integer`` or ``_coefficients``, which raise
ValueError naming the field.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma

import numpy as np

from .harmonics import gegenbauer_rows, multiplicities
from .sphere import surface_measure


def _number(value, name: str, interval: str | None = None) -> float:
    """``value`` as a finite float; anything else raises ValueError naming ``name``,
    as a value outside ``interval`` does ("(0, 1)", "[0, inf)": brackets mark the
    closed ends), NaN and inf included."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer past the double range
        x = math.inf if value > 0 else -math.inf
    text = interval or "(-inf, inf)"
    low, high = (float(end) for end in text[1:-1].split(","))
    if math.isfinite(x) and (low <= x if text[0] == "[" else low < x) and (x <= high if text[-1] == "]" else x < high):
        return x
    if real and interval:
        raise ValueError(f"{name} must lie in {interval}, got {x!r}")
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _integer(value, name: str) -> int:
    """``value`` as an int (integral floats allowed); else ValueError naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _coefficients(values, name: str) -> np.ndarray:
    """``values`` as a 1-d float array of finite entries, each >= -1e-12 (roundoff)
    and clamped at 0; anything else raises ValueError naming ``name``."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a 1-d sequence of numbers, got {arr.ndim}-d {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {float(arr[~np.isfinite(arr)][0])!r}")
    if np.any(arr < -1e-12):
        raise ValueError(f"{name} must be nonnegative, got {float(arr.min())!r}")
    return np.maximum(arr, 0.0, dtype=float)


class ExistenceError(ValueError):
    """The requested spectrum falls outside [0, 1]: no such DPP exists."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Series truncation contract: hard level cap (an int >= 0, read by ``_integer``)
    and the tail's largest share of the count (a float in (0, 1), read by ``_number``)."""

    max_level: int = 4096
    tail_tol: float = 1e-6

    def __post_init__(self):
        max_level = _integer(self.max_level, "trunc.max_level")
        if max_level < 0:
            raise ValueError(f"trunc.max_level must be >= 0, got {max_level}")
        object.__setattr__(self, "max_level", max_level)
        object.__setattr__(self, "tail_tol", _number(self.tail_tol, "trunc.tail_tol", "(0, 1)"))


class _Sequence:
    """What the sequence kinds share.  Building one reads ``dim``, where the kind
    has one, as an integer >= 1, ``values`` through ``_coefficients`` and
    ``tail_bound`` as a finite number >= 0."""

    def __post_init__(self):
        if hasattr(self, "dim"):
            dim = _integer(self.dim, "dim")
            if dim < 1:
                raise ValueError("dimension must be >= 1")
            object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", _coefficients(self.values, "values"))
        object.__setattr__(self, "tail_bound", _number(self.tail_bound, "tail_bound", "[0, inf)"))

    def __len__(self):
        return len(self.values)

    def to_json(self) -> dict:
        dim = {"dim": self.dim} if hasattr(self, "dim") else {}
        return {"kind": self.kind, **dim, "values": self.values.tolist(), "tail_bound": self.tail_bound}


@dataclass(frozen=True)
class SchoenbergSeq(_Sequence):
    """Nonnegative cos^l expansion weights summing to 1 up to the tail; ``_Sequence`` reads them."""

    kind = "schoenberg"
    values: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        gap = 1.0 - float(np.sum(self.values))
        if gap < -1e-9 or gap > self.tail_bound + 1e-9:
            raise ValueError(
                f"coefficients must sum to 1 within the declared tail "
                f"(sum={np.sum(self.values)}, tail_bound={self.tail_bound})"
            )


@dataclass(frozen=True)
class DSchoenbergSeq(_Sequence):
    """d-Schoenberg probability masses beta_(l,d) on a fixed S^d, read by ``_Sequence``.

    tail_bound bounds the mass past the last level; as a bound it may exceed
    1 - sum(values), so only the represented mass is checked against 1.
    """

    kind = "d-schoenberg"
    dim: int
    values: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if float(np.sum(self.values)) > 1.0 + 1e-9:
            raise ValueError("total mass exceeds 1")


VALID_KINDS = ("correlation", "kernel", "density-kernel")


@dataclass(frozen=True)
class MercerSpectrum(_Sequence):
    """Per-level Mercer coefficients with multiplicities m_(l,d), read by ``_Sequence``.

    kind = "kernel" holds DPP eigenvalues lambda_(l,d) in [0, 1];
    kind = "correlation" holds alpha_(l,d) >= 0;
    kind = "density-kernel" holds lambda~_(l,d) >= 0.
    tail_bound bounds sum m_(l,d) * value past the last level, for every kind.
    """

    dim: int
    kind: str
    values: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}")
        super().__post_init__()
        if self.kind == "kernel":
            if np.any(self.values > 1.0 + 1e-12):
                raise ExistenceError(
                    f"kernel eigenvalues must lie in [0, 1]; max is {self.values.max()}"
                )
            object.__setattr__(self, "values", np.minimum(self.values, 1.0))

    @property
    def mults(self) -> np.ndarray:
        return multiplicities(len(self.values) - 1, self.dim)

    @property
    def eta(self) -> float:
        """Expected point count sum_l m_(l,d) lambda_(l,d) (kernel kind)."""
        return float(np.sum(self.mults * self.values))

    @property
    def count_variance(self) -> float:
        """Var(#X) = sum_l m_(l,d) lambda_l (1 - lambda_l) (kernel kind)."""
        if self.kind != "kernel":
            raise ValueError("count variance is defined for kernel spectra")
        return float(np.sum(self.mults * self.values * (1.0 - self.values)))


def sequence_from_json(data) -> SchoenbergSeq | DSchoenbergSeq | MercerSpectrum:
    """Rebuild any serialized sequence kind from its dict or JSON text."""
    if isinstance(data, str):
        data = json.loads(data)
    kind, values, tail = data["kind"], data["values"], data.get("tail_bound", 0.0)
    if kind == "schoenberg":
        return SchoenbergSeq(values, tail)
    if kind == "d-schoenberg":
        return DSchoenbergSeq(data["dim"], values, tail)
    if kind in VALID_KINDS:
        return MercerSpectrum(data["dim"], kind, values, tail)
    raise ValueError(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# Schoenberg -> d-Schoenberg conversion
# ---------------------------------------------------------------------------


def conversion_weight(n: int, ell: int, dim: int) -> float:
    """Weight gamma_(n,l)^(d) of cos^l in the level-n d-Schoenberg mass.

    Requires l >= n with l - n even (zero otherwise).  d=1 comes from
    the cosine power-reduction formula; d >= 2 from the Gegenbauer
    expansion of x^l.  Evaluated in log space so large l is safe.
    """
    if ell < n or (ell - n) % 2 != 0:
        return 0.0
    if dim == 1:
        fac = 1.0 if (n == 0 and ell % 2 == 0) else 2.0
        if ell <= 60:
            return fac * comb(ell, (ell - n) // 2) / 2.0**ell
        return fac * math.exp(
            lgamma(ell + 1)
            - lgamma((ell - n) // 2 + 1)
            - lgamma((ell + n) // 2 + 1)
            - ell * math.log(2.0)
        )
    log_g = (
        math.log(2.0 * n + dim - 1.0)
        + lgamma(ell + 1)
        + lgamma((dim - 1) / 2.0)
        - (ell + 1) * math.log(2.0)
        - lgamma((ell - n) // 2 + 1)
        - lgamma((ell + n + dim + 1) / 2.0)
    )
    return comb(n + dim - 2, n) * math.exp(log_g)


def schoenberg_to_d(seq: SchoenbergSeq, dim: int, n_max: int) -> DSchoenbergSeq:
    """d-Schoenberg masses beta_(n,d) = sum_{l>=n, l=n mod 2} beta_l gamma_(n,l)^(d).

    Finite input sequences give exact finite sums.  Mass omitted by the
    level cap n_max, plus the input's own tail, is carried into the
    output tail bound (the weights at fixed l sum to 1 over n).
    """
    beta = seq.values
    L = len(beta) - 1
    out = np.zeros(n_max + 1)
    for n in range(min(n_max, L) + 1):
        ells = np.arange(n, L + 1, 2)
        if len(ells) == 0:
            continue
        weights = np.array([conversion_weight(n, int(ell), dim) for ell in ells])
        out[n] = float(np.dot(beta[ells], weights))
    tail = max(0.0, 1.0 - float(np.sum(out)))
    tail = min(tail, 1.0)
    return DSchoenbergSeq(dim, out, tail_bound=tail)


# ---------------------------------------------------------------------------
# Quadrature inversion psi -> d-Schoenberg
# ---------------------------------------------------------------------------


_QUAD_TOL = 1e-11  # agreement of the two rules' estimates, sup over levels
_QUAD_ORDERS = (20, 28)  # Gauss-Legendre nodes per sub-panel of the two rules


@lru_cache(maxsize=8)
def _panel_rule(n_max: int, m: int):
    """Composite Gauss-Legendre nodes (ascending) and weights on [0, pi].

    The panel edges 0, pi 0.15^20, pi 0.15^19, ..., pi 0.15, pi are graded
    geometrically toward s = 0: the hp rule for an endpoint algebraic
    singularity (Schwab 1994), which resolves psi ~ 1 - C s^(2 nu) there.
    Each panel is cut into equal sub-panels of width at most (m - 8) / n_max,
    so that cos(n_max s) stays far inside what m nodes integrate, and each
    sub-panel takes the m-point rule of ``numpy.polynomial.legendre``.
    """
    from numpy.polynomial.legendre import leggauss

    bounds = np.concatenate([[0.0], math.pi * 0.15 ** np.arange(20, -1, -1)])
    counts = np.ceil(np.diff(bounds) * max(n_max, 1) / (m - 8)).astype(int)
    starts = [np.linspace(a, b, k, endpoint=False) for a, b, k in zip(bounds, bounds[1:], counts)]
    edges = np.concatenate([*starts, [math.pi]])
    x, w = leggauss(m)
    half = np.diff(edges)[:, None] / 2.0
    rule = (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()
    for a in rule:
        a.flags.writeable = False  # cached: every call shares these arrays
    return rule


def _inversion_prefactor(ell: int, dim: int) -> float:
    """Constant in front of the Gegenbauer inversion integral (d >= 2)."""
    return (
        (2.0 * ell + dim - 1.0)
        / (2.0 ** (3 - dim) * math.pi)
        * math.gamma((dim - 1) / 2.0) ** 2
        / math.gamma(dim - 1.0)
    )


def d_schoenberg_from_psi(psi, dim: int, n_max: int) -> DSchoenbergSeq:
    """Numerically invert a correlation psi on [0, pi] into beta_(l,d).

    d=1 uses the cosine transform
        beta_(0,1) = (1/pi) int psi,  beta_(l,1) = (2/pi) int cos(l s) psi(s) ds;
    d>=2 uses the Gegenbauer inversion with the sin^(d-1) weight.  Both
    reduce each level of ``gegenbauer_rows`` against psi sin^(d-1) w as it
    is produced and differ only in the prefactor.  The integrals run in
    the s variable, where every integrand is smooth (on x = cos s the d=1
    transform has an endpoint singularity and odd d picks up sqrt
    factors).  psi must accept numpy arrays and be smooth on (0, pi); near
    s = 0 it may behave like 1 - C s^a, a > 0, which the graded panels
    resolve.  A kink inside (0, pi) may raise QuadratureError.

    Two composite Gauss-Legendre rules (``_panel_rule`` at the orders
    _QUAD_ORDERS) give two estimates.  The second is kept if they agree
    within _QUAD_TOL at every level; otherwise QuadratureError is raised.
    The same rules serve every d.  Coefficients below -1e-8 mean psi is not a
    valid correlation on S^d and raise; values in [-1e-8, 0) are treated as
    roundoff and clamped.  The recorded tail is 1 - sum(values), which
    rounds and carries the quadrature's own error: an estimate of the mass
    past n_max, not a bound.
    """
    lam = (dim - 1) / 2.0
    if dim == 1:
        pref = np.full(n_max + 1, 2.0 / math.pi)
        pref[0] = 1.0 / math.pi
    else:
        pref = np.array([_inversion_prefactor(ell, dim) for ell in range(n_max + 1)])

    estimates = []
    for m in _QUAD_ORDERS:
        s, w = _panel_rule(n_max, m)
        ps = psi(s) * np.sin(s) ** (dim - 1) * w
        estimates.append(pref * np.array([row @ ps for row in gegenbauer_rows(n_max, lam, s)]))
    coarse, coefs = estimates
    gap = float(np.max(np.abs(coefs - coarse)))
    if not gap < _QUAD_TOL:
        raise QuadratureError(
            f"coefficient quadrature did not converge: the {_QUAD_ORDERS[0]}- and "
            f"{_QUAD_ORDERS[1]}-node panel rules differ by {gap:.3e} > {_QUAD_TOL:g}"
        )
    if np.any(coefs < -1e-8):
        worst = float(coefs.min())
        raise ValueError(
            f"negative d-Schoenberg coefficient {worst:.3e}: psi is not a valid "
            f"correlation on S^{dim}"
        )
    coefs = np.maximum(coefs, 0.0)
    tail = min(1.0, max(0.0, 1.0 - float(np.sum(coefs))))
    return DSchoenbergSeq(dim, coefs, tail_bound=tail)


# ---------------------------------------------------------------------------
# Mercer maps
# ---------------------------------------------------------------------------


def correlation_mercer(beta_d: DSchoenbergSeq) -> MercerSpectrum:
    """Mercer coefficients alpha_(l,d) = sigma_d beta_(l,d) / m_(l,d)."""
    sigma = surface_measure(beta_d.dim)
    alpha = sigma * beta_d.values / multiplicities(len(beta_d) - 1, beta_d.dim)
    return MercerSpectrum(beta_d.dim, "correlation", alpha, sigma * beta_d.tail_bound)


def mercer_from_d(beta_d: DSchoenbergSeq, eta: float) -> MercerSpectrum:
    """Kernel eigenvalues lambda_(l,d) = eta beta_(l,d) / m_(l,d).

    Raises ExistenceError when some eigenvalue exceeds 1, i.e. when the
    intensity is above rho_max.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    m = multiplicities(len(beta_d) - 1, beta_d.dim)
    lam = eta * beta_d.values / m
    if np.any(lam > 1.0 + 1e-12):
        bound = rho_max(beta_d)
        raise ExistenceError(
            f"eta={eta} exceeds the existence bound eta_max="
            f"{bound.value * surface_measure(beta_d.dim):.6g} for this correlation"
        )
    return MercerSpectrum(
        beta_d.dim, "kernel", np.minimum(lam, 1.0), tail_bound=eta * beta_d.tail_bound
    )


def beta_from_kernel(spec: MercerSpectrum) -> DSchoenbergSeq:
    """Normalized correlation masses beta_(l,d) = lambda m / eta."""
    if spec.kind != "kernel":
        raise ValueError("expected a kernel spectrum")
    eta = spec.eta
    if eta <= 0:
        raise ValueError("spectrum has eta = 0")
    beta = spec.values * spec.mults / (eta + spec.tail_bound)
    return DSchoenbergSeq(
        spec.dim, beta, tail_bound=spec.tail_bound / (eta + spec.tail_bound)
    )


@dataclass(frozen=True)
class RhoMax:
    """Intensity bound; prefix_infimum marks an infimum over represented
    levels only (no closed tail bound is available in general)."""

    value: float
    prefix_infimum: bool = False

    def __float__(self):
        return self.value


def rho_max(beta_d: DSchoenbergSeq) -> RhoMax:
    """Largest intensity rho with all eigenvalues <= 1.

    rho_max = inf over l with beta_(l,d) > 0 of m_(l,d) / (sigma_d beta_(l,d)).
    When psi >= 0, alpha_(0,d) is the largest eigenvalue, so the infimum is
    m_(0,d) / (sigma_d beta_(0,d)).
    """
    vals = beta_d.values
    pos = np.nonzero(vals > 0.0)[0]
    if len(pos) == 0:
        raise ValueError("all coefficients are zero")
    m = multiplicities(len(vals) - 1, beta_d.dim)
    ratios = m[pos] / (surface_measure(beta_d.dim) * vals[pos])
    return RhoMax(float(np.min(ratios)), prefix_infimum=beta_d.tail_bound > 0.0)


def to_density_kernel(spec: MercerSpectrum) -> MercerSpectrum:
    """Map kernel eigenvalues to density-kernel ones: lambda~ = lambda/(1-lambda)."""
    if spec.kind != "kernel":
        raise ValueError("expected a kernel spectrum")
    if np.any(spec.values >= 1.0):
        raise ExistenceError(
            "density kernel requires spec(C) in [0, 1); some eigenvalue is 1"
        )
    lam = spec.values
    return MercerSpectrum(spec.dim, "density-kernel", lam / (1.0 - lam), spec.tail_bound)


def from_density_kernel(spec: MercerSpectrum) -> MercerSpectrum:
    """Inverse map lambda = lambda~ / (1 + lambda~)."""
    if spec.kind != "density-kernel":
        raise ValueError("expected a density-kernel spectrum")
    lt = spec.values
    return MercerSpectrum(spec.dim, "kernel", lt / (1.0 + lt), spec.tail_bound)


# ---------------------------------------------------------------------------
# Series evaluation
# ---------------------------------------------------------------------------


def eval_radial_series(coeffs, dim: int, s):
    """sum_l c_l R_l(cos s) at distances s, with R_l = C_l^(lam) / C_l^(lam)(1)
    and lam = (d-1)/2 (R_l(cos s) = cos(l s) on S^1).

    Every d is summed as a cosine series.  For d >= 2 the coefficients are
    first mapped, once per call, through DLMF 18.5.11,
    C_n^(lam)(cos s) = sum_k g_k g_(n-k) cos((n-2k) s) with g_k = (lam)_k / k!,
    to

        a_j = eps_j sum_p c_(2p+j) g_p g_(p+j) / h_(2p+j),   h_n = (2 lam)_n / n!,

    with eps_0 = 1 and eps_j = 2 for j > 0, in np.longdouble (an O(L^2)
    map of positive weights: R_n is a convex combination of cosines, so
    sum_j |a_j| <= sum_l |c_l|).  ``_cosine_series`` then tabulates the
    first P Taylor terms of sum_j a_j cos(j s) at the nodes of a uniform
    grid, one FFT per term, and reads each s off its nearest node by
    Horner's rule; the grid is chosen so that the Taylor remainder is
    certified below 2^-53 sum_(j>=1) |a_j|.  The series is even and
    2 pi-periodic, so every real s is accepted, and NaN gives NaN.  The cost
    per point does not depend on the level count; memory is the P-row table,
    which grows with the levels, plus a fixed number of arrays of s.size.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    arr = np.asarray(s, dtype=float)
    flat = arr.reshape(-1)
    if len(coeffs) == 0 or flat.size == 0:
        out = np.zeros(arr.shape)
        return float(out) if arr.ndim == 0 else out
    if dim > 1:
        coeffs = _cosine_coefficients(coeffs, (dim - 1) / 2.0)
    out = _cosine_series(coeffs, flat)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _cosine_coefficients(coeffs: np.ndarray, lam: float) -> np.ndarray:
    """Cosine coefficients a_j of sum_l c_l C_l^(lam)(cos s) / C_l^(lam)(1), lam > 0
    (see ``eval_radial_series``), accumulated in np.longdouble and rounded once."""
    ext = np.longdouble
    n_top = len(coeffs) - 1
    k = np.arange(1, n_top + 1, dtype=ext)
    g = np.ones(n_top + 1, dtype=ext)  # (lam)_k / k!
    g[1:] = np.cumprod((k - 1 + ext(lam)) / k)
    h = np.ones(n_top + 1, dtype=ext)  # (2 lam)_n / n! = C_n^(lam)(1)
    h[1:] = np.cumprod((k - 1 + 2 * ext(lam)) / k)
    u = coeffs.astype(ext) / h
    a = np.zeros(n_top + 1, dtype=ext)
    for p in range(n_top // 2 + 1):  # the terms n = 2p + j, k = p for every j
        m = n_top - 2 * p + 1
        a[:m] += g[p] * u[2 * p :] * g[p : p + m]
    a[1:] *= 2
    return a.astype(float)


_ORDER = 12  # P, the Taylor terms tabulated at each grid node
_BLOCK = 16384  # points per pass
_PI_TAIL = 1.2246467991473532e-16  # pi - math.pi


def _grid_size(a: np.ndarray) -> int:
    """Smallest power of two M > L = len(a) - 1 with

        (1/2)^P / P! sum_(j>=1) |a_j| (j pi / M)^P <= 2^-53 sum_(j>=1) |a_j|.

    The left side bounds the remainder of the P-term Taylor polynomial of
    f(s) = sum_(j>=1) a_j cos(j s) at a grid node, within half a step pi / M
    of it, because |f^(P)| <= sum_j |a_j| j^P."""
    mag = np.abs(a[1:])
    moment = float(mag @ np.arange(1, len(a), dtype=float) ** _ORDER)
    budget = 2.0**-53 * float(np.sum(mag)) * math.factorial(_ORDER)
    grid = 1 << (len(a) - 1).bit_length()
    while moment * (0.5 * math.pi / grid) ** _ORDER > budget:
        grid *= 2
    return grid


def _split_pi(bits: int) -> tuple[float, float]:
    """(hi, lo) with hi + lo = pi to about 2^-(52 + bits) relative and hi cut
    to ``bits`` significant bits, so that k hi is exact for integers
    k <= 2^(53 - bits) (Cody and Waite)."""
    exp = math.frexp(math.pi)[1]
    hi = math.ldexp(math.floor(math.ldexp(math.pi, bits - exp)), exp - bits)
    return hi, (math.pi - hi) + _PI_TAIL


def _cosine_series(a: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """sum_j a_j cos(j s) at the points of the 1-d array ``flat``, as a new array.

    f(s) = sum_(j>=1) a_j cos(j s) is a trigonometric polynomial, and so is
    each derivative f^(p).  With M from ``_grid_size`` and h = pi / M, row p
    of a (P, M + 1) table holds h^p / p! f^(p)(k h) at the nodes k = 0 .. M,
    each row one real FFT of length 2M whose spectrum is a_j (i j h)^p / p!.
    f is even and 2 pi-periodic: each s outside [0, pi] is taken as
    |s - n 2 pi| for the nearest integer n.  Each point then takes its
    nearest node k and its offset u = (s - k h) / h, |u| <= 1/2, and is read
    off as the Taylor polynomial sum_p row_p[k] u^p by Horner's rule, whose
    remainder M certifies below 2^-53 sum_(j>=1) |a_j|.  Both s - n 2 pi and
    s - k h are taken with pi split in two (``_split_pi``), so they keep the
    digits of s for |s| < 2^20 2 pi.  NaN goes to node M and stays NaN in u.
    a_0 is added last, so a constant series is exact.  This is the Taylor
    form of the non-equispaced FFT (Anderson and Dahleh 1996; Dutt and
    Rokhlin 1993).  Points are read in blocks of _BLOCK, and each step is
    elementwise, so a point's value does not depend on the other points:
    memory is the table, the result and a fixed number of block-sized arrays.
    """
    if not np.any(a[1:]):
        return np.full(flat.size, a[0])
    grid = _grid_size(a)
    table = np.empty((_ORDER, grid + 1))
    spec = np.zeros(grid + 1, dtype=complex)
    spec.real[1 : len(a)] = a[1:] * grid  # irfft divides by 2 grid; a cosine is two exponentials
    rotate = 1j * (math.pi / grid) * np.arange(1, len(a))
    for p in range(_ORDER):
        if p:
            spec[1 : len(a)] *= rotate / p
        table[p] = np.fft.irfft(spec, 2 * grid)[: grid + 1]
    del spec
    scale = grid / math.pi
    pi_hi, pi_lo = _split_pi(53 - (grid - 1).bit_length())  # node * step_hi is exact, node <= grid
    step_hi, step_lo = pi_hi / grid, pi_lo / grid
    if not (flat.min() >= 0.0 and flat.max() <= math.pi):
        turn_hi, turn_lo = _split_pi(33)  # 2 turn_hi is exact times any n < 2^20
        flat = np.abs(flat)
        turns = np.rint(flat / (2.0 * math.pi))
        flat -= turns * (2.0 * turn_hi)
        flat -= turns * (2.0 * turn_lo)
        np.abs(flat, out=flat)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK):
        s = flat[start : start + _BLOCK]
        res = out[start : start + _BLOCK]
        node = s * scale
        np.rint(node, out=node)
        np.fmin(node, grid, out=node)  # s >= 0 here; NaN goes to node M and stays NaN in u
        u = s - node * step_hi
        u -= node * step_lo
        u *= scale  # the offset in steps, in [-1/2, 1/2] up to rounding
        node = node.astype(np.intp)
        term = np.empty_like(u)
        # every index is in range; "clip" only spares take its buffered copy
        np.take(table[-1], node, out=res, mode="clip")
        for row in table[-2::-1]:
            res *= u
            np.take(row, node, out=term, mode="clip")
            res += term
    out += a[0]
    return out


def eval_psi_series(beta_d: DSchoenbergSeq, s):
    """Evaluate the truncated correlation psi(s) from its d-Schoenberg masses."""
    return eval_radial_series(beta_d.values, beta_d.dim, s)

"""Parametric isotropic model families and their coefficient representations.

Families (radial correlation psi, or a direct spectrum):

  * multiquadric: psi(s) = ((1-delta)^2 / (1+delta^2-2 delta cos s))^tau,
    the negative-binomial Schoenberg family with p = 2 delta/(1+delta^2);
  * spectral: eigenvalues lambda_(l,d) = 1/(1 + beta exp((l/alpha)^kappa));
  * most_repulsive: eigenvalues filled to 1 level by level until the
    target expected count eta is reached;
  * matern: psi(s) = 2^(1-nu)/Gamma(nu) (s/c)^nu K_nu(s/c), nu in (0, 1/2];
  * circular_matern (d=1): lambda_(l,1) = sigma^2 / (alpha^2 + l^2)^(nu+1/2);
  * askey / c2_wendland / c4_wendland / spherical: compactly supported
    correlations with closed-form 1-Schoenberg coefficients (spherical:
    numeric only).

A DPP is specified either through its kernel C_0 = rho * psi with
rho <= rho_max ("kernel" mode) or through the density kernel
C~_0 = chi * psi with any chi > 0 ("density" mode).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .harmonics import multiplicities, multiplicity
from .spectra import (
    DSchoenbergSeq,
    ExistenceError,
    MercerSpectrum,
    QuadratureSpec,
    TruncationPolicy,
    beta_from_kernel,
    correlation_mercer,
    d_schoenberg_from_psi,
    from_density_kernel,
    mercer_from_d,
    to_density_kernel,
)
from .sphere import surface_measure

TWO_PI = 2.0 * math.pi


class TruncationError(RuntimeError):
    """The level cap was reached before the series tail fell below the
    truncation tolerance."""


# ---------------------------------------------------------------------------
# Multiquadric
# ---------------------------------------------------------------------------


def multiquadric_psi(tau: float, delta: float):
    """Closed-form radial correlation of the multiquadric family."""
    _check_multiquadric(tau, delta)

    def psi(s):
        s = np.asarray(s, dtype=float)
        return ((1.0 - delta) ** 2 / (1.0 + delta * delta - 2.0 * delta * np.cos(s))) ** tau

    return psi


def _check_multiquadric(tau, delta):
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def multiquadric_beta0_s2(tau: float, delta: float) -> float:
    """Closed-form maximal 2-Schoenberg coefficient beta_(0,2)."""
    _check_multiquadric(tau, delta)
    if tau == 1.0:
        return (1.0 - delta) ** 2 / (2.0 * delta) * math.log((1.0 + delta) / (1.0 - delta))
    return (
        (1.0 - delta) ** (2.0 * tau)
        / (4.0 * delta * (1.0 - tau))
        * ((1.0 + delta) ** (2.0 * (1.0 - tau)) - (1.0 - delta) ** (2.0 * (1.0 - tau)))
    )


def truncate_levels(levels, counts, trunc: TruncationPolicy):
    """(values of levels 0..L, tail_L) for the smallest L with
    tail_L <= tail_tol * (represented_L + tail_L), in expected points.

    ``levels(n)`` gives the values of levels 0..n, and ``counts(values)`` their
    expected counts and, per level, an upper bound on the count past it (inf
    where none holds).  The level count doubles from 64 up to max_level;
    reaching it first raises TruncationError.
    """
    n_max = min(64, trunc.max_level)
    while True:
        values = levels(n_max)
        terms, tails = counts(values)
        represented = np.cumsum(terms)
        cut = np.flatnonzero(np.isfinite(tails) & (tails <= trunc.tail_tol * (represented + tails)))
        if len(cut):
            return values[: cut[0] + 1], float(tails[cut[0]])
        if n_max == trunc.max_level:
            raise TruncationError(
                f"series tail {tails[-1]:.3g} exceeds tail_tol = {trunc.tail_tol:g} "
                f"of the expected count at max_level={trunc.max_level}"
            )
        n_max = min(2 * n_max, trunc.max_level)


def multiquadric_d_schoenberg(
    tau: float,
    delta: float,
    dim: int,
    trunc: TruncationPolicy = TruncationPolicy(),
    chi: float | None = None,
) -> DSchoenbergSeq:
    """d-Schoenberg coefficients of the multiquadric correlation.

    For tau = (d-1)/2 (d >= 2) the exact closed form
    beta_(l,d) = binom(l+d-2, l) delta^l (1-delta)^(d-1) applies; otherwise
    the closed-form psi is inverted by quadrature, and ``truncate_levels``
    cuts the series.  Kernel mode (chi None) counts eta beta, so eta cancels
    and the tail is 1 - sum beta (psi(0) = 1).  Density mode counts m lambda,
    lambda~ = chi sigma_d beta / m, with the bound chi sigma_d (1 - sum beta).
    """
    _check_multiquadric(tau, delta)
    if dim >= 2 and tau == (dim - 1) / 2.0:

        def levels(n_max):
            ells = np.arange(n_max + 1)
            binom = np.ones(n_max + 1)  # binom(l + d - 2, d - 2) = prod_j (l + j) / j
            for j in range(1, dim - 1):
                binom *= (ells + j) / j
            return binom * delta**ells * (1.0 - delta) ** (dim - 1)

    else:
        psi = multiquadric_psi(tau, delta)

        def levels(n_max):
            return d_schoenberg_from_psi(psi, dim, n_max).values

    def mass_tails(beta):
        return np.maximum(1.0 - np.cumsum(beta), 0.0)  # rounding can take it below 0

    def counts(beta):
        if chi is None:
            return beta, mass_tails(beta)
        chi_sigma = chi * surface_measure(dim)
        m = multiplicities(len(beta) - 1, dim)
        lam_tilde = chi_sigma * beta / m
        return m * (lam_tilde / (1.0 + lam_tilde)), chi_sigma * mass_tails(beta)

    values, _ = truncate_levels(levels, counts, trunc)
    return DSchoenbergSeq(dim, values, tail_bound=float(mass_tails(values)[-1]))


def multiquadric_eta_max(tau: float, delta: float, dim: int) -> float:
    """Largest expected count eta_max = 1/beta_(0,d) (psi is positive),
    from the same coefficients that resolve uses."""
    return 1.0 / float(multiquadric_d_schoenberg(tau, delta, dim).values[0])


# ---------------------------------------------------------------------------
# Flexible spectral model
# ---------------------------------------------------------------------------


def spectral_model_spectrum(
    alpha: float,
    beta: float,
    kappa: float,
    dim: int,
    trunc: TruncationPolicy = TruncationPolicy(),
) -> MercerSpectrum:
    """Kernel spectrum of the flexible spectral family.

    All eigenvalues lie strictly inside (0, 1), so the DPP always exists
    and has a density.  The series is cut by ``truncate_levels``: the tail
    of sum m*lambda is its exact suffix sum within the evaluated levels,
    plus a bound on what lies past them.
    """
    if alpha <= 0 or beta <= 0 or kappa <= 0:
        raise ValueError("alpha, beta, kappa must all be positive")

    def levels(n_max):
        with np.errstate(over="ignore"):  # lambda is 0 where exp overflows
            return 1.0 / (1.0 + beta * np.exp((np.arange(n_max + 1) / alpha) ** kappa))

    def counts(lam):
        terms = multiplicities(len(lam) - 1, dim) * lam
        # past the evaluated levels: 0 once the decreasing terms underflow, else a
        # geometric bound, valid once the term ratios are below 1 and decreasing
        beyond = 0.0 if terms[-1] == 0.0 else math.inf
        if beyond and len(terms) >= 4:
            r1, r2, r3 = terms[-3:] / terms[-4:-1]
            if r3 < 1.0 - 1e-9 and r3 <= r2 <= r1:
                beyond = terms[-1] * r3 / (1.0 - r3)
        suffix = np.cumsum(terms[::-1])[::-1]  # suffix[l] = sum of terms from l on
        return terms, np.append(suffix[1:], 0.0) + beyond

    values, tail = truncate_levels(levels, counts, trunc)
    return MercerSpectrum(dim, "kernel", values, tail_bound=tail)


# ---------------------------------------------------------------------------
# Most repulsive family
# ---------------------------------------------------------------------------


def most_repulsive_spectrum(eta: float, dim: int) -> MercerSpectrum:
    """Eigenvalues of the most repulsive DPP with expected count eta.

    lambda = 1 below the boundary level n, a fractional value at n so
    that sum m*lambda = eta, and 0 above; n is the level with
    cum(n-1) < eta <= cum(n) of cumulative multiplicities.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    values = []
    cum = 0.0
    n = 0
    while True:
        m = multiplicity(n, dim)
        if cum + m >= eta:
            values.append((eta - cum) / m)
            break
        values.append(1.0)
        cum += m
        n += 1
    return MercerSpectrum(dim, "kernel", np.array(values))


# ---------------------------------------------------------------------------
# Matern
# ---------------------------------------------------------------------------


def matern_psi(nu: float, c: float):
    """Matern correlation psi(s) = 2^(1-nu)/Gamma(nu) (s/c)^nu K_nu(s/c).

    nu is restricted to (0, 1/2], the range in which the function stays
    a valid correlation under the great-circle metric; psi(0) = 1 is
    the removable limit.  nu = 1/2 gives exp(-s/c).
    """
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"nu must lie in (0, 1/2], got {nu}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if nu == 0.5:

        def psi(s):
            return np.exp(-np.asarray(s, dtype=float) / c)

        return psi

    from scipy.special import kv  # the only scipy use at run time

    pref = 2.0 ** (1.0 - nu) / math.gamma(nu)

    def psi(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.ones_like(s)
        pos = s > 0
        z = s[pos] / c
        out[pos] = pref * z**nu * kv(nu, z)
        return out if out.shape != (1,) else float(out[0])

    return psi


def matern_d1_coefficients(c: float, n_max: int) -> DSchoenbergSeq:
    """Exact 1-Schoenberg coefficients of the exponential correlation
    (nu = 1/2): beta_(0,1) = (c/pi)(1 - e^(-pi/c)) and
    beta_(l,1) = (2/pi)(1 + (-1)^(l+1) e^(-pi/c)) c/(1 + c^2 l^2)."""
    if c <= 0:
        raise ValueError("c must be positive")
    e = math.exp(-math.pi / c)
    ells = np.arange(1, n_max + 1)
    values = np.empty(n_max + 1)
    values[0] = c / math.pi * (1.0 - e)
    values[1:] = (2.0 / math.pi) * (1.0 + (-1.0) ** (ells + 1) * e) * c / (1.0 + c * c * ells**2)
    # 1/l^2 tail of the coefficient series
    tail = (2.0 / math.pi) * (1.0 + e) / (c * n_max)
    return DSchoenbergSeq(1, values, tail_bound=min(tail, 1.0 - float(np.sum(values))))


def matern_eta_max_d1(c: float) -> float:
    """eta_max = (pi/c) / (1 - exp(-pi/c)) for nu = 1/2, d = 1."""
    return math.pi / c / (1.0 - math.exp(-math.pi / c))


def matern_d_schoenberg(
    nu: float,
    c: float,
    dim: int,
    n_max: int = 256,
    quad: QuadratureSpec = QuadratureSpec(),
) -> DSchoenbergSeq:
    """Matern d-Schoenberg coefficients; exact for nu=1/2 on S^1, else
    by quadrature.  The series decays like l^(-2 nu - d), so the
    recorded tail bound is not small for small nu."""
    if nu == 0.5 and dim == 1:
        return matern_d1_coefficients(c, n_max)
    return d_schoenberg_from_psi(matern_psi(nu, c), dim, n_max, quad)


def matern_pcf_slope(nu: float, c: float) -> float:
    """g_0'(0) of the Matern DPP: 2/c for nu = 1/2, +inf for nu < 1/2."""
    if not 0.0 < nu <= 0.5:
        raise ValueError(f"nu must lie in (0, 1/2], got {nu}")
    return 2.0 / c if nu == 0.5 else math.inf


# ---------------------------------------------------------------------------
# Circular Matern (d = 1)
# ---------------------------------------------------------------------------


def circular_matern_spectrum(
    sigma: float,
    nu: float,
    alpha: float,
    trunc: TruncationPolicy = TruncationPolicy(),
) -> MercerSpectrum:
    """Kernel spectrum lambda_(l,1) = sigma^2 / (alpha^2 + l^2)^(nu + 1/2).

    The DPP exists exactly when sigma <= alpha^(nu + 1/2) (the level-0
    eigenvalue is the largest).  The algebraic tail is bounded by
    sigma^2 L^(-2 nu) / nu and recorded, not erred on.
    """
    if sigma <= 0 or nu <= 0 or alpha <= 0:
        raise ValueError("sigma, nu, alpha must all be positive")
    if trunc.max_level < 1:
        raise ValueError(f"trunc.max_level must be >= 1 for circular_matern, got {trunc.max_level}")
    lam0 = sigma**2 / alpha ** (2.0 * nu + 1.0)
    if lam0 > 1.0 + 1e-12:
        raise ExistenceError(
            f"circular Matern DPP requires sigma <= alpha^(nu+1/2); "
            f"lambda_0 = {lam0:.6g} > 1"
        )
    L = trunc.max_level
    ells = np.arange(L + 1)
    values = np.minimum(sigma**2 / (alpha**2 + ells**2) ** (nu + 0.5), 1.0)
    tail = sigma**2 * float(L) ** (-2.0 * nu) / nu
    return MercerSpectrum(1, "kernel", values, tail_bound=tail)


# ---------------------------------------------------------------------------
# Compactly supported families (Askey, Wendland, spherical), d = 1
# ---------------------------------------------------------------------------

COMPACT_VARIANTS = ("askey", "c2_wendland", "c4_wendland", "spherical")


def _askey_base_psi(u):
    return np.where(u < 1.0, (1.0 - u) ** 3, 0.0)


def _c2w_base_psi(u):
    return np.where(u < 1.0, (1.0 - u) ** 4 * (4.0 * u + 1.0), 0.0)


def _c4w_base_psi(u):
    return np.where(u < 1.0, (1.0 - u) ** 6 * (u * (35.0 * u + 18.0) + 3.0) / 3.0, 0.0)


def _spherical_base_psi(u):
    return np.where(u < 1.0, (1.0 + u / 2.0) * (1.0 - u) ** 2, 0.0)


_BASE_PSI = {
    "askey": _askey_base_psi,
    "c2_wendland": _c2w_base_psi,
    "c4_wendland": _c4w_base_psi,
    "spherical": _spherical_base_psi,
}


# Taylor coefficients in u^2 of pi * F(u) for each closed form; the trig
# expressions cancel catastrophically below u ~ 1-2, so the series (exact
# to machine precision for u < 3) takes over there.
_ASKEY_SERIES = [
    1 / 2, -1 / 60, 1 / 3360, -1 / 302400, 1 / 39916800, -1 / 7264857600,
    1 / 1743565824000, -1 / 533531142144000, 1 / 202741834014720000,
    -1 / 93666727314800640000, 1 / 51704033477769953280000,
    -1 / 33607621760550469632000000, 1 / 25407362050976155041792000000,
]
_C2W_SERIES = [
    2 / 3, -1 / 42, 1 / 2520, -1 / 249480, 1 / 36324288, -1 / 7264857600,
    1 / 1905468364800, -1 / 633568231296000, 1 / 260185353652224000,
    -1 / 129260083694424883200, 1 / 76380958546705612800000,
    -1 / 52932004272866989670400000, 1 / 42508471123748567089152000000,
]
_C4W_SERIES = [
    16 / 27, -8 / 495, 4 / 19305, -2 / 1216215, 1 / 110270160, -1 / 26937424800,
    1 / 8485288812000, -1 / 3339432552456000, 1 / 1602927625178880000,
    -1 / 920663339625469440000, 1 / 622982193146567654400000,
    -1 / 490239064299183623424000000, 1 / 443736387342803919716352000000,
]

_SERIES_RADIUS = 3.0


def _eval_even_series(coeffs, u):
    u2 = u * u
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = acc * u2 + c
    return acc / math.pi


def _askey_base_beta(u):
    small = np.abs(u) < _SERIES_RADIUS
    u2 = u * u
    with np.errstate(divide="ignore", invalid="ignore"):
        full = 6.0 * (u2 + 2.0 * np.cos(u) - 2.0) / (math.pi * u2 * u2)
    return np.where(small, _eval_even_series(_ASKEY_SERIES, u), full)


def _c2w_base_beta(u):
    small = np.abs(u) < _SERIES_RADIUS
    u2 = u * u
    with np.errstate(divide="ignore", invalid="ignore"):
        full = 240.0 * (u2 + u * np.sin(u) + 4.0 * np.cos(u) - 4.0) / (math.pi * u2**3)
    return np.where(small, _eval_even_series(_C2W_SERIES, u), full)


def _c4w_base_beta(u):
    small = np.abs(u) < _SERIES_RADIUS
    u2 = u * u
    with np.errstate(divide="ignore", invalid="ignore"):
        full = (
            8960.0
            * (4.0 * u * (u2 - 18.0) - 3.0 * (u2 - 35.0) * np.sin(u) - 33.0 * u * np.cos(u))
            / (math.pi * u2**4 * u)
        )
    return np.where(small, _eval_even_series(_C4W_SERIES, u), full)


_BASE_BETA = {
    "askey": (_askey_base_beta, 1.0 / (4.0 * math.pi)),
    "c2_wendland": (_c2w_base_beta, 1.0 / (3.0 * math.pi)),
    "c4_wendland": (_c4w_base_beta, 8.0 / (27.0 * math.pi)),
}


def compact_support_psi(variant: str, c: float):
    """Radial correlation with support [0, c] (scale rule: psi(s/c))."""
    _check_compact(variant, c)
    base = _BASE_PSI[variant]

    def psi(s):
        return base(np.asarray(s, dtype=float) / c)

    return psi


def _check_compact(variant, c):
    if variant not in COMPACT_VARIANTS:
        raise ValueError(f"variant must be one of {COMPACT_VARIANTS}")
    if c <= 0:
        raise ValueError("c must be positive")
    if variant in ("c2_wendland", "c4_wendland") and c > TWO_PI:
        raise ValueError(f"{variant} requires c in (0, 2*pi], got {c}")


def compact_support_coeffs(variant: str, c: float, n_max: int) -> DSchoenbergSeq:
    """1-Schoenberg coefficients of the compactly supported families.

    Closed forms: beta_(l,1)(c) = c * F(c l) with F the unit-scale
    coefficient function, valid while the support [0, c] stays inside
    [0, pi].  The spherical variant (no closed form is reproduced here)
    and any c > pi fall back to quadrature with a panel split at s = c.
    """
    _check_compact(variant, c)
    if variant == "spherical" or c > math.pi:
        quad = QuadratureSpec(split_points=(min(c, math.pi),) if c < math.pi else ())
        return d_schoenberg_from_psi(compact_support_psi(variant, c), 1, n_max, quad)
    beta_fn, beta0 = _BASE_BETA[variant]
    values = np.empty(n_max + 1)
    values[0] = c * beta0
    ells = np.arange(1, n_max + 1, dtype=float)
    values[1:] = c * beta_fn(c * ells)
    values = np.maximum(values, 0.0)
    tail = min(1.0, max(0.0, 1.0 - float(np.sum(values))))
    return DSchoenbergSeq(1, values, tail_bound=tail)


# ---------------------------------------------------------------------------
# Model specification (JSON-facing) and resolution
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1

PSI_FAMILIES = ("multiquadric", "matern", "askey", "c2_wendland", "c4_wendland", "spherical")
SPECTRUM_FAMILIES = ("spectral", "most_repulsive", "circular_matern")
ALL_FAMILIES = PSI_FAMILIES + SPECTRUM_FAMILIES

# the parameters each family requires; no others are accepted
FAMILY_PARAMS = {
    "multiquadric": ("tau", "delta"),
    "matern": ("nu", "c"),
    **dict.fromkeys(COMPACT_VARIANTS, ("c",)),
    "spectral": ("alpha", "beta", "kappa"),
    "most_repulsive": ("eta",),
    "circular_matern": ("sigma", "nu", "alpha"),
}


def _number(value, name: str) -> float:
    """``value`` as a finite float; anything else raises ValueError naming ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _integer(value, name: str) -> int:
    """``value`` as an int (integral floats allowed); else ValueError naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model description: family, parameters, intensity mode."""

    family: str
    params: dict
    dim: int
    mode: str = "kernel"  # "kernel": C0 = rho psi; "density": C~0 = chi psi
    rho: float | None = None
    chi: float | None = None
    trunc: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {ALL_FAMILIES}")
        required = FAMILY_PARAMS[self.family]
        for name in [*self.params, *required]:
            if name not in required:
                raise ValueError(f"unknown parameter {name!r} for family {self.family!r}")
            if name not in self.params:
                raise ValueError(f"missing parameter {name!r} for family {self.family!r}")
        object.__setattr__(self, "params", {k: _number(v, k) for k, v in self.params.items()})
        if _integer(self.dim, "dim") < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.mode not in ("kernel", "density"):
            raise ValueError("mode must be 'kernel' or 'density'")
        if self.family in PSI_FAMILIES:
            if self.mode == "kernel" and self.rho is None:
                raise ValueError(f"{self.family} in kernel mode needs 'rho' (or 'eta')")
            sigma = surface_measure(self.dim)
            if self.mode == "density" and not 0 < (self.chi or 0.0) * sigma < math.inf:
                raise ValueError(
                    f"{self.family} in density mode needs 'chi' > 0 with chi * sigma_d finite"
                )

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "family": self.family,
            "params": dict(self.params),
            "dim": self.dim,
            "mode": self.mode,
        }
        if self.rho is not None:
            out["rho"] = self.rho
        if self.chi is not None:
            out["chi"] = self.chi
        out["trunc"] = {"max_level": self.trunc.max_level, "tail_tol": self.trunc.tail_tol}
        return out


# the top-level fields of a model JSON object (``ModelSpec.to_json`` writes a subset)
MODEL_FIELDS = frozenset({"schema", "family", "dim", "params", "trunc", "mode", "rho", "eta", "chi"})


def load_model(source) -> ModelSpec:
    """Build a ModelSpec from a dict, JSON text, or a path to a JSON file.

    Missing, unknown or non-numeric fields raise ValueError naming the field.
    """
    if isinstance(source, ModelSpec):
        return source
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text) as fh:
                data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a model must be a JSON object")
    unknown = sorted(set(data) - MODEL_FIELDS, key=str)
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}")
    if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema {data.get('schema')}")
    for name in ("family", "dim"):
        if name not in data:
            raise ValueError(f"missing field {name!r}")
    dim = _integer(data["dim"], "dim")
    params, trunc = data.get("params", {}), data.get("trunc", {})
    for name, value in (("params", params), ("trunc", trunc)):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, got {value!r}")
    unknown = sorted(set(trunc) - {"max_level", "tail_tol"})
    if unknown:
        raise ValueError(f"unknown field 'trunc.{unknown[0]}'")
    policy = TruncationPolicy(
        _integer(trunc.get("max_level", TruncationPolicy.max_level), "trunc.max_level"),
        _number(trunc.get("tail_tol", TruncationPolicy.tail_tol), "trunc.tail_tol"),
    )
    rho = data.get("rho")
    if rho is None and "eta" in data:
        rho = _number(data["eta"], "eta") / surface_measure(dim)
    return ModelSpec(
        family=data["family"],
        params=params,
        dim=dim,
        mode=data.get("mode", "kernel"),
        rho=None if rho is None else _number(rho, "rho"),
        chi=None if data.get("chi") is None else _number(data["chi"], "chi"),
        trunc=policy,
    )


@dataclass(frozen=True)
class ResolvedModel:
    """A model spec resolved to spectra ready for simulation/inference."""

    spec: ModelSpec
    kernel: MercerSpectrum
    correlation_beta: DSchoenbergSeq
    psi: object | None = None
    density: MercerSpectrum | None = None
    # exact (g_0'(0), g_0''(0)) from the closed-form psi; None where unknown
    pcf_derivatives: tuple | None = None

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def eta(self) -> float:
        return self.kernel.eta


def _psi_family_beta(spec: ModelSpec):
    """(psi, beta_d, pcf_derivatives) for the closed-form psi families."""
    p = spec.params
    if spec.family == "multiquadric":
        tau, delta = p["tau"], p["delta"]
        chi = spec.chi if spec.mode == "density" else None
        beta_d = multiquadric_d_schoenberg(tau, delta, spec.dim, spec.trunc, chi)
        # kernel mode: g_0 = 1 - psi^2 with psi(0) = 1 and psi'(0) = 0, so
        # g_0'(0) = 0 and g_0''(0) = -2 psi''(0) = 4 tau delta / (1 - delta)^2
        exact = (0.0, 4.0 * tau * delta / (1.0 - delta) ** 2) if spec.mode == "kernel" else None
        return multiquadric_psi(tau, delta), beta_d, exact
    if spec.family == "matern":
        nu, c = p["nu"], p["c"]
        beta_d = matern_d_schoenberg(nu, c, spec.dim, n_max=min(spec.trunc.max_level, 512))
        return matern_psi(nu, c), beta_d, (matern_pcf_slope(nu, c), None)
    # compactly supported families are implemented on the circle
    if spec.dim != 1:
        raise ValueError(f"{spec.family} coefficients are implemented for d=1 only")
    c = p["c"]
    n_max = min(spec.trunc.max_level, 512)
    return compact_support_psi(spec.family, c), compact_support_coeffs(spec.family, c, n_max), None


def resolve(spec: ModelSpec) -> ResolvedModel:
    """Turn a model description into kernel/density spectra.

    Kernel mode checks the existence bound rho <= rho_max; density mode
    maps lambda~ = chi alpha back to kernel eigenvalues, which always
    exist, and the kernel inherits the density tail bound (lambda <= lambda~).
    """
    sigma = surface_measure(spec.dim)
    if spec.family in PSI_FAMILIES:
        psi, beta_d, exact = _psi_family_beta(spec)
        if spec.mode == "kernel":
            kernel = mercer_from_d(beta_d, spec.rho * sigma)
            density = to_density_kernel(kernel) if np.all(kernel.values < 1.0) else None
            return ResolvedModel(spec, kernel, beta_d, psi, density, exact)
        alpha = correlation_mercer(beta_d)
        density = MercerSpectrum(
            spec.dim, "density-kernel", spec.chi * alpha.values, spec.chi * alpha.tail_bound
        )
        kernel = from_density_kernel(density)
        return ResolvedModel(spec, kernel, beta_from_kernel(kernel), psi, density, exact)

    if spec.family == "spectral":
        p = spec.params
        kernel = spectral_model_spectrum(p["alpha"], p["beta"], p["kappa"], spec.dim, spec.trunc)
    elif spec.family == "most_repulsive":
        kernel = most_repulsive_spectrum(spec.params["eta"], spec.dim)
    else:  # circular_matern
        if spec.dim != 1:
            raise ValueError("circular_matern is defined on S^1")
        p = spec.params
        kernel = circular_matern_spectrum(p["sigma"], p["nu"], p["alpha"], spec.trunc)
    density = to_density_kernel(kernel) if np.all(kernel.values < 1.0) else None
    return ResolvedModel(spec, kernel, beta_from_kernel(kernel), None, density, None)

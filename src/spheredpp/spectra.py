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
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma

import numpy as np

from .harmonics import gegenbauer_at_one, gegenbauer_rows, multiplicities, multiplicity
from .sphere import surface_measure


class ExistenceError(ValueError):
    """The requested spectrum falls outside [0, 1]: no such DPP exists."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Series truncation contract: hard level cap and the tail's largest share of the count."""

    max_level: int = 4096
    tail_tol: float = 1e-6

    def __post_init__(self):
        if self.max_level < 0:
            raise ValueError(f"trunc.max_level must be >= 0, got {self.max_level}")
        if not 0 < self.tail_tol < 1:
            raise ValueError(f"trunc.tail_tol must lie in (0, 1), got {self.tail_tol}")


@dataclass(frozen=True)
class SchoenbergSeq:
    """Nonnegative cos^l expansion weights; sums to 1 up to the tail."""

    values: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("values must be a 1-d sequence")
        if np.any(vals < -1e-12):
            raise ValueError("Schoenberg coefficients must be nonnegative")
        object.__setattr__(self, "values", np.maximum(vals, 0.0))
        gap = 1.0 - float(np.sum(self.values))
        if gap < -1e-9 or gap > self.tail_bound + 1e-9:
            raise ValueError(
                f"coefficients must sum to 1 within the declared tail "
                f"(sum={np.sum(self.values)}, tail_bound={self.tail_bound})"
            )

    def __len__(self):
        return len(self.values)

    def to_json(self) -> dict:
        return {
            "kind": "schoenberg",
            "values": [float(v) for v in self.values],
            "tail_bound": float(self.tail_bound),
        }


@dataclass(frozen=True)
class DSchoenbergSeq:
    """d-Schoenberg probability masses beta_(l,d) on a fixed S^d."""

    dim: int
    values: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("values must be a 1-d sequence")
        if np.any(vals < -1e-12):
            raise ValueError("d-Schoenberg coefficients must be nonnegative")
        object.__setattr__(self, "values", np.maximum(vals, 0.0))
        if float(np.sum(self.values)) + self.tail_bound > 1.0 + 1e-9:
            raise ValueError("total mass (including tail) exceeds 1")

    def __len__(self):
        return len(self.values)

    def to_json(self) -> dict:
        return {
            "kind": "d-schoenberg",
            "dim": self.dim,
            "values": [float(v) for v in self.values],
            "tail_bound": float(self.tail_bound),
        }


VALID_KINDS = ("correlation", "kernel", "density-kernel")


@dataclass(frozen=True)
class MercerSpectrum:
    """Per-level Mercer coefficients with multiplicities m_(l,d).

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
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        vals = np.asarray(self.values, dtype=float)
        if np.any(vals < -1e-12):
            raise ValueError("Mercer coefficients must be nonnegative")
        vals = np.maximum(vals, 0.0)
        if self.kind == "kernel":
            if np.any(vals > 1.0 + 1e-12):
                raise ExistenceError(
                    f"kernel eigenvalues must lie in [0, 1]; max is {vals.max()}"
                )
            vals = np.minimum(vals, 1.0)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    @property
    def levels(self) -> np.ndarray:
        return np.arange(len(self.values))

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

    def is_projection(self) -> bool:
        return self.kind == "kernel" and bool(
            np.all((self.values == 0.0) | (self.values == 1.0))
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "values": [float(v) for v in self.values],
            "tail_bound": float(self.tail_bound),
        }


def sequence_from_json(data) -> SchoenbergSeq | DSchoenbergSeq | MercerSpectrum:
    """Rebuild any serialized sequence kind from its dict or JSON text."""
    if isinstance(data, str):
        data = json.loads(data)
    kind = data["kind"]
    values = np.asarray(data["values"], dtype=float)
    tail = float(data.get("tail_bound", 0.0))
    if kind == "schoenberg":
        return SchoenbergSeq(values, tail)
    if kind == "d-schoenberg":
        return DSchoenbergSeq(int(data["dim"]), values, tail)
    if kind in VALID_KINDS:
        return MercerSpectrum(int(data["dim"]), kind, values, tail)
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
    beta = np.asarray(seq.values, dtype=float)
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node-doubling control for coefficient integrals."""

    tol: float = 1e-11
    start_nodes: int = 64
    max_nodes: int = 8192
    split_points: tuple = ()


_GL_NEWTON_STEPS = 10


@lru_cache(maxsize=16)
def _gl_nodes(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n(cos t) in the angle t, from the guesses
    t_k = pi (k - 1/4) / (n + 1/2) for the nodes with x >= 0, which are
    then mirrored.  P_n and P_(n-1) come from ``gegenbauer_rows`` (lam =
    1/2) and give dP_n/dt = n (x P_n - P_(n-1)) / sin t; each weight
    2 / ((1 - x^2) P_n'(x)^2) = 2 / (dP_n/dt)^2 is taken at the converged
    angle.  Nodes still moving after _GL_NEWTON_STEPS steps raise
    QuadratureError.
    """
    t = math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    converged = False
    for _ in range(_GL_NEWTON_STEPS + 1):
        x = np.cos(t)
        p_prev, p_n = deque(gegenbauer_rows(n, 0.5, t), maxlen=2)
        dp_dt = n * (x * p_n - p_prev) / np.sin(t)
        if converged:
            break
        step = p_n / dp_dt
        t -= step
        converged = bool(np.all(np.abs(step) < 1e-10))
    else:
        raise QuadratureError(f"Gauss-Legendre nodes for n={n} did not converge")
    if n % 2:
        x[-1] = 0.0  # the middle node, where cos t is only ~1e-17
    w = 2.0 / dp_dt**2
    return np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])


def _panel_nodes(n: int, panels) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = [], []
    base_x, base_w = _gl_nodes(n)
    for a, b in panels:
        xs.append(0.5 * (b - a) * base_x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _integrate_levels(values_fn, n_max: int, panels, quad: QuadratureSpec):
    """Adaptive GL integration of a family of level integrands.

    ``values_fn(s, w)`` must return the length-(n_max+1) vector of
    weighted integrals over the given nodes.  Nodes are doubled until
    two successive estimates agree within quad.tol (sup over levels).
    """
    prev = None
    n = quad.start_nodes
    while n <= quad.max_nodes:
        s, w = _panel_nodes(n, panels)
        est = values_fn(s, w)
        if prev is not None and float(np.max(np.abs(est - prev))) < quad.tol:
            return est
        prev = est
        n *= 2
    raise QuadratureError(
        f"coefficient quadrature did not converge within {quad.max_nodes} nodes"
    )


def _inversion_prefactor(ell: int, dim: int) -> float:
    """Constant in front of the Gegenbauer inversion integral (d >= 2)."""
    return (
        (2.0 * ell + dim - 1.0)
        / (2.0 ** (3 - dim) * math.pi)
        * math.gamma((dim - 1) / 2.0) ** 2
        / math.gamma(dim - 1.0)
    )


def d_schoenberg_from_psi(
    psi,
    dim: int,
    n_max: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> DSchoenbergSeq:
    """Numerically invert a correlation psi on [0, pi] into beta_(l,d).

    d=1 uses the cosine transform
        beta_(0,1) = (1/pi) int psi,  beta_(l,1) = (2/pi) int cos(l s) psi(s) ds;
    d>=2 uses the Gegenbauer inversion with the sin^(d-1) weight.  Both
    reduce each level of ``gegenbauer_rows`` against psi sin^(d-1) w as it
    is produced and differ only in the prefactor.  The integrals run in
    the s variable, where every integrand is smooth (on x = cos s the d=1
    transform has an endpoint singularity and odd d picks up sqrt
    factors).  psi must accept numpy arrays.

    Coefficients below -1e-8 mean psi is not a valid correlation on S^d
    and raise; values in [-1e-8, 0) are treated as roundoff and clamped.
    """
    splits = sorted(p for p in quad.split_points if 0.0 < p < math.pi)
    edges = [0.0] + splits + [math.pi]
    panels = list(zip(edges[:-1], edges[1:]))

    lam = (dim - 1) / 2.0
    if dim == 1:
        pref = np.full(n_max + 1, 2.0 / math.pi)
        pref[0] = 1.0 / math.pi
    else:
        pref = np.array([_inversion_prefactor(ell, dim) for ell in range(n_max + 1)])

    def values_fn(s, w):
        ps = psi(s) * np.sin(s) ** (dim - 1) * w
        return pref * np.array([row @ ps for row in gegenbauer_rows(n_max, lam, s)])

    coefs = _integrate_levels(values_fn, n_max, panels, quad)
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


def rho_max(beta_d: DSchoenbergSeq, nonnegative_psi: bool = False) -> RhoMax:
    """Largest intensity rho with all eigenvalues <= 1.

    rho_max = inf over l with beta_(l,d) > 0 of m_(l,d) / (sigma_d beta_(l,d)).
    When the caller asserts psi >= 0 the infimum is attained at l = 0
    and the result is exact.
    """
    sigma = surface_measure(beta_d.dim)
    vals = beta_d.values
    if nonnegative_psi:
        if len(vals) == 0 or vals[0] <= 0.0:
            raise ValueError("nonnegative psi must have beta_(0,d) > 0")
        return RhoMax(multiplicity(0, beta_d.dim) / (sigma * vals[0]), False)
    pos = np.nonzero(vals > 0.0)[0]
    if len(pos) == 0:
        raise ValueError("all coefficients are zero")
    m = multiplicities(len(vals) - 1, beta_d.dim)
    ratios = m[pos] / (sigma * vals[pos])
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
    """sum_l c_l * C_l^((d-1)/2)(cos s) / C_l^((d-1)/2)(1) at geodesic distances s.

    Each level is added as the Gegenbauer recurrence produces it, so
    memory stays O(s.size) whatever the number of levels.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    lam = (dim - 1) / 2.0
    out = np.zeros_like(arr)
    rows = gegenbauer_rows(len(coeffs) - 1, lam, arr)
    for ell, (c, row) in enumerate(zip(coeffs, rows)):
        out += (c / gegenbauer_at_one(ell, lam)) * row
    return float(out[0]) if np.ndim(s) == 0 else out


def eval_psi_series(beta_d: DSchoenbergSeq, s):
    """Evaluate the truncated correlation psi(s) from its d-Schoenberg masses."""
    return eval_radial_series(beta_d.values, beta_d.dim, s)

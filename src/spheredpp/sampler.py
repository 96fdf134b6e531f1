"""Exact simulation of isotropic DPPs on S^1 and S^2.

Two-stage sampler: (1) draw independent Bernoulli variables with the
kernel eigenvalues as means, selecting n eigenfunctions; (2) sample the
resulting projection DPP sequentially.  With v(x) the vector of selected
eigenfunction values and h_0 = |v|^2, point j+1 has density h_j/(n-j),
where h_j is |v|^2 minus its projection onto the span absorbed so far.
Proposals come from q = h_0/n, a uniform mixture of the selected |Y|^2,
and are accepted with probability h_j/h_0 <= 1, so no envelope constant
is needed and about n H_n proposals are tested (Lavancier, Moller and
Rubak 2015; Hough et al. 2006).  On S^2 a mixture component has a
uniform longitude and cos(colatitude) with density 2 pi |Pbar_lm|^2,
drawn by rejection against the addition-formula bound (2l+1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import index_set, norm_plm_table, plm_sq, sh_bound_sq
from .spectra import MercerSpectrum
from .sphere import PointPattern, SpherePoint, sample_uniform_angles, surface_measure

# most proposals per eval_matrix call, and Legendre-table entries per call (~100 MB)
CHUNK = 128
TABLE_ENTRIES = 12_000_000


class SamplingError(RuntimeError):
    """Rejection cap exceeded, a conditional density went negative, or a
    colatitude density exceeded its addition-formula bound."""


@dataclass(frozen=True)
class ProjectionBasis:
    """Selected eigenfunction indices (l, k)."""

    dim: int
    levels: np.ndarray  # int array, one entry per selected function
    orders: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("projection bases exist for d in {1, 2} only")

    def __len__(self):
        return len(self.levels)

    @property
    def envelope(self) -> float:
        """Addition-formula bound on h_0: the level sums m_(l,d)/sigma_d
        over the selected levels, which sum |Y|^2 over whole levels."""
        sigma = surface_measure(self.dim)
        return sum(len(index_set(int(ell), self.dim)) for ell in np.unique(self.levels)) / sigma

    @property
    def max_level(self) -> int:
        return int(self.levels.max()) if len(self.levels) else 0

    def eval_matrix(self, angles: np.ndarray) -> np.ndarray:
        """Eigenfunction values at a batch of points.

        ``angles`` has shape (B, dim); the result is complex of shape
        (B, n_basis).
        """
        B = angles.shape[0]
        if len(self) == 0:
            return np.zeros((B, 0), dtype=complex)
        if self.dim == 1:
            theta = angles[:, 0]
            freq = self.orders * self.levels
            return np.exp(1j * np.outer(theta, freq)) / math.sqrt(2.0 * math.pi)
        colat, lon = angles[:, 0], angles[:, 1]
        table = norm_plm_table(self.max_level, np.cos(colat))  # (L+1, L+1, B)
        vals = table[self.levels, np.abs(self.orders), :].T  # (B, n)
        phase = np.where((self.orders < 0) & (self.orders % 2 != 0), -1.0, 1.0)
        return vals * phase * np.exp(1j * np.outer(lon, self.orders))


@lru_cache(maxsize=16)
def _flat_indices(dim: int, n_levels: int):
    """Flattened (level, order) arrays covering all eigenfunctions of the
    first n_levels levels, in (l ascending, k ascending) order."""
    levels, orders = [], []
    for ell in range(n_levels):
        ks = index_set(ell, dim)
        levels.append(np.full(len(ks), ell, dtype=int))
        orders.append(np.array(ks, dtype=int))
    return np.concatenate(levels), np.concatenate(orders)


def draw_bernoulli_basis(spec: MercerSpectrum, rng: np.random.Generator) -> ProjectionBasis:
    """Select each eigenfunction (l, k) independently with probability
    lambda_(l,d); all orders at a level share the level's eigenvalue.

    One uniform variate is consumed per candidate index, in (l, k)
    order, so the draw is reproducible under a fixed generator state.
    """
    if spec.kind != "kernel":
        raise ValueError("basis selection needs a kernel spectrum")
    if spec.dim not in (1, 2):
        raise ValueError("sampling implemented for d in {1, 2} only")
    all_levels, all_orders = _flat_indices(spec.dim, len(spec.values))
    keep = rng.random(len(all_levels)) < spec.values[all_levels]
    return ProjectionBasis(spec.dim, all_levels[keep], all_orders[keep])


def draw_cos_colatitude(ells, ms, rng: np.random.Generator) -> np.ndarray:
    """One draw of x = cos(colatitude) per entry, with density 2 pi |Pbar_lm(x)|^2.

    Rejection from the uniform law on [-1, 1] against the addition-formula
    bound 2 pi (2l+1)/(4 pi) = (2l+1)/2, so 2l+1 tries per draw on average.
    Each pending draw gets 2(2l+1) tries per round and keeps its first
    success.  A density value above its bound raises ``SamplingError``.
    """
    ells = np.asarray(ells, dtype=int)
    ms = np.asarray(ms, dtype=int)
    out = np.empty(len(ells))
    pending = np.arange(len(ells))
    while len(pending):
        tries = 2 * (2 * ells[pending] + 1)
        owner = np.repeat(np.arange(len(pending)), tries)
        ell, m = ells[pending][owner], ms[pending][owner]
        x = rng.uniform(-1.0, 1.0, size=len(owner))
        dens = 2.0 * math.pi * plm_sq(ell, m, x)
        bound = 2.0 * math.pi * sh_bound_sq(2, ell, m)
        if np.any(dens > bound * (1.0 + 1e-9)):  # slack for rounding at the poles
            worst = int(np.argmax(dens / bound))
            raise SamplingError(
                f"colatitude density {dens[worst]:.17g} exceeds its bound "
                f"{bound[worst]:.17g} at (l, m) = ({ell[worst]}, {m[worst]})"
            )
        hits = np.flatnonzero(rng.random(len(owner)) * bound < dens)
        done, first = np.unique(owner[hits], return_index=True)
        out[pending[done]] = x[hits[first]]
        pending = np.delete(pending, done)
    return out


def _propose(basis: ProjectionBasis, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` angle rows drawn from q = h_0/n."""
    if basis.dim == 1:
        return sample_uniform_angles(1, size, rng)  # every |Y|^2 is 1/(2 pi)
    pick = rng.integers(len(basis), size=size)
    lon = rng.uniform(0.0, 2.0 * math.pi, size=size)
    x = draw_cos_colatitude(basis.levels[pick], np.abs(basis.orders[pick]), rng)
    return np.column_stack([np.arccos(x), lon])


@dataclass(frozen=True)
class SampleResult:
    pattern: PointPattern
    basis_size: int
    n_proposals: int
    acceptance_rate: float
    trunc_level: int

    def to_json(self) -> dict:
        return {
            "points": len(self.pattern),
            "basis_size": self.basis_size,
            "proposals": self.n_proposals,
            "acceptance_rate": self.acceptance_rate,
            "trunc_level": self.trunc_level,
        }


def sample_projection(
    basis: ProjectionBasis,
    rng: np.random.Generator,
    max_rejects: int = 10_000_000,
) -> SampleResult:
    """Draw the projection DPP attached to the selected eigenfunctions.

    Produces exactly len(basis) points.  Proposals from q = h_0/n do not
    depend on the step, so they are drawn and evaluated in chunks and
    consumed in order: proposal x is accepted for point j+1 when
    u h_0(x) < h_j(x).  After each acceptance the orthonormal set grows
    by one vector (Gram-Schmidt with one re-orthogonalization pass) and
    the pending proposals' h drop by their squared projection on it.
    More than ``max_rejects`` rejections for one point raise
    ``SamplingError``.
    """
    n = len(basis)
    if n == 0:
        return SampleResult(PointPattern(basis.dim, ()), 0, 0, float("nan"), 0)
    chunk = min(CHUNK, 2 * n)  # the last point alone takes about n tries
    if basis.dim == 2:
        chunk = max(4, min(chunk, TABLE_ENTRIES // (basis.max_level + 1) ** 2))
    # conjugated orthonormal rows: row i @ v is the coefficient <e_i, v>
    dual = np.empty((n, n), dtype=complex)
    points = np.empty((n, basis.dim))
    j = 0
    proposals = 0
    rejects = 0
    while j < n:
        angles = _propose(basis, chunk, rng)
        uniforms = rng.random(chunk)
        vmat = basis.eval_matrix(angles)  # (B, n)
        h0 = np.sum(np.abs(vmat) ** 2, axis=1)
        h = h0 - np.sum(np.abs(vmat @ dual[:j].T) ** 2, axis=1)
        start = 0
        while start < chunk and j < n:
            if np.any(h[start:] < -1e-9):
                raise SamplingError(
                    f"conditional density fell below -1e-9 (min {h[start:].min():.3e})"
                )
            hits = np.flatnonzero(uniforms[start:] * h0[start:] < h[start:])
            tested = int(hits[0]) + 1 if len(hits) else chunk - start
            proposals += tested
            rejects += tested - (1 if len(hits) else 0)
            if rejects > max_rejects:
                raise SamplingError(
                    f"rejection cap {max_rejects} exceeded at point "
                    f"{j + 1}/{n}: proposal or normalization bug"
                )
            if not len(hits):
                break
            i = start + int(hits[0])
            w = vmat[i].conj()  # Gram-Schmidt on conjugates: w - sum conj(<e_i, v>) dual_i
            done = dual[:j]
            w = w - (done @ w.conj()).conj() @ done
            w = w - (done @ w.conj()).conj() @ done  # re-orthogonalization pass
            norm = np.linalg.norm(w)
            if norm <= 0.0:
                raise SamplingError("degenerate direction during Gram-Schmidt")
            dual[j] = w / norm
            points[j] = angles[i]
            j += 1
            rejects = 0
            start = i + 1
            h[start:] -= np.abs(vmat[start:] @ dual[j - 1]) ** 2
    accepted = tuple(SpherePoint(basis.dim, tuple(row)) for row in points)
    return SampleResult(
        PointPattern(basis.dim, accepted), n, proposals, n / proposals, basis.max_level,
    )


def sample_dpp(model, rng: np.random.Generator, max_rejects: int = 10_000_000) -> SampleResult:
    """Sample a DPP from a resolved model or a kernel spectrum.

    Composition of the Bernoulli eigenvalue draw and projection
    sampling; an empty Bernoulli outcome legitimately yields the empty
    pattern.
    """
    spec = model if isinstance(model, MercerSpectrum) else model.kernel
    basis = draw_bernoulli_basis(spec, rng)
    result = sample_projection(basis, rng, max_rejects=max_rejects)
    return SampleResult(
        result.pattern,
        result.basis_size,
        result.n_proposals,
        result.acceptance_rate,
        len(spec.values) - 1,
    )

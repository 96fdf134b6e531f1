"""Exact simulation of isotropic DPPs on S^1 and S^2.

Two-stage sampler: (1) draw independent Bernoulli variables with the
kernel eigenvalues as means, selecting n eigenfunctions; (2) sample the
resulting projection DPP sequentially (Hough et al. 2006; Lavancier, Moller
and Rubak 2015).  With v(x) the vector of selected eigenfunction values and
h_0 = |v|^2, point j+1 has density h_j/(n-j), where h_j is the squared norm
of v's component in the complement of the span absorbed so far.  Proposals
come from q = h_0/n, a uniform mixture of the selected |Y|^2, and are
accepted with probability h_j/h_0 <= 1, so about n H_n proposals are tested.

A draw's cost follows what it uses.  ``_Complement`` keeps an orthonormal
basis of that complement, so a chunk of B proposals costs B n (n - j) to
project, and shrinks as the points arrive.  Each acceptance is one
Householder reflector; a chunk's reflectors reach its proposals 16 at a
time and update the basis at its end, in compact WY form.  On S^2 a mixture
component has a uniform longitude and a colatitude theta with density
2 pi |Pbar_lm(cos theta)|^2 sin theta, drawn by rejection from U(0, pi)
against a sup certified once per basis and distinct (l, |m|)
(``harmonics.colatitude_sup``): pi S_lm tries per draw, about 4 on average
over the figure models' bases, where the addition-formula bound took 2l+1.
The Y values, those densities and the sups come from one
associated-Legendre evaluator, ``harmonics.norm_plm_rows``, and the
longitude phases are exponentiated once per distinct order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .harmonics import colatitude_sup, multiplicities, norm_plm_rows, sh_bound_sq
from .spectra import MercerSpectrum
from .sphere import PointPattern, SpherePoint, sample_uniform_angles, surface_measure

# most proposals per eval_matrix call
CHUNK = 128
# proposals brought up to date with a chunk's reflectors at a time
WINDOW = 16
# most rejections for one point before a draw is taken for a bug
MAX_REJECTS = 10_000_000


class SamplingError(RuntimeError):
    """Rejection cap exceeded, a conditional density above h_0, a degenerate
    accepted direction, or a colatitude density above its addition-formula
    bound or its certified sup."""


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
        mults = multiplicities(self.max_level, self.dim)
        return float(mults[np.unique(self.levels)].sum()) / surface_measure(self.dim)

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
        vals = norm_plm_rows(self.levels, np.abs(self.orders), np.cos(colat)[None, :]).T  # (B, n)
        vals *= np.where((self.orders < 0) & (self.orders % 2 != 0), -1.0, 1.0)
        distinct, column = np.unique(self.orders, return_inverse=True)  # at most 2L+1 orders
        out = np.exp(1j * np.outer(lon, distinct)).take(column, axis=1)
        out *= vals
        return out


def _flat_indices(dim: int, n_levels: int):
    """Flattened (level, order) arrays covering all eigenfunctions of the
    first n_levels levels, in (l ascending, k ascending) order: k runs over
    -l..l on S^2 and over {0} at l = 0, {-1, 1} above it on S^1."""
    counts = multiplicities(n_levels - 1, dim).astype(int)
    levels = np.repeat(np.arange(n_levels), counts)
    place = np.arange(len(levels)) - np.repeat(np.cumsum(counts) - counts, counts)  # 0..m_l - 1
    return levels, (place - levels if dim == 2 else 2 * place - (levels > 0))


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

    The colatitude theta then has density g(theta) = 2 pi Pbar_lm(cos theta)^2
    sin theta on [0, pi].  It is proposed from U(0, pi) and accepted with
    probability g / S_lm, S_lm the certified sup of ``colatitude_sup``, so a
    draw takes pi S_lm tries on average where the addition-formula bound took
    2l+1: about 2 at m = 0, growing to about sqrt(pi l) at m = l (27 at
    l = m = 200).  S_lm is computed once per distinct (l, m); a row with
    l = 0 has density exactly 1/2 and draws x ~ U(-1, 1) with no rejection.
    A density value above its addition-formula bound (2l+1)/2, or a g above
    S_lm, raises ``SamplingError``.
    """
    ells = np.asarray(ells, dtype=int)
    ms = np.asarray(ms, dtype=int)
    return np.cos(_draw_colatitude(ells, ms, _colatitude_sups(ells, ms), rng)[0])


def _colatitude_sups(ells: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """``colatitude_sup`` of each entry, computed once per distinct (l, m) with
    l > 0 (entries with l = 0 need none and get 0)."""
    sups = np.zeros(len(ells))
    tilted = ells > 0
    if tilted.any():
        rows, row_of = np.unique(
            np.column_stack([ells[tilted], ms[tilted]]), axis=0, return_inverse=True
        )
        sups[tilted] = colatitude_sup(rows[:, 0], rows[:, 1])[row_of.ravel()]
    return sups


def _draw_colatitude(ells, ms, sups, rng: np.random.Generator):
    """(theta, tries): one colatitude per entry as in ``draw_cos_colatitude``,
    against the sups given, and the tries used (1 for each l = 0 entry).

    Each pending draw gets about 4 pi S_lm tries per round, four times its
    expectation, and keeps its first success, so one round finishes about 98 %
    of the draws.
    """
    theta = np.empty(len(ells))
    flat = ells == 0
    theta[flat] = np.arccos(rng.uniform(-1.0, 1.0, size=int(flat.sum())))
    tries = int(flat.sum())
    pending = np.flatnonzero(~flat)
    while len(pending):
        per = np.ceil(4.0 * math.pi * sups[pending]).astype(int)
        owner = np.repeat(np.arange(len(pending)), per)
        ell, m, sup = ells[pending][owner], ms[pending][owner], sups[pending][owner]
        t = rng.uniform(0.0, math.pi, size=len(owner))
        dens = 2.0 * math.pi * norm_plm_rows(ell, m, np.cos(t)[:, None])[:, 0] ** 2
        bound = 2.0 * math.pi * sh_bound_sq(2, ell, m)
        if np.any(dens > bound * (1.0 + 1e-9)):  # slack for rounding at the poles
            worst = int(np.argmax(dens / bound))
            raise SamplingError(
                f"colatitude density {dens[worst]:.17g} exceeds its bound "
                f"{bound[worst]:.17g} at (l, m) = ({ell[worst]}, {m[worst]})"
            )
        g = dens * np.sin(t)
        if np.any(g > sup * (1.0 + 1e-9)):
            worst = int(np.argmax(g / sup))
            raise SamplingError(
                f"colatitude density {g[worst]:.17g} in theta exceeds its certified sup "
                f"{sup[worst]:.17g} at (l, m) = ({ell[worst]}, {m[worst]})"
            )
        hits = np.flatnonzero(rng.random(len(owner)) * sup < g)
        done, first = np.unique(owner[hits], return_index=True)
        theta[pending[done]] = t[hits[first]]
        offset = np.cumsum(per) - per  # first try of each pending draw
        tries += int(per.sum() - per[done].sum() + np.sum(hits[first] - offset[done] + 1))
        pending = np.delete(pending, done)
    return theta, tries


def _propose(basis: ProjectionBasis, size: int, rng: np.random.Generator, sups) -> np.ndarray:
    """``size`` angle rows drawn from q = h_0/n; ``sups`` holds each selected
    function's colatitude sup on S^2."""
    if basis.dim == 1:
        return sample_uniform_angles(1, size, rng)  # every |Y|^2 is 1/(2 pi)
    pick = rng.integers(len(basis), size=size)
    lon = rng.uniform(0.0, 2.0 * math.pi, size=size)
    theta, _ = _draw_colatitude(basis.levels[pick], np.abs(basis.orders[pick]), sups[pick], rng)
    return np.column_stack([theta, lon])


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


def sample_projection(basis: ProjectionBasis, rng: np.random.Generator) -> SampleResult:
    """Draw the projection DPP attached to the selected eigenfunctions.

    Produces exactly len(basis) points.  Proposals from q = h_0/n do not
    depend on the step, so they are drawn and evaluated in chunks and
    consumed in order, WINDOW at a time: proposal x is accepted for point
    j+1 when u h_0(x) < h_j(x), with h_j(x) = |z(x)|^2 for the coordinates z
    of v(x) in the complement of the accepted span (``_Complement``).  More than
    MAX_REJECTS rejections for one point, an h above h_0 (an acceptance
    probability above 1) or an accepted direction of norm 0 raise
    ``SamplingError``.
    """
    n = len(basis)
    if n == 0:
        return SampleResult(PointPattern(basis.dim, ()), 0, 0, float("nan"), 0)
    chunk = min(CHUNK, 2 * n)  # the last point alone takes about n tries
    sups = _colatitude_sups(basis.levels, np.abs(basis.orders)) if basis.dim == 2 else None
    comp = _Complement(n)
    points = np.empty((n, basis.dim))
    proposals = 0
    rejects = 0
    while comp.j < n:
        angles = _propose(basis, chunk, rng, sups)
        uniforms = rng.random(chunk)
        vmat = basis.eval_matrix(angles)  # (B, n)
        h0 = _sq_norms(vmat)
        z = comp.coordinates(vmat)
        del vmat
        h = np.empty(chunk)
        start = 0
        while start < chunk and comp.j < n:
            if start == comp.synced:  # bring the next window of proposals up to date
                h[start : start + WINDOW] = comp.sync(z, start + WINDOW)
            stop = comp.synced
            if np.any(h[start:stop] > h0[start:stop] * (1.0 + 1e-9)):
                worst = start + int(np.argmax(h[start:stop] - h0[start:stop]))
                raise SamplingError(
                    f"conditional density {h[worst]:.17g} exceeds h_0 = {h0[worst]:.17g}: "
                    "acceptance probability above 1"
                )
            hits = np.flatnonzero(uniforms[start:stop] * h0[start:stop] < h[start:stop])
            tested = int(hits[0]) + 1 if len(hits) else stop - start
            proposals += tested
            rejects += tested - (1 if len(hits) else 0)
            if rejects > MAX_REJECTS:
                raise SamplingError(
                    f"rejection cap {MAX_REJECTS} exceeded at point "
                    f"{comp.j + 1}/{n}: proposal or normalization bug"
                )
            if not len(hits):
                start = stop
                continue
            i = start + int(hits[0])
            points[comp.j] = angles[i]
            h[i + 1 : stop] = comp.accept(z, i)
            rejects = 0
            start = i + 1
        del z  # hold no chunk arrays while the (n, n) rows are updated
        comp.close_chunk()
    accepted = tuple(SpherePoint(basis.dim, tuple(row)) for row in points)
    return SampleResult(
        PointPattern(basis.dim, accepted), n, proposals, n / proposals, basis.max_level,
    )


class _Complement:
    """Coordinates in the orthogonal complement of the accepted span.

    ``rows`` starts as the identity and stays unitary: after j acceptances
    its rows j.. are an orthonormal basis of the complement of the accepted
    vectors, so h_j(x) = |rows[j:] v(x)|^2, and its rows ..j span (the
    conjugates of) the accepted vectors.  ``coordinates`` opens a chunk: the
    coordinates z = rows[j:] v of its proposals, which cost B n (n - j).
    Each acceptance maps its coordinates to a multiple of e_0 by a Householder
    reflector; the chunk's reflectors, H_1 ... H_r = I - Y T Y^H in compact WY
    form (Schreiber and Van Loan 1989), reach its proposals lazily.  ``sync``
    applies all of them to the next proposals, three small products, and
    ``accept`` applies a new one to the synced proposals after the accepted
    one; both return h, the sum of squares of the remaining coordinates.
    ``close_chunk`` applies them to ``rows``, two products.
    """

    def __init__(self, n: int):
        self.rows = np.eye(n, dtype=complex)
        self.j = 0
        self.synced = 0  # the open chunk's proposals before this one are up to date
        self._first = 0  # j at the chunk's start
        self._y = self._t = None

    def coordinates(self, vmat: np.ndarray) -> np.ndarray:
        """z of each row of ``vmat``, (B, n - j); updated in place by ``sync``
        and ``accept`` (at j = 0 it is ``vmat`` itself)."""
        self._first = self.j
        self.synced = 0
        k = len(self.rows) - self.j
        self._y = np.zeros((k, min(len(vmat), k)), dtype=complex)
        self._t = np.zeros((self._y.shape[1],) * 2, dtype=complex)
        return vmat if self.j == 0 else vmat @ self.rows[self.j :].T

    def sync(self, z: np.ndarray, stop: int) -> np.ndarray:
        """Apply the chunk's reflectors to the proposals synced..stop; their h.

        In row form H_r ... H_1 z = z - Y T^H Y^H z reads
        z^T - conj(conj(z^T) Y T) Y^T."""
        r = self.j - self._first
        window = z[self.synced : stop]
        if r:
            y = self._y[:, :r]
            window -= np.conj(np.conj(window) @ y @ self._t[:r, :r]) @ y.T
        self.synced += len(window)
        return _sq_norms(window[:, r:])

    def accept(self, z: np.ndarray, i: int) -> np.ndarray:
        """Accept the synced proposal i; returns h of the synced ones after it."""
        r = self.j - self._first
        u, tau = _reflector(z[i, r:])
        later = z[i + 1 : self.synced, r:]
        later -= np.outer(tau * (later @ u.conj()), u)
        y, t = self._y, self._t
        y[r:, r] = u
        t[:r, r] = -tau * (t[:r, :r] @ (u.conj() @ y[r:, :r]).conj())  # T Y^H u, Y zero above r
        t[r, r] = tau
        self.j += 1
        return _sq_norms(later[:, 1:])

    def close_chunk(self) -> None:
        """rows[first:] <- H_r ... H_1 rows[first:] = (I - Y T^H Y^H) rows[first:],
        one row block at a time, so that no other (n, n) array is made."""
        r = self.j - self._first
        y, t = self._y[:, :r], self._t[:r, :r]
        self._y = self._t = None
        if not r:
            return
        rows = self.rows[self._first :]
        yt = y @ t
        w = np.conj(yt, out=yt).T @ rows  # T^H Y^H rows, (r, n)
        del yt
        for b in range(0, len(rows), CHUNK):
            rows[b : b + CHUNK] -= y[b : b + CHUNK] @ w


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """|row|^2 of each row of a complex matrix whose last axis is contiguous."""
    zf = z.view(np.float64)
    return np.einsum("ij,ij->i", zf, zf)


def _reflector(x: np.ndarray):
    """(u, tau) with (I - tau u u^H) x = alpha e_0, |alpha| = |x|; tau is real,
    so the reflector is Hermitian and unitary."""
    norm = float(np.linalg.norm(x))
    if norm <= 0.0:
        raise SamplingError("degenerate direction: accepted proposal has no complement component")
    head = abs(x[0])
    u = x.copy()
    u[0] += (x[0] / head if head > 0.0 else 1.0) * norm  # x - alpha e_0, no cancellation
    return u, 1.0 / (norm * (norm + head))


def sample_dpp(model, rng: np.random.Generator) -> SampleResult:
    """Sample a DPP from a resolved model or a kernel spectrum.

    Composition of the Bernoulli eigenvalue draw and projection
    sampling; an empty Bernoulli outcome legitimately yields the empty
    pattern.
    """
    spec = model if isinstance(model, MercerSpectrum) else model.kernel
    basis = draw_bernoulli_basis(spec, rng)
    result = sample_projection(basis, rng)
    return replace(result, trunc_level=len(spec.values) - 1)

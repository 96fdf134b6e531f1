"""Exact simulation of isotropic DPPs on S^1 and S^2.

Two-stage sampler: (1) keep each eigenfunction with its eigenvalue as
probability, a Binomial count and a uniform subset of orders per level;
(2) draw the projection DPP sequentially (Hough et al. 2006; Lavancier, Moller
and Rubak 2015).  With v(x) the vector of selected eigenfunction values and
h_0 = |v|^2, point j+1 has density h_j/(n-j), where h_j is the squared norm
of v's component in the complement of the span absorbed so far.  Proposals
come from a density proportional to a bound c >= h_0 >= h_j (on S^1,
c = h_0, which is constant) and are accepted with probability h_j/c <= 1.

A draw's cost follows what it uses.  ``_Complement`` keeps an orthonormal
basis of that complement, so a chunk of B proposals costs B n (n - j) to
project, and shrinks as the points arrive.  Each acceptance is one
Householder reflector; a chunk's reflectors reach its proposals 16 at a
time and update the basis at its end, in compact WY form.  On S^2, h_0
depends on the colatitude only, and ``_ColatitudeEnvelope`` certifies once
per basis a piecewise-constant bound G on its colatitude density
2 pi sin(theta) h_0; proposals draw theta from G and a uniform longitude, and
about n H_n int G / n of them are tested, with int G / n at most 1.02 on the
figure models' bases.  The Y values and the envelope come from one
associated-Legendre evaluator, ``harmonics.norm_plm_rows``, and the
longitude phases are exponentiated once per distinct order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .harmonics import multiplicities, norm_plm_rows
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
    accepted direction, or a colatitude density above its certified envelope."""


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
        vals = norm_plm_rows(self.levels, np.abs(self.orders), np.cos(colat)).T  # (B, n)
        vals *= np.where((self.orders < 0) & (self.orders % 2 != 0), -1.0, 1.0)
        distinct, column = np.unique(self.orders, return_inverse=True)  # at most 2L+1 orders
        out = np.exp(1j * np.outer(lon, distinct)).take(column, axis=1)
        out *= vals
        return out


def level_counts(spec: MercerSpectrum, rng: np.random.Generator) -> np.ndarray:
    """Binomial(m_(l,d), lambda_(l,d)) count of the kept eigenfunctions of each
    level: the first draw of ``draw_bernoulli_basis``, whose size is their sum."""
    if spec.kind != "kernel":
        raise ValueError("basis selection needs a kernel spectrum")
    if spec.dim not in (1, 2):
        raise ValueError("sampling implemented for d in {1, 2} only")
    return rng.binomial(spec.mults.astype(np.int64), spec.values)


def draw_bernoulli_basis(spec: MercerSpectrum, rng: np.random.Generator) -> ProjectionBasis:
    """Select each eigenfunction (l, k) independently with probability lambda_(l,d):
    the m_l orders of a level share it, so the level keeps a Binomial count c
    (``level_counts``) and a uniform c-subset of its places p < m_l, order k = p - l
    on S^2 and 2p - 1 (0 at l = 0) on S^1.  A draw costs a variate per level and
    per kept order, not one per candidate function."""
    counts = level_counts(spec, rng)
    levels = np.repeat(np.arange(len(counts)), counts)
    places = [np.arange(m) if c == m else np.sort(rng.choice(m, c, replace=False, shuffle=False))
              for c, m in zip(counts.tolist(), spec.mults.astype(int).tolist()) if c]
    place = np.concatenate(places) if places else levels
    return ProjectionBasis(spec.dim, levels, place - levels if spec.dim == 2 else 2 * place - (levels > 0))


class _ColatitudeEnvelope:
    """A certified bound G(theta) on f(theta) = 2 pi sin(theta) h_0(theta), the
    colatitude density of n q on S^2, constant on each of K = 8D cells.

    h_0 = sum_i Pbar_(l_i)^|k_i|(cos theta)^2 depends on the colatitude only, and
    f is a sine polynomial sum_(j <= D) b_j sin(j theta) of degree D = 2L + 1.
    ``norm_plm_rows``, on blocks of 8 CHUNK nodes, gives f at the D + 2 nodes
    k pi / (D + 1); one real FFT of its odd extension gives the
    b_j, so |f''| <= M = sum_j j^2 |b_j|, and an inverse FFT gives f at the cell
    ends.  On a cell of width w = pi / K, f lies below its chord plus w^2 M / 8,
    so G = max(f at the two ends) + w^2 M / 8, raised by 1e-12 relative for
    rounding, bounds it.  int G / n, the proposals tested per proposal that q
    itself would need, is 1.00-1.02 on the figure models' bases.
    """

    def __init__(self, basis: ProjectionBasis):
        D = 2 * basis.max_level + 1
        K = 8 * D
        nodes = np.arange(D + 2) * (math.pi / (D + 1))
        h0 = np.empty(D + 2)
        for s in range(0, D + 2, 8 * CHUNK):  # (n, 8 CHUNK) values at a time, not (n, D + 2)
            vals = norm_plm_rows(basis.levels, np.abs(basis.orders), np.cos(nodes[s : s + 8 * CHUNK]))
            h0[s : s + 8 * CHUNK] = np.einsum("ij,ij->j", vals, vals)
        f = 2.0 * math.pi * np.sin(nodes) * h0
        # the rfft of f's odd 2(D + 1)-periodic extension is -i (D + 1) b_j
        b = -np.fft.rfft(np.concatenate([f, -f[-2:0:-1]])).imag[1 : D + 1] / (D + 1)
        spectrum = np.zeros(K + 1, dtype=complex)
        spectrum[1 : D + 1] = -1j * K * b
        ends = np.fft.irfft(spectrum, 2 * K)[: K + 1]  # f at theta = c pi / K
        self.width = math.pi / K
        slack = self.width**2 * float(np.arange(1, D + 1) ** 2 @ np.abs(b)) / 8.0
        self.cells = (np.maximum(ends[:-1], ends[1:]) + slack) * (1.0 + 1e-12)
        self.cdf = np.concatenate([[0.0], np.cumsum(self.cells * self.width)])

    @property
    def total(self) -> float:
        """int_0^pi G, n times the mean tries per proposal drawn from q."""
        return float(self.cdf[-1])

    def propose(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` angle rows with colatitude density G / int G and a uniform
        longitude; 1 - u lies in (0, 1], so theta > 0 and sin theta > 0."""
        edges = np.arange(len(self.cdf)) * self.width
        theta = np.interp((1.0 - rng.random(size)) * self.total, self.cdf, edges)
        return np.column_stack([theta, rng.uniform(0.0, 2.0 * math.pi, size=size)])

    def bound(self, theta: np.ndarray, h0: np.ndarray) -> np.ndarray:
        """G(theta) / (2 pi sin theta) at each proposal, a bound on every h_j
        there; a 2 pi sin(theta) h_0 above G raises ``SamplingError``."""
        cap = self.cells[np.minimum((theta / self.width).astype(int), len(self.cells) - 1)]
        weight = 2.0 * math.pi * np.sin(theta)
        if np.any(weight * h0 > cap * (1.0 + 1e-9)):
            worst = int(np.argmax(weight * h0 / cap))
            raise SamplingError(
                f"colatitude density {weight[worst] * h0[worst]:.17g} at theta = {theta[worst]!r} "
                f"exceeds its certified envelope {cap[worst]:.17g}"
            )
        return cap / weight


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

    Produces exactly len(basis) points.  Proposals do not depend on the
    step, so they are drawn and evaluated in chunks and consumed in order,
    WINDOW at a time: proposal x is accepted for point j+1 when
    u c(x) < h_j(x), with h_j(x) = |z(x)|^2 for the coordinates z of v(x) in
    the complement of the accepted span (``_Complement``).  On S^1 they come
    from q = h_0/n, the uniform law, and c = h_0; on S^2 from the colatitude
    envelope G of ``_ColatitudeEnvelope`` with a uniform longitude, and
    c = G(theta) / (2 pi sin theta) >= h_0.  More than MAX_REJECTS rejections
    for one point, an h_0 above its envelope, an h above h_0 (an acceptance
    probability above 1) or an accepted direction of norm 0 raise
    ``SamplingError``.
    """
    n = len(basis)
    if n == 0:
        return SampleResult(PointPattern(basis.dim, ()), 0, 0, float("nan"), 0)
    chunk = min(CHUNK, 2 * n)  # the last point alone takes about n tries
    envelope = _ColatitudeEnvelope(basis) if basis.dim == 2 else None
    comp = _Complement(n)
    points = np.empty((n, basis.dim))
    proposals = 0
    rejects = 0
    while comp.j < n:
        if envelope is None:
            angles = sample_uniform_angles(1, chunk, rng)  # every |Y|^2 is 1/(2 pi)
        else:
            angles = envelope.propose(chunk, rng)
        uniforms = rng.random(chunk)
        vmat = basis.eval_matrix(angles)  # (B, n)
        h0 = _sq_norms(vmat)
        cap = h0 if envelope is None else envelope.bound(angles[:, 0], h0)
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
            hits = np.flatnonzero(uniforms[start:stop] * cap[start:stop] < h[start:stop])
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

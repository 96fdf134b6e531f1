"""Orthogonal polynomials and spherical harmonics for S^1 and S^2.

Gegenbauer polynomials C_l^(lam) follow the generating function

    (1 + r^2 - 2 r x)^(-lam) = sum_l r^l C_l^(lam)(x),   lam > 0,

with the lam = 0 convention C_l^(0)(cos s) = cos(l s).  Associated
Legendre functions P_l^(m) carry the Condon-Shortley phase (-1)^m, and
the complex spherical harmonics are

    d=1:  Y_(l,k,1)(theta) = exp(i k l theta) / sqrt(2 pi),
          k in {0} for l=0 and {-1, +1} for l >= 1;
    d=2:  Y_(l,k,2)(colat, lon)
            = sqrt((2l+1)/(4 pi) * (l-k)!/(l+k)!) P_l^(k)(cos colat) e^(i k lon),
          k in {-l, ..., l}.

``gegenbauer_rows`` yields the Gegenbauer levels one at a time, for the
coefficient quadrature; radial series are summed
by ``spectra.eval_radial_series``, which rewrites a series on any S^d as a
cosine series (DLMF 18.5.11), tabulates its Taylor terms on a uniform grid by
one FFT each and reads each point off its nearest node as a Taylor polynomial
with a certified remainder.  The normalized
associated-Legendre recurrence runs in one evaluator, ``norm_plm_rows``, for
any set of rows (l, m) at points shared by every row: once per order up to the
highest level the rows need.  ``sampler.ProjectionBasis.eval_matrix``
assembles the Y above from it, the sampler's colatitude envelope evaluates
h_0 with it, and ``norm_plm_table`` is every row up to a level.  Certified
sups of Pbar_l^m(cos theta)^2 come from one Ehlich-Zeller loop over it on a
theta grid (``plm_sup_sq``).
"""

from __future__ import annotations

import math

import numpy as np

FOUR_PI = 4.0 * math.pi


def gegenbauer_rows(n_max: int, lam: float, s):
    """Yield C_l^(lam)(cos s) for l = 0..n_max, one array per level.

    lam > 0 runs the three-term recurrence
    l C_l = 2 (l + lam - 1) x C_(l-1) - (l + 2 lam - 2) C_(l-2) in x = cos s;
    lam = 0 yields cos(l s).  Only the last two levels are held, so a
    caller that reduces each level as it arrives needs O(s.size) memory.
    The yielded arrays feed the next levels: do not modify them in place.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    s = np.asarray(s, dtype=float)
    if lam == 0.0:
        for ell in range(n_max + 1):
            yield np.cos(ell * s)
        return
    x = np.cos(s)
    prev, cur = np.zeros_like(x), np.ones_like(x)  # C_(-1) = 0, C_0 = 1
    for ell in range(n_max + 1):
        if ell > 0:
            nxt = 2.0 * (ell + lam - 1.0) * x
            nxt *= cur
            nxt -= (ell + 2.0 * lam - 2.0) * prev
            nxt /= ell
            prev, cur = cur, nxt
        yield cur


def multiplicities(n_max: int, dim: int) -> np.ndarray:
    """Eigenvalue multiplicities m_(l,d) of the level-l harmonic spaces, for
    l = 0..n_max, as floats: m_(0,1) = 1 and m_(l,1) = 2; for d >= 2,
    m_(l,d) = (2l+d-1)/(d-1) * binom(l+d-2, l), i.e. 2l+1 when d=2.

    binom(l+d-2, l) is built as prod_j (l+j)/j; each step's product is a whole
    multiple of j, so every value below 2^53 is exact; one that overflows raises ValueError.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    ells = np.arange(n_max + 1, dtype=float)
    if dim == 1:
        out = np.full(n_max + 1, 2.0)
        out[:1] = 1.0
        return out
    binom = np.ones(n_max + 1)
    with np.errstate(over="ignore"):
        for j in range(1, dim - 1):
            binom *= ells + j
            binom /= j
        out = (2.0 * ells + dim - 1.0) * binom / (dim - 1.0)
    if not np.isfinite(out).all():
        raise ValueError(f"multiplicities at {dim=} overflow a double from level {np.argmin(np.isfinite(out))} on")
    return out


def plm_sup_sq(l_max: int) -> np.ndarray:
    """Certified sup over the sphere of the normalized |P_l^(m)|^2 table.

    Pbar_l^m(cos theta)^2 is a trigonometric polynomial of degree 2l, even and
    symmetric about pi/2, so by the Ehlich-Zeller inequality its sup is at most
    its max over the theta grid k pi / K divided by cos(pi 2l / (2K)), and the
    grid's points in [0, pi/2] carry that max.  Rows run through
    ``norm_plm_rows`` in blocks of about 2^16 grid values, from the highest
    level down; a block's K is 4 times its highest degree, so each factor is at
    most 1/cos(pi/8) and lower rows use coarser grids.  The returned
    (L+1, L+1) array (zero above the diagonal) is a rigorous upper bound, much
    sharper than the addition-formula bound for |m| near l.  The sampler does
    not use it: its envelope is ``sampler._ColatitudeEnvelope``, per basis.
    """
    ells, ms = np.tril_indices(l_max + 1)
    degree = np.maximum(2 * ells, 1)
    sup = np.zeros((l_max + 1, l_max + 1))
    by_degree = np.argsort(degree, kind="stable")[::-1]
    b = 0
    while b < len(ells):
        K = 4 * int(degree[by_degree[b]])
        theta = np.arange(K // 2 + 1) * (math.pi / K)
        rows = by_degree[b : b + max(1, (1 << 16) // theta.size)]
        vals = norm_plm_rows(ells[rows], ms[rows], np.cos(theta))
        vals *= vals
        sup[ells[rows], ms[rows]] = vals.max(axis=1) / np.cos(math.pi * degree[rows] / (2.0 * K))
        b += len(rows)
    return sup


def norm_plm_rows(ells, ms, x) -> np.ndarray:
    """Fully normalized associated Legendre values for rows (l_i, m_i), 0 <= m <= l,
    at points x shared by every row.

    Entry [i, c] is Pbar_(l_i)^(m_i)(x[c]) = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)
    P_l^(m)(x[c]).  From the seed Pbar_m^m = (-1)^m prod_(i<=m) sqrt((2i+1)/(2i))
    sin^m / sqrt(4 pi), the recurrence Pbar_l^m = a (x Pbar_(l-1)^m - b Pbar_(l-2)^m)
    runs once per order up to the highest level a row of that order needs.
    Orders run sorted by their step count, so the ones still running at a step
    lead, and each step reads their a, b from one table over those orders and
    the steps; rows are read off as their levels come up, and l = m takes no step.
    Every value stays within sqrt((2l+1)/(4 pi)), so high levels do not overflow.
    """
    ells = np.asarray(ells, dtype=int)
    ms = np.asarray(ms, dtype=int)
    x = np.asarray(x, dtype=float)
    if np.any((ms < 0) | (ms > ells)):
        raise ValueError("associated Legendre rows need 0 <= m <= l")
    steps = ells - ms
    i = np.arange(1, int(ms.max(initial=0)) + 1)
    diag = np.cumprod(-np.sqrt((2.0 * i + 1.0) / (2.0 * i)))  # (-1)^m prod_(i<=m) sqrt(...)
    seed = np.concatenate([[1.0], diag]) / math.sqrt(FOUR_PI)
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    state_m, state_of_row = np.unique(ms, return_inverse=True)
    state_steps = np.zeros(len(state_m), dtype=int)
    np.maximum.at(state_steps, state_of_row, steps)
    by_steps = np.argsort(-state_steps, kind="stable")  # orders still running at step t lead
    state_m, state_steps = state_m[by_steps], state_steps[by_steps]
    state_of_row = np.argsort(by_steps)[state_of_row]
    top = int(steps.max(initial=0))
    active = np.searchsorted(-state_steps, -np.arange(1, top + 1), side="right")
    ell = state_m + np.arange(1.0, top + 1)[:, None]  # [step - 1, order]; b = 0 at l = m + 1
    a_tab = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - state_m * state_m))
    b_tab = np.sqrt(((ell - 1.0) ** 2 - state_m * state_m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
    cur = seed[state_m, None] * sx ** state_m[:, None]  # 0.0**0 == 1 at the poles
    prev = np.zeros_like(cur)
    scratch = np.empty_like(cur)
    out = np.empty((len(ms), x.size))
    rows = np.argsort(steps, kind="stable")
    due = np.searchsorted(steps[rows], np.arange(top + 2))  # rows[due[t]:due[t + 1]] end at step t
    for t in range(top + 1):
        if t:  # Pbar_(m+t) = a (x Pbar_(m+t-1) - b Pbar_(m+t-2)), into the older buffer
            k = active[t - 1]
            nxt = prev[:k]
            nxt *= b_tab[t - 1, :k, None]
            np.multiply(x, cur[:k], out=scratch[:k])
            np.subtract(scratch[:k], nxt, out=nxt)
            nxt *= a_tab[t - 1, :k, None]
            prev, cur = cur, prev
        done = rows[due[t] : due[t + 1]]
        out[done] = cur[state_of_row[done]]
    return out


def norm_plm_table(l_max: int, x) -> np.ndarray:
    """Fully normalized associated Legendre table, shape (L+1, L+1) + x.shape.

    Entry [l, m] is Pbar_l^m(x) of ``norm_plm_rows`` for m <= l (zero above
    the diagonal): every row of the table at shared points.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((l_max + 1, l_max + 1) + arr.shape)
    ell, m = np.tril_indices(l_max + 1)
    out[ell, m] = norm_plm_rows(ell, m, arr.ravel()).reshape((len(ell),) + arr.shape)
    return out

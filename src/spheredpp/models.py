"""Parametric isotropic model families and their coefficient representations.

Families (radial correlation psi, or a direct spectrum):

  * multiquadric: psi(s) = ((1-delta)^2 / (1+delta^2-2 delta cos s))^tau,
    the negative-binomial Schoenberg family with p = 2 delta/(1+delta^2);
    its d-Schoenberg coefficients come from one backward three-term
    recurrence for every (tau, delta, d), with no quadrature;
  * spectral: eigenvalues lambda_(l,d) = 1/(1 + beta exp((l/alpha)^kappa));
  * most_repulsive: eigenvalues filled to 1 level by level until the
    target expected count eta is reached;
  * matern: psi(s) = 2^(1-nu)/Gamma(nu) (s/c)^nu K_nu(s/c), nu in (0, 1/2];
  * circular_matern (d=1): lambda_(l,1) = sigma^2 / (alpha^2 + l^2)^(nu+1/2);
  * askey / c2_wendland / c4_wendland / spherical: compactly supported
    correlations, each one factored polynomial (1 - t)^a q(t) in t = s/c,
    from which its Taylor series, closed-form 1-Schoenberg coefficients and
    tail majorant are derived.

Matern alone inverts psi by quadrature; every compact family has one exact
closed form for each c its interval admits.  The multiquadric and the
spectral family are cut by ``truncate_levels``, under one tail rule.

A psi family specifies a DPP through its kernel C_0 = rho psi with
rho <= rho_max ("kernel" mode) or its density kernel C~_0 = chi psi with
any chi > 0 ("density" mode); a spectrum family by its parameters alone.
FAMILY_PARAMS holds each family's parameters, the interval of each and the
sphere dimension the family needs.  ModelSpec and the family functions check
against it, so a bad value fails, named, before any coefficient is computed.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .harmonics import multiplicities
from .spectra import (
    DSchoenbergSeq,
    ExistenceError,
    MercerSpectrum,
    TruncationPolicy,
    _integer,
    _number,
    beta_from_kernel,
    correlation_mercer,
    d_schoenberg_from_psi,
    from_density_kernel,
    mercer_from_d,
    to_density_kernel,
)
from .sphere import surface_measure


class TruncationError(RuntimeError):
    """The level cap was reached before the series tail fell below the
    truncation tolerance."""


# ---------------------------------------------------------------------------
# Multiquadric
# ---------------------------------------------------------------------------


def multiquadric_psi(tau: float, delta: float):
    """Closed-form radial correlation of the multiquadric family."""
    _check_params("multiquadric", tau=tau, delta=delta)

    def psi(s):
        s = np.asarray(s, dtype=float)
        return ((1.0 - delta) ** 2 / (1.0 + delta * delta - 2.0 * delta * np.cos(s))) ** tau

    return psi


def _approaches(ratios, limit: float) -> bool:
    """Whether successive term ratios move monotonically toward ``limit``
    (up to rounding), from one side.

    Ratios that keep doing so past the evaluated levels stay between the
    last one checked and ``limit``.  This is checked per call, not proved.
    """
    if len(ratios) < 3:
        return False
    gap = np.asarray(ratios, dtype=float) - limit
    slack = 1e-12 * abs(float(ratios[-1]))
    one_side = bool(np.all(gap >= -slack) or np.all(gap <= slack))
    return one_side and bool(np.all(np.diff(np.abs(gap)) <= slack))


def truncate_levels(series, trunc: TruncationPolicy):
    """(values of levels 0..L, tail_L) for the smallest L with
    tail_L <= tail_tol * (represented_L + tail_L), in expected points.

    ``series(n)`` gives, for levels 0..n, their values, their expected counts,
    an upper bound b_l on each count, and a ratio rho that bounds b_(l+1)/b_l
    past level n (None where none is known).  tail_L is the exact suffix sum
    of b over the evaluated levels past L, plus the geometric bound
    b_n rho / (1 - rho) past level n; without rho < 1 - 1e-9 that n gives no
    cut.  The level count doubles from 64 up to max_level; reaching it first
    raises TruncationError.
    """
    n_max = min(64, trunc.max_level)
    while True:
        values, terms, bounds, rho = series(n_max)
        beyond = math.inf
        if rho is not None and rho < 1.0 - 1e-9:
            beyond = bounds[-1] * rho / (1.0 - rho)
        suffix = np.cumsum(bounds[::-1])[::-1]  # suffix[l] = sum of bounds from l on
        tails = np.append(suffix[1:], 0.0) + beyond
        represented = np.cumsum(terms)
        cut = np.flatnonzero(np.isfinite(tails) & (tails <= trunc.tail_tol * (represented + tails)))
        if len(cut):
            return values[: cut[0] + 1], float(tails[cut[0]])
        if n_max == trunc.max_level:
            held = f"max_level={trunc.max_level}, where the levels represent {represented[-1]:.6g} expected points"
            if not math.isfinite(tails[-1]):
                raise TruncationError(f"no tail bound is known past {held}")
            raise TruncationError(
                f"series tail {tails[-1]:.3g} exceeds tail_tol = {trunc.tail_tol:g} "
                f"of the expected count at {held}"
            )
        n_max = min(2 * n_max, trunc.max_level)


_RESCALE_BITS = 500  # the recurrence's running values stay within 2^(+-500)


def _multiquadric_weights(tau: float, delta: float, dim: int, top: int):
    """Unnormalized beta_(k,d) for k = 0..top, as arrays (mant, expo) with
    beta_k proportional to mant_k 2^expo_k; mant is np.longdouble.

    Miller's backward recurrence (see ``multiquadric_d_schoenberg``) from
    beta_(top+1) = 0 and beta_top = 1, in the form
    beta_k = (beta_(k+1) + delta (delta beta_(k+1) - P_k beta_(k+2))) / (delta Q_k),
    which never rounds 1 + delta^2: a rounded coefficient there would move the
    decay ratio off delta and drift the coefficients by an ulp per level.
    Rounding still adds up over the levels (about 100 ulps of beta_0 at
    delta = 0.965 in double precision), so the recurrence runs in
    np.longdouble: with x86's 64-bit mantissas beta_0 comes out correctly
    rounded; where longdouble is double, the errors are those 100 ulps.
    delta Q_k is split into a mantissa and a power of two, and the running
    values are rescaled by powers of two, both exact, so no delta or tau
    under- or overflows the recurrence.
    """
    ext = np.longdouble
    lam = ext(dim - 1) / 2
    tau, delta = ext(tau), ext(delta)
    k = np.arange(top + 1, dtype=ext)
    q = np.full(top + 1, 2 * tau)  # Q_0 = 2 tau, also the limit lam -> 0 on S^1
    q[1:] = (k[1:] + tau) * (k[1:] + 2 * lam) / ((k[1:] + lam) * (k[1:] + 1))
    p = (k + 2 * lam + 2 - tau) * (k + 2) / ((k + lam + 2) * (k + 2 * lam + 1))
    div, shift = np.frexp(delta * q)  # delta Q_k = div_k 2^shift_k
    div, p, unshift = list(div), list(p), list(np.ldexp(ext(1), shift))
    high, low = np.ldexp(ext(1), _RESCALE_BITS), np.ldexp(ext(1), -_RESCALE_BITS)
    shift = shift.tolist()
    mant, expo = [ext(1)] * (top + 1), [0] * (top + 1)
    b1, b2, e = ext(1), ext(0), 0  # beta_(i+1) and beta_(i+2) in units of 2^e
    for i in range(top - 1, -1, -1):
        b0 = (b1 + delta * (delta * b1 - p[i] * b2)) / div[i]
        b2, b1, e = b1 * unshift[i], b0, e - shift[i]
        if not low <= b1 <= high:
            step = _RESCALE_BITS if b1 > high else -_RESCALE_BITS
            b1, b2, e = np.ldexp(b1, -step), np.ldexp(b2, -step), e + step
        mant[i], expo[i] = b1, e
    return np.array(mant), np.array(expo)


def multiquadric_d_schoenberg(
    tau: float,
    delta: float,
    dim: int,
    trunc: TruncationPolicy = TruncationPolicy(),
    chi: float | None = None,
) -> DSchoenbergSeq:
    """d-Schoenberg coefficients of the multiquadric correlation.

    With lam = (d-1)/2, (1 + delta^2 - 2 delta x) psi' = 2 tau delta psi gives
    a three-term recurrence in the level, for every d >= 1:

        delta Q_k beta_k = (1 + delta^2) beta_(k+1) - delta P_k beta_(k+2),
        Q_k = (k + tau)(k + 2 lam) / ((k + lam)(k + 1)),  Q_0 = 2 tau,
        P_k = (k + 2 lam + 2 - tau)(k + 2) / ((k + lam + 2)(k + 2 lam + 1)).

    The coefficients are its solution that decays like delta^k (the other
    grows like delta^-k).  Miller's algorithm (Gautschi 1967) runs it
    backward from lead = 20/|ln delta| levels above a level count at least the
    last level wanted, and normalizes by sum beta = psi(0) = 1.  The start's
    error shrinks by delta^(2 lead) = e^-40 over the lead only asymptotically:
    near the cut the ratios beta_(k+1)/beta_k of a large tau stay well above
    delta, and a start just lead levels above the cut leaves 1.7e-13 relative
    error at tau = 10, delta = 0.82 on S^2 and 7e-11 at tau = 100, delta = 0.3.
    The start below lies higher, by the slack of the doubling stage at which
    the predicted cut is found (41 to 1768 levels at those tau), and a test
    pins the result within 5e-14 of a far higher start.  One route serves
    every tau, delta and d; no quadrature is involved.  A delta so close to 1
    that the start lies more than 16 max_level levels up raises
    TruncationError at once.

    The recurrence runs once per call.  ``truncate_levels`` first cuts the
    large-k form of the coefficients (``_multiquadric_log_asymptote``), which
    costs no recurrence; the exact run then starts lead levels above the
    level count at which that cut was found (max_level when none was), and
    every level count the exact cut tries is a slice of that run.  Only a
    cut the prediction placed too low runs the recurrence again, from the
    level count that needs it.  The prediction raises nothing: for large tau
    it overshoots (5036 levels for tau = 100, delta = 0.97 on S^1, which cuts
    at 2328), so it cannot refuse a model.

    ``truncate_levels`` cuts the series.  Kernel mode (chi None) counts
    eta beta, so eta cancels; density mode counts m lambda with
    lambda~ = chi sigma_d beta / m, each at most chi sigma_d beta.  The ratios
    r_k = beta_(k+1)/beta_k approach delta monotonically, since
    beta_k ~ k^(tau+lam-1) delta^k: from below when tau + lam < 1, from above
    when tau + lam > 1.  That is checked per call, and rho = max(r_n, delta)
    then bounds every ratio from the last evaluated level n on (r_n..r_(n+2)
    are checked).
    """
    _check_params("multiquadric", tau=tau, delta=delta)
    lead = math.floor(20.0 / -math.log(delta)) + 1  # delta^(2 lead) < e^-40
    if lead > 16 * max(trunc.max_level, 64):
        raise TruncationError(
            f"delta = {delta!r} is too close to 1: the coefficient recurrence would start "
            f"{lead} levels above the cut, more than 16 x max_level={trunc.max_level}"
        )
    scale = 1.0 if chi is None else chi * surface_measure(dim)

    def cut_terms(beta, ratios):
        # ratios: r_k = beta_(k+1) / beta_k for k = n..n+2
        rho = max(float(ratios[0]), delta) if _approaches(ratios, delta) else None
        if chi is None:
            return beta, beta, beta, rho
        m = multiplicities(len(beta) - 1, dim)
        lam_tilde = scale * beta / m
        return beta, m * (lam_tilde / (1.0 + lam_tilde)), scale * beta, rho

    stages = []

    def predicted(n):
        stages.append(n)
        log_beta = _multiquadric_log_asymptote(tau, delta, dim, n + 3)
        return cut_terms(np.exp(log_beta[: n + 1]), np.exp(np.diff(log_beta[n:])))

    try:
        truncate_levels(predicted, trunc)
    except TruncationError:
        pass  # no cut predicted by max_level: the run reaches it, and the cut below decides

    beta, ratios = _multiquadric_beta(tau, delta, dim, stages[-1] + 2 + lead)

    def series(n):
        nonlocal beta, ratios
        if len(beta) < n + 3 + lead:  # the prediction fell short: run again from higher up
            beta, ratios = _multiquadric_beta(tau, delta, dim, n + 2 + lead)
        return cut_terms(beta[: n + 1], ratios[n : n + 3])

    values, tail = truncate_levels(series, trunc)
    return DSchoenbergSeq(dim, values, tail_bound=tail / scale)


def _multiquadric_beta(tau: float, delta: float, dim: int, top: int):
    """beta_(k,d) for k = 0..top from one run of the recurrence, normalized over
    every level it reaches, and the ratios beta_(k+1,d) / beta_(k,d)."""
    mant, expo = _multiquadric_weights(tau, delta, dim, top)
    weights = np.ldexp(mant, expo - expo.max())
    ratios = np.ldexp(mant[1:] / mant[:-1], np.diff(expo))
    return (weights / np.sum(weights)).astype(float), ratios


def _multiquadric_log_asymptote(tau: float, delta: float, dim: int, top: int) -> np.ndarray:
    """log of the large-k form of beta_(k,d), k = 0..top, for predicting the cut.

    Cohl's series beta_k = (1-delta)^(2tau) (tau)_k (2lam)_k / ((lam)_k k!) delta^k
    2F1(tau-lam, k+tau; k+lam+1; delta^2) (with 2 (tau)_k / k! on S^1, k >= 1),
    with the 2F1 replaced by its k -> infinity limit (1-delta^2)^(lam-tau).  It is
    exact when tau = lam and decays like delta^k k^(tau+lam-1), as beta_k does.
    """
    lam = (dim - 1) / 2.0
    k = np.arange(1, top + 1, dtype=float)
    steps = math.log(delta) + np.log((k - 1.0 + tau) / k)
    if lam > 0.0:
        steps += np.log((k - 1.0 + 2.0 * lam) / (k - 1.0 + lam))
    else:
        steps[0] += math.log(2.0)
    log_scale = 2.0 * tau * math.log1p(-delta) + (lam - tau) * math.log1p(-delta * delta)
    return log_scale + np.concatenate(([0.0], np.cumsum(steps)))


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
    _check_params("spectral", alpha=alpha, beta=beta, kappa=kappa)

    def series(n):
        with np.errstate(over="ignore"):  # lambda is 0 where exp overflows
            lam = 1.0 / (1.0 + beta * np.exp((np.arange(n + 1) / alpha) ** kappa))
        terms = multiplicities(n, dim) * lam
        if terms[-1] == 0.0:  # the terms decrease to 0: nothing lies past them once they underflow
            return lam, terms, terms, 0.0
        ratios = terms[1:][-3:] / terms[:-1][-3:]
        return lam, terms, terms, ratios[-1] if _approaches(ratios, 0.0) else None

    values, tail = truncate_levels(series, trunc)
    return MercerSpectrum(dim, "kernel", values, tail_bound=tail)


# ---------------------------------------------------------------------------
# Most repulsive family
# ---------------------------------------------------------------------------


def most_repulsive_spectrum(
    eta: float, dim: int, trunc: TruncationPolicy = TruncationPolicy()
) -> MercerSpectrum:
    """Eigenvalues of the most repulsive DPP with expected count eta.

    lambda = 1 below the boundary level n, a fractional value at n so
    that sum m*lambda = eta, and 0 above; n is the level with
    cum(n-1) < eta <= cum(n) of cumulative multiplicities.  The levels
    are cut by ``truncate_levels``: a boundary past max_level raises
    TruncationError, and a boundary level holding at most tail_tol of eta
    is cut off into the tail bound.
    """
    _check_params("most_repulsive", eta=eta)

    def series(n):
        mults = multiplicities(n, dim)
        below = np.concatenate(([0.0], np.cumsum(mults[:-1])))  # cum(l-1)
        lam = np.clip((eta - below) / mults, 0.0, 1.0)
        terms = mults * lam
        return lam, terms, terms, 0.0 if below[-1] + mults[-1] >= eta else None

    try:
        values, tail = truncate_levels(series, trunc)
    except TruncationError as err:
        level = _boundary_level(eta, dim)
        raise TruncationError(
            f"most repulsive eta = {eta:g} on S^{dim} needs levels up to its boundary level "
            f"{level if level < 10**15 else format(level, '.3e')}: {err}"
        ) from None
    return MercerSpectrum(dim, "kernel", values, tail_bound=tail)


def _boundary_level(eta: float, dim: int) -> int:
    """The smallest n with cum(n) >= eta, cum(n) = C(n+d, d) + C(n+d-1, d) the
    number of eigenfunctions of levels 0..n; exact integer search."""

    def cum(n):
        return math.comb(n + dim, dim) + math.comb(n + dim - 1, dim)

    import bisect  # only a failing resolve gets here

    hi = 1
    while cum(hi) < eta:
        hi *= 2
    return bisect.bisect_left(range(hi + 1), eta, key=cum)


# ---------------------------------------------------------------------------
# Matern
# ---------------------------------------------------------------------------


_KVE_STEP = 0.3  # the largest trapezoid step in t: this for z <= 1, this/sqrt(z) past 1
_KVE_CUT = 40.0  # the rule stops where the exponent 2 z sinh^2(t/2) reaches this
_KVE_BLOCK = 256  # points per block, so the (points x nodes) arrays stay small


def _kve(nu: float, z: np.ndarray) -> np.ndarray:
    """e^z K_nu(z) for a 1-D array of finite z > 0, by the trapezoid rule on

        e^z K_nu(z) = int_0^inf exp(-2 z sinh^2(t/2)) cosh(nu t) dt,

    whose error falls like e^(-pi^2/h) in the step h (Trefethen and Weideman
    2014, SIAM Review 56).  Each point's nodes span [0, T], with T where the
    exponent reaches _KVE_CUT, so T grows like ln(1/z) as z -> 0.  The points
    of one block share a node count, the smallest that keeps each step at most
    _KVE_STEP / max(1, sqrt(z)).  Every node is inside its point's T, so the
    exponent is written (sqrt(z) sinh(t/2))^2: no factor overflows, even at a
    subnormal z.
    """
    out = np.empty_like(z)
    for start in range(0, len(z), _KVE_BLOCK):
        root = np.sqrt(z[start : start + _KVE_BLOCK, None])
        span = 2.0 * np.arcsinh(math.sqrt(_KVE_CUT / 2.0) / root)
        nodes = math.ceil(float(np.max(span * np.maximum(root, 1.0))) / _KVE_STEP)
        step = span / nodes
        t = step * np.arange(nodes + 1)
        f = np.exp(-2.0 * (root * np.sinh(t / 2.0)) ** 2) * np.cosh(nu * t)
        out[start : start + _KVE_BLOCK] = step[:, 0] * (f.sum(axis=1) - 0.5 * f[:, 0])
    return out


def matern_psi(nu: float, c: float):
    """Matern correlation psi(s) = 2^(1-nu)/Gamma(nu) (s/c)^nu K_nu(s/c).

    nu is restricted to (0, 1/2], the range in which the function stays
    a valid correlation under the great-circle metric; psi(0) = 1 is
    the removable limit.  nu = 1/2 gives exp(-s/c).  Below 1/2, psi takes
    z^nu e^(-z) from numpy and e^z K_nu(z) from ``_kve``.  Measured for
    nu from 0.01 to 0.4999: ``_kve`` is within 2.4e-14 relative of a
    40-digit K_nu (mpmath) on z in [1e-300, 1e3], and psi within 2.7e-14
    absolute of its form with scipy's K_nu, for s in [1e-19, pi] and c from
    0.5 to 1e20.  The result has the shape of s; psi is even, so a negative
    s gives psi(|s|), and NaN gives NaN.
    """
    _check_params("matern", nu=nu, c=c)
    if nu == 0.5:

        def psi(s):
            return np.exp(-np.abs(np.asarray(s, dtype=float)) / c)

        return psi

    pref = 2.0 ** (1.0 - nu) / math.gamma(nu)

    def psi(s):
        z = np.abs(np.asarray(s, dtype=float)) / c
        # the limits psi(0) = 1 and psi(inf) = 0; NaN stays NaN
        out = np.where(z > 0.0, 0.0, np.where(z == 0.0, 1.0, math.nan))
        pos = (z > 0.0) & (z < math.inf)
        x = z[pos]
        out[pos] = pref * np.exp(nu * np.log(x) - x) * _kve(nu, x)
        return out

    return psi


def matern_d1_coefficients(c: float, n_max: int) -> DSchoenbergSeq:
    """Exact 1-Schoenberg coefficients of the exponential correlation
    (nu = 1/2): beta_(0,1) = (c/pi)(1 - e^(-pi/c)) and
    beta_(l,1) = (2/pi)(1 + (-1)^(l+1) e^(-pi/c)) c/(1 + c^2 l^2)."""
    _check_params("matern", c=c)
    e = math.exp(-math.pi / c)
    one_minus_e = -math.expm1(-math.pi / c)  # 1.0 - e cancels for large c
    ells = np.arange(1, n_max + 1)
    values = np.empty(n_max + 1)
    values[0] = c / math.pi * one_minus_e
    values[1:] = (2.0 / math.pi) * np.where(ells % 2, 1.0 + e, one_minus_e) * c / (1.0 + c * c * ells**2)
    # 1/l^2 tail, which bounds nothing with no level past 0; 1 - sum rounds below 0 past c ~ 1e7
    tail = (2.0 / math.pi) * (1.0 + e) / (c * n_max) if n_max else math.inf
    return DSchoenbergSeq(1, values, tail_bound=max(0.0, min(tail, 1.0 - float(np.sum(values)))))


def matern_eta_max_d1(c: float) -> float:
    """eta_max = 1/beta_(0,1) = (pi/c) / (1 - exp(-pi/c)) for nu = 1/2, d = 1
    (psi is positive), from the same coefficients that resolve uses."""
    return 1.0 / float(matern_d1_coefficients(c, 0).values[0])


def matern_d_schoenberg(nu: float, c: float, dim: int, n_max: int) -> DSchoenbergSeq:
    """Matern d-Schoenberg coefficients; exact for nu=1/2 on S^1, else by
    quadrature (``d_schoenberg_from_psi``), whose panels graded toward s = 0
    resolve psi ~ 1 - C s^(2 nu) there.  The series decays like
    l^(-2 nu - d), so the recorded tail is not small for small nu.  That
    tail is 1 - sum(values) (for nu = 1/2 on S^1, the smaller of it and the
    1/l^2 majorant), which rounds: an estimate of the mass past n_max, not
    a bound."""
    if nu == 0.5 and dim == 1:
        return matern_d1_coefficients(c, n_max)
    return d_schoenberg_from_psi(matern_psi(nu, c), dim, n_max)


def matern_pcf_slope(nu: float, c: float) -> float:
    """g_0'(0) of the Matern DPP: 2/c for nu = 1/2, +inf for nu < 1/2."""
    _check_params("matern", nu=nu, c=c)
    return 2.0 / c if nu == 0.5 else math.inf


# ---------------------------------------------------------------------------
# Circular Matern (d = 1)
# ---------------------------------------------------------------------------


_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


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
    return _circular_matern(sigma, nu, alpha, trunc)[0]


def _circular_matern(sigma: float, nu: float, alpha: float, trunc: TruncationPolicy):
    """(``circular_matern_spectrum``, its masses beta_l = m_l lambda_l / (eta + tail)).

    Both come from log lambda_l = 2 ln sigma - (nu + 1/2) ln(alpha^2 + l^2), so no
    power over- or underflows on the way; an eigenvalue below the double range
    is 0.  Existence is decided on log lambda_0, and beta is formed relative to
    the larger of lambda_0 and the tail, so that it is found even where eta
    underflows to 0.  A tail bound beyond the double range raises ValueError
    naming sigma and nu, and levels that hold none of the mass relative to the
    tail raise TruncationError naming max_level.
    """
    _check_params("circular_matern", sigma=sigma, nu=nu, alpha=alpha)
    if trunc.max_level < 1:
        raise ValueError(f"trunc.max_level must be >= 1 for circular_matern, got {trunc.max_level}")
    L = trunc.max_level
    log_lam = 2.0 * math.log(sigma) - (2.0 * nu + 1.0) * np.log(np.hypot(alpha, np.arange(L + 1)))
    if log_lam[0] > math.log1p(1e-12):
        raise ExistenceError(
            f"circular Matern DPP requires sigma <= alpha^(nu+1/2), got sigma = {sigma!r}: "
            f"lambda_0 = exp({log_lam[0]:.6g}) > 1"
        )
    log_tail = 2.0 * math.log(sigma) - 2.0 * nu * math.log(L) - math.log(nu)
    if log_tail > _LOG_DOUBLE_MAX:
        raise ValueError(
            f"sigma = {sigma!r}, nu = {nu!r}: the tail bound sigma^2 L^(-2 nu) / nu past "
            f"L = max_level={L} is exp({log_tail:.6g}), beyond the double range"
        )
    kernel = MercerSpectrum(1, "kernel", np.exp(log_lam), tail_bound=math.exp(log_tail))
    top = max(float(log_lam[0]), log_tail)
    mass, rest = multiplicities(L, 1) * np.exp(log_lam - top), math.exp(log_tail - top)
    if not np.any(mass):
        raise TruncationError(
            f"the levels up to max_level={L} hold none of the mass: next to the tail bound "
            f"exp({log_tail:.6g}), every lambda_l underflows (lambda_0 = exp({log_lam[0]:.6g}))"
        )
    total = float(np.sum(mass)) + rest
    return kernel, DSchoenbergSeq(1, mass / total, tail_bound=rest / total)


# ---------------------------------------------------------------------------
# Compactly supported families (Askey, Wendland, spherical), d = 1
# ---------------------------------------------------------------------------

# Each family is psi(s) = p(s/c), with p(t) = (1 - t)^a q(t) on [0, 1] and 0
# past it, kept as (a, the numerator of q in rising powers, its denominator),
# followed by the radius in u = c l below which its coefficients take the
# Taylor series: the closed form cancels there, C4-Wendland's up to u = 3.75.
_COMPACT_FACTORS = {
    "askey": (3, (1,), 1, 3.0),
    "c2_wendland": (4, (1, 4), 1, 3.0),
    "c4_wendland": (6, (3, 18, 35), 3, 3.75),
    "spherical": (2, (2, 1), 2, 3.0),
}
COMPACT_VARIANTS = tuple(_COMPACT_FACTORS)

_SERIES_TERMS = 13


def _horner(coeffs, x):
    """sum_i coeffs[i] x^i (rising powers) by Horner's rule."""
    acc = float(coeffs[-1])
    for coef in coeffs[-2::-1]:
        acc = acc * x + coef
    return acc


# pi F(u) = 2 int_0^1 p(t) cos(u t) dt of one family, so that beta_(l,1) = c F(c l)
# for l >= 1 and beta_(0,1) = c F(0) / 2 = c beta0 while c <= pi.  For
# u < radius, pi F(u) = sum_k series[k] u^(2k); from it on,
# pi F(u) = scale (P(u) + S(u) sin u + C(u) cos u) / u^power with P, S, C the
# integer polynomials plain, sin, cos (rising powers).  F(u) <= sum_i w_i u^(-k_i)
# for u > 0, with (w_i, k_i) the pairs of majorant.  Past pi, (1/x) int_0^x p is
# the polynomial mean in x, and odd[j] holds (-1)^j p^(2j+1) (rising powers,
# padded to deg p terms).  (A namedtuple: a dataclass would add a millisecond to
# the package import.)
_CompactForm = namedtuple("_CompactForm", "beta0 radius series scale plain sin cos power majorant mean odd")


@lru_cache(maxsize=None)
def _compact_form(variant: str) -> _CompactForm:
    """The coefficient function of ``variant``, derived in exact rationals from
    its factors and rounded once.

    The Taylor series is pi F(u) = sum_k 2 (-1)^k u^(2k) / (2k)! int_0^1 p t^(2k) dt.
    Integrating int_0^1 p(t) e^(iut) dt by parts deg p + 1 times gives
    sum_j (-1)^j [p^(j)(t) e^(iut)]_0^1 / (iu)^(j+1): with m = j + 1, t = 0
    gives a plain u^-m term (odd j only) and t = 1 a cos u or sin u one
    (j >= a only).  As |cos u|, |sin u| <= 1, the weight of u^-m in the
    majorant is max(0, plain_m + |cos_m| + |sin_m|) / pi.  Past pi the
    integral stops at x = pi/c < 1, where sin(u x) = 0 and cos(u x) = (-1)^l,
    so only the odd derivatives' boundary terms remain, kept as odd.  fractions
    is imported on the first call, so importing the package does not load it.
    """
    from fractions import Fraction

    a, q, den, radius = _COMPACT_FACTORS[variant]
    p = [Fraction(x, den) for x in q]
    for _ in range(a):  # times (1 - t)
        p = [x - y for x, y in zip(p + [0], [0] + p)]

    def moment(m):  # int_0^1 p(t) t^m dt
        return sum(x / (i + m + 1) for i, x in enumerate(p))

    series = [2 * (-1) ** k * moment(2 * k) / math.factorial(2 * k) for k in range(_SERIES_TERMS)]
    power = len(p)  # deg p + 1
    plain, cos, sin = ([Fraction(0)] * power for _ in range(3))  # coefficients of u^(power - m)
    odd = []
    deriv = p  # p^(j), j = m - 1
    for m in range(1, power + 1):
        sign = 2 * (-1) ** (m - 1)
        re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[m % 4]  # (iu)^-m = (re - i im) u^-m
        plain[power - m] = -sign * re * deriv[0]
        cos[power - m] = sign * re * sum(deriv)
        sin[power - m] = sign * im * sum(deriv)
        if m % 2 == 0:  # deriv = p^(2j+1) with j = m/2 - 1
            odd.append(tuple((-1) ** (m // 2 - 1) * float(x) for x in deriv) + (0.0,) * (power - 1 - len(deriv)))
        deriv = [i * x for i, x in enumerate(deriv)][1:]
    weights = [(x + abs(y) + abs(z), power - i) for i, (x, y, z) in enumerate(zip(plain, cos, sin))]
    terms = [x for x in plain + cos + sin if x]
    scale = Fraction(math.gcd(*(x.numerator for x in terms)), math.lcm(*(x.denominator for x in terms)))
    mass = moment(0)
    return _CompactForm(
        beta0=mass.numerator / (mass.denominator * math.pi),
        radius=radius,
        series=tuple(float(x) for x in series),
        scale=float(scale),
        plain=tuple(int(x / scale) for x in plain),
        sin=tuple(int(x / scale) for x in sin),
        cos=tuple(int(x / scale) for x in cos),
        power=power,
        majorant=tuple((float(w) / math.pi, k) for w, k in weights[::-1] if w > 0),
        mean=tuple(float(x / (i + 1)) for i, x in enumerate(p)),
        odd=tuple(odd),
    )


def compact_support_psi(variant: str, c: float):
    """Radial correlation psi(s) = p(s/c) with support [0, c], p kept in its
    factored form (1 - t)^a q(t); psi is even, so a negative s gives psi(|s|),
    and NaN gives NaN."""
    _check_compact(variant, c)
    a, q, den, _ = _COMPACT_FACTORS[variant]

    def psi(s):
        t = np.minimum(np.abs(np.asarray(s, dtype=float)) / c, 1.0)  # p(1) = 0 past the support
        return (1.0 - t) ** a * _horner(q, t) / den

    return psi


def _check_compact(variant, c):
    if variant not in COMPACT_VARIANTS:
        raise ValueError(f"variant must be one of {COMPACT_VARIANTS}")
    _check_params(variant, c=c)


def compact_support_coeffs(variant: str, c: float, n_max: int) -> DSchoenbergSeq:
    """1-Schoenberg coefficients of the compactly supported families.

    While the support [0, c] stays inside [0, pi], beta_(l,1) = c F(c l)
    with F the unit-scale coefficient function of ``_compact_form``: its
    Taylor series for c l below the family's radius, where the closed form
    cancels, and the closed form from there on.  Past pi (Askey and the
    spherical family; the Wendlands end at pi) psi is the polynomial
    P(s) = p(s/c) on all of [0, pi], and the same integration by parts, with
    the boundary terms at s = pi kept, gives with x = pi/c and u = c l

        beta_(0,1) = (1/x) int_0^x p,
        beta_(l,1) = (2c/pi) sum_j (-1)^j [(-1)^l p^(2j+1)(x) - p^(2j+1)(0)] / u^(2j+2).

    At even l each difference is taken as a polynomial in x with no constant
    term, so the two ends do not cancel at large c.  The tail bound comes from
    a majorant F(u) <= sum_i w_i u^(-k_i), the family's own within pi and the
    largest term of each j over the parity of l past it, and from
    sum_(l>L) l^(-k) <= L^(1-k) / (k - 1): the mass past L = n_max is at most
    1 and sum_i w_i (c L)^(1-k_i) / (k_i - 1), a bound, which 1 - sum(values)
    is not, since that difference rounds.  A coefficient below -1e-15 means psi
    is not a correlation on S^1 and raises ValueError naming params.c; rounding
    above it is clamped to 0.
    """
    _check_compact(variant, c)
    form = _compact_form(variant)
    ells = np.arange(1, n_max + 1, dtype=float)
    values = np.empty(n_max + 1)
    if c <= math.pi:
        u = c * ells
        cut = int(np.searchsorted(u, form.radius))  # u increases: levels 1..cut take the series
        near, far = u[:cut], u[cut:]
        values[0] = c * form.beta0
        values[1 : cut + 1] = c * (_horner(form.series, near**2) / math.pi)
        num = _horner(form.plain, far) + _horner(form.sin, far) * np.sin(far) + _horner(form.cos, far) * np.cos(far)
        values[cut + 1 :] = c * (form.scale * num / (math.pi * far**form.power))
        majorant = form.majorant
    else:
        # (-1)^j p^(2j+1) at 0, and its rise from 0 to x: at even l the bracket is
        # the rise alone, at odd l -(2 start + rise), and at most |start + rise| - start
        x = math.pi / c
        ends = [(d[0], x * _horner(d[1:], x)) for d in form.odd]
        v = (1.0 / c / ells) ** 2  # 1/u^2, which underflows to 0 for a huge c
        at_even = _horner([rise for _, rise in ends], v)
        at_odd = _horner([-2.0 * start - rise for start, rise in ends], v)
        values[0] = _horner(form.mean, x)
        values[1:] = 2.0 / math.pi * c * v * np.where(ells % 2, at_odd, at_even)
        majorant = [(2.0 / math.pi * (abs(start + rise) - start), 2 * j + 2) for j, (start, rise) in enumerate(ends)]
    negative = np.flatnonzero(values < -1e-15)
    if len(negative):
        level = int(negative[0])
        raise ValueError(
            f"params.c = {c!r}: beta_({level},1) = {values[level]:.3e} < 0, so psi is not a "
            f"correlation on S^1"
        )
    tail = 1.0  # the whole mass, and all that n_max = 0 allows
    if n_max > 0:
        # a term capped at 1 leaves min(1, sum) unchanged, and spares the
        # division when (c n_max)^(k - 1) underflows to 0 for a tiny c; a
        # smaller c n_max only raises a term, and 1e30^(k - 1) stays finite
        span = min(c * n_max, 1e30)
        tail = min(tail, sum(w / max((k - 1) * span ** (k - 1), w) for w, k in majorant if w > 0))
    return DSchoenbergSeq(1, np.maximum(values, 0.0), tail_bound=tail)


# ---------------------------------------------------------------------------
# Model specification (JSON-facing) and resolution
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1

PSI_FAMILIES = ("multiquadric", "matern", "askey", "c2_wendland", "c4_wendland", "spherical")
SPECTRUM_FAMILIES = ("spectral", "most_repulsive", "circular_matern")
ALL_FAMILIES = PSI_FAMILIES + SPECTRUM_FAMILIES


class _Family(dict):
    """Parameter name -> its interval as messages write it, brackets marking closed
    ends; ``dim`` is the one sphere dimension the family needs, or None for any."""

    def __init__(self, dim=None, **intervals):
        super().__init__(intervals)
        self.dim = dim


# the parameters each family requires (no others are accepted), and where it is available
FAMILY_PARAMS = {
    "multiquadric": _Family(tau="(0, inf)", delta="(0, 1)"),
    "matern": _Family(nu="(0, 0.5]", c="(0, inf)"),
    "askey": _Family(1, c="(0, inf)"),
    # the Wendlands end at pi (Gneiting 2013, Bernoulli 19): past it P'(pi) < 0 = P'(0)
    # makes beta_l < 0 at every large even l
    "c2_wendland": _Family(1, c=f"(0, {math.pi!r}]"),
    "c4_wendland": _Family(1, c=f"(0, {math.pi!r}]"),
    "spherical": _Family(1, c="(0, inf)"),
    "spectral": _Family(alpha="(0, inf)", beta="(0, inf)", kappa="(0, inf)"),
    "most_repulsive": _Family(eta="(0, inf)"),
    "circular_matern": _Family(1, sigma="(0, inf)", nu="(0, inf)", alpha="(0, inf)"),
}


def _check_params(family: str, dim: int | None = None, **values) -> dict:
    """``values`` (some or all of ``family``'s parameters) as floats, each a
    finite number in its interval, and ``dim``, if given, one the family is
    available on; else ValueError naming the first that fails."""
    table = FAMILY_PARAMS[family]
    if dim is not None and table.dim not in (None, dim):
        raise ValueError(f"{family} is available for d={table.dim} only, got d={dim}")
    # NaN and inf fail as not finite, before the interval is read
    return {name: _number(_number(value, name), name, table[name]) for name, value in values.items()}


@dataclass(frozen=True)
class ModelSpec:
    """A model: family, parameters, sphere dimension and intensity mode.

    Building one checks all that needs no coefficients (``resolve`` checks
    existence and the cut): the parameters against FAMILY_PARAMS, and for a
    psi family rho in kernel mode or chi in density mode, not both, positive
    with its product with sigma_d finite; a spectrum family takes neither, in
    kernel mode.  Each failure raises ValueError naming the field."""

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
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be an object, got {self.params!r}")
        required = FAMILY_PARAMS[self.family]
        for name in [*self.params, *required]:
            if name not in required:
                raise ValueError(f"unknown parameter {name!r} for family {self.family!r}")
            if name not in self.params:
                raise ValueError(f"missing parameter {name!r} for family {self.family!r}")
        dim = _integer(self.dim, "dim")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "params", _check_params(self.family, dim, **self.params))
        if self.mode not in ("kernel", "density"):
            raise ValueError("mode must be 'kernel' or 'density'")
        spectrum = self.family in SPECTRUM_FAMILIES
        needs = None if spectrum else {"kernel": "rho", "density": "chi"}[self.mode]
        owner = self.family if spectrum else f"{self.family} in {self.mode} mode"
        for name, label in (("rho", "'rho' or 'eta'"), ("chi", "'chi'")):
            value = getattr(self, name)
            if (value is None) == (name == needs):
                raise ValueError(f"{owner} {'needs' if value is None else 'takes no'} {label}")
            if value is not None:
                value = _number(value, name)
                if not 0 < value * surface_measure(dim) < math.inf:
                    raise ValueError(f"{owner} needs {label} > 0 with {name} * sigma_d finite, got {value!r}")
                object.__setattr__(self, name, value)
        if spectrum and self.mode == "density":
            raise ValueError(f"{self.family} takes no mode 'density': its parameters fix the kernel")

    def to_json(self) -> dict:
        """The spec as a model object that ``load_model`` reads back."""
        scale = {name: getattr(self, name) for name in ("rho", "chi") if getattr(self, name) is not None}
        return {
            "schema": SCHEMA_VERSION,
            "family": self.family,
            "params": dict(self.params),
            "dim": self.dim,
            "mode": self.mode,
            **scale,
            "trunc": {"max_level": self.trunc.max_level, "tail_tol": self.trunc.tail_tol},
        }


# the top-level fields of a model JSON object (``ModelSpec.to_json`` writes a subset)
MODEL_FIELDS = frozenset({"schema", "family", "dim", "params", "trunc", "mode", "rho", "eta", "chi"})


def load_model(source) -> ModelSpec:
    """Build a ModelSpec from a dict, JSON text, or a path to a JSON file.

    Only what is particular to JSON is checked here: an object with no field
    outside MODEL_FIELDS, "family" and "dim" given, this schema, no "trunc"
    key but "max_level" and "tail_tol", and "eta" (= rho sigma_d) in place of
    "rho", never with it.  ModelSpec checks the rest; each failure raises
    ValueError naming the field."""
    if isinstance(source, ModelSpec):
        return source
    data = source
    if not isinstance(source, dict):
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
    trunc = data.get("trunc", {})
    if not isinstance(trunc, dict):
        raise ValueError(f"trunc must be an object, got {trunc!r}")
    unknown = sorted(set(trunc) - {"max_level", "tail_tol"})
    if unknown:
        raise ValueError(f"unknown field 'trunc.{unknown[0]}'")
    rho = data.get("rho")
    if "eta" in data:
        if "rho" in data:
            raise ValueError("give 'eta' or 'rho', not both")
        rho = _number(data["eta"], "eta") / surface_measure(_integer(data["dim"], "dim"))
    return ModelSpec(
        family=data["family"],
        params=data.get("params", {}),
        dim=data["dim"],
        mode=data.get("mode", "kernel"),
        rho=rho,
        chi=data.get("chi"),
        trunc=TruncationPolicy(**trunc),
    )


@dataclass(frozen=True)
class ResolvedModel:
    """A model spec resolved to spectra ready for simulation/inference: the masses
    of the kernel's own correlation R_0, and of the psi that a density kernel chi psi
    scales (R_0 for a spectrum family); R_0 in closed form (psi in kernel mode) and
    the exact (g_0'(0), g_0''(0)) of g_0 = 1 - R_0^2, where known."""

    spec: ModelSpec
    kernel: MercerSpectrum
    correlation_beta: DSchoenbergSeq
    psi_beta: DSchoenbergSeq
    psi: object | None = None
    density: MercerSpectrum | None = None
    pcf_derivatives: tuple | None = None

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def eta(self) -> float:
        return self.kernel.eta


def _psi_family_beta(spec: ModelSpec):
    """(psi, beta_d, pcf_derivatives) for the closed-form psi families, whose
    functions take the parameters by their FAMILY_PARAMS names; the derivatives
    are those of 1 - psi^2, the multiquadric's in kernel mode only."""
    p, n_max = spec.params, min(spec.trunc.max_level, 512)
    if spec.family == "multiquadric":
        beta_d = multiquadric_d_schoenberg(**p, dim=spec.dim, trunc=spec.trunc, chi=spec.chi)
        # kernel mode: g_0 = 1 - psi^2 with psi(0) = 1 and psi'(0) = 0, so
        # g_0'(0) = 0 and g_0''(0) = -2 psi''(0) = 4 tau delta / (1 - delta)^2
        exact = (0.0, 4.0 * p["tau"] * p["delta"] / (1.0 - p["delta"]) ** 2) if spec.mode == "kernel" else None
        return multiquadric_psi(**p), beta_d, exact
    if spec.family == "matern":
        return matern_psi(**p), matern_d_schoenberg(**p, dim=spec.dim, n_max=n_max), (matern_pcf_slope(**p), None)
    return compact_support_psi(spec.family, **p), compact_support_coeffs(spec.family, **p, n_max=n_max), None


_RESOLVED_MAX = 32  # resolves the memo keeps; the oldest is evicted first
_resolved: dict = {}  # spec fields -> ResolvedModel, oldest first
_resolved_lock = threading.Lock()


def resolve(spec: ModelSpec) -> ResolvedModel:
    """Turn a model description into kernel/density spectra.

    Kernel mode checks the existence bound rho <= rho_max; density mode
    maps lambda~ = chi alpha back to kernel eigenvalues, which always
    exist, and the kernel inherits the density tail bound (lambda <= lambda~).
    There R_0, the correlation of chi alpha / (1 + chi alpha), has no closed form;
    its singular part (chi sigma_d / eta) psi scales the slope of 1 - psi^2 at 0.

    Equal specs share one resolve.  ``ModelSpec`` has checked every field
    (tau = 10 and 10.0 are equal), and the result depends on nothing else, so
    the last _RESOLVED_MAX successful resolves are kept by their fields; a
    failing spec is computed, and raises, on every call.  The returned model
    carries the caller's ``spec`` and shares its spectra, whose ``values``
    arrays are read-only, with every equal spec's.
    """
    key = (spec.family, tuple(sorted(spec.params.items())), spec.dim, spec.mode, spec.rho, spec.chi, spec.trunc)
    model = _resolved.get(key)
    if model is None:
        model = _resolve(spec)
        with _resolved_lock:
            _resolved[key] = model
            while len(_resolved) > _RESOLVED_MAX:
                del _resolved[next(iter(_resolved))]
    return model if model.spec is spec else replace(model, spec=spec)


def _resolve(spec: ModelSpec) -> ResolvedModel:
    """``resolve`` without the memo."""
    sigma = surface_measure(spec.dim)
    if spec.family in PSI_FAMILIES:
        psi, beta_d, exact = _psi_family_beta(spec)
        if spec.mode == "kernel":
            kernel = mercer_from_d(beta_d, spec.rho * sigma)
            density = to_density_kernel(kernel) if np.all(kernel.values < 1.0) else None
            return ResolvedModel(spec, kernel, beta_d, beta_d, psi, density, exact)
        alpha = correlation_mercer(beta_d)
        density = MercerSpectrum(
            spec.dim, "density-kernel", spec.chi * alpha.values, spec.chi * alpha.tail_bound
        )
        kernel = from_density_kernel(density)
        if exact is not None:
            exact = (exact[0] * spec.chi * sigma / kernel.eta, None)
        return ResolvedModel(spec, kernel, beta_from_kernel(kernel), beta_d, None, density, exact)

    if spec.family == "circular_matern":
        kernel, beta = _circular_matern(**spec.params, trunc=spec.trunc)
    else:
        family = spectral_model_spectrum if spec.family == "spectral" else most_repulsive_spectrum
        kernel = family(**spec.params, dim=spec.dim, trunc=spec.trunc)
        beta = beta_from_kernel(kernel)
    density = to_density_kernel(kernel) if np.all(kernel.values < 1.0) else None
    return ResolvedModel(spec, kernel, beta, beta, None, density, None)

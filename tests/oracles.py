"""Closed forms that the tests check the package against."""

import math


def multiquadric_beta0_s2(tau: float, delta: float) -> float:
    """Closed-form maximal 2-Schoenberg coefficient beta_(0,2) of the
    multiquadric psi(s) = ((1 - delta)^2 / (1 + delta^2 - 2 delta cos s))^tau."""
    if tau == 1.0:
        return (1.0 - delta) ** 2 / (2.0 * delta) * math.log((1.0 + delta) / (1.0 - delta))
    return (
        (1.0 - delta) ** (2.0 * tau)
        / (4.0 * delta * (1.0 - tau))
        * ((1.0 + delta) ** (2.0 * (1.0 - tau)) - (1.0 - delta) ** (2.0 * (1.0 - tau)))
    )


def sh_bound_sq(dim: int, ell: int, k: int) -> float:
    """Provable upper bound on |Y_(l,k,d)|^2, uniform over the sphere.

    d=1: |Y|^2 is the constant 1/(2 pi).  d=2: each summand of the
    addition formula is at most the whole sum, so
    |Y_(l,k,2)|^2 <= (2l+1)/(4 pi), with equality at the poles for k=0.
    (Equivalently sup |P_l^(k)|^2 <= (l+|k|)!/(l-|k|)!.)
    """
    if dim == 1:
        return 1.0 / (2.0 * math.pi)
    if dim == 2:
        return (2.0 * ell + 1.0) / (4.0 * math.pi)
    raise ValueError("bounds available for d in {1, 2} only")


def multiplicity(ell: int, dim: int) -> int:
    """Eigenvalue multiplicity m_(l,d) of the level-l harmonic space, in exact
    integers: m_(0,1) = 1 and m_(l,1) = 2; for d >= 2,
    m_(l,d) = binom(l+d-1, l) + binom(l+d-2, l-1), i.e. 2l+1 when d=2.
    """
    if ell < 0:
        raise ValueError("level must be nonnegative")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim == 1:
        return 1 if ell == 0 else 2
    if ell == 0:
        return 1
    return math.comb(ell + dim - 1, ell) + math.comb(ell + dim - 2, ell - 1)

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

import dataclasses
import functools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredpp import models
from spheredpp.diagnostics import local_repulsiveness
from spheredpp.harmonics import multiplicities
from spheredpp.models import (
    COMPACT_VARIANTS,
    FAMILY_PARAMS,
    ModelSpec,
    TruncationError,
    circular_matern_spectrum,
    compact_support_coeffs,
    compact_support_psi,
    load_model,
    matern_d1_coefficients,
    matern_eta_max_d1,
    matern_psi,
    most_repulsive_spectrum,
    multiquadric_d_schoenberg,
    multiquadric_eta_max,
    multiquadric_psi,
    resolve,
    spectral_model_spectrum,
)
from spheredpp.spectra import (
    ExistenceError,
    TruncationPolicy,
    correlation_mercer,
    d_schoenberg_from_psi,
    eval_psi_series,
)
from spheredpp.sphere import surface_measure

from oracles import multiquadric_beta0_s2


@functools.lru_cache(maxsize=None)
def _cohl_beta(tau, delta, dim, n_levels):
    """beta_(n,d) of the multiquadric for n < n_levels, from Cohl's series

        (1 - delta)^(2 tau) (tau)_n (2 lam)_n / ((lam)_n n!) delta^n
            2F1(tau - lam, n + tau; n + lam + 1; delta^2),   lam = (d-1)/2,

    summed term by term in scalar Python, independently of the package's
    recurrence.  On S^1 (lam -> 0) the factor (2 lam)_n / (lam)_n is 2 for n >= 1.
    """
    lam = (dim - 1) / 2.0
    z = delta * delta
    pre = (1.0 - delta) ** (2.0 * tau)
    out = []
    for n in range(n_levels):
        if n > 0:
            pochhammer_ratio = (2.0 * lam + n - 1.0) / (lam + n - 1.0) if lam + n > 1.0 else 2.0
            pre *= (tau + n - 1.0) / n * pochhammer_ratio * delta
        a, b, c = tau - lam, n + tau, n + lam + 1.0
        term = total = 1.0
        k = 0
        while abs(term) > 1e-17 * abs(total):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
            total += term
            k += 1
        out.append(pre * total)
    return np.array(out)


# Each compact family's p(t) = (1 - t)^a q(t), written out apart from the package
COMPACT_EXACT = {
    "askey": (3, [1]),
    "c2_wendland": (4, [1, 4]),
    "c4_wendland": (6, [1, 6, Fraction(35, 3)]),
    "spherical": (2, [1, Fraction(1, 2)]),
}
PI_40 = Fraction("3.141592653589793238462643383279502884197")  # pi to 40 digits


def _compact_beta_past_pi(variant, c, ell):
    """beta_(l,1) = (2/pi) int_0^pi P(s) cos(l s) ds (half that at l = 0) of the
    polynomial P(s) = p(s/c), c >= pi, in rationals with pi to 40 digits: monomial
    by monomial, I_k = int_0^pi s^k e^(ils) ds = (pi^k (-1)^l - k I_(k-1)) / (il)
    from I_0 = ((-1)^l - 1) / (il), a recursion the package does not use."""
    a, q = COMPACT_EXACT[variant]
    p = list(q)
    for _ in range(a):  # times (1 - t)
        p = [x - y for x, y in zip(p + [0], [0] + p)]
    c = Fraction(c)
    coeffs = [Fraction(x) / c**i for i, x in enumerate(p)]  # P(s) = sum_i coeffs[i] s^i
    if ell == 0:
        return sum(x * PI_40**i / (i + 1) for i, x in enumerate(coeffs))
    sign = (-1) ** ell
    re, im = Fraction(sign - 1), Fraction(0)  # (re + i im) / (il) = (im - i re) / l
    re, im = im / ell, -re / ell
    total = coeffs[0] * re
    for k in range(1, len(coeffs)):
        re, im = sign * PI_40**k - k * re, -k * im
        re, im = im / ell, -re / ell
        total += coeffs[k] * re
    return 2 * total / PI_40


class TestCohlOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.25, 1.0, 10.0])
    @pytest.mark.parametrize("delta", [0.3, 0.6, 0.9])
    def test_resolve_matches_series(self, dim, tau, delta):
        spec = ModelSpec(
            "multiquadric", {"tau": tau, "delta": delta}, dim, rho=1.0 / surface_measure(dim)
        )
        beta = resolve(spec).correlation_beta.values
        expected = _cohl_beta(tau, delta, dim, len(beta))
        np.testing.assert_allclose(beta, expected, rtol=1e-12)

    def test_oracle_reproduces_closed_forms(self):
        ells = np.arange(40)
        np.testing.assert_allclose(_cohl_beta(0.5, 0.6, 2, 40), 0.4 * 0.6**ells, rtol=1e-13)
        beta0 = multiquadric_beta0_s2(1.0, 0.5)
        assert _cohl_beta(1.0, 0.5, 2, 1)[0] == pytest.approx(beta0, rel=1e-14)


class TestMultiquadricFoundCases:
    """Density-mode multiquadrics whose tails once rounded to 0.

    Each either cuts with a represented count within tail_tol of the exact
    one, and declares at least the count it leaves out, or raises
    TruncationError.
    """

    ROUNDING = 1e-15

    @pytest.mark.parametrize("chi", [1e12, 1e15])
    def test_tau_half_large_chi(self, chi):
        spec = ModelSpec(
            "multiquadric", {"tau": 0.5, "delta": 0.5}, 2, "density", chi=chi
        )
        exact = _density_count(0.5 * 0.5 ** np.arange(2000), chi, 2)
        kernel = resolve(spec).kernel
        represented = float(np.sum(kernel.mults * kernel.values))
        assert represented >= (1.0 - spec.trunc.tail_tol - self.ROUNDING) * exact
        assert exact - represented <= kernel.tail_bound + self.ROUNDING * exact

    def test_chi_1e307_needs_more_than_max_level(self):
        # past level 300, beta_l ~ 2^-l l^0.5 carries about 1e218 expected points
        # at chi sigma_2 ~ 1e308, so no cut at max_level = 300 can hold
        spec = ModelSpec(
            "multiquadric", {"tau": 1.0, "delta": 0.5}, 2, "density", chi=1e307,
            trunc=TruncationPolicy(max_level=300),
        )
        with pytest.raises(TruncationError):
            resolve(spec)

    def test_delta_near_one_raises(self):
        spec = ModelSpec("multiquadric", {"tau": 1.0, "delta": 0.999}, 2, rho=1.0 / SIGMA2)
        with pytest.raises(TruncationError):
            resolve(spec)

    @pytest.mark.parametrize("delta", [1 - 1e-6, 1 - 1e-12])
    def test_delta_at_one_raises_without_work(self, delta):
        # the recurrence would start 2e7 or 2e13 levels up: refused before any
        spec = ModelSpec("multiquadric", {"tau": 1.0, "delta": delta}, 2, rho=1.0 / SIGMA2)
        with pytest.raises(TruncationError, match="too close to 1"):
            resolve(spec)

    @pytest.mark.parametrize("delta", [1e-200, 1e-12, 1e-3])
    @pytest.mark.parametrize("mode", ["kernel", "density"])
    def test_small_delta_resolves(self, delta, mode):
        # numpy floating-point warnings are errors in this suite
        extra = {"rho": 1.0 / SIGMA2} if mode == "kernel" else {"chi": 1.0}
        spec = ModelSpec("multiquadric", {"tau": 1.0, "delta": delta}, 2, mode, **extra)
        model = resolve(spec)
        beta0 = _cohl_beta(1.0, delta, 2, 1)[0]
        if mode == "kernel":
            assert model.correlation_beta.values[0] == pytest.approx(beta0, rel=1e-12)
        else:
            assert model.density.values[0] == pytest.approx(SIGMA2 * beta0, rel=1e-12)
        kernel = model.kernel
        assert np.all(np.isfinite(kernel.values)) and math.isfinite(kernel.tail_bound)


class TestMultiquadricOneRun:
    """The coefficient recurrence runs once per resolve, from the predicted cut."""

    @pytest.fixture
    def tops(self, monkeypatch):
        calls = []
        weights = models._multiquadric_weights

        def counted(tau, delta, dim, top):
            calls.append(top)
            return weights(tau, delta, dim, top)

        monkeypatch.setattr(models, "_multiquadric_weights", counted)
        return calls

    @pytest.mark.parametrize(
        "tau, delta, chi, levels",
        [
            (1.0, 0.9654362879120054, None, 439),  # the benchmark's mq1-400
            (10.0, 0.7416437737576226, None, 96),  # mq10-400
            (10.0, 0.66, 1.0, 69),  # the fit workload's delta grid at chi = 1
            (10.0, 0.70, 1.0, 80),
            (10.0, 0.74, 1.0, 95),
            (10.0, 0.78, 1.0, 115),
            (10.0, 0.82, 1.0, 144),
        ],
    )
    def test_level_counts_from_one_run(self, tops, tau, delta, chi, levels):
        beta = multiquadric_d_schoenberg(tau, delta, 2, TruncationPolicy(), chi)
        assert len(beta.values) == levels
        assert len(tops) == 1

    @pytest.mark.parametrize("tau", [0.05, 1.0, 10.0, 100.0])
    def test_start_far_enough_above_the_cut(self, tau):
        # Miller's start error: the coefficients resolve uses stay within 5e-14
        # relative of a run started 10 lead + 1000 levels above the cut.  A start
        # only lead levels above the cut would miss by 1.7e-13 at tau = 10,
        # delta = 0.82 on S^2 and by 7e-11 at tau = 100, delta = 0.3.
        for delta in (0.3, 0.74, 0.82, 0.97):
            lead = math.floor(20.0 / -math.log(delta)) + 1
            for dim in (1, 2, 3):
                for chi in (None, 1.0):  # kernel and density modes cut differently
                    values = multiquadric_d_schoenberg(tau, delta, dim, TruncationPolicy(), chi).values
                    top = len(values) - 1 + 10 * lead + 1000
                    reference = models._multiquadric_beta(tau, delta, dim, top)[0][: len(values)]
                    error = np.max(np.abs(values - reference) / reference)
                    assert error <= 5e-14, (delta, dim, chi, error)

    def test_prediction_short_of_the_cut_runs_again(self, tops, monkeypatch):
        expected = multiquadric_d_schoenberg(1.0, 0.9654362879120054, 2).values
        tops.clear()
        asymptote = models._multiquadric_log_asymptote

        def early(*args):
            # e^-40 less weight from level 64 on: the prediction cuts at the first stage
            log_beta = asymptote(*args)
            return log_beta - 40.0 * np.minimum(np.arange(len(log_beta)), 64) / 64

        monkeypatch.setattr(models, "_multiquadric_log_asymptote", early)
        beta = multiquadric_d_schoenberg(1.0, 0.9654362879120054, 2).values
        lead = math.floor(20.0 / -math.log(0.9654362879120054)) + 1
        # then the level count doubles as it did before the prediction
        assert tops == [n + 2 + lead for n in (64, 128, 256, 512)]
        np.testing.assert_allclose(beta, expected, rtol=1e-14)

    def test_no_predicted_cut_runs_once_to_max_level(self, tops):
        with pytest.raises(TruncationError):
            multiquadric_d_schoenberg(1.0, 0.999, 2)
        lead = math.floor(20.0 / -math.log(0.999)) + 1
        assert tops == [TruncationPolicy().max_level + 2 + lead]


class TestMultiquadric:
    def test_tau_half_closed_form(self):
        beta = multiquadric_d_schoenberg(0.5, 0.6, 2)
        ells = np.arange(len(beta.values))
        np.testing.assert_allclose(beta.values, 0.4 * 0.6**ells, rtol=1e-12)
        assert np.sum(beta.values) + beta.tail_bound == pytest.approx(1.0, abs=1e-9)

    def test_psi_at_zero(self):
        for tau, delta in [(0.5, 0.3), (2.0, 0.9), (10.0, 0.74)]:
            psi = multiquadric_psi(tau, delta)
            assert float(psi(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_beta0_closed_form_tau1(self):
        value = multiquadric_beta0_s2(1.0, 0.5)
        assert value == pytest.approx(0.25 * math.log(3.0), rel=1e-14)

    def test_beta0_matches_conversion(self):
        # general tau: the recurrence's level-0 mass agrees with the closed form
        for tau, delta in [(0.5, 0.2), (2.0, 0.5), (3.7, 0.4)]:
            beta = multiquadric_d_schoenberg(tau, delta, 2, TruncationPolicy(tail_tol=1e-10))
            assert beta.values[0] == pytest.approx(
                multiquadric_beta0_s2(tau, delta), rel=1e-9
            )

    def test_quadrature_cross_validation(self):
        # the truncated series reproduces the closed-form psi within its tail
        s = np.linspace(0.0, math.pi, 301)
        for tau, delta in [(0.5, 0.5), (1.0, 0.3), (2.5, 0.4)]:
            beta = multiquadric_d_schoenberg(tau, delta, 2, TruncationPolicy(tail_tol=1e-9))
            err = np.max(np.abs(eval_psi_series(beta, s) - multiquadric_psi(tau, delta)(s)))
            assert err <= beta.tail_bound + 1e-9

    def test_eta_max(self):
        assert multiquadric_eta_max(0.5, 0.5, 2) == pytest.approx(2.0, rel=1e-12)
        assert multiquadric_eta_max(1.0, 0.5, 2) == pytest.approx(
            1.0 / (0.25 * math.log(3.0)), rel=1e-12
        )

    # the figure-regime models: delta solved so that eta_max = 400 on S^2
    FIGURE_DELTAS = {1.0: 0.9654362879120054, 10.0: 0.7416437737576226}

    @pytest.mark.parametrize("tau", [1.0, 10.0])
    def test_represented_eta_within_tail_tol(self, tau):
        spec = ModelSpec(
            "multiquadric", {"tau": tau, "delta": self.FIGURE_DELTAS[tau]}, 2,
            rho=400.0 / surface_measure(2),
        )
        model = resolve(spec)
        assert model.kernel.eta >= (1.0 - spec.trunc.tail_tol) * 400.0

    def test_level_cap_raises(self):
        spec = ModelSpec(
            "multiquadric", {"tau": 1.0, "delta": self.FIGURE_DELTAS[1.0]}, 2,
            rho=400.0 / surface_measure(2), trunc=TruncationPolicy(max_level=50),
        )
        with pytest.raises(TruncationError):
            resolve(spec)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            multiquadric_psi(0.0, 0.5)
        with pytest.raises(ValueError):
            multiquadric_psi(1.0, 1.0)

    def test_curvature_at_eta_max(self):
        # tau = (d-1)/2 at eta = eta_max: g0''(0) = 2(d-1) delta / (1-delta)^2
        for dim, delta in [(2, 0.5), (3, 0.3)]:
            tau = (dim - 1) / 2
            beta = multiquadric_d_schoenberg(tau, delta, dim, TruncationPolicy(tail_tol=1e-12))
            local = local_repulsiveness(beta)
            assert local.curvature is not None
            expected = 2 * (dim - 1) * delta / (1 - delta) ** 2
            assert local.curvature == pytest.approx(expected, rel=1e-6)


class TestSpectralModel:
    def test_all_eigenvalues_open_interval(self):
        spec = spectral_model_spectrum(4.0, 2.0, 1.5, 2)
        assert np.all(spec.values > 0.0)
        assert np.all(spec.values < 1.0)

    @pytest.mark.filterwarnings("error")
    def test_projection_limit(self):
        # alpha=n, beta=1/(n kappa), kappa huge: approaches the
        # projection onto levels <= n with eta = (n+1)^2 = 16
        n, kappa = 3, 1e6
        spec = spectral_model_spectrum(n, 1.0 / (n * kappa), kappa, 2)
        assert np.all(spec.values[: n + 1] > 0.999)
        assert np.all(spec.values[n + 1 :] < 1e-6)
        assert spec.eta == pytest.approx(16.0, rel=1e-3)

    def test_poisson_limit_scaling(self):
        # kappa = d = 2, alpha = sqrt(eta0 beta): eta stays near eta0
        eta0, beta = 50.0, 1e4
        spec = spectral_model_spectrum(math.sqrt(eta0 * beta), beta, 2.0, 2)
        assert spec.eta == pytest.approx(eta0, rel=0.10)

    def test_tail_cap_error(self):
        from spheredpp.models import TruncationError

        with pytest.raises(TruncationError):
            spectral_model_spectrum(1e4, 1.0, 0.5, 2, TruncationPolicy(max_level=64))

    # rounding of the two sums: a few ulps of the tail
    ROUNDING = 1e-15
    BOUND_CASES = [
        *((*abk, dim) for abk in [(8, 1, 0.9), (30, 0.5, 0.7), (8, 1, 0.5), (8, 1, 1), (8, 1, 2)] for dim in (1, 2)),
        (8, 1, 0.9, 3),
    ]

    @pytest.mark.parametrize("alpha, beta, kappa, dim", BOUND_CASES + [(0.3, 0.3, 1, 3), (8, 1, 2, 3)])
    def test_bound_past_every_level(self, alpha, beta, kappa, dim, monkeypatch):
        # the bound the family hands truncate_levels past level n, for n = 0..511,
        # against the sum past n out to level 4 x 10^6
        seen = []
        monkeypatch.setattr(models, "truncate_levels", lambda series, trunc: seen.append(series) or ([0.5], 0.0))
        spectral_model_spectrum(float(alpha), float(beta), kappa, dim)
        series = seen[0]
        terms = series(511)[1]
        past = _spectral_sum(alpha, beta, kappa, dim, 512, 4_000_000) + np.append(
            np.cumsum(terms[::-1])[::-1][1:], 0.0
        )
        bounds = np.array([series(n)[3] for n in range(512)])
        assert np.all(bounds >= (1.0 - self.ROUNDING) * past)
        assert math.isfinite(bounds[-1])

    @pytest.mark.parametrize("alpha, beta, kappa, dim", BOUND_CASES)
    def test_tail_bound_is_a_bound_for_every_kappa(self, alpha, beta, kappa, dim):
        spec = spectral_model_spectrum(float(alpha), float(beta), kappa, dim)
        top = len(spec.values) - 1
        remainder = _spectral_sum(alpha, beta, kappa, dim, top + 1, 4_000_000)
        assert spec.tail_bound >= (1.0 - self.ROUNDING) * remainder > 0.0
        tol = TruncationPolicy().tail_tol
        assert spec.tail_bound <= (1.0 + self.ROUNDING) * tol * (spec.eta + spec.tail_bound)

    def test_tail_bound_rounds_up(self):
        # an unrounded suffix sum read 3.244275596426783e-07 here, one ulp below the
        # remainder past the cut, 3.2442755964267835e-07
        spec = spectral_model_spectrum(2.0, 0.5, 2.0, 3)
        assert spec.tail_bound >= _spectral_sum(2, 0.5, 2, 3, len(spec.values), 4_000_000)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_slow_decay_past_max_level_raises(self, dim):
        # kappa = 0.3: the bound is finite, but reaches tail_tol only past level 4096
        with pytest.raises(TruncationError, match=r"^series tail .* at max_level=4096, "):
            spectral_model_spectrum(8.0, 1.0, 0.3, dim)


def _spectral_sum(alpha, beta, kappa, dim, start, stop):
    """sum of m_l lambda_l of the spectral family over levels start..stop, in
    blocks of 10^6 levels."""
    total, mults = 0.0, multiplicities(stop, dim)
    for low in range(start, stop + 1, 10**6):
        ells = np.arange(low, min(low + 10**6, stop + 1))
        with np.errstate(over="ignore"):
            lam = 1.0 / (1.0 + beta * np.exp((ells / alpha) ** kappa))
        total += float(np.sum(mults[ells] * lam))
    return total


class TestTruncateLevels:
    """The shared cut on a synthetic series: counts 2^-l, each its own bound,
    whose sum past level n is 2^-n."""

    @staticmethod
    def halving(beyond):
        calls = []

        def series(n):
            calls.append(n)
            terms = 0.5 ** np.arange(n + 1)
            return terms, terms, terms, beyond(n)

        return series, calls

    def test_finite_tail_cuts_at_the_smallest_level(self):
        # the tail past L is 2^-L, at most 1e-3 of the count 2 first at L = 9
        series, calls = self.halving(lambda n: 0.5**n)
        values, tail = models.truncate_levels(series, TruncationPolicy(tail_tol=1e-3))
        assert len(values) == 10
        assert tail == pytest.approx(0.5**9, rel=1e-15)
        assert calls == [64]

    def test_tail_adds_the_bound_past_n(self):
        # a loose bound, 10 x 2^-n, at max_level n = 16: the tail past L is
        # 2^-L + 9 x 2^-16, at most 1e-3 of the count first at L = 10
        series, calls = self.halving(lambda n: 10.0 * 0.5**n)
        values, tail = models.truncate_levels(series, TruncationPolicy(max_level=16, tail_tol=1e-3))
        assert len(values) == 11
        assert tail == pytest.approx(0.5**10 + 9.0 * 0.5**16, rel=1e-15)
        assert calls == [16]

    def test_cut_waits_for_a_finite_tail(self):
        series, calls = self.halving(lambda n: 0.5**n if n >= 256 else math.inf)
        values, tail = models.truncate_levels(series, TruncationPolicy(max_level=1000, tail_tol=1e-3))
        assert len(values) == 10
        assert tail == pytest.approx(0.5**9, rel=1e-15)
        assert calls == [64, 128, 256]

    def test_no_tail_bound_raises(self):
        series, calls = self.halving(lambda n: math.inf)
        with pytest.raises(TruncationError, match=r"^no tail bound is known past max_level=300, "):
            models.truncate_levels(series, TruncationPolicy(max_level=300, tail_tol=1e-3))
        assert calls == [64, 128, 256, 300]


class TestMostRepulsive:
    def test_projection_eta9_d2(self):
        spec = most_repulsive_spectrum(9.0, 2)
        np.testing.assert_allclose(spec.values, [1.0, 1.0, 1.0])
        assert spec.kind == "kernel" and set(spec.values.tolist()) <= {0.0, 1.0}
        assert spec.count_variance == 0.0

    def test_fractional_eta4_d1(self):
        spec = most_repulsive_spectrum(4.0, 1)
        np.testing.assert_allclose(spec.values, [1.0, 1.0, 0.5])

    def test_eta1(self):
        for dim in (1, 2):
            np.testing.assert_allclose(most_repulsive_spectrum(1.0, dim).values, [1.0])

    def test_eta_recovered(self):
        for eta in (2.5, 7.0, 31.4):
            for dim in (1, 2):
                assert most_repulsive_spectrum(eta, dim).eta == pytest.approx(eta)

    def test_boundary_past_max_level_raises(self):
        # eta = 1e6 on S^1 has its boundary at level 500,000, which was built
        # level by level in a Python list whatever trunc.max_level said
        cap = TruncationPolicy(max_level=100)
        with pytest.raises(TruncationError, match="max_level=100"):
            most_repulsive_spectrum(1e6, 1, cap)
        with pytest.raises(TruncationError, match="max_level=100"):
            resolve(ModelSpec("most_repulsive", {"eta": 1e6}, 1, trunc=cap))

    def test_boundary_past_max_level_names_the_level(self):
        # S^1 has 2n+1 eigenfunctions up to level n, so eta = 1e6 needs level 500,000;
        # the levels up to 100 hold 201 points and give no ratio to bound a tail by
        with pytest.raises(TruncationError) as err:
            most_repulsive_spectrum(1e6, 1, TruncationPolicy(max_level=100))
        message = str(err.value)
        assert "boundary level 500000" in message
        assert "no tail bound is known past max_level=100" in message
        assert "represent 201 expected points" in message

    def test_boundary_at_max_level(self):
        # eta = 9 on S^2 fills levels 0..2 exactly: max_level 2 holds it, 1 does not
        spec = most_repulsive_spectrum(9.0, 2, TruncationPolicy(max_level=2))
        assert spec.values.tolist() == [1.0, 1.0, 1.0] and spec.tail_bound == 0.0
        with pytest.raises(TruncationError):
            most_repulsive_spectrum(9.0, 2, TruncationPolicy(max_level=1))
        spec = most_repulsive_spectrum(400.0, 2)
        assert len(spec.values) == 20 and spec.tail_bound == 0.0


class TestMatern:
    def test_nu_half_is_exponential(self):
        psi = matern_psi(0.5, 2.0)
        s = np.linspace(0, math.pi, 9)
        np.testing.assert_allclose(psi(s), np.exp(-s / 2.0), rtol=1e-14)

    def test_small_nu_limit_at_zero(self):
        psi = matern_psi(0.3, 1.0)
        assert float(psi(0.0)) == 1.0
        assert float(psi(1e-12)) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("nu", [0.01, 0.05, 0.125, 0.2, 0.3, 0.45, 0.4999])
    def test_bessel_integral_matches_scipy(self, nu):
        # z reaches 1e-19 / c on the graded panels, for c up to any finite value
        from scipy.special import kv, kve

        z = np.logspace(-300, 3, 3000)
        np.testing.assert_allclose(models._kve(nu, z), kve(nu, z), rtol=1e-13, atol=0.0)
        s = np.logspace(-19, math.log10(math.pi), 2000)
        for c in (0.5, 1e6, 1e20):
            reference = 2.0 ** (1.0 - nu) / math.gamma(nu) * (s / c) ** nu * kv(nu, s / c)
            with np.errstate(all="raise"):
                got = matern_psi(nu, c)(s)
            np.testing.assert_allclose(got, reference, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("nu", [0.5, 0.3])
    def test_psi_keeps_shape_and_nan(self, nu):
        # nu < 1/2 once returned a float for one point and 1.0 for NaN
        psi = matern_psi(nu, 1.0)
        one = psi(np.array([0.3]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert np.shape(psi(0.3)) == () and psi(np.zeros((2, 3))).shape == (2, 3)
        out = psi(np.array([math.nan, 0.0, 0.3]))
        assert math.isnan(out[0]) and out[1] == 1.0 and 0.0 < out[2] < 1.0

    def test_eta_max_d1(self):
        assert matern_eta_max_d1(1.0) == pytest.approx(
            math.pi / (1.0 - math.exp(-math.pi)), rel=1e-12
        )
        assert matern_eta_max_d1(1.0) == pytest.approx(3.2834, abs=5e-4)
        # decreasing in c
        assert matern_eta_max_d1(0.5) > matern_eta_max_d1(1.0) > matern_eta_max_d1(2.0)

    def test_d1_closed_form_vs_quadrature(self):
        beta = matern_d1_coefficients(1.0, 30)
        quad = d_schoenberg_from_psi(lambda s: np.exp(-s), 1, 30)
        np.testing.assert_allclose(beta.values, quad.values, atol=1e-10)

    def test_quadrature_route_small_nu_on_the_circle(self):
        # nu < 1/2 has no closed form: beta_(l,1) = (2 - [l = 0]) / pi int_0^pi psi(s) cos(l s) ds
        from scipy.integrate import quad

        psi = matern_psi(0.3, 1.0)
        beta = models.matern_d_schoenberg(0.3, 1.0, 1, n_max=32)
        for ell in (0, 1, 5):
            weight = (1.0 if ell == 0 else 2.0) / math.pi
            integral = quad(lambda s: float(psi(s)) * math.cos(ell * s), 0.0, math.pi, limit=200)[0]
            assert beta.values[ell] == pytest.approx(weight * integral, rel=1e-9)
        assert beta.tail_bound == pytest.approx(1.0 - float(np.sum(beta.values)), abs=1e-15)

    def test_quadrature_route_on_the_sphere(self):
        # nu = 1/2 on S^2: beta_(l,2) = (2l+1)/2 int_0^pi e^(-s/c) P_l(cos s) sin s ds,
        # (1 + e^(-pi/c)) / (2 (1 + 1/c^2)) at l = 0 and 3 (1 - e^(-pi/c)) / (2 (4 + 1/c^2)) at l = 1
        c = 0.7
        beta = models.matern_d_schoenberg(0.5, c, 2, n_max=32)
        e, a2 = math.exp(-math.pi / c), 1.0 / c**2
        assert beta.values[0] == pytest.approx((1.0 + e) / (2.0 * (1.0 + a2)), rel=1e-10)
        assert beta.values[1] == pytest.approx(3.0 * (1.0 - e) / (2.0 * (4.0 + a2)), rel=1e-10)

    @pytest.mark.parametrize("nu", [0.05, 0.1, 0.125, 0.15, 0.2])
    def test_small_nu_resolves_on_the_circle(self, nu):
        # psi ~ 1 - C s^(2 nu) at 0 once defeated the quadrature; the reference
        # integrates in t with s = pi t^(1 / (2 nu)), where the integrand is smooth at 0
        from scipy.integrate import quad

        spec = load_model({"family": "matern", "params": {"nu": nu, "c": 0.5}, "dim": 1, "mode": "kernel", "eta": 5})
        beta = resolve(spec).psi_beta.values
        assert len(beta) == 513
        psi, p = matern_psi(nu, 0.5), 0.5 / nu
        for ell in (0, 1, 7, 50, 200, 512):
            weight = (1.0 if ell == 0 else 2.0) / math.pi

            def integrand(t):
                s = math.pi * t**p
                return math.cos(ell * s) * float(psi(s)) * math.pi * p * t ** (p - 1.0)

            reference = weight * quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=2000)[0]
            assert abs(beta[ell] - reference) <= 1e-11

    def test_nu_half_on_the_circle_at_large_c(self):
        # 1 - e^(-pi/c) once cancelled: the mass exceeded 1 or the count fell short unseen
        eta = 0.5
        for k in range(18):
            spec = load_model({"family": "matern", "params": {"nu": 0.5, "c": 10.0**k}, "dim": 1, "mode": "kernel", "eta": eta})
            kernel = resolve(spec).kernel
            shortfall = eta - kernel.eta
            assert shortfall <= kernel.tail_bound + 1e-15 * eta, k
            if k >= 4:
                assert shortfall <= spec.trunc.tail_tol * eta, k

    def test_eta_max_equals_inverse_beta0(self):
        beta = matern_d1_coefficients(1.3, 10)
        assert matern_eta_max_d1(1.3) == pytest.approx(1.0 / beta.values[0], rel=1e-12)

    def test_d1_coefficients_without_levels_past_0(self):
        # trunc.max_level = 0 once divided by zero in the 1/l^2 tail
        beta = matern_d1_coefficients(1.3, 0)
        assert beta.tail_bound == 1.0 - beta.values[0]
        spec = ModelSpec("matern", {"nu": 0.5, "c": 1.3}, 1, "density", chi=1.0, trunc=TruncationPolicy(max_level=0))
        assert len(resolve(spec).kernel.values) == 1

    def test_nu_domain(self):
        with pytest.raises(ValueError):
            matern_psi(0.7, 1.0)

    def test_variance_condition_fails(self):
        # sum l^2 beta_l diverges for the exponential correlation
        beta = matern_d1_coefficients(1.0, 400)
        local = local_repulsiveness(beta, slope_override=2.0)
        assert local.curvature is None
        assert local.slope == 2.0


class TestCircularMatern:
    def test_lambda0_at_existence_boundary(self):
        nu, alpha = 1.5, 4.0
        spec = circular_matern_spectrum(alpha ** (nu + 0.5), nu, alpha)
        assert spec.values[0] == pytest.approx(1.0, rel=1e-12)

    def test_existence_failure(self):
        with pytest.raises(ExistenceError):
            circular_matern_spectrum(10.0, 0.5, 2.0)

    def test_eta_closed_form_nu_half(self):
        # sum over Z of alpha^2/(alpha^2 + l^2) = pi alpha coth(pi alpha)
        alpha = 3.0
        spec = circular_matern_spectrum(alpha, 0.5, alpha, TruncationPolicy(max_level=200_000))
        expected = math.pi * alpha / math.tanh(math.pi * alpha)
        assert spec.eta == pytest.approx(expected, rel=1e-4)

    def test_existence_in_log_space(self):
        # lambda_0 = 0.0134^-290 = e^1250.6: this once raised ZeroDivisionError
        with pytest.raises(ExistenceError, match=r"sigma <= alpha\^\(nu\+1/2\), got sigma = 1\.0"):
            resolve(ModelSpec("circular_matern", {"sigma": 1.0, "nu": 144.5, "alpha": 0.0134}, 1))

    def test_eta_below_the_double_range_resolves(self):
        # lambda_0 = 50.5^-248.6 = 10^-423.4 once raised OverflowError; every
        # eigenvalue is 0 in doubles, but beta does not depend on sigma
        nu, alpha = 123.8, 50.5
        model = resolve(ModelSpec("circular_matern", {"sigma": 1.0, "nu": nu, "alpha": alpha}, 1))
        assert model.eta == 0.0
        ratios = [math.exp(-(nu + 0.5) * math.log1p((ell / alpha) ** 2)) for ell in range(1, 4097)]
        beta0 = 1.0 / (1.0 + 2.0 * math.fsum(ratios))
        assert model.correlation_beta.values[0] == pytest.approx(beta0, rel=1e-13)
        assert model.correlation_beta.values[1] == pytest.approx(2.0 * ratios[0] * beta0, rel=1e-13)

    def test_large_nu_resolves_without_warning(self):
        # (alpha^2 + l^2)^(nu + 1/2) once overflowed with a RuntimeWarning,
        # an error in this suite; lambda_1 = 1.4e-181 lambda_0 and lambda_2 underflows
        nu, alpha = 636.6, 1.04
        model = resolve(ModelSpec("circular_matern", {"sigma": 1.0, "nu": nu, "alpha": alpha}, 1))
        assert model.eta == pytest.approx(math.exp(-(2.0 * nu + 1.0) * math.log(alpha)), rel=1e-12)
        assert model.correlation_beta.values[0] == 1.0

    def test_levels_without_mass_raise(self):
        # lambda_0 = e^-2325.6 next to a tail bound e^-835.7: every beta would be
        # 0 with tail 1, a model with no levels
        spec = ModelSpec("circular_matern", {"sigma": 1.0, "nu": 50.0, "alpha": 1e10}, 1)
        with pytest.raises(TruncationError, match=r"max_level=4096 hold none of the mass"):
            resolve(spec)

    @pytest.mark.parametrize("sigma, nu, alpha", [(1.0, 1e-310, 1.0), (1e200, 0.5, 1e250)])
    def test_tail_past_the_double_range_names_sigma_and_nu(self, sigma, nu, alpha):
        # sigma^2 L^(-2 nu) / nu overflows; this once surfaced as a bare OverflowError
        with pytest.raises(ValueError, match="^" + re.escape(f"sigma = {sigma!r}, nu = {nu!r}: the tail bound")):
            resolve(ModelSpec("circular_matern", {"sigma": sigma, "nu": nu, "alpha": alpha}, 1))


class TestCompactSupport:
    def test_askey_beta0(self):
        beta = compact_support_coeffs("askey", 1.0, 10)
        assert beta.values[0] == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)

    def test_askey_level2(self):
        beta = compact_support_coeffs("askey", 1.0, 10)
        expected = 6 * (4 + 2 * math.cos(2.0) - 2) / (math.pi * 16)
        assert beta.values[2] == pytest.approx(expected, rel=1e-12)

    def test_closed_forms_match_quadrature(self):
        # beta_(l,1) = (2/pi) int_0^c psi(s) cos(l s) ds (half that for l = 0), psi a
        # polynomial on [0, c]: a 200-node Gauss-Legendre rule there is exact to rounding
        x, w = np.polynomial.legendre.leggauss(200)
        ells = np.arange(41)
        for variant in COMPACT_VARIANTS:
            for c in (1.0, 0.5, 2.5):
                beta = compact_support_coeffs(variant, c, 40)
                s = 0.5 * c * (x + 1.0)
                quad = np.cos(np.outer(ells, s)) @ (compact_support_psi(variant, c)(s) * w) * c / math.pi
                quad[0] /= 2.0
                np.testing.assert_allclose(beta.values, quad, atol=1e-10)

    def test_wendland_beta0_from_fourier(self):
        # int_0^1 psi: 1/3 (C2) and 8/27 (C4); the coefficient is that / pi
        beta2 = compact_support_coeffs("c2_wendland", 1.0, 5)
        beta4 = compact_support_coeffs("c4_wendland", 1.0, 5)
        assert beta2.values[0] == pytest.approx(1.0 / (3 * math.pi), rel=1e-12)
        assert beta4.values[0] == pytest.approx(8.0 / (27 * math.pi), rel=1e-12)

    def test_spherical_beta0(self):
        beta = compact_support_coeffs("spherical", 1.0, 20)
        # beta_(0,1) = (1/pi) int_0^1 (1+u/2)(1-u)^2 du = 3/(8 pi)
        assert beta.values[0] == pytest.approx(3.0 / (8 * math.pi), rel=1e-14)

    @pytest.mark.parametrize(
        "variant, rows",
        [
            ("askey", (1 / 2, -1 / 60, 1 / 3360)),
            ("c2_wendland", (2 / 3, -1 / 42)),
            ("c4_wendland", (16 / 27, -8 / 495)),
        ],
    )
    def test_taylor_rows(self, variant, rows):
        # pi F(u) = sum_k 2 (-1)^k u^(2k) / (2k)! int_0^1 p t^(2k) dt, each row rounded once
        assert models._compact_form(variant).series[: len(rows)] == rows

    @pytest.mark.parametrize(
        "variant, weights",
        [
            ("askey", ((6, 2),)),
            ("c2_wendland", ((240, 4), (240, 5))),
            ("c4_wendland", ((4 * 8960, 6), (3 * 8960, 7), (105 * 8960, 9))),
            ("spherical", ((3, 2), (6, 3), (12, 4))),
        ],
    )
    def test_majorant_weights(self, variant, weights):
        # pi F(u) <= sum_i w_i u^(-k_i) from the numerator bounds, e.g. for C2-Wendland
        # 240 (u^2 + u sin u + 4 cos u - 4) / u^6 <= 240 (u^2 + u) / u^6
        expected = tuple((w / math.pi, k) for w, k in weights)
        assert models._compact_form(variant).majorant == expected

    @pytest.mark.parametrize("variant", COMPACT_VARIANTS)
    def test_against_exact_series(self, variant):
        # beta_(l,1) = (2c/pi) int_0^1 (1-t)^a q(t) cos(c l t) dt on both sides of the
        # series radius 3, against its Taylor series summed in rationals to 36 terms
        # (the rest is below 1e-30 for c l <= 8), with int_0^1 (1-t)^a t^n dt = a! n! / (a+n+1)!
        a, q = COMPACT_EXACT[variant]
        fact = math.factorial
        moments = [
            sum(x * Fraction(fact(a) * fact(2 * k + i), fact(a + 2 * k + i + 1)) for i, x in enumerate(q))
            for k in range(36)
        ]
        c = Fraction(1, 4)
        beta = compact_support_coeffs(variant, float(c), 32).values
        for ell in range(33):
            u2 = (c * ell) ** 2
            total = sum(2 * (-1) ** k * u2**k / fact(2 * k) * m for k, m in enumerate(moments))
            exact = float(c * total / (2 if ell == 0 else 1)) / math.pi
            # C4-Wendland's closed form cancels up to u = c l = 3.75, where its series takes over
            rel = 1e-15 if variant == "c4_wendland" and 12 <= ell <= 15 else 2e-14
            assert beta[ell] == pytest.approx(exact, rel=rel, abs=0.0)

    @pytest.mark.parametrize("variant", COMPACT_VARIANTS)
    def test_no_quadrature_at_any_support(self, variant, monkeypatch):
        calls = []
        monkeypatch.setattr(models, "d_schoenberg_from_psi", lambda *args: calls.append(args))
        for c in (math.pi, 3.2, 3.5, 4.0, 10.0, 1e4):
            if c > math.pi and "wendland" in variant:
                with pytest.raises(ValueError, match="^c must lie in"):
                    resolve(ModelSpec(variant, {"c": c}, 1, "kernel", rho=0.01))
                continue
            compact_support_coeffs(variant, c, 40)
            resolve(ModelSpec(variant, {"c": c}, 1, "density", chi=1.0))
        assert calls == []

    @pytest.mark.parametrize("variant", ["askey", "c2_wendland", "c4_wendland", "spherical"])
    def test_resolve_on_the_circle(self, variant):
        model = resolve(ModelSpec(variant, {"c": 1.0}, 1, "kernel", rho=0.2))
        beta = compact_support_coeffs(variant, 1.0, 512)  # resolve keeps at most 513 levels
        np.testing.assert_array_equal(model.correlation_beta.values, beta.values)
        eta = 0.2 * surface_measure(1)
        np.testing.assert_allclose(model.kernel.values, eta * beta.values / multiplicities(512, 1), rtol=1e-14)
        s = np.linspace(0.0, math.pi, 7)
        np.testing.assert_array_equal(model.psi(s), compact_support_psi(variant, 1.0)(s))
        with pytest.raises(ValueError, match="d=1 only"):
            resolve(ModelSpec(variant, {"c": 1.0}, 2, "kernel", rho=0.01))

    def test_nonnegative_up_to_200(self):
        for variant in ("askey", "c2_wendland", "c4_wendland"):
            beta = compact_support_coeffs(variant, 1.0, 200)
            assert np.all(beta.values >= 0.0)

    def test_large_support_matches_quadrature(self):
        # support beyond pi: psi has no kink inside (0, pi), so the inversion
        # integral is a reference for the closed form there
        beta = compact_support_coeffs("askey", 4.0, 15)
        quad = d_schoenberg_from_psi(compact_support_psi("askey", 4.0), 1, 15)
        np.testing.assert_allclose(beta.values, quad.values, atol=1e-12)

    @pytest.mark.parametrize("variant", ["c2_wendland", "c4_wendland"])
    @pytest.mark.parametrize("c", [3.15, 3.2, 3.25, 2.0 * math.pi])
    def test_wendland_large_support_not_positive_definite(self, variant, c):
        # past pi beta_l < 0 at every large even l: the table ends the
        # interval at pi, so the spec fails when it is built, naming c
        message = rf"^c must lie in \(0, {math.pi!r}\], got {c!r}$"
        with pytest.raises(ValueError, match=message):
            ModelSpec(variant, {"c": c}, 1, "kernel", rho=0.01)
        with pytest.raises(ValueError, match=message):
            compact_support_coeffs(variant, c, 15)

    @pytest.mark.parametrize("c, level", [(3.2, 318), (3.5, 24)])
    def test_negative_coefficient_raises_naming_c(self, monkeypatch, c, level):
        # with the table's interval widened, C2-Wendland past pi takes the
        # closed form and its first negative coefficient raises, not clamps
        monkeypatch.setitem(FAMILY_PARAMS, "c2_wendland", models._Family(1, c="(0, inf)"))
        with pytest.raises(ValueError, match=rf"^params\.c = {c!r}: beta_\({level},1\) = -") as err:
            compact_support_coeffs("c2_wendland", c, 512)
        assert "not a correlation on S^1" in str(err.value)

    def test_c_range(self):
        with pytest.raises(ValueError):
            compact_support_coeffs("c2_wendland", 7.0, 5)
        with pytest.raises(ValueError):
            compact_support_coeffs("askey", -1.0, 5)

    @pytest.mark.parametrize("variant", ["askey", "spherical"])
    @pytest.mark.parametrize("c", [3.2, 3.5, 4.0, 10.0, 1e4])
    def test_past_pi_against_exact_rationals(self, variant, c):
        # the quadrature this closed form replaced was 2e-10 (c = 4) to 100 %
        # (spherical, c = 1e4, level 512) off here
        beta = compact_support_coeffs(variant, c, 512).values
        assert np.all(beta >= 0.0)
        for ell in (0, 1, 2, 3, 10, 11, 100, 101, 512):
            exact = float(_compact_beta_past_pi(variant, c, ell))
            assert beta[ell] == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_oracle_at_pi_matches_the_closed_form(self):
        # at c = pi both routes integrate p over [0, 1]: the oracle agrees with the
        # closed form the package uses within the support
        for variant in COMPACT_VARIANTS:
            beta = compact_support_coeffs(variant, math.pi, 40).values
            for ell in (0, 1, 2, 7, 40):
                exact = float(_compact_beta_past_pi(variant, PI_40, ell))
                assert beta[ell] == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("variant", COMPACT_VARIANTS)
    def test_sampled_supports(self, variant):
        # c log-uniform over the family's interval: (0, pi] for the Wendlands,
        # 1e-3 to 1e4 for the others
        low, high = (1e-3 * math.pi, math.pi) if "wendland" in variant else (1e-3, 1e4)
        rng = np.random.default_rng(2013)
        for c in np.exp(rng.uniform(math.log(low), math.log(high), 25)):
            beta = compact_support_coeffs(variant, float(c), 512)
            total = float(np.sum(beta.values))
            assert np.all(beta.values >= 0.0)
            assert total <= 1.0 + 1e-9
            assert total + beta.tail_bound >= 1.0 - 1e-12
            resolve(ModelSpec(variant, {"c": float(c)}, 1, "density", chi=1.0))


class TestCompactTailBound:
    """The closed-form compact families record a tail that bounds the mass past
    n_max, checked against the coefficients summed out to level 10^6."""

    @pytest.mark.parametrize("variant", COMPACT_VARIANTS)
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, math.pi])
    def test_tail_bound_is_a_bound(self, variant, c):
        far = compact_support_coeffs(variant, c, 10**6).values
        for n_max in (64, 512):
            beta = compact_support_coeffs(variant, c, n_max)
            assert beta.tail_bound >= float(np.sum(far[n_max + 1 :]))

    @pytest.mark.parametrize("variant", ["askey", "spherical"])
    @pytest.mark.parametrize("c", [3.2, 3.5, 4.0, 10.0, 1e4])
    def test_tail_bound_past_pi(self, variant, c):
        far = compact_support_coeffs(variant, c, 10**6).values
        for n_max in (64, 512):
            beta = compact_support_coeffs(variant, c, n_max)
            assert beta.tail_bound >= float(np.sum(far[n_max + 1 :]))

    @pytest.mark.parametrize("variant", ["askey", "spherical"])
    @pytest.mark.parametrize("c", [1e300, 1.7e308])
    def test_huge_support_is_the_constant(self, variant, c):
        # psi = 1 on [0, pi] up to pi/c: beta_0 = 1, and 1/(c l)^2 underflows
        # to 0 with no overflow on the way (a warning is an error here)
        beta = compact_support_coeffs(variant, c, 512)
        assert beta.values[0] == 1.0 and not np.any(beta.values[1:])
        assert beta.tail_bound < 1e-29

    def test_no_levels_bounds_the_whole_mass(self):
        assert compact_support_coeffs("askey", 1.0, 0).tail_bound == 1.0

    @pytest.mark.parametrize("variant", COMPACT_VARIANTS)
    @pytest.mark.parametrize("c", [1e-300, 1e-160])
    def test_tiny_support_saturates_the_tail(self, variant, c):
        # (c n_max)^(k-1) underflows to 0 here; every majorant term is far above 1
        beta = compact_support_coeffs(variant, c, 512)
        assert beta.tail_bound == 1.0
        assert np.all(np.isfinite(beta.values))


class TestModelSpecResolution:
    def test_kernel_mode_multiquadric(self):
        spec = load_model(
            {
                "schema": 1,
                "family": "multiquadric",
                "params": {"tau": 0.5, "delta": 0.5},
                "dim": 2,
                "mode": "kernel",
                "eta": 1.5,
            }
        )
        model = resolve(spec)
        # truncated spectrum undershoots eta by at most the tail tolerance
        assert model.eta == pytest.approx(1.5, rel=2e-6)
        assert 1.5 - model.eta >= -1e-12
        assert model.density is not None

    def test_density_mode_roundtrip(self):
        spec = ModelSpec(
            family="multiquadric",
            params={"tau": 1.0, "delta": 0.4},
            dim=2,
            mode="density",
            chi=0.8,
        )
        model = resolve(spec)
        # lambda = chi alpha / (1 + chi alpha)
        sigma = surface_measure(2)
        from spheredpp.harmonics import multiplicities

        m = multiplicities(len(model.correlation_beta.values) - 1, 2)
        # correlation_beta of the *kernel* here, not of psi
        assert model.density is not None
        lam = model.kernel.values
        np.testing.assert_allclose(
            model.density.values, lam / (1 - lam), rtol=1e-12
        )

    def test_existence_guard(self):
        spec = ModelSpec(
            family="multiquadric",
            params={"tau": 0.5, "delta": 0.5},
            dim=2,
            rho=3.0 / surface_measure(2),  # eta_max = 2
        )
        with pytest.raises(ExistenceError):
            resolve(spec)

    def test_missing_rho_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(family="matern", params={"nu": 0.5, "c": 1.0}, dim=1)

    def test_json_roundtrip(self):
        spec = ModelSpec(
            family="most_repulsive", params={"eta": 9.0}, dim=2, mode="kernel"
        )
        back = load_model(json.dumps(spec.to_json()))
        assert back.family == spec.family
        assert back.params == spec.params

    def test_compact_families_d1_only(self):
        # rejected when the spec is built, before resolve
        with pytest.raises(ValueError, match="d=1 only"):
            ModelSpec(family="askey", params={"c": 1.0}, dim=2, rho=0.01)

    @pytest.mark.parametrize(
        "data",
        [
            {"family": "multiquadric", "params": {"tau": 1.0, "delta": 0.4}, "dim": 2, "eta": 1.5},
            {"family": "multiquadric", "params": {"tau": 1.0, "delta": 0.4}, "dim": 2, "mode": "density", "chi": 0.8},
            {"family": "matern", "params": {"nu": 0.3, "c": 0.5}, "dim": 2, "eta": 5},
            {"family": "spectral", "params": {"alpha": 8, "beta": 1, "kappa": 2}, "dim": 2},
            {"family": "most_repulsive", "params": {"eta": 9}, "dim": 2},
            {"family": "circular_matern", "params": {"sigma": 0.5, "nu": 0.5, "alpha": 1.0}, "dim": 1},
        ],
        ids=["kernel-psi", "density-psi", "quadrature-psi", "spectral", "most-repulsive", "circular-matern"],
    )
    def test_correlation_beta_has_a_value_per_kernel_level(self, data):
        # the coeffs table reads beta_d at every level of the kernel
        model = resolve(load_model(data))
        assert len(model.correlation_beta.values) == len(model.kernel.values)


MQ10 = {"tau": 10.0, "delta": 0.7416437737576226}  # the benchmark's mq10-400


class TestModelSpecScale:
    """rho and chi of a spec built in Python are checked as load_model's are."""

    @pytest.mark.parametrize(
        "mode, name, value",
        [
            ("kernel", "rho", math.nan),  # once resolved to eta = nan
            ("kernel", "rho", "x"),  # once an unnamed TypeError
            ("kernel", "rho", True),  # once read as 1.0
            ("kernel", "rho", -1.0),  # once "eta must be positive"
            ("kernel", "rho", math.inf),
            ("kernel", "rho", 1e308),  # rho sigma_2 overflows
            ("density", "chi", "2"),  # once an unnamed TypeError
            ("density", "chi", math.nan),
            ("density", "chi", 0.0),
        ],
    )
    def test_rejected_at_construction(self, mode, name, value):
        with pytest.raises(ValueError, match=name):
            ModelSpec("multiquadric", MQ10, 2, mode, **{name: value})

    def test_numbers_normalized(self):
        spec = ModelSpec("multiquadric", {"tau": 10, "delta": 0.5}, 2.0, rho=np.float64(0.25))
        assert (spec.dim, spec.rho, spec.params["tau"]) == (2, 0.25, 10.0)
        assert type(spec.dim) is int and type(spec.rho) is float


class TestResolveMemo:
    """Equal specs share one resolve; its spectra are read-only."""

    @pytest.fixture(autouse=True)
    def memo(self, monkeypatch):
        table = {}
        monkeypatch.setattr(models, "_resolved", table)
        return table

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        function = getattr(models, name)

        def wrapper(*args, **kwargs):
            calls.append(args or kwargs)
            return function(*args, **kwargs)

        monkeypatch.setattr(models, name, wrapper)
        return calls

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"tau": 10.0, "delta": 0.7}, {"delta": 0.7, "tau": 10.0}),  # another order
            ({"tau": 10, "delta": 0.7}, {"tau": 10.0, "delta": 0.7}),  # tau an int, then a float
        ],
    )
    @pytest.mark.parametrize("scale", [{"rho": 5.0}, {"mode": "density", "chi": 5.0}])
    def test_equal_specs_share_the_spectra(self, monkeypatch, first, second, scale):
        calls = self.counted(monkeypatch, "multiquadric_d_schoenberg")
        spec_a, spec_b = ModelSpec("multiquadric", first, 2, **scale), ModelSpec("multiquadric", second, 2, **scale)
        a, b = resolve(spec_a), resolve(spec_b)
        assert a.spec is spec_a and b.spec is spec_b
        assert b.kernel is a.kernel and b.correlation_beta is a.correlation_beta
        assert b.psi_beta is a.psi_beta and b.density is a.density
        assert resolve(spec_a).spec is spec_a
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "base, other",
        [
            ({"mode": "density", "chi": 5.0}, {"mode": "density", "chi": 5.5}),
            ({"rho": 5.0}, {"rho": 5.5}),
            ({"rho": 5.0}, {"mode": "density", "chi": 5.0}),  # the mode, with its scale
            ({"rho": 5.0}, {"rho": 5.0, "trunc": TruncationPolicy(tail_tol=1e-8)}),
            ({"rho": 5.0}, {"rho": 5.0, "trunc": TruncationPolicy(max_level=2048)}),
        ],
    )
    def test_specs_differing_in_one_field_do_not_share(self, base, other):
        a = resolve(ModelSpec("multiquadric", {"tau": 10.0, "delta": 0.7}, 2, **base))
        b = resolve(ModelSpec("multiquadric", {"tau": 10.0, "delta": 0.7}, 2, **other))
        assert b.kernel is not a.kernel
        assert b.correlation_beta is not a.correlation_beta

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("multiquadric", MQ10, 2, rho=400.0 / surface_measure(2)),  # lambda_0 = 1, clamped
            ModelSpec("multiquadric", MQ10, 2, "density", chi=5.0),
            ModelSpec("most_repulsive", {"eta": 9.0}, 2),
            ModelSpec("spectral", {"alpha": 8.0, "beta": 1.0, "kappa": 2.0}, 2),
            ModelSpec("circular_matern", {"sigma": 1.0, "nu": 0.5, "alpha": 1.0}, 1),
        ],
    )
    def test_resolved_values_are_read_only(self, spec):
        model = resolve(spec)
        sequences = [model.kernel, model.correlation_beta, model.psi_beta, model.density]
        for seq in filter(None, sequences):
            with pytest.raises(ValueError, match="read-only"):
                seq.values[0] = 0.5

    def test_a_failing_spec_raises_on_every_call(self, monkeypatch, memo):
        calls = self.counted(monkeypatch, "multiquadric_d_schoenberg")
        spec = ModelSpec("multiquadric", {"tau": 1.0, "delta": 0.9654362879120054}, 2, rho=1.0,
                         trunc=TruncationPolicy(max_level=64))
        for _ in range(2):
            with pytest.raises(TruncationError):
                resolve(spec)
        assert len(calls) == 2 and memo == {}

    def test_the_oldest_resolve_is_evicted(self, monkeypatch, memo):
        calls = self.counted(monkeypatch, "most_repulsive_spectrum")
        specs = [ModelSpec("most_repulsive", {"eta": 1.0 + k}, 2) for k in range(models._RESOLVED_MAX + 1)]
        for spec in specs:
            resolve(spec)
        assert len(calls) == len(specs) and len(memo) == models._RESOLVED_MAX
        resolve(specs[-1])  # still held
        assert len(calls) == len(specs)
        resolve(specs[1])  # the oldest one held
        assert len(calls) == len(specs)
        resolve(specs[0])  # evicted by the last: resolved again
        assert len(calls) == len(specs) + 1

    def test_threads_sharing_the_memo(self, monkeypatch, memo):
        # four threads over a four-entry memo, switching often: the memo stays
        # within its bound, and every thread gets its own spec's model
        import sys
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(models, "_RESOLVED_MAX", 4)
        specs = [ModelSpec("most_repulsive", {"eta": 1.0 + k % 12}, 2) for k in range(240)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(resolve, spec) for spec in specs]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(memo) <= 4
        for spec, model in zip(specs, results):
            assert model.spec is spec
            assert model.eta == pytest.approx(spec.params["eta"], rel=1e-12)


# Each parameter's interval, written out apart from FAMILY_PARAMS:
# (low, high, low end closed, high end closed).
POSITIVE = (0.0, math.inf, False, False)
PARAMETER_INTERVALS = {
    ("multiquadric", "tau"): POSITIVE,
    ("multiquadric", "delta"): (0.0, 1.0, False, False),
    ("matern", "nu"): (0.0, 0.5, False, True),
    ("matern", "c"): POSITIVE,
    ("askey", "c"): POSITIVE,
    ("c2_wendland", "c"): (0.0, math.pi, False, True),
    ("c4_wendland", "c"): (0.0, math.pi, False, True),
    ("spherical", "c"): POSITIVE,
    ("spectral", "alpha"): POSITIVE,
    ("spectral", "beta"): POSITIVE,
    ("spectral", "kappa"): POSITIVE,
    ("most_repulsive", "eta"): POSITIVE,
    ("circular_matern", "sigma"): POSITIVE,
    ("circular_matern", "nu"): POSITIVE,
    ("circular_matern", "alpha"): POSITIVE,
}
VALID_PARAMS = {
    "multiquadric": {"tau": 1.0, "delta": 0.5},
    "matern": {"nu": 0.5, "c": 1.0},
    **{variant: {"c": 1.0} for variant in COMPACT_VARIANTS},
    "spectral": {"alpha": 8.0, "beta": 1.0, "kappa": 2.0},
    "most_repulsive": {"eta": 9.0},
    "circular_matern": {"sigma": 0.5, "nu": 0.5, "alpha": 1.0},
}
SMALL = TruncationPolicy(max_level=64)


def _family_function(family, params):
    """Call the public function that takes ``family``'s parameters directly."""
    if family == "multiquadric":
        return multiquadric_psi(**params)
    if family == "matern":
        return matern_psi(**params)
    if family in COMPACT_VARIANTS:
        return compact_support_psi(family, **params)
    if family == "spectral":
        return spectral_model_spectrum(**params, dim=2, trunc=SMALL)
    if family == "most_repulsive":
        return most_repulsive_spectrum(**params, dim=2, trunc=SMALL)
    return circular_matern_spectrum(**params, trunc=SMALL)


def _model_object(family, params, dim=None):
    on_circle = family in COMPACT_VARIANTS or family == "circular_matern"
    data = {"family": family, "params": params, "dim": dim or (1 if on_circle else 2)}
    if family in models.PSI_FAMILIES:
        data["rho"] = 0.01
    return data


class TestParameterTable:
    def test_intervals_cover_the_table(self):
        assert set(PARAMETER_INTERVALS) == {(f, p) for f in FAMILY_PARAMS for p in FAMILY_PARAMS[f]}

    @pytest.mark.parametrize("family, name", sorted(PARAMETER_INTERVALS))
    def test_boundaries_on_both_paths(self, family, name):
        low, high, low_closed, high_closed = PARAMETER_INTERVALS[(family, name)]
        tiny = 1e-9
        inside = [low if low_closed else low + tiny]
        outside = [math.nextafter(low, -math.inf) if low_closed else low, math.nan]
        if math.isfinite(high):
            inside.append(high if high_closed else high - tiny)
            outside.append(math.nextafter(high, math.inf) if high_closed else high)
        for value in inside:
            params = dict(VALID_PARAMS[family], **{name: value})
            assert load_model(_model_object(family, params)).params[name] == value
            try:
                _family_function(family, params)
            except (TruncationError, ExistenceError):
                pass  # past the parameter check: the model does not exist or cut
        for value in outside:
            params = dict(VALID_PARAMS[family], **{name: value})
            with pytest.raises(ValueError, match=rf"^{name} must ") as loaded:
                load_model(_model_object(family, params))
            with pytest.raises(ValueError) as called:
                _family_function(family, params)
            assert str(called.value) == str(loaded.value)

    @pytest.mark.parametrize("family", [*COMPACT_VARIANTS, "circular_matern"])
    def test_circle_families_rejected_on_the_sphere(self, family):
        with pytest.raises(ValueError, match=f"^{family} is available for d=1 only, got d=2$"):
            load_model(_model_object(family, VALID_PARAMS[family], dim=2))


class TestSampledSpecs:
    """Specs drawn inside FAMILY_PARAMS, six per family and sphere (circle-only
    families on S^1 alone; psi families in density mode with chi = 1): each
    resolves, raises TruncationError naming max_level, or raises ValueError
    naming a parameter.  Each parameter is log-uniform over 1e-3 to 1e4 where its
    interval is (0, inf), and over 1e-3 h to h where it is (0, h) or (0, h]."""

    CUT = ("multiquadric", "spectral", "most_repulsive")
    # rounding of the summed counts: a few ulps of eta
    ROUNDING = 1e-15

    @pytest.mark.parametrize("family", models.ALL_FAMILIES)
    def test_resolves_or_fails_naming_a_field(self, family):
        rng = np.random.default_rng([2016, models.ALL_FAMILIES.index(family)])
        resolved = 0
        for dim in (1,) if FAMILY_PARAMS[family].dim == 1 else (1, 2):
            for _ in range(6):
                params = {}
                for name in FAMILY_PARAMS[family]:
                    high = PARAMETER_INTERVALS[(family, name)][1]
                    low, high = (1e-3, 1e4) if high == math.inf else (1e-3 * high, high)
                    params[name] = float(np.exp(rng.uniform(math.log(low), math.log(high))))
                scale = {"mode": "density", "chi": 1.0} if family in models.PSI_FAMILIES else {}
                spec = ModelSpec(family, params, dim, **scale)
                try:
                    model = resolve(spec)
                except TruncationError as err:
                    assert "max_level=" in str(err), (params, dim)
                    continue
                except ValueError as err:
                    assert any(name in str(err) for name in params), (params, dim, str(err))
                    continue
                resolved += 1
                kernel, tol = model.kernel, spec.trunc.tail_tol
                if family in self.CUT:  # the represented eta falls short by at most tail_tol
                    assert kernel.eta >= (1.0 - tol - self.ROUNDING) * (kernel.eta + kernel.tail_bound), (params, dim)
                elif family in COMPACT_VARIANTS:  # 512 levels, and a tail bound that covers the rest
                    beta = model.psi_beta
                    assert float(np.sum(beta.values)) + beta.tail_bound >= 1.0 - 1e-12, (params, dim)
        assert resolved


@pytest.mark.parametrize(
    "family, params",
    [
        ("multiquadric", {"tau": 1.0, "delta": 0.5}),
        ("matern", {"nu": 0.5, "c": 1.0}),
        ("matern", {"nu": 0.3, "c": 1.0}),
        *((variant, {"c": 2.0}) for variant in COMPACT_VARIANTS),
        ("askey", {"c": 4.0}),
    ],
    ids=["multiquadric", "matern-half", "matern-0.3", *COMPACT_VARIANTS, "askey-past-pi"],
)
def test_psi_is_even(family, params):
    # Matern nu = 1/2 once gave e at s = -1, nu < 1/2 NaN, and Askey 3.375 at s = -0.5;
    # the compact families once gave 0 for NaN
    psi = _family_function(family, params)
    s = np.array([0.0, 1e-3, 0.3, 0.5, 1.0, 2.0, 3.0, math.pi, 4.0, 7.0])
    np.testing.assert_array_equal(psi(-s), psi(s))
    assert np.all(np.isnan(psi(np.array([math.nan, -math.nan]))))
    assert math.isnan(float(psi(math.nan)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
FIELDS = ["schema", "family", "params", "dim", "mode", "rho", "eta", "chi", "trunc"]


@st.composite
def valid_model_objects(draw):
    """A model object that loads.  Every parameter interval holds [0.01, 0.5];
    the compact families and circular_matern live on S^1; a psi family takes
    rho or eta in kernel mode and chi in density mode, a spectrum family none."""
    family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    on_circle = family in COMPACT_VARIANTS or family == "circular_matern"
    data = {
        "schema": 1,
        "family": family,
        "params": {name: draw(st.floats(0.01, 0.5)) for name in FAMILY_PARAMS[family]},
        "dim": 1 if on_circle else draw(st.integers(1, 3)),
        "mode": "kernel",
        "trunc": {"max_level": draw(st.integers(0, 100)), "tail_tol": draw(st.floats(1e-9, 1e-3))},
    }
    if family in models.SPECTRUM_FAMILIES:
        return data
    if draw(st.booleans()):
        data[draw(st.sampled_from(["rho", "eta"]))] = draw(st.floats(0.01, 5.0))
    else:
        data.update(mode="density", chi=draw(st.floats(0.01, 5.0)))
    return data


@st.composite
def model_objects(draw):
    """A valid model object with up to three fields dropped, replaced by
    arbitrary JSON, or added; so every check in load_model is reached."""
    data = draw(valid_model_objects())
    keys = FIELDS + [f"params.{name}" for name in FAMILY_PARAMS[data["family"]]]
    keys += ["params.typo", "trunc.max_level", "trunc.tail_tol", "trunc.typo", "extra"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        owner, name = data, key
        head, _, tail = key.partition(".")
        if tail and head in ("params", "trunc") and isinstance(data.get(head), dict):
            owner, name = data[head], tail
        if draw(st.booleans()):
            owner.pop(name, None)
        else:
            owner[name] = draw(JSON_VALUES)
    return data


MODEL_OBJECTS = model_objects() | st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=5)


class TestLoadModelFuzz:
    @settings(max_examples=200, deadline=None)
    @given(MODEL_OBJECTS)
    def test_spec_or_value_error(self, data):
        # any JSON object gives a ModelSpec or a ValueError, never KeyError,
        # TypeError or another exception type
        try:
            spec = load_model(data)
        except ValueError:
            return
        assert isinstance(spec, ModelSpec)
        assert set(spec.params) == set(FAMILY_PARAMS[spec.family])
        assert all(math.isfinite(v) for v in [*spec.params.values(), spec.rho or 0.0, spec.chi or 0.0])

    @settings(max_examples=100, deadline=None)
    @given(valid_model_objects())
    def test_valid_objects_load_and_round_trip(self, data):
        # the fuzz above starts from objects that build, and to_json writes
        # an object that loads back to the same spec
        spec = load_model(data)
        assert load_model(json.dumps(spec.to_json())) == spec


SIGMA2 = surface_measure(2)
TIGHT = TruncationPolicy(tail_tol=1e-13)


def _density_count(beta, chi, dim):
    """sum m lambda of the density-mode kernel lambda~ = chi sigma_d beta / m."""
    m = multiplicities(len(beta) - 1, dim)
    lam_tilde = chi * surface_measure(dim) * beta / m
    return float(np.sum(m * (lam_tilde / (1.0 + lam_tilde))))


def _mq_density(tau, delta, chi, trunc):
    return ModelSpec("multiquadric", {"tau": tau, "delta": delta}, 2, "density", chi=chi, trunc=trunc)


# (spec, the model's full expected count); tau = 1/2 has closed-form
# coefficients (1 - delta) delta^l on S^2, and the tau = 10 fit-grid model's
# reference comes from Cohl's series.
CONTRACT_CASES = {
    "mq-kernel-tau10": (
        ModelSpec("multiquadric", {"tau": 10.0, "delta": 0.74}, 2, rho=100.0 / SIGMA2, trunc=TIGHT),
        lambda: 100.0,
    ),
    "mq-kernel-tau1": (
        ModelSpec("multiquadric", {"tau": 1.0, "delta": 0.9}, 2, rho=50.0 / SIGMA2, trunc=TIGHT),
        lambda: 50.0,
    ),
    **{
        f"mq-density-tau-half-chi{chi:g}": (
            _mq_density(0.5, 0.6, chi, TIGHT),
            lambda chi=chi: _density_count(0.4 * 0.6 ** np.arange(2000), chi, 2),
        )
        for chi in (1.0, 30.0, 1000.0)
    },
    **{
        f"mq-density-tau10-chi{chi:g}": (
            _mq_density(10.0, 0.74, chi, TIGHT),
            lambda chi=chi: _density_count(_cohl_beta(10.0, 0.74, 2, 512), chi, 2),
        )
        for chi in (1.0, 30.0, 1000.0)
    },
    "sp-8-1-2": (
        ModelSpec("spectral", {"alpha": 8.0, "beta": 1.0, "kappa": 2.0}, 2, trunc=TIGHT),
        lambda: _spectral_sum(8.0, 1.0, 2.0, 2, 0, 19_999),
    ),
    "spectral-4-2-1.5": (
        ModelSpec("spectral", {"alpha": 4.0, "beta": 2.0, "kappa": 1.5}, 2, trunc=TIGHT),
        lambda: _spectral_sum(4.0, 2.0, 1.5, 2, 0, 19_999),
    ),
    "spectral-3-0.5-1-circle": (
        ModelSpec("spectral", {"alpha": 3.0, "beta": 0.5, "kappa": 1.0}, 1, trunc=TIGHT),
        lambda: _spectral_sum(3.0, 0.5, 1.0, 1, 0, 19_999),
    ),
    "most-repulsive-400": (
        ModelSpec("most_repulsive", {"eta": 400.0}, 2, trunc=TIGHT),
        lambda: 400.0,
    ),
}

TAIL_CASES = {
    "mq-kernel": ModelSpec("multiquadric", {"tau": 10.0, "delta": 0.74}, 2, rho=100.0 / SIGMA2),
    "mq-density-chi1": _mq_density(10.0, 0.74, 1.0, TruncationPolicy()),
    "mq-density-chi50": _mq_density(10.0, 0.74, 50.0, TruncationPolicy()),
    "sp-8-1-2": ModelSpec("spectral", {"alpha": 8.0, "beta": 1.0, "kappa": 2.0}, 2),
}


class TestTruncationContract:
    # rounding of the summed counts: a few ulps of eta
    ROUNDING = 1e-15

    @pytest.mark.parametrize("name", sorted(CONTRACT_CASES))
    def test_represented_eta_within_tail_tol_and_cut_minimal(self, name):
        spec, full_count = CONTRACT_CASES[name]
        eta, tol = full_count(), spec.trunc.tail_tol
        kernel = resolve(spec).kernel
        terms = kernel.mults * kernel.values
        assert float(np.sum(terms)) >= (1.0 - tol - self.ROUNDING) * eta
        # one level fewer would break the contract
        assert float(np.sum(terms[:-1])) < (1.0 - tol) * eta

    @pytest.mark.parametrize("name", sorted(TAIL_CASES))
    def test_tail_bound_covers_finer_truncation(self, name):
        # tail_bound counts sum m * value past the cut for every kind
        spec = TAIL_CASES[name]
        coarse = resolve(spec)
        fine = resolve(dataclasses.replace(spec, trunc=TruncationPolicy(tail_tol=1e-12)))
        pairs = [
            (coarse.kernel, fine.kernel),
            (correlation_mercer(coarse.correlation_beta), correlation_mercer(fine.correlation_beta)),
        ]
        if spec.mode == "density":
            pairs.append((coarse.density, fine.density))
        for cut, finer in pairs:
            added = float(np.sum((finer.mults * finer.values)[len(cut):]))
            assert 0.0 < added <= cut.tail_bound, cut.kind

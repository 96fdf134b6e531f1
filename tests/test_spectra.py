import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from spheredpp import spectra
from spheredpp.models import multiquadric_psi
from spheredpp.spectra import (
    DSchoenbergSeq,
    ExistenceError,
    MercerSpectrum,
    QuadratureError,
    QuadratureSpec,
    SchoenbergSeq,
    TruncationPolicy,
    _gl_nodes,
    beta_from_kernel,
    correlation_mercer,
    d_schoenberg_from_psi,
    eval_psi_series,
    from_density_kernel,
    mercer_from_d,
    rho_max,
    schoenberg_to_d,
    sequence_from_json,
    to_density_kernel,
)
from spheredpp.sphere import surface_measure


def delta_seq(level, value=1.0, size=None):
    vals = np.zeros((size or level + 1))
    vals[level] = value
    return SchoenbergSeq(vals)


class TestSchoenbergToD:
    def test_cos_squared_d1(self):
        # cos^2 s = 1/2 + (1/2) cos 2s
        out = schoenberg_to_d(delta_seq(2), 1, 4)
        np.testing.assert_allclose(out.values, [0.5, 0.0, 0.5, 0.0, 0.0], atol=1e-15)

    def test_cos_d2(self):
        out = schoenberg_to_d(delta_seq(1), 2, 3)
        np.testing.assert_allclose(out.values, [0.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_constant_any_d(self):
        for dim in (1, 2, 3, 5):
            out = schoenberg_to_d(delta_seq(0), dim, 2)
            np.testing.assert_allclose(out.values, [1.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_consistency_with_power_series(self, dim):
        # conversion + series evaluation reproduces sum beta_l cos^l s
        rng = np.random.default_rng(21)
        raw = rng.random(9)
        beta = SchoenbergSeq(raw / raw.sum())
        out = schoenberg_to_d(beta, dim, 8)
        s = np.linspace(0.0, math.pi, 50)
        direct = sum(b * np.cos(s) ** ell for ell, b in enumerate(beta.values))
        np.testing.assert_allclose(eval_psi_series(out, s), direct, atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_mass_preservation(self, dim):
        rng = np.random.default_rng(22)
        raw = rng.random(12)
        beta = SchoenbergSeq(raw / raw.sum())
        out = schoenberg_to_d(beta, dim, 11)
        assert abs(np.sum(out.values) - 1.0) <= 1e-12


class TestQuadratureInversion:
    def test_cos_d1(self):
        out = d_schoenberg_from_psi(np.cos, 1, 4)
        expected = np.zeros(5)
        expected[1] = 1.0
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_multiquadric_closed_form_d2(self):
        # tau = 1/2: beta_(l,2) = (1-delta) delta^l
        delta = 0.6

        def psi(s):
            return ((1 - delta) ** 2 / (1 + delta**2 - 2 * delta * np.cos(s))) ** 0.5

        out = d_schoenberg_from_psi(psi, 2, 30)
        expected = 0.4 * 0.6 ** np.arange(31)
        np.testing.assert_allclose(out.values, expected, atol=1e-8)

    def test_exponential_beta0_d1(self):
        out = d_schoenberg_from_psi(lambda s: np.exp(-s), 1, 3)
        assert out.values[0] == pytest.approx((1 - math.exp(-math.pi)) / math.pi, abs=1e-12)

    def test_invalid_correlation_rejected(self):
        # cos(2s) alone is not a correlation mixture on S^1 ... it is
        # (beta_2 = 1); use something genuinely invalid instead
        with pytest.raises(ValueError):
            d_schoenberg_from_psi(lambda s: 1.0 - 2.0 * np.cos(s) ** 2, 1, 5)

    def test_nonconvergent_raises(self):
        from spheredpp.spectra import QuadratureError

        rng = np.random.default_rng(5)

        def noisy(s):
            return np.cos(s) + 1e-6 * rng.random(np.shape(s))

        with pytest.raises(QuadratureError):
            d_schoenberg_from_psi(noisy, 1, 3, QuadratureSpec(max_nodes=512))

    @pytest.mark.parametrize("delta", [0.5, 0.9, 0.97])
    def test_multiquadric_half_d2_to_400_levels(self, delta):
        # tau = 1/2 on S^2 has the exact masses beta_(l,2) = delta^l (1 - delta)
        out = d_schoenberg_from_psi(multiquadric_psi(0.5, delta), 2, 400)
        exact = delta ** np.arange(401) * (1.0 - delta)
        assert float(np.sum(np.abs(out.values - exact))) <= 3e-12


class TestGaussLegendreNodes:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 1024])
    def test_matches_scipy(self, n):
        x, w = _gl_nodes(n)
        ref_x, ref_w = roots_legendre(n)
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, ref_w, rtol=1e-8)
        assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 1024])
    def test_ascending_and_symmetric(self, n):
        x, w = _gl_nodes(n)
        assert len(x) == len(w) == n
        assert np.all(np.diff(x) > 0)
        assert np.all(x == -x[::-1]) and np.all(w == w[::-1])
        assert np.all(w > 0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_exact_for_monomials(self, n):
        # the n-point rule integrates x^k exactly for k <= 2n - 1
        x, w = _gl_nodes(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert float(np.dot(w, x**k)) == pytest.approx(exact, rel=1e-14, abs=1e-15)

    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_GL_NEWTON_STEPS", 1)
        _gl_nodes.cache_clear()
        try:
            with pytest.raises(QuadratureError, match="n=64"):
                _gl_nodes(64)
        finally:
            _gl_nodes.cache_clear()


class TestMercerMaps:
    def test_constant_projection(self):
        beta = DSchoenbergSeq(2, [1.0])
        spec = mercer_from_d(beta, 1.0)
        assert spec.values[0] == 1.0
        assert spec.eta == pytest.approx(1.0)

    def test_multiquadric_lambda_formula(self):
        # tau = (d-1)/2: lambda_(l,d) = (eta/eta_max) (d-1)/(2l+d-1) delta^l
        delta, dim = 0.5, 2
        ells = np.arange(25)
        beta = DSchoenbergSeq(dim, (1 - delta) * delta**ells)
        eta_max = (1 - delta) ** (1 - dim)
        eta = 1.5
        spec = mercer_from_d(beta, eta)
        expected = (eta / eta_max) * (dim - 1) / (2 * ells + dim - 1) * delta**ells
        np.testing.assert_allclose(spec.values, expected, rtol=1e-13)

    def test_existence_violation(self):
        beta = DSchoenbergSeq(2, [1.0])
        with pytest.raises(ExistenceError):
            mercer_from_d(beta, 1.1)

    def test_eta_equals_sigma_rho(self):
        # eta = sum m lambda = sigma_d * rho for C0 = rho psi
        rng = np.random.default_rng(23)
        raw = rng.random(6)
        beta = DSchoenbergSeq(2, raw / raw.sum())
        rho = 0.5 * float(rho_max(beta))
        spec = mercer_from_d(beta, rho * surface_measure(2))
        assert spec.eta == pytest.approx(rho * surface_measure(2), rel=1e-12)


class TestRhoMax:
    def test_multiquadric_half(self):
        delta = 0.5
        beta = DSchoenbergSeq(2, (1 - delta) * delta ** np.arange(40))
        eta_max = surface_measure(2) * rho_max(beta, nonnegative_psi=True).value
        assert eta_max == pytest.approx(1.0 / (1.0 - delta), rel=1e-12)

    def test_constant(self):
        beta = DSchoenbergSeq(2, [1.0])
        assert rho_max(beta).value == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
        assert not rho_max(beta).prefix_infimum

    def test_prefix_flag(self):
        beta = DSchoenbergSeq(2, [0.5, 0.25], tail_bound=0.25)
        assert rho_max(beta).prefix_infimum

    def test_all_zero(self):
        with pytest.raises(ValueError):
            rho_max(DSchoenbergSeq(1, [0.0, 0.0]))


class TestDensityKernelMaps:
    def test_half_maps_to_one(self):
        spec = MercerSpectrum(2, "kernel", [0.5])
        assert to_density_kernel(spec).values[0] == pytest.approx(1.0)

    def test_roundtrip(self):
        spec = MercerSpectrum(2, "kernel", [0.5, 0.25, 0.99])
        back = from_density_kernel(to_density_kernel(spec))
        np.testing.assert_allclose(back.values, spec.values, atol=1e-14)

    def test_eigenvalue_one_rejected(self):
        with pytest.raises(ExistenceError):
            to_density_kernel(MercerSpectrum(2, "kernel", [1.0]))

    @given(st.lists(st.floats(0.0, 0.999999), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, lams):
        spec = MercerSpectrum(1, "kernel", np.array(lams))
        back = from_density_kernel(to_density_kernel(spec))
        np.testing.assert_allclose(back.values, spec.values, atol=1e-14)


class TestSeriesEvaluation:
    def test_psi_at_zero(self):
        beta = DSchoenbergSeq(2, [0.5, 0.3, 0.15], tail_bound=0.05)
        val = eval_psi_series(beta, 0.0)
        assert 1.0 - beta.tail_bound - 1e-12 <= val <= 1.0 + 1e-12

    def test_level_one_is_cos(self):
        beta = DSchoenbergSeq(2, [0.0, 1.0])
        s = np.linspace(0, math.pi, 20)
        np.testing.assert_allclose(eval_psi_series(beta, s), np.cos(s), atol=1e-14)

    def test_multiquadric_series_matches_closed_form(self):
        delta, tau = 0.6, 0.5
        beta = DSchoenbergSeq(2, (1 - delta) * delta ** np.arange(80))
        s = math.pi / 3
        closed = ((1 - delta) ** 2 / (1 + delta**2 - 2 * delta * math.cos(s))) ** tau
        assert eval_psi_series(beta, s) == pytest.approx(closed, abs=1e-7)


class TestAppendixBArgmax:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_alpha0_strictly_largest(self, dim):
        rng = np.random.default_rng(31)
        raw = rng.random(6)
        beta_mix = raw / raw.sum()

        def psi(s):
            c = np.cos(s)
            return sum(b * c ** (2 * ell) for ell, b in enumerate(beta_mix))

        beta_d = d_schoenberg_from_psi(psi, dim, 30)
        alpha = correlation_mercer(beta_d).values
        assert np.all(alpha[0] > alpha[1:])


class TestJsonRoundtrip:
    def test_all_kinds(self):
        seqs = [
            SchoenbergSeq([0.5, 0.5]),
            DSchoenbergSeq(2, [0.25, 0.5], tail_bound=0.25),
            MercerSpectrum(1, "kernel", [1.0, 0.5]),
            MercerSpectrum(2, "density-kernel", [2.0, 0.5]),
            MercerSpectrum(2, "correlation", [0.9, 0.1]),
        ]
        for seq in seqs:
            text = json.dumps(seq.to_json())
            back = sequence_from_json(text)
            assert type(back) is type(seq)
            np.testing.assert_allclose(back.values, seq.values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sequence_from_json({"kind": "mystery", "values": []})


class TestSequenceInvariants:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SchoenbergSeq([0.5, -0.2, 0.7])

    def test_mass_overflow_rejected(self):
        with pytest.raises(ValueError):
            DSchoenbergSeq(2, [0.9, 0.9])

    def test_kernel_above_one_rejected(self):
        with pytest.raises(ExistenceError):
            MercerSpectrum(2, "kernel", [1.5])

    def test_beta_from_kernel_normalizes(self):
        spec = MercerSpectrum(2, "kernel", [0.5, 0.2, 0.1])
        beta = beta_from_kernel(spec)
        assert np.sum(beta.values) + beta.tail_bound == pytest.approx(1.0, abs=1e-12)

    def test_truncation_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(max_level=-1)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_tol=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_level": -1}, "trunc.max_level must be >= 0"),
            ({"tail_tol": 0.0}, "trunc.tail_tol must lie in (0, 1)"),
            ({"tail_tol": 1.0}, "trunc.tail_tol must lie in (0, 1)"),
            ({"tail_tol": float("nan")}, "trunc.tail_tol must lie in (0, 1)"),
        ],
    )
    def test_truncation_policy_names_field(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TruncationPolicy(**kwargs)

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredpp.diagnostics import local_repulsiveness
from spheredpp.harmonics import multiplicities
from spheredpp.models import (
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
    multiquadric_beta0_s2,
    multiquadric_d_schoenberg,
    multiquadric_eta_max,
    multiquadric_psi,
    resolve,
    spectral_model_spectrum,
)
from spheredpp.spectra import (
    ExistenceError,
    QuadratureSpec,
    TruncationPolicy,
    correlation_mercer,
    d_schoenberg_from_psi,
    eval_psi_series,
)
from spheredpp.sphere import surface_measure


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
        # general tau: the quadrature level-0 mass agrees with the closed form
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


class TestMostRepulsive:
    def test_projection_eta9_d2(self):
        spec = most_repulsive_spectrum(9.0, 2)
        np.testing.assert_allclose(spec.values, [1.0, 1.0, 1.0])
        assert spec.is_projection()
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


class TestMatern:
    def test_nu_half_is_exponential(self):
        psi = matern_psi(0.5, 2.0)
        s = np.linspace(0, math.pi, 9)
        np.testing.assert_allclose(psi(s), np.exp(-s / 2.0), rtol=1e-14)

    def test_small_nu_limit_at_zero(self):
        psi = matern_psi(0.3, 1.0)
        assert float(psi(0.0)) == 1.0
        assert float(psi(1e-12)) == pytest.approx(1.0, abs=1e-3)

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

    def test_eta_max_equals_inverse_beta0(self):
        beta = matern_d1_coefficients(1.3, 10)
        assert matern_eta_max_d1(1.3) == pytest.approx(1.0 / beta.values[0], rel=1e-12)

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


class TestCompactSupport:
    def test_askey_beta0(self):
        beta = compact_support_coeffs("askey", 1.0, 10)
        assert beta.values[0] == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)

    def test_askey_level2(self):
        beta = compact_support_coeffs("askey", 1.0, 10)
        expected = 6 * (4 + 2 * math.cos(2.0) - 2) / (math.pi * 16)
        assert beta.values[2] == pytest.approx(expected, rel=1e-12)

    def test_closed_forms_match_quadrature(self):
        for variant in ("askey", "c2_wendland", "c4_wendland"):
            for c in (1.0, 0.5, 2.5):
                beta = compact_support_coeffs(variant, c, 40)
                quad = d_schoenberg_from_psi(
                    compact_support_psi(variant, c),
                    1,
                    40,
                    QuadratureSpec(split_points=(c,)),
                )
                np.testing.assert_allclose(beta.values, quad.values, atol=1e-10)

    def test_wendland_beta0_from_fourier(self):
        # int_0^1 psi: 1/3 (C2) and 8/27 (C4); the coefficient is that / pi
        beta2 = compact_support_coeffs("c2_wendland", 1.0, 5)
        beta4 = compact_support_coeffs("c4_wendland", 1.0, 5)
        assert beta2.values[0] == pytest.approx(1.0 / (3 * math.pi), rel=1e-12)
        assert beta4.values[0] == pytest.approx(8.0 / (27 * math.pi), rel=1e-12)

    def test_spherical_by_quadrature(self):
        beta = compact_support_coeffs("spherical", 1.0, 20)
        # beta_(0,1) = (1/pi) int_0^1 (1+u/2)(1-u)^2 du = 3/(8 pi)
        assert beta.values[0] == pytest.approx(3.0 / (8 * math.pi), rel=1e-9)

    def test_nonnegative_up_to_200(self):
        for variant in ("askey", "c2_wendland", "c4_wendland"):
            beta = compact_support_coeffs(variant, 1.0, 200)
            assert np.all(beta.values >= 0.0)

    def test_large_support_falls_back_to_quadrature(self):
        # support beyond pi: the caption scaling rule no longer applies,
        # so the coefficients come from the inversion integral directly
        beta = compact_support_coeffs("askey", 4.0, 15)
        quad = d_schoenberg_from_psi(compact_support_psi("askey", 4.0), 1, 15)
        np.testing.assert_allclose(beta.values, quad.values, atol=1e-12)

    def test_wendland_large_support_not_positive_definite(self):
        # the Fourier coefficients of the c=4 C2-Wendland go genuinely
        # negative (~-1e-4): rejected as not a correlation on S^1
        with pytest.raises(ValueError, match="not a valid correlation"):
            compact_support_coeffs("c2_wendland", 4.0, 15)

    def test_c_range(self):
        with pytest.raises(ValueError):
            compact_support_coeffs("c2_wendland", 7.0, 5)
        with pytest.raises(ValueError):
            compact_support_coeffs("askey", -1.0, 5)


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
        spec = ModelSpec(family="askey", params={"c": 1.0}, dim=2, rho=0.01)
        with pytest.raises(ValueError):
            resolve(spec)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
FIELDS = ["schema", "family", "params", "dim", "mode", "rho", "eta", "chi", "trunc"]


@st.composite
def model_objects(draw):
    """A well-formed model object with up to three fields dropped, replaced
    by arbitrary JSON, or added; so every check in load_model is reached."""
    family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    params = {name: draw(st.floats(0.01, 5.0)) for name in FAMILY_PARAMS[family]}
    data = {
        "schema": 1,
        "family": family,
        "params": params,
        "dim": draw(st.integers(1, 3)),
        "mode": draw(st.sampled_from(["kernel", "density"])),
        draw(st.sampled_from(["rho", "eta"])): draw(st.floats(0.01, 5.0)),
        "chi": draw(st.floats(0.01, 5.0)),
        "trunc": {"max_level": draw(st.integers(0, 100)), "tail_tol": draw(st.floats(1e-9, 1e-3))},
    }
    keys = FIELDS + [f"params.{name}" for name in FAMILY_PARAMS[family]]
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
        assert all(math.isfinite(v) for v in spec.params.values())


SIGMA2 = surface_measure(2)
TIGHT = TruncationPolicy(tail_tol=1e-13)


def _density_count(beta, chi, dim):
    """sum m lambda of the density-mode kernel lambda~ = chi sigma_d beta / m."""
    m = multiplicities(len(beta) - 1, dim)
    lam_tilde = chi * surface_measure(dim) * beta / m
    return float(np.sum(m * (lam_tilde / (1.0 + lam_tilde))))


def _spectral_count(alpha, beta, kappa, dim, n_levels=20_000):
    with np.errstate(over="ignore"):
        lam = 1.0 / (1.0 + beta * np.exp((np.arange(n_levels) / alpha) ** kappa))
    return float(np.sum(multiplicities(n_levels - 1, dim) * lam))


def _mq_density(tau, delta, chi, trunc):
    return ModelSpec("multiquadric", {"tau": tau, "delta": delta}, 2, "density", chi=chi, trunc=trunc)


# (spec, the model's full expected count); tau = 1/2 has closed-form
# coefficients (1 - delta) delta^l on S^2, so its reference needs no
# quadrature.  The tau = 10 fit-grid model runs at the default tolerance,
# since its quadrature coefficients carry errors near 1e-12.
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
            _mq_density(10.0, 0.74, chi, TruncationPolicy()),
            lambda chi=chi: _density_count(
                d_schoenberg_from_psi(multiquadric_psi(10.0, 0.74), 2, 512).values, chi, 2
            ),
        )
        for chi in (1.0, 30.0, 1000.0)
    },
    "sp-8-1-2": (
        ModelSpec("spectral", {"alpha": 8.0, "beta": 1.0, "kappa": 2.0}, 2, trunc=TIGHT),
        lambda: _spectral_count(8.0, 1.0, 2.0, 2),
    ),
    "spectral-4-2-1.5": (
        ModelSpec("spectral", {"alpha": 4.0, "beta": 2.0, "kappa": 1.5}, 2, trunc=TIGHT),
        lambda: _spectral_count(4.0, 2.0, 1.5, 2),
    ),
    "spectral-3-0.5-1-circle": (
        ModelSpec("spectral", {"alpha": 3.0, "beta": 0.5, "kappa": 1.0}, 1, trunc=TIGHT),
        lambda: _spectral_count(3.0, 0.5, 1.0, 1),
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

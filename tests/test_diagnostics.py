import dataclasses
import math

import numpy as np
import pytest

from spheredpp import models
from spheredpp.diagnostics import (
    RepulsivenessReport,
    eta_times_global_repulsiveness,
    global_repulsiveness,
    joint_intensity,
    local_repulsiveness,
    montecarlo_validate,
    most_repulsive_curvature,
    pair_correlation,
    pcf,
    repulsiveness_report,
)
from spheredpp.models import (
    ModelSpec,
    most_repulsive_spectrum,
    multiquadric_psi,
    resolve,
)
from spheredpp.spectra import (
    MercerSpectrum,
    beta_from_kernel,
    eval_psi_series,
)
from spheredpp.sampler import sample_dpp
from spheredpp.sphere import PointPattern, SpherePoint, sample_uniform_angles
from spheredpp.streams import substream


def uniform_points(dim, n, rng):
    return tuple(SpherePoint(dim, tuple(a)) for a in sample_uniform_angles(dim, n, rng))


class TestJointIntensity:
    def test_single_point_is_rho(self):
        rho = 0.3
        pat = PointPattern(2, uniform_points(2, 1, np.random.default_rng(1)))
        val = joint_intensity(pat, lambda s: rho * np.exp(-np.asarray(s)))
        assert val == pytest.approx(rho, rel=1e-14)

    def test_duplicated_point_vanishes(self):
        (p,) = uniform_points(2, 1, np.random.default_rng(2))
        val = joint_intensity([p, p], lambda s: 0.5 * np.cos(np.asarray(s)) ** 0 * np.exp(-np.asarray(s)))
        assert val == 0.0

    def test_pairs_below_poisson(self):
        # rho^(2) = rho^2 - C(s)^2 <= rho^2 for any pair
        rng = np.random.default_rng(3)
        psi = multiquadric_psi(1.0, 0.5)
        rho = 0.7
        for _ in range(20):
            pat = PointPattern(2, uniform_points(2, 2, rng))
            val = joint_intensity(pat, psi, rho=rho)
            assert val <= rho * rho + 1e-12


class TestPairCorrelation:
    def test_zero_at_origin(self):
        psi = multiquadric_psi(10.0, 0.74)
        assert pair_correlation(psi, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_poisson_limit(self):
        g = pair_correlation(lambda s: np.zeros_like(np.asarray(s, dtype=float)), 1.3)
        assert g == 1.0

    def test_figure_one_middle_value(self):
        psi = multiquadric_psi(10.0, 0.74)
        expected = 1.0 - float(psi(0.2)) ** 2
        assert pair_correlation(psi, 0.2) == pytest.approx(expected, rel=1e-14)

    def test_range_and_origin_for_models(self):
        model = resolve(
            ModelSpec("multiquadric", {"tau": 2.0, "delta": 0.6}, 2, "kernel", rho=0.05)
        )
        s = np.linspace(0, math.pi, 200)
        g = pcf(model, s)
        assert g[0] == pytest.approx(0.0, abs=1e-10)
        assert np.all(g >= -1e-12) and np.all(g <= 1.0 + 1e-12)


class TestGlobalRepulsiveness:
    def test_projection_attains_bound(self):
        spec = most_repulsive_spectrum(9.0, 2)
        assert eta_times_global_repulsiveness(spec) == 1.0
        assert global_repulsiveness(spec) == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_poisson_limit(self):
        lam = np.full(40, 1e-6)
        spec = MercerSpectrum(2, "kernel", lam)
        assert global_repulsiveness(spec) < 1e-5 / spec.eta + 1e-9

    def test_bernoulli_variance_value(self):
        spec = MercerSpectrum(1, "kernel", [1.0, 1.0, 0.5])
        # Var = 2 * (1/2)(1/2) = 1/2; I = 1/4 - (1/2)/16 = 0.21875
        assert spec.count_variance == pytest.approx(0.5)
        assert global_repulsiveness(spec) == pytest.approx(0.21875, rel=1e-14)

    def test_eta_I_bound_random_spectra(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            dim = int(rng.integers(1, 3))
            L = int(rng.integers(1, 12))
            spec = MercerSpectrum(dim, "kernel", rng.random(L))
            if spec.eta <= 0:
                continue
            assert eta_times_global_repulsiveness(spec) <= 1.0 + 1e-10


class TestLocalRepulsiveness:
    def test_most_repulsive_curvature_d2(self):
        assert most_repulsive_curvature(1, 2) == pytest.approx(1.5)

    def test_most_repulsive_curvature_d1(self):
        assert most_repulsive_curvature(1, 1) == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_series_curvature_matches_closed_form(self, dim):
        for n in range(0, 8):
            spec = most_repulsive_spectrum(
                float(np.sum([1 if dim == 1 and ell == 0 else (2 if dim == 1 else 2 * ell + 1) for ell in range(n + 1)])),
                dim,
            )
            beta = beta_from_kernel(spec)
            local = local_repulsiveness(beta)
            assert local.slope == 0.0
            assert local.curvature == pytest.approx(most_repulsive_curvature(n, dim), rel=1e-12)

    def test_curvature_matches_second_difference(self):
        from spheredpp.spectra import TruncationPolicy

        model = resolve(
            ModelSpec(
                "multiquadric",
                {"tau": 0.5, "delta": 0.5},
                2,
                "kernel",
                rho=2.0 / (4 * math.pi),
                trunc=TruncationPolicy(tail_tol=1e-12),
            )
        )
        local = local_repulsiveness(model.correlation_beta)
        assert local.curvature is not None
        h = 1e-3
        beta = model.correlation_beta
        g = lambda s: 1.0 - eval_psi_series(beta, s) ** 2
        second_diff = (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)
        assert local.curvature == pytest.approx(second_diff, rel=1e-3)

    def test_most_repulsive_minimizes_curvature(self):
        rng = np.random.default_rng(6)
        for dim in (1, 2):
            for _ in range(50):
                lam = rng.random(int(rng.integers(2, 10)))
                spec = MercerSpectrum(dim, "kernel", lam)
                eta = spec.eta
                if eta <= 0.5:
                    continue
                c_random = local_repulsiveness(beta_from_kernel(spec)).curvature
                mr = most_repulsive_spectrum(eta, dim)
                c_mr = local_repulsiveness(beta_from_kernel(mr)).curvature
                assert c_mr <= c_random + 1e-12


class TestReport:
    def test_report_fields(self):
        model = resolve(ModelSpec("most_repulsive", {"eta": 9.0}, 2))
        report = repulsiveness_report(model)
        assert report.eta == pytest.approx(9.0)
        assert report.eta_times_index == 1.0
        assert report.slope == 0.0
        assert report.curvature == pytest.approx(most_repulsive_curvature(2, 2))

    def test_report_refines_coarse_truncation(self):
        # default truncation (1e-6) is too coarse for the variance-
        # condition bar; the report rederives at 1e-12 and still gets
        # the right curvature
        model = resolve(
            ModelSpec(
                "multiquadric", {"tau": 0.5, "delta": 0.5}, 2, "kernel",
                rho=2.0 / (4 * math.pi),
            )
        )
        report = repulsiveness_report(model)
        assert report.curvature == pytest.approx(2 * 0.5 / 0.25, rel=1e-6)

    def test_report_refines_density_mode(self):
        # density mode has no closed-form curvature: the report re-derives
        # the coefficients and matches a second difference of the finely
        # truncated model's pcf
        from spheredpp.spectra import TruncationPolicy

        spec = ModelSpec("multiquadric", {"tau": 0.5, "delta": 0.5}, 2, "density", chi=2.0)
        report = repulsiveness_report(resolve(spec))
        fine = resolve(dataclasses.replace(spec, trunc=TruncationPolicy(tail_tol=1e-12)))
        h = 1e-3
        g = pcf(fine, np.array([-h, 0.0, h]))
        assert report.slope == 0.0
        assert report.curvature == pytest.approx((g[0] - 2 * g[1] + g[2]) / h**2, rel=1e-3)

    def test_report_propagates_unexpected_refine_errors(self, monkeypatch):
        # only truncation and quadrature failures of the refining resolve
        # mean "curvature unavailable"; any other error is a fault to surface
        spec = ModelSpec("multiquadric", {"tau": 0.5, "delta": 0.5}, 2, "density", chi=2.0)
        model = resolve(spec)

        def broken(*args, **kwargs):
            raise RuntimeError("coefficient route fault")

        monkeypatch.setattr(models, "multiquadric_d_schoenberg", broken)
        with pytest.raises(RuntimeError, match="coefficient route fault"):
            repulsiveness_report(model)

    def test_multiquadric_exact_curvature_mq1_400(self):
        # tau = 1, eta_max = 400: the 1e-12 re-resolve reaches the quadrature
        # round-off floor, so the curvature comes from psi in closed form
        tau, delta = 1.0, 0.9654362879120054
        model = resolve(
            ModelSpec(
                "multiquadric", {"tau": tau, "delta": delta}, 2, "kernel",
                rho=400.0 / (4 * math.pi),
            )
        )
        report = repulsiveness_report(model)
        assert report.slope == 0.0
        exact = 4 * tau * delta / (1 - delta) ** 2
        assert report.curvature == pytest.approx(exact, rel=1e-6)
        assert exact == pytest.approx(3232.5, rel=1e-4)

    def test_matern_slope_passthrough(self):
        model = resolve(
            ModelSpec("matern", {"nu": 0.5, "c": 0.5}, 1, "kernel", rho=0.2)
        )
        report = repulsiveness_report(model)
        assert report.slope == pytest.approx(4.0)  # 2/c
        assert report.curvature is None

    def test_invariant_violation_raises(self):
        with pytest.raises(ValueError):
            RepulsivenessReport(1.0, 1.5, 1.5, None, None)


class TestMonteCarloValidation:
    def test_projection_counts_constant(self):
        model = resolve(ModelSpec("most_repulsive", {"eta": 9.0}, 2))
        report = montecarlo_validate(model, 100, seed=3)
        assert report.mean_count == 9.0
        assert report.var_count == 0.0
        assert report.passed

    def test_counts_match_full_samples(self):
        # the projection stage places one point per selected eigenfunction,
        # so the basis draw alone gives the count of the full sample
        model = resolve(ModelSpec("spectral", {"alpha": 3.0, "beta": 1.0, "kappa": 2.0}, 2))
        report = montecarlo_validate(model, 12, seed=4)
        counts = [
            len(sample_dpp(model, substream(4, "replicate", i)).pattern) for i in range(12)
        ]
        assert report.mean_count == np.mean(counts)
        assert report.var_count == np.var(counts, ddof=1)

    def test_truncation_mean_below_eta(self):
        spec = ModelSpec(
            "multiquadric", {"tau": 0.5, "delta": 0.5}, 2, "kernel", rho=1.5 / (4 * math.pi)
        )
        model = resolve(spec)
        assert model.kernel.eta <= 1.5 + 1e-12

import math

import numpy as np
import pytest

from spheredpp import likelihood
from spheredpp.likelihood import (
    DensityContext,
    ScaledFitSpec,
    _chol_logdet,
    _radial_logdet,
    log_density,
    loglik_score_info,
    newton_mle,
)
from spheredpp.models import ModelSpec, resolve
from spheredpp.sampler import sample_dpp
from spheredpp.spectra import (
    MercerSpectrum,
    beta_from_kernel,
    correlation_mercer,
    eval_radial_series,
    from_density_kernel,
    to_density_kernel,
)
from spheredpp.sphere import (
    PointPattern,
    SpherePoint,
    pairwise_geodesic,
    sample_uniform_angles,
    surface_measure,
)


def uniform_points(dim, n, rng):
    return tuple(SpherePoint(dim, tuple(a)) for a in sample_uniform_angles(dim, n, rng))


def uniform_pattern(dim, n, seed):
    return PointPattern(dim, uniform_points(dim, n, np.random.default_rng(seed)))


class TestLogDensity:
    def test_empty_pattern_degenerate(self):
        ctx = DensityContext(MercerSpectrum(2, "density-kernel", [0.0, 0.0]))
        assert ctx.log_normalizer == 0.0
        val = log_density(PointPattern(2, ()), ctx)
        assert val == pytest.approx(surface_measure(2), rel=1e-15)

    def test_empty_probability_identity(self):
        # exp(-D) equals P(X = empty) = prod (1 - lambda)^m
        kernel = MercerSpectrum(2, "kernel", [0.6, 0.3, 0.05])
        ctx = DensityContext.from_kernel(kernel)
        m = kernel.mults
        p_empty = float(np.prod((1.0 - kernel.values) ** m))
        assert math.exp(-ctx.log_normalizer) == pytest.approx(p_empty, rel=1e-12)

    def test_single_point_isotropy(self):
        kernel = MercerSpectrum(2, "kernel", [0.5, 0.25, 0.125])
        ctx = DensityContext.from_kernel(kernel)
        rng = np.random.default_rng(3)
        vals = [
            log_density(PointPattern(2, uniform_points(2, 1, rng)), ctx)
            for _ in range(10)
        ]
        expected = (
            surface_measure(2) - ctx.log_normalizer + math.log(ctx.radial(0.0))
        )
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_hereditarity(self):
        # subsets of a feasible configuration are feasible
        model = resolve(
            ModelSpec("multiquadric", {"tau": 1.0, "delta": 0.4}, 2, "density", chi=0.5)
        )
        ctx = DensityContext(model.density)
        rng = np.random.default_rng(4)
        for _ in range(5):
            pts = uniform_points(2, 6, rng)
            full = log_density(PointPattern(2, pts), ctx)
            assert math.isfinite(full)
            for drop in range(6):
                sub = PointPattern(2, pts[:drop] + pts[drop + 1 :])
                assert math.isfinite(log_density(sub, ctx))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_full_matrix_determinant(self, dim):
        # the upper-triangle evaluation gives the determinant of the full
        # matrix C~_0(s(x_i, x_j)), for log_density and the fit likelihood
        kernel = MercerSpectrum(dim, "kernel", [0.5, 0.4, 0.3, 0.2, 0.1])
        ctx = DensityContext.from_kernel(kernel)
        pat = uniform_pattern(dim, 6, 21)
        s = pairwise_geodesic(pat)
        sign, logdet = np.linalg.slogdet(ctx.radial(s))
        assert sign == 1.0
        expected = surface_measure(dim) - ctx.log_normalizer + logdet
        assert log_density(pat, ctx) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        spec = ScaledFitSpec(dim, correlation_mercer(beta_from_kernel(kernel)).values, chi=1.0)
        beta = spec.alpha * kernel.mults / surface_measure(dim)
        m = kernel.mults
        expected = np.linalg.slogdet(eval_radial_series(beta, dim, s))[1] - float(
            np.sum(m * np.log1p(spec.alpha))
        )
        assert loglik_score_info(pat, spec).loglik == pytest.approx(expected, rel=1e-12)

    def test_kernel_roundtrip_exact(self):
        kernel = MercerSpectrum(1, "kernel", [0.9, 0.4, 0.1])
        back = from_density_kernel(to_density_kernel(kernel))
        np.testing.assert_allclose(back.values, kernel.values, atol=1e-14)

    def test_dimension_guard(self):
        ctx = DensityContext(MercerSpectrum(2, "density-kernel", [1.0]))
        with pytest.raises(ValueError):
            log_density(PointPattern(1, ()), ctx)


def hard_core_pattern(n, r, seed):
    """n uniform points on S^2, none closer than r to an earlier one (the fit
    benchmark's patterns: 300 points at r = 0.1)."""
    rng = np.random.default_rng(seed)
    points, vectors = [], []
    while len(points) < n:
        (angles,) = sample_uniform_angles(2, 1, rng)
        point = SpherePoint(2, tuple(angles))
        if not vectors or np.max(np.array(vectors) @ point.vector) < math.cos(r):
            points.append(point)
            vectors.append(point.vector)
    return PointPattern(2, tuple(points))


class TestGramFill:
    """``_radial_logdet`` writes each pair value once, into one triangle."""

    def test_equals_both_triangles_fill_bit_for_bit(self):
        pat = hard_core_pattern(300, 0.1, 3)
        model = resolve(
            ModelSpec("multiquadric", {"tau": 10.0, "delta": 0.7}, 2, "density", chi=1.0)
        )
        upper = np.triu_indices(len(pat))
        for radial in (
            lambda s: eval_radial_series(model.correlation_beta.values, 2, s),
            DensityContext(model.density).radial,
        ):
            both = np.empty((len(pat),) * 2)
            both[upper] = both.T[upper] = radial(pat.upper_distances)
            expected = _chol_logdet(both)
            assert math.isfinite(expected)
            assert _radial_logdet(pat, radial) == expected

    def test_not_positive_definite_gives_minus_inf(self):
        pat = uniform_pattern(2, 20, 4)
        assert _radial_logdet(pat, lambda s: 1.0 + s) == -math.inf
        assert _radial_logdet(pat, lambda s: np.ones_like(s)) == -math.inf


class TestScoreFunction:
    def test_score_limits(self):
        pat = uniform_pattern(2, 5, 7)
        alpha = np.array([0.8, 0.5, 0.2])
        tiny = loglik_score_info(pat, ScaledFitSpec(2, alpha, chi=1e-12))
        assert tiny.score == pytest.approx(5.0, abs=1e-6)
        huge = loglik_score_info(pat, ScaledFitSpec(2, alpha, chi=1e12))
        m_total = 1 + 3 + 5
        assert huge.score == pytest.approx(5.0 - m_total, abs=1e-6)

    def test_information_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            pat = uniform_pattern(2, n, int(rng.integers(1e6)))
            L = int(rng.integers(1, 6))
            alpha = rng.random(L + 1) * 2
            chi = float(rng.uniform(0.01, 50))
            trip = loglik_score_info(pat, ScaledFitSpec(2, alpha, chi))
            assert trip.information > 0

    def test_finite_difference_score_and_info(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pat = uniform_pattern(2, n, int(rng.integers(1e6)))
            # levels 0..2 span 9 harmonics > n, so the psi matrix stays PD
            alpha = rng.random(int(rng.integers(3, 7))) * 1.5
            zeta = float(rng.uniform(-2, 2))
            spec = ScaledFitSpec(2, alpha, math.exp(zeta))
            mid = loglik_score_info(pat, spec)
            up = loglik_score_info(pat, spec.with_chi(math.exp(zeta + h)))
            dn = loglik_score_info(pat, spec.with_chi(math.exp(zeta - h)))
            fd_score = (up.loglik - dn.loglik) / (2 * h)
            assert abs(fd_score - mid.score) <= 1e-6 * (1 + abs(mid.score))
            fd_info = -(up.score - dn.score) / (2 * h)
            assert abs(fd_info - mid.information) <= 1e-6 * (1 + mid.information)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            loglik_score_info(PointPattern(2, ()), ScaledFitSpec(2, [0.5]))


class TestNewtonMle:
    def test_single_level_closed_form(self):
        # one level l0 with multiplicity m and coefficient a: the score
        # root is chi* = n / (a (m - n))
        a = 0.7
        alpha = np.array([0.0, 0.0, 0.0, a])  # level 3, m = 7 on S^2
        pat = uniform_pattern(2, 4, 10)
        fit = newton_mle(pat, ScaledFitSpec(2, alpha))
        chi_star = 4 / (a * (7 - 4))
        assert fit.chi == pytest.approx(chi_star, rel=1e-10)
        assert abs(fit.score) < 1e-10
        assert fit.information > 0

    def test_multi_start_agreement(self):
        rng = np.random.default_rng(11)
        alpha = rng.random(6)
        pat = uniform_pattern(2, 9, 12)
        fits = [
            newton_mle(pat, ScaledFitSpec(2, alpha), zeta0=z0) for z0 in (-5.0, 0.0, 5.0)
        ]
        chis = [f.chi for f in fits]
        assert max(chis) - min(chis) <= 1e-9 * max(chis)

    def test_self_consistency_on_simulated_data(self):
        # simulate from C~ = chi psi and refit chi
        model = resolve(
            ModelSpec("multiquadric", {"tau": 0.5, "delta": 0.7}, 2, "density", chi=1.2)
        )
        alpha = correlation_mercer(model.correlation_beta)
        # alpha here comes from the kernel; use psi's own Mercer coefficients
        from spheredpp.models import multiquadric_d_schoenberg

        beta_psi = multiquadric_d_schoenberg(0.5, 0.7, 2)
        alpha_psi = correlation_mercer(beta_psi)
        rng = np.random.default_rng(13)
        pat = sample_dpp(model, rng).pattern
        while len(pat) == 0:
            pat = sample_dpp(model, rng).pattern
        fit = newton_mle(pat, ScaledFitSpec.from_correlation(alpha_psi))
        assert fit.converged and fit.iterations <= 30
        assert abs(fit.score) < 1e-10
        assert fit.information > 0
        assert fit.chi > 0

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(likelihood, "NEWTON_MAX_ITERATIONS", 0)
        alpha = np.array([0.0, 0.0, 0.0, 0.7])  # the score root is chi = 4 / 2.1, not 1
        pat = uniform_pattern(2, 4, 10)
        with pytest.raises(RuntimeError, match="did not converge in 0 iterations"):
            newton_mle(pat, ScaledFitSpec(2, alpha))

    @pytest.mark.parametrize("zeta0", [math.nan, math.inf, -math.inf, 1e300])
    def test_start_without_a_finite_chi_rejected(self, zeta0):
        alpha = np.array([0.0, 0.0, 0.0, 0.7])
        pat = uniform_pattern(2, 4, 10)
        with pytest.raises(ValueError, match="zeta0"):
            newton_mle(pat, ScaledFitSpec(2, alpha), zeta0=zeta0)

    @pytest.mark.parametrize(
        "name, value",
        [(name, v) for name in ("dim", "chi", "zeta0") for v in (math.nan, math.inf, -math.inf, True, "1")]
        + [("dim", 70.5), ("chi", "2"), ("zeta0", "0")]
        + [("alpha", v) for v in ([0.5, math.nan], [math.inf], [True], ["1"], True, "1", 0.5)],
        ids=repr,
    )
    def test_bad_value_names_its_field(self, name, value):
        # the fit's numbers are read by the checker the spectra use, which names the field
        fields = {"dim": 2, "alpha": [0.5, 0.3], "chi": 1.0}
        pat = uniform_pattern(2, 2, 10)
        with pytest.raises(ValueError, match=rf"^{name} must "):
            if name == "zeta0":
                newton_mle(pat, ScaledFitSpec(**fields), zeta0=value)
            else:
                loglik_score_info(pat, ScaledFitSpec(**dict(fields, **{name: value})))

    def test_integral_floats_and_numpy_scalars_normalized(self):
        spec = ScaledFitSpec(2.0, np.array([0.5, 0.3], dtype=np.float32), np.int64(2))
        assert spec.dim == 2 and type(spec.dim) is int and type(spec.chi) is float
        assert spec.alpha.dtype == np.float64
        pat = uniform_pattern(2, 2, 10)
        assert newton_mle(pat, spec, zeta0=np.float32(0.0)) == newton_mle(pat, spec, zeta0=0)

    def test_precondition_failure(self):
        alpha = np.array([0.5])  # only level 0: m_total = 1
        pat = uniform_pattern(2, 3, 14)
        with pytest.raises(ValueError):
            newton_mle(pat, ScaledFitSpec(2, alpha))

    @pytest.mark.parametrize("pattern_dim, spec_dim", [(1, 2), (2, 1)])
    def test_pattern_on_another_sphere_rejected(self, pattern_dim, spec_dim):
        # a fit on the wrong sphere is refused as log_density refuses it, not
        # converged on distances of the other sphere
        pat = uniform_pattern(pattern_dim, 40, 16)
        spec = ScaledFitSpec(spec_dim, np.full(40, 0.3))
        message = "pattern dimension does not match the density context"
        with pytest.raises(ValueError, match=message):
            newton_mle(pat, spec)
        with pytest.raises(ValueError, match=message):
            loglik_score_info(pat, spec)

    def test_result_serialization(self):
        alpha = np.array([0.3, 0.3, 0.3])
        pat = uniform_pattern(2, 4, 15)
        fit = newton_mle(pat, ScaledFitSpec(2, alpha))
        payload = fit.to_json()
        assert payload["converged"] is True
        assert payload["chi"] == pytest.approx(fit.chi)

import json
import math
import re
import tracemalloc

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
    SchoenbergSeq,
    TruncationPolicy,
    _gl_nodes,
    beta_from_kernel,
    correlation_mercer,
    d_schoenberg_from_psi,
    eval_psi_series,
    eval_radial_series,
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
            d_schoenberg_from_psi(noisy, 1, 3)

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
        eta_max = surface_measure(2) * rho_max(beta).value
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


def _generating_function(r, dim, s):
    """sum_l r^l C_l^(lam)(cos s) in closed form (sum_l r^l cos(l s) on S^1), with
    1 - 2 r cos s + r^2 = (1-r)^2 + 4 r sin^2(s/2) so that s near 0 keeps its digits."""
    gap = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * s) ** 2
    if dim == 1:
        return ((1.0 - r) + 2.0 * r * np.sin(0.5 * s) ** 2) / gap
    return gap ** (-(dim - 1) / 2.0)


def _normalized_gegenbauer_ext(n_max, lam, s):
    """Rows C_l^(lam)(cos s) / C_l^(lam)(1), l = 0..n_max, from the recurrence of
    ``gegenbauer_rows`` run in np.longdouble.  In double precision that recurrence
    loses about l^2 eps near s = 0 and pi (3e-13 at l = 200, s = 0.004), more than
    the bound the rows are a reference for."""
    ext = np.longdouble
    x = np.append(np.cos(np.asarray(s, dtype=ext)), ext(1))  # the last column is C_l(1)
    rows = [np.zeros_like(x), np.ones_like(x)]
    for ell in range(1, n_max + 1):
        rows.append((2 * (ell + lam - 1) * x * rows[-1] - (ell + 2 * lam - 2) * rows[-2]) / ell)
    table = np.array(rows[1:])
    return (table[:, :-1] / table[:, -1:]).astype(float)


class TestRadialSeriesEvaluator:
    """``eval_radial_series`` against closed forms, its shapes, and its memory."""

    R = 0.995
    # r^L (L+1) (1-r) < 1e-18: the levels past L do not reach the bound below
    LEVELS = 9000
    ENDPOINTS = [0.0, 1e-8, 1e-4, math.pi / 2, math.pi - 1e-8, math.pi]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_generating_function_at_endpoints(self, dim):
        # c_l = r^l C_l(1), so sum c_l C_l(cos s) / C_l(1) is the generating function;
        # every c_l is positive, so sum |c_l| is the value at s = 0
        ells = np.arange(self.LEVELS + 1, dtype=float)
        at_one = np.ones_like(ells)
        for j in range(1, dim - 1):  # C_l^(lam)(1) = binom(l + 2 lam - 1, l) for integer 2 lam
            at_one *= (ells + j) / j
        coeffs = self.R**ells * at_one
        s = np.concatenate([self.ENDPOINTS, np.random.default_rng(dim).uniform(0, math.pi, 200)])
        err = np.abs(eval_radial_series(coeffs, dim, s) - _generating_function(self.R, dim, s))
        assert np.max(err) <= 1e-14 * np.sum(coeffs)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_cosine_map_against_the_recurrence(self, dim):
        levels = 200
        s = np.concatenate(
            [[0.0, 1e-8, math.pi / 2, math.pi - 1e-8, math.pi],
             np.random.default_rng(dim).uniform(0, math.pi, 200)]
        )
        rows = _normalized_gegenbauer_ext(levels, (dim - 1) / 2.0, s)
        for ell in range(levels + 1):
            single = np.zeros(ell + 1)
            single[ell] = 1.0
            assert np.max(np.abs(eval_radial_series(single, dim, s) - rows[ell])) <= 1e-14
        rng = np.random.default_rng(10 + dim)
        for top in (1, 10, levels):
            coeffs = rng.standard_normal(top + 1)
            err = np.abs(eval_radial_series(coeffs, dim, s) - coeffs @ rows[: top + 1])
            assert np.max(err) <= 1e-14 * np.sum(np.abs(coeffs))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_result_holds_only_its_values(self, dim):
        s = np.random.default_rng(2).uniform(0.0, math.pi, (40, 45))
        for points in (s, s.ravel()):
            out = eval_radial_series([0.5, 0.3, 0.2], dim, points)
            owner = out if out.base is None else out.base
            assert owner.base is None and owner.nbytes <= out.nbytes + 64

    def test_shapes(self):
        coeffs = [0.5, 0.3, 0.2]
        s = np.array([[0.0, 0.4, 2.0], [0.4, 0.0, 1.1], [2.0, 1.1, 0.0]])
        flat = eval_radial_series(coeffs, 2, s.ravel())
        for scalar in (0.4, np.float64(0.4), np.array(0.4)):
            value = eval_radial_series(coeffs, 2, scalar)
            assert type(value) is float and value == flat[1]
        matrix = eval_radial_series(coeffs, 2, s)
        assert matrix.shape == (3, 3) and np.array_equal(matrix.ravel(), flat)
        assert np.array_equal(matrix, matrix.T)
        assert eval_radial_series(coeffs, 2, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_and_single_level(self, dim):
        s = np.array([[0.0, 1.0], [1.0, 3.0]])
        empty = eval_radial_series([], dim, s)
        assert empty.shape == (2, 2) and np.all(empty == 0.0)
        assert eval_radial_series(np.array([]), dim, 0.3) == 0.0
        np.testing.assert_array_equal(eval_radial_series([0.7], dim, s), np.full((2, 2), 0.7))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_memory_does_not_grow_with_levels(self, dim):
        # the summation holds a fixed set of arrays of s.size, however many levels
        n = 44850
        s = np.random.default_rng(0).uniform(0.0, math.pi, n)
        peaks = []
        for levels in (69, 1000):
            coeffs = 0.99 ** np.arange(levels + 1)
            tracemalloc.start()
            eval_radial_series(coeffs, dim, s)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert max(peaks) <= 6 * n * 8
        assert abs(peaks[1] - peaks[0]) <= 64 * 1001 * 8  # level-sized arrays only


def _radial_reference(coeffs, dim, s):
    """sum_l c_l R_l(cos s) with every row taken in np.longdouble: cos(l s) on S^1,
    ``_normalized_gegenbauer_ext`` on S^d, d >= 2."""
    levels = len(coeffs) - 1
    if dim == 1:
        ells = np.arange(levels + 1, dtype=np.longdouble)
        rows = np.cos(np.multiply.outer(ells, np.asarray(s, dtype=np.longdouble)))
    else:
        rows = _normalized_gegenbauer_ext(levels, (dim - 1) / 2.0, s)
    return (np.asarray(coeffs, dtype=np.longdouble) @ rows).astype(float)


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double"
)


class TestRadialSeriesDomain:
    """The series is even and 2 pi-periodic in s, and every real s, NaN and the
    evaluator's own grid nodes are inputs it must take."""

    LEVELS = 40

    def coeffs(self, dim):
        rng = np.random.default_rng(30 + dim)
        return rng.standard_normal(self.LEVELS + 1) * 0.95 ** np.arange(self.LEVELS + 1)

    @needs_long_double
    @pytest.mark.parametrize("dim", [1, 2])
    def test_even_and_periodic(self, dim):
        coeffs = self.coeffs(dim)
        scale = np.sum(np.abs(coeffs))
        # multiples of 2^-50, so that 2 pi - s is exact in double precision
        s = np.round(np.random.default_rng(dim).uniform(0.0, math.pi, 500) * 2.0**50) / 2.0**50
        s = np.concatenate([[0.0, 1e-300, 1e-8, math.pi], s])
        values = eval_radial_series(coeffs, dim, s)
        np.testing.assert_array_equal(eval_radial_series(coeffs, dim, -s), values)
        # the double 2 pi lies 2.45e-16 below 2 pi, which moves the series by at
        # most that times sum_l l |c_l| (Bernstein's inequality)
        slack = 2.5e-16 * np.sum(np.arange(len(coeffs)) * np.abs(coeffs))
        mirrored = eval_radial_series(coeffs, dim, 2.0 * math.pi - s)
        assert np.max(np.abs(mirrored - values)) <= 1e-15 * scale + slack
        wide = np.array([7.0, -7.0, 2.0 * math.pi, 12.5, -100.0, 1e5])
        err = np.abs(eval_radial_series(coeffs, dim, wide) - _radial_reference(coeffs, dim, wide))
        assert np.max(err) <= 1e-14 * scale

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nan_gives_nan(self, dim):
        coeffs = self.coeffs(dim)
        block = spectra._BLOCK  # the holes straddle the first block boundary and sit in a third block
        s = np.random.default_rng(5).uniform(0.0, math.pi, 2 * block + 1000)
        holes = np.zeros(s.size, dtype=bool)
        holes[[0, 1, block - 1, block, 2 * block + 345, s.size - 1]] = True
        with np.errstate(all="raise"):
            values = eval_radial_series(coeffs, dim, np.where(holes, np.nan, s))
        assert np.all(np.isnan(values[holes]))
        np.testing.assert_array_equal(values[~holes], eval_radial_series(coeffs, dim, s[~holes]))
        assert math.isnan(eval_radial_series(coeffs, dim, math.nan))

    @needs_long_double
    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_nodes(self, dim):
        coeffs = self.coeffs(dim)
        cosine = coeffs if dim == 1 else spectra._cosine_coefficients(coeffs, (dim - 1) / 2.0)
        grid = spectra._grid_size(cosine)
        s = np.concatenate([np.arange(grid + 1) * (math.pi / grid), [0.0, math.pi]])
        with np.errstate(all="raise"):
            values = eval_radial_series(coeffs, dim, s)
        err = np.abs(values - _radial_reference(coeffs, dim, s))
        assert np.max(err) <= 1e-14 * np.sum(np.abs(coeffs))


def _remainder_bound(a, grid):
    """(1/2)^P / P! sum_(j>=1) |a_j| (j pi / M)^P: the Taylor remainder of P terms
    of sum_(j>=1) a_j cos(j s) within half a step pi / M of a node."""
    p = spectra._ORDER
    j = np.arange(1, len(a), dtype=float)
    return 0.5**p / math.factorial(p) * float(np.sum(np.abs(a[1:]) * (j * math.pi / grid) ** p))


class TestGridRule:
    """The grid of ``_cosine_series`` is the smallest power of two past L whose
    Taylor remainder is within 2^-53 sum_(j>=1) |a_j|: certified, not tuned."""

    def check(self, a):
        grid = spectra._grid_size(a)
        levels = len(a) - 1
        budget = 2.0**-53 * float(np.sum(np.abs(a[1:])))
        assert grid > levels and grid & (grid - 1) == 0
        assert _remainder_bound(a, grid) <= budget
        assert grid // 2 <= levels or _remainder_bound(a, grid // 2) > budget

    @pytest.mark.parametrize("levels", [1, 68, 143, 1000, 9000])
    def test_random_coefficients(self, levels):
        rng = np.random.default_rng(levels)
        self.check(rng.standard_normal(levels + 1))
        self.check(rng.uniform(0.0, 1.0, levels + 1) * 0.99 ** np.arange(levels + 1))

    @pytest.mark.parametrize("delta", [0.66, 0.82])
    def test_fit_sequences(self, delta):
        from spheredpp.models import ModelSpec, resolve

        # the coefficients of DensityContext.radial for the fit workload's model
        model = resolve(ModelSpec("multiquadric", {"tau": 10.0, "delta": delta}, 2, "density", chi=1.0))
        coeffs = model.density.values * model.density.mults / surface_measure(2)
        cosine = spectra._cosine_coefficients(coeffs, 0.5)
        self.check(cosine)
        assert spectra._grid_size(cosine) <= 512


def _cosine_reference(a, s):
    """sum_j a_j cos(j s) in np.longdouble with every angle exact: j = 64 q + r,
    and for j < 4096 q s and r s (q, r < 64) carry at most 59 significant bits."""
    ext = np.longdouble
    s = np.asarray(s, dtype=ext)
    padded = np.zeros(-(-len(a) // 64) * 64, dtype=ext)
    padded[: len(a)] = a
    table = padded.reshape(-1, 64)
    low = np.multiply.outer(np.arange(64, dtype=ext), s)  # r s
    high = np.multiply.outer(np.arange(len(table), dtype=ext), s) * 64  # 64 q s
    # cos(64 q s + r s) = cos(64 q s) cos(r s) - sin(64 q s) sin(r s)
    terms = np.cos(high) * (table @ np.cos(low)) - np.sin(high) * (table @ np.sin(low))
    return np.sum(terms, axis=0).astype(float)


class TestCosineSeriesAccuracy:
    """On S^1 the evaluator sums the cosine series itself; its error stays within
    6e-16 sum |a| at every level count, against a long-double reference."""

    S = np.concatenate(
        [[0.0, math.pi, 3.08, 1e-9, math.pi - 1e-9],
         np.random.default_rng(40).uniform(0.0, math.pi, 3000)]
    )

    @needs_long_double
    @pytest.mark.parametrize("levels", [1, 5, 68, 143, 1000, 3000])
    def test_error_scan(self, levels):
        rng = np.random.default_rng(levels)
        j = np.arange(levels + 1)
        single = np.zeros(levels + 1)
        single[-1] = 1.0
        for a in (
            rng.standard_normal(levels + 1),
            rng.standard_normal(levels + 1) * 0.97**j,
            single,
            rng.uniform(0.0, 1.0, levels + 1) * 0.9**j,
        ):
            err = np.abs(eval_radial_series(a, 1, self.S) - _cosine_reference(a, self.S))
            assert np.max(err) <= 6e-16 * np.sum(np.abs(a))


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


# each constructor with valid fields, keyed by the name its messages give each field
VALID_FIELDS = {
    TruncationPolicy: {"trunc.max_level": 64, "trunc.tail_tol": 1e-6},
    SchoenbergSeq: {"values": [0.5, 0.5], "tail_bound": 0.0},
    DSchoenbergSeq: {"dim": 2, "values": [0.5, 0.3], "tail_bound": 0.2},
    MercerSpectrum: {"dim": 2, "kind": "kernel", "values": [0.5, 0.3], "tail_bound": 0.1},
}
NOT_FINITE = [math.nan, math.inf, -math.inf, True, "1"]
BAD_COEFFICIENTS = [[math.nan], [0.5, math.nan], [math.inf], [0.5, -math.inf], [True, False], ["1"], True, "1", 0.5]


def _build(cls, **changes):
    fields = dict(VALID_FIELDS[cls], **changes)
    return cls(*(fields[name] for name in VALID_FIELDS[cls]))


class TestNumberChecks:
    """Every number a constructor here takes is read by one checker, which names the field."""

    @pytest.mark.parametrize(
        "cls, name, value",
        [(TruncationPolicy, "trunc.max_level", v) for v in [*NOT_FINITE, "x", 70.5]]
        + [(TruncationPolicy, "trunc.tail_tol", v) for v in NOT_FINITE]
        + [(cls, "dim", v) for cls in (DSchoenbergSeq, MercerSpectrum) for v in [*NOT_FINITE, 2.5]]
        + [(cls, "values", v) for cls in (SchoenbergSeq, DSchoenbergSeq, MercerSpectrum) for v in BAD_COEFFICIENTS]
        + [(cls, "tail_bound", v) for cls in (SchoenbergSeq, DSchoenbergSeq, MercerSpectrum) for v in [*NOT_FINITE, -0.1]],
        ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
    )
    def test_bad_value_names_its_field(self, cls, name, value):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
            _build(cls, **{name: value})

    def test_density_kernel_infinity_rejected(self):
        with pytest.raises(ValueError, match="^values must be finite"):
            MercerSpectrum(2, "density-kernel", [math.inf])

    def test_integral_floats_and_numpy_scalars_normalized(self):
        policy = TruncationPolicy(np.int64(64), np.float32(0.25))
        assert (policy.max_level, policy.tail_tol) == (64, 0.25)
        assert type(policy.max_level) is int and type(policy.tail_tol) is float
        assert TruncationPolicy(64.0) == TruncationPolicy(64)
        for seq in (
            DSchoenbergSeq(2.0, np.array([0.5, 0.3], dtype=np.float32), np.float64(0.2)),
            MercerSpectrum(np.int64(2), "kernel", [1, 0], np.int64(0)),
        ):
            assert seq.dim == 2 and type(seq.dim) is int
            assert seq.values.dtype == np.float64 and type(seq.tail_bound) is float
        assert type(SchoenbergSeq([1]).tail_bound) is float

    def test_roundoff_below_zero_clamped(self):
        assert SchoenbergSeq([1.0, -1e-13]).values.tolist() == [1.0, 0.0]

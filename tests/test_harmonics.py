import math

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_legendre, lpmv, sph_harm_y

from spheredpp.harmonics import (
    gegenbauer_rows,
    multiplicities,
    norm_plm_rows,
    norm_plm_table,
    plm_sup_sq,
)
from spheredpp.sampler import ProjectionBasis
from spheredpp.sphere import sample_uniform_angles

from oracles import multiplicity, sh_bound_sq

FOUR_PI = 4 * math.pi


def rows(n_max, lam, s):
    return np.array(list(gegenbauer_rows(n_max, lam, s)))


def gegenbauer_at_one(ell, lam):
    """C_ell^(lam)(1) = binom(ell + 2 lam - 1, ell) for whole 2 lam > 0, and 1 for lam = 0."""
    two_lam = int(2 * lam)
    assert two_lam == 2 * lam
    return 1.0 if lam == 0 else float(math.comb(ell + two_lam - 1, ell))


def index_set(ell, dim):
    """Orders k of the level-ell eigenfunctions on S^dim, dim in {1, 2}: the
    sign of the frequency on S^1 and -ell..ell on S^2."""
    if dim == 1:
        return [0] if ell == 0 else [-1, 1]
    return list(range(-ell, ell + 1))


def basis(dim, pairs):
    """Projection basis over explicit (level, order) pairs."""
    levels = np.array([p[0] for p in pairs], dtype=int)
    orders = np.array([p[1] for p in pairs], dtype=int)
    return ProjectionBasis(dim, levels, orders)


def full_basis(dim, lmax):
    return basis(dim, [(ell, k) for ell in range(lmax + 1) for k in index_set(ell, dim)])


def s2_point(rng):
    return sample_uniform_angles(2, 1, rng)


def geodesic(p, q):
    """Great-circle distance between two (1, 2) colat/lon rows."""
    (t1, l1), (t2, l2) = p[0], q[0]
    c = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(l1 - l2)
    return math.acos(min(1.0, max(-1.0, c)))


class TestGegenbauer:
    def test_legendre_special_case(self):
        # C_2^(1/2) is the Legendre polynomial (3x^2 - 1)/2
        x = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(
            rows(2, 0.5, np.arccos(x))[2], (3 * x**2 - 1) / 2, atol=1e-14
        )
        assert rows(2, 0.5, 0.0)[2] == 1.0

    def test_value_at_one_lam1(self):
        # lam = (d-1)/2 with d=3: C_2^(1)(1) = binom(3, 2) = 3
        assert rows(2, 1.0, 0.0)[2] == 3.0

    def test_lam0_is_cosine(self):
        s = 0.77
        for ell, row in enumerate(gegenbauer_rows(5, 0.0, s)):
            assert row == pytest.approx(math.cos(ell * s), abs=1e-13)

    def test_against_scipy(self):
        s = np.arccos(np.linspace(-0.99, 0.99, 21))
        for lam in (0.5, 1.0, 1.5, 2.0):
            table = rows(20, lam, s)
            for ell in (0, 1, 3, 7, 20):
                np.testing.assert_allclose(
                    table[ell],
                    eval_gegenbauer(ell, lam, np.cos(s)),
                    rtol=1e-10,
                    atol=1e-12,
                )
        np.testing.assert_allclose(
            rows(40, 0.5, s), [eval_legendre(ell, np.cos(s)) for ell in range(41)],
            rtol=1e-10, atol=1e-12,
        )

    def test_generating_function(self):
        # sum_l r^l C_l^(lam)(cos s) = (1 + r^2 - 2 r cos s)^(-lam)
        r, lam, s = 0.3, 1.0, 1.0
        total = sum(r**ell * row for ell, row in enumerate(gegenbauer_rows(60, lam, s)))
        target = (1 + r * r - 2 * r * math.cos(s)) ** (-lam)
        assert total == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_endpoints_exact_up_to_100(self, lam):
        # s = 0 and s = pi are x = 1 and x = -1
        for ell, row in enumerate(gegenbauer_rows(100, lam, [0.0, math.pi])):
            expected = gegenbauer_at_one(ell, lam)
            assert row[0] == expected
            assert row[1] == (-1) ** ell * expected

    def test_domain_error(self):
        with pytest.raises(ValueError):
            next(gegenbauer_rows(2, -0.5, 0.3))

    def test_normalized_table_bounded(self):
        s = np.linspace(0, math.pi, 200)
        for dim in (1, 2, 3):
            lam = (dim - 1) / 2
            for ell, row in enumerate(gegenbauer_rows(40, lam, s)):
                assert np.max(np.abs(row / gegenbauer_at_one(ell, lam))) <= 1.0 + 1e-12


def plm_norm(ell, m):
    """sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) for m >= 0."""
    return math.sqrt(
        (2 * ell + 1) / FOUR_PI * math.exp(math.lgamma(ell - m + 1) - math.lgamma(ell + m + 1))
    )


class TestAssocLegendre:
    # norm_plm_table is the one associated-Legendre evaluator; entries are
    # the fully normalized P_l^(m), with the Condon-Shortley phase
    def test_p0(self):
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(norm_plm_table(0, x)[0, 0] / plm_norm(0, 0), np.ones_like(x))

    def test_p1_order1(self):
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(
            norm_plm_table(1, x)[1, 1] / plm_norm(1, 1), -np.sqrt(1 - x**2), atol=1e-15
        )

    def test_negative_order_relation(self):
        # P_l^(-m) = (-1)^m (l-m)!/(l+m)! P_l^(m), i.e. Y_(l,-m) = (-1)^m conj(Y_(l,m))
        rng = np.random.default_rng(10)
        angles = sample_uniform_angles(2, 20, rng)
        for ell in (1, 2, 5, 12):
            for m in range(1, ell + 1):
                vals = basis(2, [(ell, m), (ell, -m)]).eval_matrix(angles)
                np.testing.assert_allclose(
                    vals[:, 1], (-1) ** m * np.conj(vals[:, 0]), atol=1e-15
                )

    def test_against_scipy(self):
        x = np.linspace(-0.95, 0.95, 13)
        table = norm_plm_table(40, x)
        for ell in (0, 1, 2, 5, 12, 40):
            for m in range(0, ell + 1, max(1, ell // 3)):
                np.testing.assert_allclose(
                    table[ell, m], plm_norm(ell, m) * lpmv(m, ell, x), rtol=1e-9, atol=1e-12
                )

    def test_order_out_of_range(self):
        # orders above the degree have no P_l^(m): the table holds zeros there
        table = norm_plm_table(6, np.linspace(-1, 1, 9))
        for ell in range(7):
            assert np.all(table[ell, ell + 1:] == 0.0)


class TestNormPlmRows:
    # the row evaluator at points shared by every row
    def test_poles(self):
        # the diagonal seed at x = +-1 is 1/sqrt(4 pi) for m = 0 and 0 otherwise,
        # so Pbar_l^m(+-1) = (+-1)^l sqrt((2l+1)/(4 pi)) [m = 0], with no NaN from 0**0
        ell, m = np.tril_indices(41)
        for pole in (-1.0, 1.0):
            vals = norm_plm_rows(ell, m, np.array([pole]))[:, 0]
            expected = np.where(m == 0, pole**ell * np.sqrt((2 * ell + 1) / FOUR_PI), 0.0)
            np.testing.assert_allclose(vals, expected, rtol=1e-13, atol=0.0)

    def test_shapes_and_order_range(self):
        ell, m = [3, 3, 3, 3], [0, 1, 2, 3]
        assert norm_plm_rows(ell, m, np.zeros(5)).shape == (4, 5)
        assert norm_plm_rows([], [], np.zeros(5)).shape == (0, 5)
        with pytest.raises(ValueError):
            norm_plm_rows([2], [3], np.array([0.5]))


class TestMultiplicity:
    def test_paper_values(self):
        assert multiplicity(5, 1) == 2
        assert multiplicity(0, 1) == 1
        assert multiplicity(5, 2) == 11
        assert multiplicity(2, 3) == 9

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_closed_form(self, dim):
        from math import comb

        for ell in range(0, 30):
            expected = (2 * ell + dim - 1) * comb(ell + dim - 2, ell) // (dim - 1)
            assert multiplicity(ell, dim) == expected

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_vector_form_exact(self, dim):
        table = multiplicities(4096, dim)
        assert table.dtype == float and table.shape == (4097,)
        assert table.tolist() == [float(multiplicity(ell, dim)) for ell in range(4097)]

    def test_vector_form_short_and_invalid(self):
        assert multiplicities(0, 3).tolist() == [1.0]
        assert multiplicities(-1, 2).tolist() == []
        with pytest.raises(ValueError):
            multiplicities(4, 0)

    def test_index_set_sizes(self):
        for dim in (1, 2):
            for ell in range(8):
                assert len(index_set(ell, dim)) == multiplicity(ell, dim)


class TestSphericalHarmonics:
    # ProjectionBasis.eval_matrix is the spherical-harmonic evaluator
    def test_y00(self):
        val = basis(2, [(0, 0)]).eval_matrix(np.array([[0.7, 1.1]]))[0, 0]
        assert val == pytest.approx(1 / math.sqrt(FOUR_PI), abs=1e-14)

    def test_level1_magnitude_sum(self):
        rng = np.random.default_rng(11)
        vals = basis(2, [(1, -1), (1, 0), (1, 1)]).eval_matrix(sample_uniform_angles(2, 10, rng))
        np.testing.assert_allclose(np.sum(np.abs(vals) ** 2, axis=1), 3 / FOUR_PI, atol=1e-12)

    def test_d1_fourier(self):
        val = basis(1, [(3, 1)]).eval_matrix(np.array([[0.9]]))[0, 0]
        assert val == pytest.approx(np.exp(3j * 0.9) / math.sqrt(2 * math.pi), abs=1e-14)

    def test_magnitude_bound_1000_points(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            ell = int(rng.integers(0, 15))
            k = int(rng.integers(-ell, ell + 1)) if ell else 0
            bound = sh_bound_sq(2, ell, k)
            vals = basis(2, [(ell, k)]).eval_matrix(sample_uniform_angles(2, 40, rng))
            assert np.all(np.abs(vals) ** 2 <= bound * (1 + 1e-12))

    def test_certified_plm_sup_bounds(self):
        # the cached per-index sups dominate |Y|^2 at random points and
        # are never looser than the addition-formula bound by much
        from spheredpp.harmonics import plm_sup_sq

        rng = np.random.default_rng(99)
        sup = plm_sup_sq(12)
        for _ in range(300):
            ell = int(rng.integers(0, 13))
            k = int(rng.integers(-ell, ell + 1)) if ell else 0
            val = abs(basis(2, [(ell, k)]).eval_matrix(s2_point(rng))[0, 0]) ** 2
            assert val <= sup[ell, abs(k)] * (1 + 1e-12)
        # sectoral sup is much smaller than the level bound for large l
        assert sup[12, 12] < 0.5 * sh_bound_sq(2, 12, 12)

    def test_plm_sup_sq_within_its_grid_factor(self):
        # each entry is at least the max of Pbar_lm^2 on a theta grid 16 times
        # denser than the one plm_sup_sq uses, and within the Ehlich-Zeller
        # factor 1/cos(pi/8) of that max (up to 0.1 % for the dense grid's miss)
        L = 40
        sup = plm_sup_sq(L)
        ells, ms = np.tril_indices(L + 1)
        theta = np.linspace(0.0, math.pi, 16 * 8 * L + 1)
        dense = np.max(norm_plm_rows(ells, ms, np.cos(theta)) ** 2, axis=1)
        assert np.all(sup[ells, ms] >= dense)
        assert np.all(sup[ells, ms] <= dense / math.cos(math.pi / 8) * 1.001)
        assert np.all(np.triu(sup, 1) == 0.0)

    def test_norm_plm_matches_scalar(self):
        # every Y_(l,k,2) with l <= 40 against scipy's scalar evaluator
        rng = np.random.default_rng(13)
        angles = sample_uniform_angles(2, 6, rng)
        full = full_basis(2, 40)
        vals = full.eval_matrix(angles)
        ref = sph_harm_y(
            full.levels[None, :], full.orders[None, :], angles[:, :1], angles[:, 1:]
        )
        np.testing.assert_allclose(vals, ref, atol=1e-12)


class TestAdditionFormula:
    def test_d2(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            ell = int(rng.integers(0, 21))
            p, q = s2_point(rng), s2_point(rng)
            level = basis(2, [(ell, k) for k in index_set(ell, 2)])
            total = np.sum(level.eval_matrix(p)[0] * np.conj(level.eval_matrix(q)[0]))
            target = (2 * ell + 1) / FOUR_PI * eval_legendre(ell, math.cos(geodesic(p, q)))
            assert abs(total - target) <= 1e-10

    def test_d1(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            ell = int(rng.integers(0, 21))
            p, q = sample_uniform_angles(1, 2, rng)
            level = basis(1, [(ell, k) for k in index_set(ell, 1)])
            total = np.sum(level.eval_matrix(p[None])[0] * np.conj(level.eval_matrix(q[None])[0]))
            m = multiplicity(ell, 1)
            target = m / (2 * math.pi) * math.cos(ell * (p[0] - q[0]))
            assert abs(total - target) <= 1e-10


class TestOrthonormality:
    def test_d2_quadrature(self):
        # product Gauss-Legendre in cos(colat) x uniform trapezoid in lon
        from scipy.special import roots_legendre

        nodes_x, w_x = roots_legendre(64)
        n_phi = 64
        phi = 2 * math.pi * np.arange(n_phi) / n_phi
        colat, lon = np.meshgrid(np.arccos(nodes_x), phi, indexing="ij")
        mat = full_basis(2, 10).eval_matrix(np.column_stack([colat.ravel(), lon.ravel()])).T
        weights = np.outer(w_x, np.full(n_phi, 2 * math.pi / n_phi)).ravel()
        gram = (mat * weights) @ mat.conj().T
        np.testing.assert_allclose(gram, np.eye(len(mat)), atol=1e-8)

    def test_d1_quadrature(self):
        n = 256
        theta = 2 * math.pi * np.arange(n) / n
        mat = full_basis(1, 10).eval_matrix(theta[:, None]).T
        gram = (mat * (2 * math.pi / n)) @ mat.conj().T
        np.testing.assert_allclose(gram, np.eye(len(mat)), atol=1e-10)

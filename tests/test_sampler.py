import functools
import math

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp

from spheredpp.models import ModelSpec, most_repulsive_spectrum, resolve
from spheredpp.sampler import (
    ProjectionBasis,
    _flat_indices,
    draw_bernoulli_basis,
    sample_dpp,
    sample_projection,
)
from spheredpp.spectra import MercerSpectrum


def rng(seed=0):
    return np.random.default_rng(seed)


def index_set(ell, dim):
    """Orders k of the level-ell eigenfunctions on S^dim, dim in {1, 2}: the
    sign of the frequency on S^1 and -ell..ell on S^2."""
    if dim == 1:
        return [0] if ell == 0 else [-1, 1]
    return list(range(-ell, ell + 1))


def index_set_basis(dim, n_levels):
    """Every eigenfunction of the first n_levels levels, from ``index_set``."""
    pairs = [(ell, k) for ell in range(n_levels) for k in index_set(ell, dim)]
    return ProjectionBasis(dim, np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


class TestBasisIndices:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_flat_indices_list_every_index_set(self, dim):
        full = index_set_basis(dim, 200)
        for n_levels in range(1, 201):
            levels, orders = _flat_indices(dim, n_levels)
            np.testing.assert_array_equal(levels, full.levels[full.levels < n_levels])
            np.testing.assert_array_equal(orders, full.orders[full.levels < n_levels])

    @pytest.mark.parametrize("L", [0, 1, 7, 40])
    def test_envelope_of_a_full_basis(self, L):
        # the addition formula sums |Y|^2 over a whole level to m_l / sigma_d
        for dim, expected in ((2, (L + 1) ** 2 / (4 * math.pi)), (1, (2 * L + 1) / (2 * math.pi))):
            full = index_set_basis(dim, L + 1)
            assert full.envelope == pytest.approx(expected, rel=1e-15)
            # whole levels are counted: one function per level gives the same bound
            first = np.unique(full.levels, return_index=True)[1]
            assert ProjectionBasis(dim, full.levels[first], full.orders[first]).envelope == full.envelope

    def test_envelope_of_an_empty_basis(self):
        assert ProjectionBasis(2, np.array([], dtype=int), np.array([], dtype=int)).envelope == 0.0


class TestBernoulliBasis:
    def test_sure_level_zero(self):
        spec = MercerSpectrum(2, "kernel", [1.0])
        for seed in range(5):
            basis = draw_bernoulli_basis(spec, rng(seed))
            assert len(basis) == 1
            assert basis.levels.tolist() == [0]

    def test_projection_always_full(self):
        spec = most_repulsive_spectrum(9.0, 2)
        for seed in range(10):
            assert len(draw_bernoulli_basis(spec, rng(seed))) == 9

    def test_mean_basis_size_spectral_model(self):
        from spheredpp.models import spectral_model_spectrum

        spec = spectral_model_spectrum(3.0, 1.5, 1.2, 2)
        eta = spec.eta
        var = spec.count_variance
        draws = 10_000
        g = rng(123)
        sizes = [len(draw_bernoulli_basis(spec, g)) for _ in range(draws)]
        se = math.sqrt(var / draws)
        assert abs(np.mean(sizes) - eta) <= 3 * se

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            draw_bernoulli_basis(MercerSpectrum(3, "kernel", [0.5]), rng())


class TestProjectionSampling:
    def test_single_constant_eigenfunction_uniform(self):
        # |Y_00|^2 is constant, so the single point is uniform; chi-square
        # over 40 equal-measure cells at the 1% level
        spec = MercerSpectrum(2, "kernel", [1.0])
        g = rng(70)
        lon_bins = np.linspace(0, 2 * math.pi, 9)
        z_bins = np.linspace(-1, 1, 6)
        counts = np.zeros((5, 8))
        n = 10_000
        for _ in range(n):
            pt = sample_dpp(spec, g).pattern.points[0]
            zi = np.searchsorted(z_bins, math.cos(pt.colat)) - 1
            li = np.searchsorted(lon_bins, pt.lon) - 1
            counts[min(zi, 4), min(li, 7)] += 1
        stat, pval = chisquare(counts.ravel())
        assert pval > 0.01

    def test_exact_count_nine(self):
        spec = most_repulsive_spectrum(9.0, 2)
        g = rng(11)
        for _ in range(20):
            result = sample_dpp(spec, g)
            assert len(result.pattern) == 9

    def test_d1_repulsion_vs_uniform(self):
        # nearest-neighbour spacings of the 3-point projection DPP are
        # stochastically larger than those of 3 iid uniform points
        spec = most_repulsive_spectrum(3.0, 1)
        g = rng(13)
        reps = 800
        dpp_spacings, unif_spacings = [], []
        for _ in range(reps):
            pat = sample_dpp(spec, g).pattern
            thetas = np.sort(pat.angles()[:, 0])
            gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2 * math.pi]]))
            nn = np.minimum(gaps, np.roll(gaps, 1))
            dpp_spacings.extend(nn)
            u = np.sort(g.uniform(0, 2 * math.pi, 3))
            ugaps = np.diff(np.concatenate([u, [u[0] + 2 * math.pi]]))
            unif_spacings.extend(np.minimum(ugaps, np.roll(ugaps, 1)))
        stat, pval = ks_2samp(dpp_spacings, unif_spacings, alternative="less")
        assert pval < 1e-6  # strong evidence the DPP spacings dominate

    def test_determinism(self):
        spec = most_repulsive_spectrum(5.0, 2)
        a = sample_dpp(spec, rng(42)).pattern.angles()
        b = sample_dpp(spec, rng(42)).pattern.angles()
        np.testing.assert_array_equal(a, b)

    def test_zero_spectrum_empty(self):
        spec = MercerSpectrum(2, "kernel", [0.0, 0.0])
        result = sample_dpp(spec, rng(3))
        assert len(result.pattern) == 0

    def test_count_equals_basis_size(self):
        spec = MercerSpectrum(1, "kernel", [0.7, 0.4, 0.2])
        g = rng(17)
        for _ in range(50):
            result = sample_dpp(spec, g)
            assert len(result.pattern) == result.basis_size

    def test_count_law_matches_bernoulli_sum(self):
        # chi-square goodness of fit of the count distribution
        spec = MercerSpectrum(2, "kernel", [0.5, 0.5, 0.0])
        # counts: level0 Bern(1/2), level1 3 x Bern(1/2) -> Binomial(4, 1/2)
        g = rng(19)
        n = 10_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[len(draw_bernoulli_basis(spec, g))] += 1
        from scipy.stats import binom

        expected = n * binom.pmf(np.arange(5), 4, 0.5)
        stat, pval = chisquare(counts, expected)
        assert pval > 0.01

    def test_acceptance_metadata(self):
        spec = most_repulsive_spectrum(4.0, 2)
        result = sample_dpp(spec, rng(29))
        assert result.n_proposals >= len(result.pattern)
        assert 0.0 < result.acceptance_rate <= 1.0

    def test_rejection_cap_per_point(self, monkeypatch):
        import spheredpp.sampler as sampler_module
        from spheredpp.sampler import SamplingError

        monkeypatch.setattr(sampler_module, "MAX_REJECTS", 0)
        spec = most_repulsive_spectrum(9.0, 2)
        basis = draw_bernoulli_basis(spec, rng(31))
        with pytest.raises(SamplingError, match="at point"):
            sample_projection(basis, rng(31))

    def test_colatitude_above_its_certified_envelope_raises(self, monkeypatch):
        import spheredpp.sampler as sampler_module
        from spheredpp.sampler import SamplingError

        class Halved(sampler_module._ColatitudeEnvelope):
            def __init__(self, basis):
                super().__init__(basis)
                self.cells = 0.5 * self.cells

        monkeypatch.setattr(sampler_module, "_ColatitudeEnvelope", Halved)
        basis = ProjectionBasis(2, np.full(1, 7), np.full(1, 2))
        with pytest.raises(SamplingError, match="certified envelope"):
            sample_projection(basis, rng(9))


class TestModelSampling:
    def test_multiquadric_model(self):
        spec = ModelSpec(
            family="multiquadric",
            params={"tau": 0.5, "delta": 0.5},
            dim=2,
            mode="kernel",
            rho=1.5 / (4 * math.pi),
        )
        model = resolve(spec)
        g = rng(37)
        counts = [len(sample_dpp(model, g).pattern) for _ in range(200)]
        eta = model.kernel.eta
        se = math.sqrt(model.kernel.count_variance / 200)
        assert abs(np.mean(counts) - eta) <= 4 * se

    def test_most_repulsive_400(self):
        # Figure 1 right-panel regime: exactly 400 points
        spec = most_repulsive_spectrum(400.0, 2)
        result = sample_dpp(spec, rng(41))
        assert len(result.pattern) == 400

    def test_multiquadric_figure_one_middle(self):
        # tau=10, delta=0.74 at eta = eta_max: the ~400-point regime of
        # the middle panel.  Counts follow the Bernoulli sum, so the
        # basis draws carry the count law; two full patterns exercise
        # the projection sampler end to end.
        from spheredpp.models import multiquadric_eta_max
        from spheredpp.sphere import surface_measure
        from spheredpp.streams import substream

        eta = multiquadric_eta_max(10.0, 0.74, 2)
        assert eta == pytest.approx(400.0, rel=0.02)  # figure-caption regime
        model = resolve(
            ModelSpec(
                "multiquadric", {"tau": 10.0, "delta": 0.74}, 2, "kernel",
                rho=eta / surface_measure(2),
            )
        )
        reps = 800
        sizes = [
            len(draw_bernoulli_basis(model.kernel, substream(5, "fig1", i)))
            for i in range(reps)
        ]
        se = math.sqrt(model.kernel.count_variance / reps)
        assert abs(np.mean(sizes) - model.kernel.eta) <= 3 * se
        for seed in (0, 1):
            result = sample_dpp(model, substream(seed, "fig1-full"))
            assert len(result.pattern) == result.basis_size
            sd = math.sqrt(model.kernel.count_variance)
            assert abs(len(result.pattern) - model.kernel.eta) <= 5 * sd

    def test_projection_intensity_uniform_caps(self):
        # pooled points of projection DPP realizations are uniform
        spec = most_repulsive_spectrum(9.0, 2)
        g = rng(43)
        zs = []
        for _ in range(300):
            zs.extend(math.cos(p.colat) for p in sample_dpp(spec, g).pattern)
        zs = np.array(zs)
        n = len(zs)
        for p in (0.1, 0.5):
            frac = np.mean(zs >= 1 - 2 * p)
            # points within one pattern are negatively correlated, so the
            # iid standard error is conservative only up to a factor; use 4 sigma
            assert abs(frac - p) <= 4 * math.sqrt(p * (1 - p) / n)


def _s2_quadrature(n_z=26, n_lon=50):
    """Product rule on S^2 (Gauss-Legendre in cos colatitude, equispaced
    longitude), exact for spherical polynomials of degree < min(2 n_z, n_lon)."""
    from scipy.special import roots_legendre

    z, wz = roots_legendre(n_z)
    lon = 2 * math.pi * np.arange(n_lon) / n_lon
    zz, ll = np.meshgrid(z, lon, indexing="ij")
    angles = np.column_stack([np.arccos(zz.ravel()), ll.ravel()])
    weights = np.outer(wz, np.full(n_lon, 2 * math.pi / n_lon)).ravel()
    return angles, weights


def _sph_harm(levels, orders, angles):
    """Y_(l,k,2) at angle rows (colat, lon), from scipy: shape (B, n)."""
    from scipy.special import sph_harm_y

    return np.column_stack([
        sph_harm_y(int(ell), int(k), angles[:, 0], angles[:, 1]) for ell, k in zip(levels, orders)
    ])


def _pair_counts(vecs, radii):
    """Unordered pairs closer than each radius (geodesic distance)."""
    dots = np.clip(vecs @ vecs.T, -1.0, 1.0)
    dist = np.arccos(dots[np.triu_indices(len(vecs), 1)])
    return np.array([np.sum(dist < r) for r in radii])


class TestStageTwoExactness:
    """The projection stage against the exact joint intensity of a fixed basis.

    For a projection kernel K(x, y) = sum_i Y_i(x) conj(Y_i(y)) with
    h_0(x) = K(x, x), the expected number of unordered pairs closer than r
    is 1/2 int int 1{d(x, y) < r} (h_0(x) h_0(y) - |K(x, y)|^2), and the
    expected count in a region A is int_A h_0.
    """

    RADII = (0.2, 0.35, 0.5)
    REPS = 600

    @pytest.fixture(scope="class")
    def s2_basis(self):
        pairs = [(ell, k) for ell in range(13) for k in range(-ell, ell + 1)]
        pick = np.sort(np.random.default_rng(2024).choice(len(pairs), 24, replace=False))
        levels = np.array([pairs[i][0] for i in pick])
        orders = np.array([pairs[i][1] for i in pick])
        return ProjectionBasis(2, levels, orders)

    @pytest.fixture(scope="class")
    def s2_patterns(self, s2_basis):
        g = rng(2025)
        return [sample_projection(s2_basis, g).pattern for _ in range(self.REPS)]

    def test_s2_pair_counts(self, s2_basis, s2_patterns):
        from scipy.special import eval_legendre

        # Funk-Hecke: for f of degree <= 24 in y, int_{d(x,y)<r} f(y) dy equals
        # int k(x.y) f(y) dy with the degree-24 kernel
        # k(t) = (1 - c)/2 + sum_(L>=1) (P_(L-1)(c) - P_(L+1)(c))/2 P_L(t), c = cos r;
        # the integrand is then a polynomial of degree <= 48 in x and in y,
        # so the product rule gives the moments int int P_L(x.y) rho_2 exactly
        angles, w = _s2_quadrature()
        vals = _sph_harm(s2_basis.levels, s2_basis.orders, angles)
        kmat = vals @ vals.conj().T
        h0 = np.real(np.diag(kmat))
        rho2 = np.outer(h0, h0) - np.abs(kmat) ** 2
        colat, lon = angles[:, 0], angles[:, 1]
        unit = np.column_stack([np.sin(colat) * np.cos(lon), np.sin(colat) * np.sin(lon), np.cos(colat)])
        t = np.clip(unit @ unit.T, -1.0, 1.0)
        moments = []
        prev, cur = np.zeros_like(t), np.ones_like(t)
        for L in range(25):
            moments.append(w @ (cur * rho2) @ w)
            prev, cur = cur, ((2 * L + 1) * t * cur - L * prev) / (L + 1)
        counts = np.array([
            _pair_counts(np.array([p.vector for p in pat.points]), self.RADII) for pat in s2_patterns
        ])
        for col, r in enumerate(self.RADII):
            c = math.cos(r)
            coef = [(1.0 - c) / 2.0] + [
                (eval_legendre(L - 1, c) - eval_legendre(L + 1, c)) / 2.0 for L in range(1, 25)
            ]
            exact = 0.5 * np.dot(coef, moments)
            mean = counts[:, col].mean()
            se = counts[:, col].std(ddof=1) / math.sqrt(self.REPS)
            assert abs(mean - exact) <= 4 * se, (r, mean, exact, se)

    def test_s2_colatitude_histogram(self, s2_basis, s2_patterns):
        from scipy.special import roots_legendre

        edges = np.linspace(-1.0, 1.0, 11)
        zs = np.array([math.cos(p.colat) for pat in s2_patterns for p in pat.points])
        observed = np.histogram(zs, edges)[0]
        # int of h_0 over each band: 2 pi sum_i int |Y_i(z, 0)|^2 dz, exact
        # with 13 Gauss-Legendre nodes (degree <= 24 in z)
        u, wu = roots_legendre(13)
        expected = []
        for a, b in zip(edges[:-1], edges[1:]):
            z = (a + b) / 2 + (b - a) / 2 * u
            vals = _sph_harm(s2_basis.levels, s2_basis.orders, np.column_stack([np.arccos(z), 0 * z]))
            expected.append(2 * math.pi * (b - a) / 2 * wu @ np.sum(np.abs(vals) ** 2, axis=1))
        expected = self.REPS * np.array(expected)
        assert expected.sum() == pytest.approx(len(zs), rel=1e-10)
        # points of one pattern are negatively correlated, so the iid
        # chi-square law is conservative here
        assert chisquare(observed, expected).pvalue > 1e-3

    def test_s1_pair_counts(self):
        freqs = np.array([0, 1, -2, 3, 5, -6, 8, -11, 12])
        basis = ProjectionBasis(1, np.abs(freqs), np.where(freqs < 0, -1, 1))
        n = len(freqs)
        g = rng(2026)
        counts = []
        for _ in range(self.REPS):
            theta = sample_projection(basis, g).pattern.angles()[:, 0]
            gap = np.abs(theta[:, None] - theta[None, :])[np.triu_indices(n, 1)]
            dist = np.minimum(gap, 2 * math.pi - gap)
            counts.append([np.sum(dist < r) for r in self.RADII])
        counts = np.array(counts)
        diff = (freqs[:, None] - freqs[None, :]).astype(float)
        for col, r in enumerate(self.RADII):
            # int_{-r}^{r} |sum_i exp(i f_i t)|^2 dt = sum_ij 2 sin(diff r)/diff
            overlap = np.sum(np.where(diff == 0, 2 * r, 2 * np.sin(diff * r) / np.where(diff == 0, 1, diff)))
            exact = 0.5 * 2 * math.pi * (2 * r * n**2 - overlap) / (4 * math.pi**2)
            mean = counts[:, col].mean()
            se = counts[:, col].std(ddof=1) / math.sqrt(self.REPS)
            assert abs(mean - exact) <= 4 * se, (r, mean, exact, se)


def _one_point_draws(ell, m, draws, g):
    """cos(colatitude) of ``draws`` independent one-point draws of the basis
    {Y_lm}: envelope proposals accepted as for the first point, u G < 2 pi sin h_0,
    in one batch."""
    from spheredpp.sampler import _ColatitudeEnvelope

    basis = ProjectionBasis(2, np.array([ell]), np.array([m]))
    env = _ColatitudeEnvelope(basis)
    angles = env.propose(2 * draws, g)  # about 1 % are rejected
    h0 = np.abs(basis.eval_matrix(angles)[:, 0]) ** 2
    accepted = g.random(len(angles)) * env.bound(angles[:, 0], h0) < h0
    assert accepted.sum() >= draws
    return np.cos(angles[accepted, 0][:draws])


@pytest.mark.parametrize("ell, m, draws", [(0, 0, 2000), (5, 0, 2000), (12, 12, 2000), (40, 7, 2000), (200, 3, 400)])
def test_cos_colatitude_draw_ks(ell, m, draws):
    from scipy.special import roots_legendre, sph_harm_y
    from scipy.stats import kstest

    x = _one_point_draws(ell, m, draws, rng(ell + 1000 * m))
    u, wu = roots_legendre(ell + 1)  # |Pbar_lm|^2 has degree 2l

    def cdf(z):
        z = np.asarray(z, dtype=float)
        t = -1.0 + (z[:, None] + 1.0) * (u[None, :] + 1.0) / 2.0
        dens = 2 * math.pi * np.abs(sph_harm_y(ell, m, np.arccos(t), 0.0)) ** 2
        return (z + 1.0) / 2.0 * (dens @ wu)

    assert cdf(np.array([1.0]))[0] == pytest.approx(1.0, rel=1e-10)
    assert kstest(x, cdf).pvalue > 1e-3


def test_eval_matrix_memory_follows_the_basis():
    # the spherical harmonics of a figure-scale basis (mq1-400: 393 functions
    # up to level 195) at a full chunk of proposals: the peak stays within a
    # few copies of the complex (B, n) result (3.0 of them), with no
    # (L+1)^2 x B Legendre table (42 MB here, 26 copies)
    import tracemalloc

    from spheredpp.sphere import sample_uniform_angles

    model = resolve(
        ModelSpec(
            "multiquadric", {"tau": 1.0, "delta": 0.9654362879120054}, 2, "kernel",
            rho=400.0 / (4 * math.pi),
        )
    )
    basis = draw_bernoulli_basis(model.kernel, rng(6))
    angles = sample_uniform_angles(2, 128, rng(7))
    tracemalloc.start()
    try:
        vals = basis.eval_matrix(angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(basis)
    assert vals.shape == (128, n)
    assert peak <= 8 * n * 128 * 16, (peak, n, basis.max_level)


@functools.cache
def _delta_derivatives(dim, reps, h):
    """Central first and second differences in delta of log f over ``reps``
    patterns drawn under the TestScoreIdentity model, one array each."""
    from spheredpp.likelihood import DensityContext, log_density
    from spheredpp.spectra import TruncationPolicy

    def model(delta):
        return resolve(
            ModelSpec(
                "multiquadric", {"tau": 10.0, "delta": delta}, dim, "density",
                chi=6.0, trunc=TruncationPolicy(tail_tol=1e-12),
            )
        )

    truth = model(0.5)
    lo, mid, hi = (DensityContext(model(0.5 + s * h).density) for s in (-1, 0, 1))
    scores, curvatures = [], []
    for r in range(reps):
        pattern = sample_dpp(truth, np.random.default_rng([2026 + dim, r])).pattern
        at_lo, at_mid, at_hi = (log_density(pattern, ctx) for ctx in (lo, mid, hi))
        scores.append((at_hi - at_lo) / (2 * h))
        curvatures.append((at_hi - 2.0 * at_mid + at_lo) / h**2)
    return np.array(scores), np.array(curvatures)


class TestScoreIdentity:
    # Under theta_0 the delta-score of the density has mean exactly 0 at every
    # sample size (Bartlett's first identity), so sampler, log-determinant and
    # normalizer D must agree: a biased stage 2 shifts the mean.  Density mode,
    # tau = 10, delta = 0.5, chi = 6; central difference h = 1e-4; levels cut
    # at tail_tol 1e-12 so that truncation moves the score by far less than its SE.
    REPS = 200
    H = 1e-4

    @pytest.mark.parametrize("dim", [1, 2])
    def test_delta_score_has_mean_zero(self, dim):
        scores, _ = _delta_derivatives(dim, self.REPS, self.H)
        z = scores.mean() / (scores.std(ddof=1) / math.sqrt(self.REPS))
        assert abs(z) <= 4.0, z

    @pytest.mark.parametrize("dim", [1, 2])
    def test_score_variance_is_the_information(self, dim):
        # Bartlett's second identity, Var(score) = E[-d^2 log f / d delta^2], on
        # the same replicates; the score has mean 0, so Var(score) = E[score^2].
        # The second difference divides by h^2 = 1e-8, which magnifies any
        # roughness of the radial series in its coefficients.
        scores, curvatures = _delta_derivatives(dim, self.REPS, self.H)
        excess = scores**2 + curvatures
        z = excess.mean() / (excess.std(ddof=1) / math.sqrt(self.REPS))
        assert abs(z) <= 4.0, z


def _mq10_400_basis(seed):
    model = resolve(
        ModelSpec(
            "multiquadric", {"tau": 10.0, "delta": 0.7416437737576226}, 2, "kernel",
            rho=400.0 / (4 * math.pi),
        )
    )
    return draw_bernoulli_basis(model.kernel, rng(seed))


class TestComplement:
    def test_coordinates_match_a_qr_oracle(self):
        # h from complement coordinates against |v|^2 - |Q^H v|^2, Q from a QR of the
        # accepted vectors, along a random accepted sequence in chunks of 16,
        # synced 5 proposals at a time
        from spheredpp.sampler import _Complement
        from spheredpp.sphere import sample_uniform_angles

        g = rng(77)
        pairs = [(ell, k) for ell in range(9) for k in range(-ell, ell + 1)]
        pick = np.sort(g.choice(len(pairs), 30, replace=False))
        basis = ProjectionBasis(2, np.array([pairs[i][0] for i in pick]), np.array([pairs[i][1] for i in pick]))
        n = len(basis)
        comp = _Complement(n)
        accepted = []
        while comp.j < n:
            vmat = basis.eval_matrix(sample_uniform_angles(2, 16, g))
            h0 = np.sum(np.abs(vmat) ** 2, axis=1)
            z = comp.coordinates(vmat.copy())
            h = np.empty(len(z))
            for i, v in enumerate(vmat):
                if i == comp.synced:
                    h[i : i + 5] = comp.sync(z, i + 5)
                proj = 0.0
                if accepted:
                    q = np.linalg.qr(np.array(accepted).T)[0]
                    proj = np.sum(np.abs(q.conj().T @ v) ** 2)
                assert abs(h[i] - (h0[i] - proj)) <= 1e-12 * h0[i], (comp.j, i)
                if comp.j < n and g.random() < 0.5:
                    h[i + 1 : comp.synced] = comp.accept(z, i)
                    accepted.append(v)
            comp.close_chunk()
        assert np.linalg.norm(comp.rows @ comp.rows.conj().T - np.eye(n)) <= 1e-12

    def test_conditional_density_above_h0_raises(self, monkeypatch):
        import spheredpp.sampler as sampler_module
        from spheredpp.sampler import SamplingError

        class Inflated(sampler_module._Complement):
            def coordinates(self, vmat):
                return 2.0 * super().coordinates(vmat)

        monkeypatch.setattr(sampler_module, "_Complement", Inflated)
        basis = draw_bernoulli_basis(most_repulsive_spectrum(9.0, 2), rng(5))
        with pytest.raises(SamplingError, match="acceptance probability above 1"):
            sample_projection(basis, rng(6))


def test_projection_memory_follows_the_basis():
    # one mq10-400 draw (n = 387) holds one (n, n) complex array, the complement
    # basis, besides chunk-sized ones: its tracemalloc peak is 2.06 copies of that
    # array here, where the previous dual-basis sampler peaked at 2.34
    import tracemalloc

    basis = _mq10_400_basis(0)
    g = rng(100)
    tracemalloc.start()
    try:
        sample_projection(basis, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(basis)
    assert peak <= 2.3 * n * n * 16, (peak, n)


def _named_bases():
    """One basis of each figure model of the benchmark (mq1-400, mq10-400, mr-400,
    sp-8-1-2), drawn at seed 1."""
    from spheredpp.models import spectral_model_spectrum

    mq1 = resolve(
        ModelSpec(
            "multiquadric", {"tau": 1.0, "delta": 0.9654362879120054}, 2, "kernel",
            rho=400.0 / (4 * math.pi),
        )
    )
    spectra = [mq1.kernel, most_repulsive_spectrum(400.0, 2), spectral_model_spectrum(8.0, 1.0, 2.0, 2)]
    return [_mq10_400_basis(1)] + [draw_bernoulli_basis(spec, rng(1)) for spec in spectra]


def _colatitude_density(basis, theta):
    """f = 2 pi sin(theta) h_0(theta) straight from the Legendre rows, in blocks."""
    from spheredpp.harmonics import norm_plm_rows

    f = np.empty(len(theta))
    for b in range(0, len(theta), 4096):
        t = theta[b : b + 4096]
        vals = norm_plm_rows(basis.levels, np.abs(basis.orders), np.cos(t))
        f[b : b + 4096] = 2 * math.pi * np.sin(t) * np.sum(vals * vals, axis=0)
    return f


def _envelope_at(env, theta):
    return env.cells[np.minimum((theta / env.width).astype(int), len(env.cells) - 1)]


def test_colatitude_envelope_is_certified():
    # G >= f = 2 pi sin(theta) h_0 on a theta grid 16 times denser than the
    # envelope's K cells: for the one-function basis of every row of levels
    # 0..60 and of (200, 3) and (200, 200), and for the figure models' bases
    from spheredpp.harmonics import norm_plm_rows
    from spheredpp.sampler import _ColatitudeEnvelope

    groups = {60: [(ell, m) for ell in range(61) for m in range(ell + 1)], 200: [(200, 3), (200, 200)]}
    for top, rows in groups.items():
        theta = np.linspace(0.0, math.pi, 16 * 8 * (2 * top + 1) + 1)  # 16 times the largest K
        for m in sorted({k for _, k in rows}):  # one recurrence per order
            ells = np.array([ell for ell, k in rows if k == m])
            vals = norm_plm_rows(ells, np.full(len(ells), m), np.cos(theta))
            for ell, f in zip(ells, 2 * math.pi * np.sin(theta) * vals**2):
                env = _ColatitudeEnvelope(ProjectionBasis(2, np.array([ell]), np.array([m])))
                assert np.all(_envelope_at(env, theta) >= f), (ell, m)
    for basis in _named_bases():
        env = _ColatitudeEnvelope(basis)
        theta = np.linspace(0.0, math.pi, 16 * len(env.cells) + 1)
        assert np.all(_envelope_at(env, theta) >= _colatitude_density(basis, theta)), basis.max_level


def test_envelope_mass_per_point():
    # int G / n is the tries per proposal that q = h_0 / n itself would take:
    # at most 1.02 on the figure models' bases, where the per-function draws
    # took about 4 colatitude tries per proposal
    from spheredpp.sampler import _ColatitudeEnvelope

    for basis in _named_bases():
        env = _ColatitudeEnvelope(basis)
        assert 1.0 <= env.total / len(basis) <= 1.02, (basis.max_level, env.total / len(basis))

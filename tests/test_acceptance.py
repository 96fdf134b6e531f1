"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import eval_legendre

from spheredpp.diagnostics import (
    eta_times_global_repulsiveness,
    local_repulsiveness,
    most_repulsive_curvature,
    montecarlo_validate,
    pcf,
)
from spheredpp.harmonics import multiplicity, norm_plm_table, sh_bound_sq
from spheredpp.likelihood import ScaledFitSpec, loglik_score_info, newton_mle
from spheredpp.models import (
    ModelSpec,
    most_repulsive_spectrum,
    multiquadric_d_schoenberg,
    multiquadric_psi,
    resolve,
)
from spheredpp.sampler import ProjectionBasis, sample_dpp
from spheredpp.spectra import (
    MercerSpectrum,
    SchoenbergSeq,
    TruncationPolicy,
    beta_from_kernel,
    correlation_mercer,
    d_schoenberg_from_psi,
    eval_psi_series,
    schoenberg_to_d,
)
from spheredpp.sphere import PointPattern, SpherePoint, sample_uniform_angles, surface_measure
from spheredpp.streams import substream

from oracles import multiquadric_beta0_s2


def index_set(ell, dim):
    """Orders k of the level-ell eigenfunctions on S^dim, dim in {1, 2}: the
    sign of the frequency on S^1 and -ell..ell on S^2."""
    if dim == 1:
        return [0] if ell == 0 else [-1, 1]
    return list(range(-ell, ell + 1))


def uniform_points(dim, n, rng):
    return tuple(SpherePoint(dim, tuple(a)) for a in sample_uniform_angles(dim, n, rng))


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {num:2d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE criterion {num:2d} PASS: {label}")


def test_criterion_01_multiquadric_quadrature_vs_closed_form():
    with criterion(1, "quadrature beta_(l,2) equals delta^l (1-delta), l <= 50"):
        start = time.monotonic()
        for delta in (0.3, 0.6, 0.9):
            psi = multiquadric_psi(0.5, delta)
            quad = d_schoenberg_from_psi(psi, 2, 50)
            closed = (1 - delta) * delta ** np.arange(51)
            assert float(np.max(np.abs(quad.values - closed))) <= 1e-8
        assert time.monotonic() - start < 10.0


def test_criterion_02_beta0_closed_form():
    with criterion(2, "beta_(0,2) closed form vs quadrature incl. (tau=10, delta=0.74)"):
        cases = [(t, d) for t in (0.5, 1.0, 2.0) for d in (0.2, 0.74)]
        for tau, delta in cases:
            quad = d_schoenberg_from_psi(multiquadric_psi(tau, delta), 2, 0)
            assert abs(quad.values[0] - multiquadric_beta0_s2(tau, delta)) <= 1e-8
        # Figure 1 middle-panel parameters, via quadrature
        quad = d_schoenberg_from_psi(multiquadric_psi(10.0, 0.74), 2, 0)
        assert abs(quad.values[0] - multiquadric_beta0_s2(10.0, 0.74)) <= 1e-8


def test_criterion_03_power_conversion_vs_quadrature():
    with criterion(3, "cos^k conversion matches quadrature inversion, d in {1,2,3}"):
        for k in range(0, 9):
            vals = np.zeros(k + 1)
            vals[k] = 1.0
            seq = SchoenbergSeq(vals)

            def psi(s, k=k):
                return np.cos(s) ** k

            for dim in (1, 2, 3):
                conv = schoenberg_to_d(seq, dim, k)
                quad = d_schoenberg_from_psi(psi, dim, k)
                assert float(np.max(np.abs(conv.values - quad.values))) <= 1e-10


def test_criterion_04_projection_count_law():
    with criterion(4, "projection DPPs: exact counts over 200 simulations each"):
        start = time.monotonic()
        for eta, dim in ((9.0, 2), (5.0, 1)):
            spec = most_repulsive_spectrum(eta, dim)
            assert spec.kind == "kernel" and set(spec.values.tolist()) <= {0.0, 1.0}
            for i in range(200):
                pattern = sample_dpp(spec, substream(1000 + dim, "rep", i)).pattern
                assert len(pattern) == int(eta)
        assert time.monotonic() - start < 60.0


def test_criterion_05_count_moments():
    with criterion(5, "count mean/variance within 3 SE (multiquadric and spectral)"):
        mq = resolve(
            ModelSpec(
                "multiquadric", {"tau": 0.5, "delta": 0.5}, 2, "kernel",
                rho=1.5 / surface_measure(2),
            )
        )
        report = montecarlo_validate(mq, 2000, seed=20250809)
        assert report.mean_ok and report.var_ok
        spectral = resolve(
            ModelSpec("spectral", {"alpha": 8.0, "beta": 1.0, "kappa": 2.0}, 2)
        )
        assert abs(spectral.eta - 50.0) < 15.0  # the kappa=2, eta ~ 50 regime
        report = montecarlo_validate(spectral, 300, seed=77)
        assert report.mean_ok and report.var_ok


def test_criterion_06_repulsiveness_formulas():
    with criterion(6, "projection curvature closed forms; series curvature vs 2nd difference"):
        for dim in (1, 2):
            for n in range(0, 11):
                eta = float(np.sum([multiplicity(ell, dim) for ell in range(n + 1)]))
                spec = most_repulsive_spectrum(eta, dim)
                local = local_repulsiveness(beta_from_kernel(spec))
                closed = most_repulsive_curvature(n, dim)
                assert local.curvature == pytest.approx(closed, rel=1e-12, abs=1e-12)
        # multiquadric tau = (d-1)/2 curvature against a second difference
        h = 1e-3
        for dim, delta in ((2, 0.5), (3, 0.35)):
            beta = multiquadric_d_schoenberg(
                (dim - 1) / 2.0, delta, dim, TruncationPolicy(tail_tol=1e-12)
            )
            local = local_repulsiveness(beta)
            g = lambda s: 1.0 - eval_psi_series(beta, s) ** 2
            second = (g(h) - 2 * g(0.0) + g(-h)) / (h * h)
            assert local.curvature == pytest.approx(second, rel=1e-3)
            assert local.curvature == pytest.approx(
                2 * (dim - 1) * delta / (1 - delta) ** 2, rel=1e-6
            )


def test_criterion_07_global_repulsiveness_bound():
    with criterion(7, "eta*I = 1 exactly for projections; <= 1 on 500 random spectra"):
        for eta, dim in ((1.0, 1), (9.0, 2), (25.0, 2), (7.0, 1)):
            spec = most_repulsive_spectrum(eta, dim)
            if spec.kind == "kernel" and set(spec.values.tolist()) <= {0.0, 1.0}:
                assert eta_times_global_repulsiveness(spec) == 1.0
        rng = np.random.default_rng(321)
        checked = 0
        while checked < 500:
            dim = int(rng.integers(1, 3))
            lam = rng.random(int(rng.integers(1, 15)))
            spec = MercerSpectrum(dim, "kernel", lam)
            if spec.eta <= 0:
                continue
            assert eta_times_global_repulsiveness(spec) <= 1.0 + 1e-10
            checked += 1


def test_criterion_08_nonnegative_psi_argmax_alpha0():
    with criterion(8, "alpha_(0,d) strictly dominates for 20 nonnegative mixtures"):
        rng = np.random.default_rng(888)
        grid = np.linspace(0.0, math.pi, 2001)
        done = 0
        while done < 20:
            weights = rng.dirichlet(np.ones(8))
            powers = np.arange(8)

            def psi(s, w=weights):
                c = np.cos(s)
                return sum(wi * c**p for wi, p in zip(w, powers))

            if float(np.min(psi(grid))) < 0.0:
                continue  # not a nonnegative mixture; redraw
            for dim in (2, 3):
                beta = d_schoenberg_from_psi(psi, dim, 30)
                alpha = correlation_mercer(beta).values
                assert np.all(alpha[0] > alpha[1:])
            done += 1


def test_criterion_09_mle():
    with criterion(9, "MLE: closed form, simulated fits, finite differences"):
        # closed-form root chi* = n/(alpha (m - n)) for a single level
        for level, a, n in ((3, 0.7, 4), (2, 1.3, 2), (5, 0.25, 9)):
            alpha = np.zeros(level + 1)
            alpha[level] = a
            m = multiplicity(level, 2)
            gen = np.random.default_rng(100 + level)
            pat = PointPattern(2, uniform_points(2, n, gen))
            fit = newton_mle(pat, ScaledFitSpec(2, alpha))
            assert fit.chi == pytest.approx(n / (a * (m - n)), rel=1e-10)
        # simulated-data fits
        from spheredpp.models import multiquadric_d_schoenberg

        alpha_psi = correlation_mercer(multiquadric_d_schoenberg(0.5, 0.7, 2))
        model = resolve(
            ModelSpec("multiquadric", {"tau": 0.5, "delta": 0.7}, 2, "density", chi=1.0)
        )
        fitted = 0
        for seed in range(40):
            pat = sample_dpp(model, substream(seed, "mle")).pattern
            if len(pat) < 2:
                continue
            fit = newton_mle(pat, ScaledFitSpec.from_correlation(alpha_psi))
            assert fit.converged and fit.iterations <= 30
            assert abs(fit.score) < 1e-10
            assert fit.information > 0
            fitted += 1
            if fitted >= 5:
                break
        assert fitted >= 5
        # finite-difference checks
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pat = PointPattern(2, uniform_points(2, n, rng))
            alpha = rng.random(int(rng.integers(3, 7))) * 1.5
            zeta = float(rng.uniform(-2, 2))
            spec = ScaledFitSpec(2, alpha, math.exp(zeta))
            mid = loglik_score_info(pat, spec)
            up = loglik_score_info(pat, ScaledFitSpec(spec.dim, spec.alpha, math.exp(zeta + h)))
            dn = loglik_score_info(pat, ScaledFitSpec(spec.dim, spec.alpha, math.exp(zeta - h)))
            assert abs((up.loglik - dn.loglik) / (2 * h) - mid.score) <= 1e-6 * (
                1 + abs(mid.score)
            )
            assert abs(-(up.score - dn.score) / (2 * h) - mid.information) <= 1e-6 * (
                1 + mid.information
            )


def test_criterion_10_harmonics_suites():
    with criterion(10, "addition formula, orthonormality, magnitude bound (1e5 evals)"):
        rng = np.random.default_rng(555)
        # addition formula, l <= 20, 100 pairs
        for _ in range(100):
            ell = int(rng.integers(0, 21))
            p, q = uniform_points(2, 2, rng)
            ks = np.array(index_set(ell, 2))
            level = ProjectionBasis(2, np.full(len(ks), ell), ks)
            vals = level.eval_matrix(np.array([p.angles, q.angles]))
            total = np.sum(vals[0] * np.conj(vals[1]))
            s = math.acos(np.clip(np.dot(p.vector, q.vector), -1, 1))
            target = (2 * ell + 1) / (4 * math.pi) * eval_legendre(ell, math.cos(s))
            assert abs(total - target) <= 1e-10
        # orthonormality via product quadrature (l, l' <= 10, both d)
        from scipy.special import roots_legendre

        nodes_x, w_x = roots_legendre(64)
        n_phi = 64
        phi = 2 * math.pi * np.arange(n_phi) / n_phi
        table = norm_plm_table(10, nodes_x)
        funcs = []
        for ell in range(11):
            for k in index_set(ell, 2):
                base = table[ell, abs(k)]
                if k < 0 and k % 2 != 0:
                    base = -base
                funcs.append(np.outer(base, np.exp(1j * k * phi)).ravel())
        weights = np.outer(w_x, np.full(n_phi, 2 * math.pi / n_phi)).ravel()
        mat = np.array(funcs)
        gram = (mat * weights) @ mat.conj().T
        assert float(np.max(np.abs(gram - np.eye(len(funcs))))) <= 1e-8
        theta = 2 * math.pi * np.arange(256) / 256
        funcs1 = [
            np.exp(1j * k * ell * theta) / math.sqrt(2 * math.pi)
            for ell in range(11)
            for k in index_set(ell, 1)
        ]
        mat1 = np.array(funcs1)
        gram1 = (mat1 * (2 * math.pi / 256)) @ mat1.conj().T
        assert float(np.max(np.abs(gram1 - np.eye(len(funcs1))))) <= 1e-8
        # magnitude bound across 1e5 random evaluations, l <= 20
        total_evals = 0
        while total_evals < 100_000:
            block = 10_000
            z = rng.uniform(-1.0, 1.0, block)
            tab = norm_plm_table(20, z)
            ells = rng.integers(0, 21, block)
            ks = np.array([rng.integers(-e, e + 1) if e else 0 for e in ells])
            vals_sq = tab[ells, np.abs(ks), np.arange(block)] ** 2
            bounds = np.array([sh_bound_sq(2, int(e), int(k)) for e, k in zip(ells, ks)])
            assert np.all(vals_sq <= bounds * (1 + 1e-12))
            total_evals += block


def test_criterion_11_figure_regime_smoke():
    with criterion(11, "multiquadric pcf curves in the eta_max = 400 figure regime"):
        start = time.monotonic()
        deltas = {}
        for tau in (1.0, 10.0):
            deltas[tau] = brentq(
                lambda d: 1.0 / multiquadric_beta0_s2(tau, d) - 400.0, 0.05, 0.999
            )
        curves = {}
        s_grid = np.linspace(0.0, math.pi / 8.0, 400)
        for tau in (1.0, 10.0):
            model = resolve(
                ModelSpec(
                    "multiquadric", {"tau": tau, "delta": deltas[tau]}, 2, "kernel",
                    rho=400.0 / surface_measure(2),
                )
            )
            curves[tau] = pcf(model, s_grid)
            assert abs(curves[tau][0]) <= 1e-10  # g0(0) = 0
            assert np.all(np.diff(curves[tau]) >= -1e-10)  # monotone nondecreasing
        # Figure-2 qualitative ordering: the tau=10 model is the more
        # repulsive one, so its pcf rises later and sits strictly below
        # the tau=1 curve at short range (its curve is to the right)
        mask = (s_grid > 0.0) & (s_grid <= 0.1)
        assert np.all(curves[10.0][mask] < curves[1.0][mask])
        assert time.monotonic() - start < 60.0

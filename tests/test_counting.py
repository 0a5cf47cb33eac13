"""Closed-form counting statistics against independent numeric oracles.

Oracles: trapezoid/adaptive quadrature for normalizations and moments,
FFT convolution for the reference-subtracted law, direct summation for
total-variation distances, and adaptive quadrature of the Bayes error (plus
an independently derived closed form) for the discrimination error.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.signal import fftconvolve
from scipy.special import gammaln

from macrocat import counting, output
from macrocat.counting import CountModelParams
import oracles


class TestAmplitudes:
    def test_xi0_vacuum_overlap(self):
        assert oracles.xi0(0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-14)

    def test_xi1_zero_on_mean(self):
        assert oracles.xi1(4, 2.0) == 0.0

    def test_xi0_normalization(self):
        n = np.arange(64)
        assert oracles.xi0(n, 2.0) @ oracles.xi0(n, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_large_n_no_overflow(self):
        val = oracles.xi0(int(1.1e8), math.sqrt(1.1e8))
        assert np.isfinite(val) and val > 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            oracles.xi0(-1, 1.0)


class TestJointProb:
    def test_cross_term_vanishes_at_quarter_phase(self):
        p = CountModelParams(50.0, 0.6, math.pi / 2.0)
        for u, v in [(10.0, 30.0), (-25.0, 60.0), (5.0, -80.0)]:
            assert oracles.joint_prob(u, v, p) == pytest.approx(
                oracles.joint_prob(v, u, p), rel=1e-14
            )
            assert oracles.joint_prob(u, v, p) == pytest.approx(
                oracles.joint_prob(-u, v, p), rel=1e-14
            )

    def test_eta_zero_is_gaussian_product(self):
        p = CountModelParams(40.0, 0.0, 0.0)
        a2 = p.alpha**2

        def gaussian(x):
            return math.exp(-x * x / (2 * a2)) / math.sqrt(2 * math.pi * a2)

        for u, v in [(0.0, 0.0), (30.0, -55.0), (100.0, 20.0)]:
            assert oracles.joint_prob(u, v, p) == pytest.approx(
                gaussian(u) * gaussian(v), rel=1e-12
            )

    @pytest.mark.parametrize("eta,phi", [(0.49, 0.0), (0.8, math.pi / 2.0)])
    def test_normalization(self, eta, phi):
        p = CountModelParams(30.0, eta, phi)
        span = 8 * p.alpha
        grid = np.linspace(-span, span, 1201)
        dens = oracles.joint_prob(grid[:, None], grid[None, :], p)
        total = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_small_alpha_rejected(self):
        p = CountModelParams(5.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="Gaussian"):
            oracles.joint_prob(0.0, 0.0, p)

    def test_swap_symmetry(self):
        p = CountModelParams(25.0, 0.7, 0.0)
        assert oracles.joint_prob(12.0, -31.0, p) == oracles.joint_prob(-31.0, 12.0, p)


class TestJointProbRef:
    def test_matches_numeric_convolution(self):
        # grid convolution of joint_prob with the per-arm reference Gaussian
        alpha, eta, phi = 200.0, 0.49, 0.0
        p = CountModelParams(alpha, eta, phi)
        a2 = alpha**2
        h = alpha / 50.0
        data = np.arange(-14 * alpha, 14 * alpha + h / 2, h)
        kern_x = np.arange(-8 * alpha, 8 * alpha + h / 2, h)
        dens = oracles.joint_prob(data[:, None], data[None, :], p)
        kern = np.exp(-(kern_x**2) / (2 * a2)) / math.sqrt(2 * math.pi * a2)
        conv = fftconvolve(dens, kern[:, None] * h, mode="same")
        conv = fftconvolve(conv, kern[None, :] * h, mode="same")
        mask = np.abs(data) <= 6 * alpha
        inner = data[mask]
        expected = oracles.joint_prob_ref(inner[:, None], inner[None, :], p)
        rel = np.abs(conv[np.ix_(mask, mask)] - expected) / expected
        assert rel.max() < 1e-4

    def test_eta_zero_doubles_shot_noise(self):
        p = CountModelParams(40.0, 0.0, 0.0)
        s2 = 2.0 * p.alpha**2

        def gaussian(x):
            return math.exp(-x * x / (2 * s2)) / math.sqrt(2 * math.pi * s2)

        for u, v in [(0.0, 0.0), (45.0, -70.0)]:
            assert oracles.joint_prob_ref(u, v, p) == pytest.approx(
                gaussian(u) * gaussian(v), rel=1e-12
            )

    @pytest.mark.parametrize("eta,phi", [(0.49, 0.0), (0.3, math.pi / 2.0)])
    def test_normalization(self, eta, phi):
        p = CountModelParams(25.0, eta, phi)
        span = 8 * math.sqrt(2.0) * p.alpha
        grid = np.linspace(-span, span, 1201)
        dens = oracles.joint_prob_ref(grid[:, None], grid[None, :], p)
        total = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_global_sign_flip_symmetry(self, phi):
        p = CountModelParams(30.0, 0.6, phi)
        for u, v in [(14.0, 33.0), (-9.0, 61.0)]:
            assert oracles.joint_prob_ref(u, v, p) == oracles.joint_prob_ref(-u, -v, p)

    def test_marginal_consistency(self):
        # integrate the joint law over Bob against an independent route:
        # Alice's pre-reference marginal (numeric nB integration of
        # joint_prob) convolved with the reference Gaussian
        alpha, eta = 100.0, 0.49
        p = CountModelParams(alpha, eta, 0.0)
        a2 = alpha**2
        h = alpha / 50.0
        grid = np.arange(-14 * alpha, 14 * alpha + h / 2, h)
        sig = np.array(
            [quad(lambda v: oracles.joint_prob(u, v, p), -9 * alpha, 9 * alpha,
                  epsabs=0, epsrel=1e-10, limit=200)[0] for u in grid]
        )
        kern_x = np.arange(-8 * alpha, 8 * alpha + h / 2, h)
        kern = np.exp(-(kern_x**2) / (2 * a2)) / math.sqrt(2 * math.pi * a2)
        conv = fftconvolve(sig, kern * h, mode="same")
        mask = np.abs(grid) <= 5 * alpha
        direct = oracles.alice_marginal_ref(grid[mask], p)
        assert np.abs(conv[mask] - direct).max() < 1e-4 * direct.max()

    def test_marginal_cdf_consistent_with_density(self):
        p = CountModelParams(50.0, 0.7, 0.0)
        xs = np.linspace(-300.0, 300.0, 7)
        for x in xs:
            numeric = quad(
                lambda u: oracles.alice_marginal_ref(u, p),
                -10 * math.sqrt(2) * p.alpha, x, epsabs=0, epsrel=1e-10, limit=300,
            )[0]
            assert oracles.alice_marginal_ref_cdf(x, p) == pytest.approx(numeric, abs=1e-9)


def _conditional_moment_oracle(n_a, p, power):
    # odd moments vanish at n_a = 0, so keep a tiny absolute floor for quad
    span = 10.0 * math.sqrt(2.0) * p.alpha
    norm = quad(lambda v: oracles.joint_prob_ref(n_a, v, p), -span, span,
                epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    raw = quad(lambda v: v**power * oracles.joint_prob_ref(n_a, v, p), -span, span,
               epsabs=1e-13, epsrel=1e-12, limit=400)[0]
    return raw / norm


class TestConditionalMoments:
    def test_mean_zero_at_origin(self):
        for eta, phi in [(0.3, 0.0), (0.9, 1.0)]:
            assert counting.conditional_mean(0.0, CountModelParams(1e4, eta, phi)) == 0.0

    def test_mean_flat_at_quarter_phase(self):
        # cos(pi/2) carries float residue ~6e-17; the mean must be 0 to
        # that resolution across the whole range
        p = CountModelParams(1e4, 0.49, math.pi / 2.0)
        n_a = np.linspace(-5e4, 5e4, 11)
        assert np.abs(counting.conditional_mean(n_a, p)).max() < 1e-9

    def test_mean_matches_moment_integral(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        n_a = 1e4
        oracle = _conditional_moment_oracle(n_a, p, 1)
        assert counting.conditional_mean(n_a, p) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("n_a", [0.0, 5e3, 2.5e4])
    def test_variance_matches_moment_integral(self, n_a):
        p = CountModelParams(1e4, 0.49, 0.0)
        m1 = _conditional_moment_oracle(n_a, p, 1)
        m2 = _conditional_moment_oracle(n_a, p, 2)
        assert counting.conditional_variance(n_a, p) == pytest.approx(m2 - m1 * m1, rel=1e-6)

    def test_peak_ratio_closed_form(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        limit = counting.conditional_variance(1e6 * p.alpha, p)
        ratio = counting.conditional_variance(0.0, p) / limit
        assert ratio == pytest.approx((4.0 + 0.49) / (4.0 - 0.49), rel=1e-6)
        assert counting.variance_peak_ratio(0.49) == pytest.approx(1.28, abs=0.005)

    def test_variance_asymptote_two_shot_noise_units(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        tail = counting.conditional_variance(1e6 * p.alpha, p)
        assert tail == pytest.approx(2.0 * p.alpha**2, rel=1e-3)

    @pytest.mark.parametrize("eta,phi", [(0.49, 0.0), (0.8, 1.1), (1.0, math.pi / 2.0), (0.0, 0.3)])
    def test_matches_forms_in_alpha_squared(self, eta, phi):
        # the docstrings' forms in nA and alpha^2, at an amplitude where none
        # of their intermediates overflows
        p = CountModelParams(1.05e4, eta, phi)
        u = np.linspace(-6.0, 6.0, 41) * p.alpha
        a2 = p.alpha**2
        mean = 4.0 * a2 * u * eta * math.cos(phi) / (eta * (u * u - 2.0 * a2) + 8.0 * a2)
        den = 2.0 * a2 * (4.0 - eta) + u * u * eta
        var = 2.0 * a2 * (2.0 * a2 * (eta + 4.0) + u * u * eta) / den - (
            4.0 * a2 * u * eta * math.cos(phi)
        ) ** 2 / (den * den)
        assert np.all(np.abs(counting.conditional_mean(u, p) - mean) <= 1e-15 * np.abs(mean))
        assert np.all(np.abs(counting.conditional_variance(u, p) - var) <= 1e-15 * var)

    @pytest.mark.parametrize("alpha", [1e60, 1e150, 5e153])
    def test_finite_and_scale_covariant_at_huge_amplitude(self, alpha):
        t = np.linspace(-6.0, 6.0, 41)
        small = CountModelParams(1e4, 0.49, 0.0)
        huge = CountModelParams(alpha, 0.49, 0.0)
        with np.errstate(all="raise"):
            mean = counting.conditional_mean(t * alpha, huge)
            var = counting.conditional_variance(t * alpha, huge)
        ref_mean = counting.conditional_mean(t * 1e4, small) / 1e4
        ref_var = counting.conditional_variance(t * 1e4, small) / 1e8
        assert np.allclose(mean / alpha, ref_mean, rtol=1e-14, atol=0.0)
        assert np.allclose(var / alpha / alpha, ref_var, rtol=1e-14, atol=0.0)

    def test_amplitude_with_overflowing_variance_rejected(self):
        # alpha^2 is finite but the variance peak 2 alpha^2 (4+eta)/(4-eta) is not
        with pytest.raises(ValueError, match="alpha"):
            CountModelParams(1.3e154, 0.49, 0.0)


def _error_closed_form(alpha, eta, delta):
    # independent derivation: Gaussian partial moments of the conditional
    # density; Bayes region is the sign of Bob's count
    s2 = 2.0 * alpha**2
    s = math.sqrt(s2)
    c = 4.0 * (2.0 - eta) * alpha**2
    num = eta * (s2 / 2.0 - 2.0 * delta * s / math.sqrt(2.0 * math.pi) + delta**2 / 2.0)
    num += c / 2.0
    return num / (eta * delta**2 + (4.0 - eta) * s2)


def _conditional_density_pair(params, delta_a):
    """Bob's conditional densities for Alice at +delta_a and -delta_a."""
    plus = CountModelParams(params.alpha, params.eta, 0.0)
    span = 12.0 * math.sqrt(2.0) * params.alpha
    norm_p = quad(
        lambda nb: oracles.joint_prob_ref(delta_a, nb, plus),
        -span, span, epsabs=0.0, epsrel=1e-12, limit=300,
    )[0]

    def p_plus(nb):
        return oracles.joint_prob_ref(delta_a, nb, plus) / norm_p

    def p_minus(nb):
        return oracles.joint_prob_ref(-delta_a, nb, plus) / norm_p

    return p_plus, p_minus, span


def _bayes_error_quad_oracle(params, delta_a):
    """Integral of min(p+, p-)/2 over Bob's count."""
    p_plus, p_minus, span = _conditional_density_pair(params, delta_a)
    err, _ = quad(
        lambda nb: min(p_plus(nb), p_minus(nb)),
        -span, span, points=[0.0], epsabs=1e-12, epsrel=1e-10, limit=400,
    )
    return 0.5 * err


def _threshold_error_oracle(params, delta_a):
    """Error of the best single cut t on Bob's count (decide "+" when nb > t)."""
    p_plus, p_minus, span = _conditional_density_pair(params, delta_a)

    def err_at(t):
        below_plus = quad(p_plus, -span, t, epsabs=1e-12, epsrel=1e-10, limit=400)[0]
        above_minus = quad(p_minus, t, span, epsabs=1e-12, epsrel=1e-10, limit=400)[0]
        return 0.5 * (below_plus + above_minus)

    return float(minimize_scalar(err_at, bracket=(-params.alpha, 0.0, params.alpha)).fun)


class TestDistinguishability:
    def test_eta_zero_is_coin_flip(self):
        p = CountModelParams(1e4, 0.0, 0.0)
        assert counting.distinguishability_error(p, 3.1e4) == 0.5

    def test_reported_operating_point(self):
        # alpha 1.05e4, eta 0.49, Alice offset 3.1e4 -> about 36% error
        p = CountModelParams(1.05e4, 0.49, 0.0)
        err = counting.distinguishability_error(p, 3.1e4)
        assert err == pytest.approx(0.36, abs=0.03)
        assert err == pytest.approx(_error_closed_form(1.05e4, 0.49, 3.1e4), abs=1e-8)

    def test_threshold_rule_matches_bayes(self):
        # the likelihood ratio crosses 1 once, so one cut is optimal
        p = CountModelParams(1.05e4, 0.49, 0.0)
        lr = counting.distinguishability_error(p, 3.1e4)
        th = _threshold_error_oracle(p, 3.1e4)
        assert th == pytest.approx(lr, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha,eta,delta_per_alpha",
        [
            (1.05e4, 0.49, 3.1e4 / 1.05e4),  # default operating point
            (1.05e4, 1.0, 3.1e4 / 1.05e4),
            (1.05e4, 1e-9, 3.1e4 / 1.05e4),
            (1e4, 0.49, 0.01),
            (1e4, 0.49, 8.0),
            (10.0, 0.7, 2.0),
        ],
    )
    def test_closed_form_matches_quad_oracle(self, alpha, eta, delta_per_alpha):
        p = CountModelParams(alpha, eta, 0.0)
        delta_a = delta_per_alpha * alpha
        oracle = _bayes_error_quad_oracle(p, delta_a)
        assert abs(counting.distinguishability_error(p, delta_a) - oracle) <= 1e-12

    @pytest.mark.parametrize("alpha", [1e60, 1e150])
    def test_depends_on_offset_over_alpha_alone(self, alpha):
        ref = counting.distinguishability_error(CountModelParams(1.05e4, 0.49, 0.0), 3.1e4)
        err = counting.distinguishability_error(
            CountModelParams(alpha, 0.49, 0.0), 3.1e4 / 1.05e4 * alpha
        )
        assert err == pytest.approx(ref, rel=1e-15)

    def test_monotone_in_efficiency(self):
        alpha = 1e4
        errs = [
            counting.distinguishability_error(CountModelParams(alpha, eta, 0.0), 2.95 * alpha)
            for eta in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_rejects_bad_offset(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        with pytest.raises(ValueError):
            counting.distinguishability_error(p, -1.0)


class TestGaussianApproximation:
    @pytest.mark.parametrize("lam", [225.0, 625.0])
    def test_poissonian_total_variation(self, lam):
        n = np.arange(int(6 * lam))
        pois = np.exp(-lam + n * np.log(lam) - gammaln(n + 1))
        gauss = np.exp(-((n - lam) ** 2) / (2 * lam)) / math.sqrt(2 * math.pi * lam)
        assert 0.5 * np.abs(pois - gauss).sum() < 0.01

    @pytest.mark.parametrize("eta", [0.3, 0.7])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2.0])
    def test_exact_fock_law_close_to_gaussian_law(self, eta, phi):
        # discrete law from the amplitude decomposition vs Gaussian limit
        alpha = 25.0
        a2 = alpha**2
        n = np.arange(int(4 * a2), dtype=float)
        x0 = oracles.xi0(n, alpha)
        x1 = oracles.xi1(n, alpha)
        a0, a1, cr = x0 * x0, x1 * x1, x0 * x1
        exact = 0.5 * eta * (
            np.outer(a0, a1) + np.outer(a1, a0)
            + 2.0 * math.cos(phi) * np.outer(cr, cr)
        ) + (1.0 - eta) * np.outer(a0, a0)
        p = CountModelParams(alpha, eta, phi)
        dn = n - a2
        gauss = oracles.joint_prob(dn[:, None], dn[None, :], p)
        assert 0.5 * np.abs(exact - gauss).sum() < 0.02


class TestCurveEmission:
    def test_csv_round_trip(self, tmp_path):
        p = CountModelParams(1e4, 0.49, 0.0)
        centers = np.linspace(-6e4, 6e4, 41)
        path = tmp_path / "curves.csv"
        output.write_csv(
            path,
            {
                "nA": centers,
                "mean_nB": counting.conditional_mean(centers, p),
                "var_nB": counting.conditional_variance(centers, p),
            },
        )
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert list(data.dtype.names) == ["nA", "mean_nB", "var_nB"]
        assert np.array_equal(data["nA"], centers)
        assert np.array_equal(data["mean_nB"], counting.conditional_mean(centers, p))
        assert np.array_equal(data["var_nB"], counting.conditional_variance(centers, p))

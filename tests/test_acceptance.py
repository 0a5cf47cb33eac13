"""Acceptance suite: the headline numbers the package must reproduce.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion; ``pytest -v`` shows the same via test names.  Criteria with
runtime budgets time their own computation.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import fftconvolve

from macrocat import cli, counting, fock, pipeline, sampling, tomography
from macrocat.counting import CountModelParams
from macrocat.pipeline import ExperimentConfig
import oracles


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def counts_run_alpha_1e4():
    cfg = ExperimentConfig(alpha=1e4, seed=101)
    t0 = time.time()
    documents = pipeline.run_counts_scenario(cfg)
    return documents, time.time() - t0


_DEFAULT_RUN = ExperimentConfig(seed=103)  # alpha 1.05e4, eta 0.49


@pytest.fixture(scope="module")
def counts_run_default():
    return pipeline.run_counts_scenario(_DEFAULT_RUN)


class TestCriterion1VarianceRatio:
    def test_closed_form_is_exact(self):
        ratio = counting.variance_peak_ratio(0.49)
        p = CountModelParams(1e4, 0.49, 0.0)
        peak = counting.conditional_variance(0.0, p)
        tail = counting.conditional_variance(1e8, p)
        passed = (
            ratio == (4.0 + 0.49) / (4.0 - 0.49)
            and abs(peak / tail - ratio) < 1e-6
            and round(ratio, 2) == 1.28
        )
        report("1a closed-form variance ratio", passed, f"ratio={ratio:.6f}")

    def test_monte_carlo_reproduces_ratio_in_budget(self, counts_run_alpha_1e4):
        documents, elapsed = counts_run_alpha_1e4
        ratio = documents["summary.json"]["variance_ratio"]
        passed = abs(ratio - 1.28) <= 0.02 and elapsed < 120.0
        report(
            "1b Monte Carlo variance ratio",
            passed,
            f"ratio={ratio:.4f} (5e6 shots, {elapsed:.0f}s)",
        )


class TestCriterion2DisplacedStatistics:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_moments(self, alpha):
        dim = 64
        D = fock.displaced_levels(alpha, dim)
        m0, v0 = oracles.photon_moments(oracles.pure_state(D[:, 0], dim, 1))
        m1, v1 = oracles.photon_moments(oracles.pure_state(D[:, 1], dim, 1))
        a2 = alpha * alpha
        passed = (
            abs(m0 - a2) < 1e-6
            and abs(v0 - a2) < 1e-6
            and abs(m1 - (a2 + 1.0)) < 1e-6
            and abs(v1 - 3.0 * a2) < 1e-6
        )
        report(
            f"2 displaced statistics (alpha={alpha})",
            passed,
            f"vacuum ({m0:.6f},{v0:.6f}) photon ({m1:.6f},{v1:.6f})",
        )


def _weighted_slope(curve):
    use = curve["count"] >= 100
    x, y = curve["nA"][use], curve["mean_nB"][use]
    w = curve["count"][use] / curve["var_nB"][use]
    xbar = np.average(x, weights=w)
    denom = np.sum(w * (x - xbar) ** 2)
    return np.sum(w * (x - xbar) * y) / denom, 1.0 / math.sqrt(denom)


class TestCriterion3PhaseDependence:
    def test_quarter_phase_slope_flat(self, counts_run_default):
        slope, se = _weighted_slope(counts_run_default["curves_phi90.csv"])
        passed = abs(slope) < 3.0 * se
        report("3a quarter-phase flat response", passed, f"slope={slope:.2e} se={se:.2e}")

    def test_zero_phase_matches_analytic_mean(self, counts_run_default):
        curve = counts_run_default["curves_phi0.csv"]
        use = curve["count"] >= 100
        se = np.sqrt(curve["var_nB"][use] / curve["count"][use])
        chi2 = float(np.sum(((curve["mean_nB"][use] - curve["model_mean_nB"][use]) / se) ** 2))
        reduced = chi2 / use.sum()
        passed = reduced < 2.0
        report("3b zero-phase analytic overlay", passed, f"reduced chi2={reduced:.3f}")


class TestCriterion4Distinguishability:
    def test_analytic_and_empirical_error(self, counts_run_default):
        model = pipeline.analytic_documents(_DEFAULT_RUN)["summary.json"]
        analytic = model["discrimination_error"]
        empirical = counts_run_default["summary.json"]["discrimination_error"]
        passed = abs(analytic - 0.36) <= 0.03 and abs(empirical - analytic) <= 0.01
        report(
            "4 single-shot distinguishability",
            passed,
            f"analytic={analytic:.4f} empirical={empirical:.4f}",
        )


class TestCriterion5Tomography:
    def test_reconstruction_of_lossy_state(self):
        cfg = ExperimentConfig(seed=105)  # 2e5 quadrature records, eta 0.49
        t0 = time.time()
        result = pipeline.run_tomography_scenario(cfg)["result.json"]
        elapsed = time.time() - t0
        # the state is written row-major: re[0] is rho_00
        rho00 = result["rho"]["re"][0]
        monotone = bool(np.all(np.diff(result["loglik"]) >= -1e-9))
        passed = (
            abs(result["concurrence"] - 0.49) <= 0.05
            and abs(rho00 - 0.51) <= 0.02
            and monotone
            and elapsed < 300.0
        )
        report(
            "5a tomography pipeline",
            passed,
            f"C={result['concurrence']:.4f} rho00={rho00:.4f} "
            f"monotone={monotone} ({elapsed:.0f}s)",
        )

    def test_dephasing_surrogate_matches_reported_concurrence(self):
        # modeling demonstration: one dephasing parameter tuned so the
        # model coherence is 0.16, not a reproduction of the measured state
        sigma = math.sqrt(-2.0 * math.log(0.32 / 0.49))
        cfg = ExperimentConfig(seed=107, phase_noise_sigma=sigma)
        c = pipeline.run_tomography_scenario(cfg)["result.json"]["concurrence"]
        passed = abs(c - 0.32) <= 0.05
        report("5b dephasing surrogate", passed, f"C={c:.4f} (sigma={sigma:.4f})")


class TestCriterion6OracleEquivalences:
    def test_exact_vs_gaussian_sampler(self):
        alpha, eta = 25.0, 0.49
        n = 500_000
        exact = oracles.sample_counts_exact(alpha, eta, 0.0, n, seed=111)
        gauss = sampling.sample_counts(CountModelParams(alpha, eta, 0.0), n, seed=112)
        sig = counting.count_marginal_std(CountModelParams(alpha, eta, 0.0))
        edges = np.floor(np.linspace(-4 * sig, 4 * sig, 26)) + 0.5
        h_e = np.histogram2d(exact.dn_a, exact.dn_b, bins=[edges, edges])[0]
        h_g = np.histogram2d(gauss.dn_a, gauss.dn_b, bins=[edges, edges])[0]
        tv = 0.5 * np.abs(h_e / h_e.sum() - h_g / h_g.sum()).sum()
        report("6a exact vs Gaussian sampler", tv <= 0.03, f"TV={tv:.4f}")

    def test_reference_law_vs_convolution(self):
        alpha, eta = 200.0, 0.49
        p = CountModelParams(alpha, eta, 0.0)
        a2 = alpha**2
        h = alpha / 50.0
        grid = np.arange(-14 * alpha, 14 * alpha + h / 2, h)
        kern_x = np.arange(-8 * alpha, 8 * alpha + h / 2, h)
        dens = oracles.joint_prob(grid[:, None], grid[None, :], p)
        kern = np.exp(-(kern_x**2) / (2 * a2)) / math.sqrt(2 * math.pi * a2)
        conv = fftconvolve(dens, kern[:, None] * h, mode="same")
        conv = fftconvolve(conv, kern[None, :] * h, mode="same")
        mask = np.abs(grid) <= 6 * alpha
        inner = grid[mask]
        expected = oracles.joint_prob_ref(inner[:, None], inner[None, :], p)
        rel = (np.abs(conv[np.ix_(mask, mask)] - expected) / expected).max()
        report("6b reference law vs convolution", rel <= 1e-4, f"max rel={rel:.2e}")

    def test_kraus_loss_vs_closed_form(self):
        dim, eta = 4, 0.49
        psi = oracles.delocalized_photon(0.0, dim)
        rho = oracles.pure_state(psi, dim, 2)
        lossy = oracles.apply_loss(oracles.apply_loss(rho, eta, 0), eta, 1)
        closed = eta * np.outer(psi, psi.conj())
        closed[0, 0] += 1.0 - eta
        dev = np.abs(lossy.data - closed).max()
        report("6c Kraus loss vs closed form", dev <= 1e-10, f"max dev={dev:.2e}")

    def test_displacement_vs_matrix_exponential(self):
        alpha, dim = 1.3, 64
        n = np.arange(1, dim + 192)
        adag = np.diag(np.sqrt(n), -1).astype(complex)
        a = np.diag(np.sqrt(n), 1).astype(complex)
        oracle = expm(alpha * adag - alpha * a)[:dim, :2]
        dev = np.abs(fock.displaced_levels(alpha, dim) - oracle).max()
        report("6d displacement vs exponential", dev <= 1e-8, f"max dev={dev:.2e}")


class TestCriterion7UndisplacementLocality:
    def test_concurrence_never_increases(self):
        results = [
            pipeline.displacement_roundtrip_check(2.0, eta, dim=32, phi=0.0)
            for eta in (1.0, 0.99, 0.95)
        ]
        c_values = [r.concurrence_roundtrip for r in results]
        initial = results[0].concurrence_initial
        monotone = all(a >= b - 1e-6 for a, b in zip(c_values, c_values[1:]))
        bounded = all(c <= initial + 1e-6 for c in c_values)
        report(
            "7 undisplacement locality",
            monotone and bounded,
            "C(eta)=" + ", ".join(f"{c:.6f}" for c in c_values),
        )


class TestCriterion8Determinism:
    def test_all_subcommands_byte_identical(self, tmp_path):
        experiment = {
            "alpha": 1.05e4, "phi": 0.0, "eta_total": 0.49,
            "eta_budget": {"modematch": 0.81, "optics": 0.77,
                           "detector": 0.86, "undisplacement": 0.95},
            "n_count_shots": 30_000, "n_quad_shots": 6_000,
            "phase_noise_sigma": 0.0, "seed": 121,
        }
        state_spec = {"alpha": 1.0, "c0": 1.0, "c1": 1.0, "dim": 12,
                      "grid": {"min": -5.0, "max": 5.0, "step": 0.25}}
        rt_spec = {"alpha_small": 1.0, "mismatch_etas": [1.0, 0.95], "dim": 16}
        configs = {
            "analytic": experiment,
            "simulate-counts": experiment,
            "tomography": experiment,
            "wigner": state_spec,
            "roundtrip-check": rt_spec,
        }
        stable = []
        for command, doc in configs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(doc))
            dirs = [tmp_path / f"{command}-{k}" for k in "ab"]
            for d in dirs:
                code = cli.main(
                    [command, "--config", str(cfg), "--out", str(d), "--quiet"]
                )
                assert code == 0, f"{command} exited {code}"
            files = [
                {p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in dirs
            ]
            stable.append(files[0] == files[1])
        report(
            "8 CLI determinism",
            all(stable),
            ", ".join(f"{c}={'ok' if s else 'DIFFERS'}"
                      for c, s in zip(configs, stable)),
        )

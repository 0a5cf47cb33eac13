"""Scenario-level tests: configuration handling, counting runs with
analytic overlays, the undisplacement locality check, and output files.
"""

import json
import math

import numpy as np
import pytest

from macrocat import counting, fock, pipeline, tomography
from macrocat.errors import ConfigError, TruncationWarning
from macrocat.pipeline import ExperimentConfig
import oracles


class TestExperimentConfig:
    def test_defaults_are_consistent(self):
        cfg = ExperimentConfig()
        assert cfg.alpha == 1.05e4
        assert cfg.eta_total == 0.49
        assert cfg.n_count_shots == 5_000_000
        assert cfg.n_quad_shots == 200_000

    def test_json_round_trip_identity(self):
        cfg = ExperimentConfig(alpha=2e4, phi=math.pi / 2, seed=99)
        doc = json.loads(json.dumps(cfg.to_json_dict()))
        assert ExperimentConfig.from_json_dict(doc) == cfg

    def test_exact_field_names(self):
        doc = ExperimentConfig().to_json_dict()
        assert set(doc) == {
            "alpha", "phi", "eta_total", "eta_budget",
            "n_count_shots", "n_quad_shots", "phase_noise_sigma", "seed",
        }

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_json_dict({"alpha": 1e4, "bogus": 1})

    def test_eta_budget_product_checked(self):
        # default budget multiplies to ~0.51; pairing it with a far-off
        # total is inconsistent
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig(eta_total=0.3)

    def test_empty_budget_skips_product_check(self):
        cfg = ExperimentConfig(eta_total=0.3, eta_budget={})
        assert cfg.eta_total == 0.3

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha": -1.0},
            {"phi": 7.0},
            {"eta_total": 0.0},
            {"n_count_shots": 0},
            {"phase_noise_sigma": -0.1},
            {"eta_budget": {"x": 1.5}},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)

    def test_seed_replacement(self):
        cfg = ExperimentConfig(seed=1)
        assert cfg.replace_seed(7).seed == 7

    def test_default_delta_a_matches_operating_point(self):
        assert pipeline.default_delta_a(1.05e4) == pytest.approx(3.1e4, rel=1e-12)

    def test_model_concurrence_with_dephasing(self):
        cfg = ExperimentConfig(phase_noise_sigma=0.5)
        assert cfg.model_concurrence() == pytest.approx(0.49 * math.exp(-0.125), rel=1e-12)


class TestMicroscopicModel:
    def test_plain_loss_model(self):
        rho = pipeline.model_microscopic_state(0.49, 0.0, dim=4)
        rho.validate()
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-8
        assert tomography.concurrence(rho) == pytest.approx(0.49, abs=1e-12)

    def test_dephasing_damps_concurrence(self):
        sigma = math.sqrt(-2.0 * math.log(0.32 / 0.49))
        rho = pipeline.model_microscopic_state(0.49, 0.0, dim=4, dephasing_sigma=sigma)
        rho.validate()
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-8
        assert tomography.concurrence(rho) == pytest.approx(0.32, abs=1e-12)


@pytest.fixture(scope="module")
def small_run():
    cfg = ExperimentConfig(seed=17, n_count_shots=400_000, alpha=1e4)
    return cfg, pipeline.run_counts_scenario(cfg)


class TestCountsScenario:
    def test_bin_counts_cover_all_shots(self, small_run):
        cfg, result = small_run
        for curve in result.curves.values():
            assert curve.counts.sum() == cfg.n_count_shots

    def test_quarter_phase_mean_slope_flat(self, small_run):
        cfg, result = small_run
        curve = result.curves[math.pi / 2.0]
        use = curve.counts >= 100
        x = curve.centers[use]
        y = curve.mean[use]
        w = curve.counts[use] / curve.variance[use]
        xbar = np.average(x, weights=w)
        slope = np.sum(w * (x - xbar) * y) / np.sum(w * (x - xbar) ** 2)
        slope_se = 1.0 / math.sqrt(np.sum(w * (x - xbar) ** 2))
        assert abs(slope) < 3.0 * slope_se

    def test_zero_phase_matches_analytic_curve(self, small_run):
        cfg, result = small_run
        curve = result.curves[0.0]
        use = curve.counts >= 100
        se = np.sqrt(curve.variance[use] / curve.counts[use])
        chi2 = float(np.sum(((curve.mean[use] - curve.model_mean[use]) / se) ** 2))
        assert chi2 / use.sum() < 2.0

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2.0])
    def test_variance_curves_match_analytic(self, small_run, phi):
        cfg, result = small_run
        curve = result.curves[phi]
        use = curve.counts >= 100
        # sample-variance standard error, Gaussian-dominated statistics
        se = curve.variance[use] * np.sqrt(2.0 / curve.counts[use])
        chi2 = float(np.sum(((curve.variance[use] - curve.model_variance[use]) / se) ** 2))
        assert chi2 / use.sum() < 2.0

    def test_variance_ratio_and_error_tracking(self, small_run):
        cfg, result = small_run
        assert result.variance_ratio == pytest.approx(result.model_variance_ratio, abs=0.05)
        assert result.discrimination_error == pytest.approx(
            result.model_discrimination_error, abs=0.02
        )

    def test_histograms_are_windowed_subsets(self, small_run):
        cfg, result = small_run
        assert result.histogram_above.sum() > 0
        assert result.histogram_below.sum() > 0
        assert result.histogram_above.sum() < cfg.n_count_shots // 10

    def test_determinism(self):
        cfg = ExperimentConfig(seed=23, n_count_shots=50_000)
        a = pipeline.run_counts_scenario(cfg)
        b = pipeline.run_counts_scenario(cfg)
        # at this shot count outer bins are empty (NaN mean), hence equal_nan
        assert np.array_equal(a.curves[0.0].mean, b.curves[0.0].mean, equal_nan=True)
        assert a.discrimination_error == b.discrimination_error
        assert a.variance_ratio == b.variance_ratio

    def test_output_files(self, small_run, tmp_path):
        cfg, result = small_run
        names = pipeline.write_count_outputs(tmp_path, result, cfg)
        assert sorted(names) == [
            "curves_phi0.csv", "curves_phi90.csv", "histograms.csv", "summary.json",
        ]
        for name in names:
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"variance_ratio", "discrimination_error", "concurrence"}
        curves = np.genfromtxt(tmp_path / "curves_phi0.csv", delimiter=",", names=True)
        assert curves.shape[0] == 41
        assert curves["count"].sum() == cfg.n_count_shots


def _dense_roundtrip_oracle(alpha_small, mismatch_eta, dim, phi):
    """The round trip with dense ``D (x) D`` products and the loss channel
    applied to the undisplaced photon as the reference."""
    rho0 = fock.DensityMatrix.from_pure(fock.delocalized_photon_state(phi, dim), dim, 2)
    d_fwd = np.kron(*[fock.displacement_matrix(alpha_small, dim)] * 2)
    displaced = fock.DensityMatrix(dim, 2, d_fwd @ rho0.data @ d_fwd.conj().T)
    lossy = fock.apply_loss(fock.apply_loss(displaced, mismatch_eta, 0), mismatch_eta, 1)
    d_rev = np.kron(*[fock.displacement_matrix(-math.sqrt(mismatch_eta) * alpha_small, dim)] * 2)
    roundtrip = fock.DensityMatrix(dim, 2, d_rev @ lossy.data @ d_rev.conj().T).normalize()
    reference = fock.apply_loss(fock.apply_loss(rho0, mismatch_eta, 0), mismatch_eta, 1)
    return pipeline.RoundtripResult(
        mismatch_eta=mismatch_eta,
        # the round-trip state as sigma has full diagonal support, so this
        # decomposes the whole dense state
        fidelity_to_loss_model=tomography.fidelity(reference, roundtrip),
        concurrence_roundtrip=tomography.concurrence(roundtrip),
        concurrence_initial=tomography.concurrence(rho0),
    )


def _einsum_roundtrip_oracle(alpha_small, mismatch_eta, dim, phi):
    """The round trip on the dense two-mode density matrix: loss on each mode
    with :func:`macrocat.fock.apply_loss`, then ``D (x) D`` undisplacement as
    one five-operand ``einsum``.  Returns the unnormalized block on
    ``|00>, |01>, |10>, |11>``, the trace, and the result fields read from
    the normalized dense state."""
    displaced = oracles.build_macro_state(alpha_small, phi, dim)
    lossy = fock.apply_loss(fock.apply_loss(displaced, mismatch_eta, 0), mismatch_eta, 1)
    u = fock.displacement_matrix(-math.sqrt(mismatch_eta) * alpha_small, dim)
    # (mA, kB, nA, lB): D on both ket axes, D^dagger on both bra axes
    t = np.einsum(
        "am,bk,mknl,cn,dl->abcd", u, u, lossy.data.reshape((dim,) * 4), u.conj(), u.conj(),
        optimize=True,
    )
    data = t.reshape(dim * dim, dim * dim)
    qubit = [0, 1, dim, dim + 1]
    roundtrip = fock.DensityMatrix(dim, 2, data).normalize()
    result = pipeline.RoundtripResult(
        mismatch_eta=mismatch_eta,
        fidelity_to_loss_model=tomography.fidelity(
            roundtrip, pipeline.model_microscopic_state(mismatch_eta, phi, dim)
        ),
        concurrence_roundtrip=tomography.concurrence(roundtrip),
        concurrence_initial=tomography.concurrence(
            pipeline.model_microscopic_state(1.0, phi, dim)
        ),
    )
    return data[np.ix_(qubit, qubit)], float(np.trace(data).real), result


_EINSUM_CASES = [
    (alpha, dim, eta, phi)
    for alpha, dim in ((2.0, 32), (1.4, 16), (1.0, 8))
    for eta in (1.0, 0.99, 0.95, 0.5)
    for phi in (0.0, 1.7)
]


class TestRoundtripCheck:
    @pytest.mark.parametrize("phi", [0.0, 1.3])
    @pytest.mark.parametrize("eta", [1.0, 0.99, 0.95])
    def test_matches_dense_oracle(self, eta, phi):
        # at alpha 1 the truncated round trip leaks ~3e-12 outside the
        # one-photon block; the oracle's dense square root cannot resolve
        # leaks near 1e-8 (it returns 1.0 where the exact value is 1 - 2.5e-8
        # at alpha 1.4)
        res = pipeline.displacement_roundtrip_check(1.0, eta, dim=16, phi=phi)
        ref = _dense_roundtrip_oracle(1.0, eta, 16, phi)
        for name in ("mismatch_eta", "fidelity_to_loss_model", "concurrence_roundtrip",
                     "concurrence_initial"):
            assert getattr(res, name) == pytest.approx(getattr(ref, name), abs=1e-8), name

    # dim 8, alpha 1 is truncation-dominated: 3.7e-4 of the state leaks out
    @pytest.mark.filterwarnings("ignore::macrocat.errors.TruncationWarning")
    @pytest.mark.parametrize("alpha,dim,eta,phi", _EINSUM_CASES)
    def test_matches_einsum_oracle(self, alpha, dim, eta, phi):
        block, trace = pipeline._roundtrip_block(alpha, eta, dim, phi)
        ref_block, ref_trace, ref = _einsum_roundtrip_oracle(alpha, eta, dim, phi)
        assert np.abs(block - ref_block).max() <= 1e-14
        assert abs(trace - ref_trace) <= 1e-14
        res = pipeline.displacement_roundtrip_check(alpha, eta, dim=dim, phi=phi)
        for name in ("mismatch_eta", "fidelity_to_loss_model", "concurrence_initial"):
            assert abs(getattr(res, name) - getattr(ref, name)) <= 1e-12, name
        # the concurrence subtracts 2 sqrt(p00 p11); the dense path leaves the
        # |11> population p11 at its rounding level (|p11| up to ~2e-17, often
        # negative and clipped), so its concurrence is only good to
        # 2 sqrt(p00 * 1e-16); the Kraus path sums squares, so its p11 stays
        # nonnegative and accurate (~1e-31 at dim 32, alpha 2, eta >= 0.95)
        p00 = max(ref_block[0, 0].real / ref_trace, 0.0)
        tol = 1e-12 + 2.0 * math.sqrt(p00 * 1e-16)
        assert abs(res.concurrence_roundtrip - ref.concurrence_roundtrip) <= tol

    def test_truncation_dominated_round_trip_warns(self):
        with pytest.warns(TruncationWarning):
            pipeline.displacement_roundtrip_check(1.0, 0.95, dim=8)

    def test_never_applies_the_dense_loss_channel(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("apply_loss called on the round-trip path")

        monkeypatch.setattr(fock, "apply_loss", dense)
        res = pipeline.displacement_roundtrip_check(2.0, 0.95)
        assert res.concurrence_roundtrip == pytest.approx(0.95, abs=1e-6)

    def test_perfect_undisplacement(self):
        res = pipeline.displacement_roundtrip_check(2.0, 1.0)
        assert res.fidelity_to_loss_model == pytest.approx(1.0, abs=1e-6)
        assert res.concurrence_roundtrip == pytest.approx(1.0, abs=1e-6)

    def test_small_mismatch(self):
        res = pipeline.displacement_roundtrip_check(2.0, 0.95)
        assert res.fidelity_to_loss_model > 0.99
        assert res.concurrence_roundtrip <= res.concurrence_initial + 1e-6
        assert res.concurrence_roundtrip == pytest.approx(0.95, abs=1e-6)

    def test_concurrence_monotone_in_mismatch(self):
        values = [
            pipeline.displacement_roundtrip_check(2.0, eta).concurrence_roundtrip
            for eta in (1.0, 0.99, 0.95)
        ]
        assert values[0] >= values[1] - 1e-6 >= values[2] - 2e-6
        assert all(v <= 1.0 + 1e-6 for v in values)

    def test_truncation_budget_enforced(self):
        with pytest.raises(ValueError, match="truncation"):
            pipeline.displacement_roundtrip_check(3.0, 1.0, dim=32)


class TestTomographyScenarioSmall:
    def test_reconstructed_concurrence_monotone_in_loss(self):
        values = []
        for eta in (1.0, 0.8, 0.6, 0.49):
            cfg = ExperimentConfig(
                seed=37, eta_total=eta, eta_budget={}, n_quad_shots=30_000
            )
            scenario = pipeline.run_tomography_scenario(cfg)
            values.append(scenario.result.concurrence)
        # statistical slack ~2 standard errors at this sample size
        assert all(a >= b - 0.03 for a, b in zip(values, values[1:]))

    def test_small_run_consistent(self):
        cfg = ExperimentConfig(seed=29, n_quad_shots=20_000)
        scenario = pipeline.run_tomography_scenario(cfg)
        assert scenario.result.concurrence == pytest.approx(0.49, abs=0.06)
        assert scenario.fidelity_to_model > 0.99
        assert np.all(np.diff(scenario.result.loglik) >= -1e-9)

    def test_identical_reconstruction_inputs(self):
        cfg = ExperimentConfig(seed=31, n_quad_shots=5_000)
        a = pipeline.run_tomography_scenario(cfg)
        b = pipeline.run_tomography_scenario(cfg)
        assert np.array_equal(a.records.x_a, b.records.x_a)
        assert np.array_equal(a.records.theta_a, b.records.theta_a)

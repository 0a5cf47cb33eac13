"""Scenario-level tests: configuration handling, counting runs with
analytic overlays, the undisplacement locality check, and output files.
"""

import functools
import json
import math
import os
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from macrocat import counting, fock, output, pipeline, sampling, tomography
from macrocat.counting import CountModelParams
from macrocat.errors import ConfigError, NumericError
from macrocat.pipeline import ExperimentConfig
import oracles


def _model_summary(cfg):
    """The model's ``summary.json``, as ``analytic`` writes it."""
    return pipeline.analytic_documents(cfg)["summary.json"]


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
            {"alpha": 5.0},
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

    def test_default_delta_a_matches_operating_point(self):
        assert pipeline.default_delta_a(1.05e4) == pytest.approx(3.1e4, rel=1e-12)

    def test_model_concurrence_with_dephasing(self):
        cfg = ExperimentConfig(phase_noise_sigma=0.5)
        concurrence = _model_summary(cfg)["concurrence"]
        assert concurrence == pytest.approx(0.49 * math.exp(-0.125), rel=1e-12)



_MODEL = CountModelParams(alpha=1e4, eta=0.5)
_THREE_PHASES = [0.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: CountModelParams(alpha=1e4, eta=1.5),
        lambda: CountModelParams(alpha=1e4, eta=0.5, phi=7.0),
        lambda: counting.variance_peak_ratio(-0.1),
        lambda: counting.distinguishability_error(_MODEL, 0.0),
        lambda: fock.loss_kraus_coefficients(1.5, 4),
        lambda: sampling.shot_uniforms(1, 0, 0, 10, 6),
        lambda: sampling.sample_counts(_MODEL, 0, 1),
        lambda: sampling.sample_quadrature_schedule(
            pipeline.model_microscopic_state(0.5, 0.0), [], 10, 1
        ),
        lambda: tomography.mle_reconstruct(sampling.sample_quadrature_schedule(
            pipeline.model_microscopic_state(0.5, 0.0), _THREE_PHASES, 1000, 1
        )),
    ],
    ids=["eta", "phi", "peak-ratio-eta", "delta_a", "kraus-eta", "words-per-shot",
         "n_shots", "empty-schedule", "mle-phases"],
)
def test_kernel_domain_check_is_config_error(call):
    """A kernel argument outside its documented domain raises ConfigError
    (exit 1 at the CLI), also where no command reaches the check today."""
    with pytest.raises(ConfigError):
        call()


def _model_states():
    return [
        pipeline.model_microscopic_state(eta, phi, dephasing_sigma=sigma)
        for eta in (1e-300, 0.01, 0.49, 0.99, 1.0)
        for sigma in (0.0, 0.3, 1.0, 1e155)
        for phi in (0.0, 1.0, math.pi / 2, 3.0)
    ]


def _roundtrip_states():
    """The normalised blocks the round trip builds, wherever its leakage rule
    passes them."""
    states = []
    for alpha in (0.0, 2.0, -2.0, 1.0, 3.0):
        for dim in (2, 4, 16, 32, 64, 256, 1024):
            for eta in (1.0, 0.99, 0.95, 0.5, 0.01):
                for phi in (0.0, 1.3, math.pi):
                    block = pipeline._roundtrip_block(alpha, eta, dim, phi)
                    kept = float(np.trace(block).real)
                    if 1.0 - kept <= pipeline._LEAKAGE_TOL:
                        states.append(fock.DensityMatrix(block / kept))
    return states


def _state_of(result_json):
    """The state ``result.json`` records, rebuilt from its row-major parts."""
    rho = result_json["rho"]
    return fock.DensityMatrix((np.array(rho["re"]) + 1j * np.array(rho["im"])).reshape(4, 4))


def _mle_states():
    return [
        _state_of(pipeline.run_tomography_scenario(ExperimentConfig(seed=seed))["result.json"])
        for seed in (1, 7)
    ]


@pytest.mark.parametrize(
    "build", [_model_states, _roundtrip_states, _mle_states], ids=["model", "roundtrip", "mle"]
)
def test_built_states_construct_with_margin(build):
    """Every state a command builds passes construction's check, four orders
    or more inside each tolerance (1e-10 Hermitian and eigenvalue, 1e-8
    trace)."""
    states = build()
    assert states
    for rho in states:
        assert np.abs(rho.data - rho.data.conj().T).max() <= 1e-14
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-14
        assert abs(np.trace(rho.data).real - 1.0) <= 1e-14


class TestMicroscopicModel:
    def test_plain_loss_model(self):
        rho = pipeline.model_microscopic_state(0.49, 0.0)
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-8
        assert tomography.concurrence(rho) == pytest.approx(0.49, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5, 3.0, 38.0, 38.6, 40.0, 40.5, 1e155, 1e300])
    def test_dephasing_factor_is_the_gaussian_factor_or_zero(self, sigma):
        # bit-equal to exp(-sigma^2/2) wherever sigma^2 is finite, 0 beyond
        try:
            expected = math.exp(-sigma**2 / 2.0)
        except OverflowError:
            expected = 0.0
        assert pipeline.dephasing_factor(sigma) == expected
        cfg = ExperimentConfig(phase_noise_sigma=sigma)
        assert _model_summary(cfg)["concurrence"] == 0.49 * expected
        rho = pipeline.model_microscopic_state(0.49, 1.0, dephasing_sigma=sigma)
        # subnormal factors keep only a few digits
        assert abs(rho.data[1, 2]) == pytest.approx(0.245 * expected, rel=1e-12, abs=1e-320)

    def test_dephasing_damps_concurrence(self):
        sigma = math.sqrt(-2.0 * math.log(0.32 / 0.49))
        rho = pipeline.model_microscopic_state(0.49, 0.0, dephasing_sigma=sigma)
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-8
        assert tomography.concurrence(rho) == pytest.approx(0.32, abs=1e-12)


@pytest.fixture(scope="module")
def small_run():
    cfg = ExperimentConfig(seed=17, n_count_shots=400_000, alpha=1e4)
    return cfg, pipeline.run_counts_scenario(cfg)


# the curve file of each phase setting
_CURVE_OF = {0.0: "curves_phi0.csv", math.pi / 2.0: "curves_phi90.csv"}


class TestCountsScenario:
    def test_bin_counts_cover_all_shots(self, small_run):
        cfg, documents = small_run
        for name in _CURVE_OF.values():
            assert documents[name]["count"].sum() == cfg.n_count_shots

    def test_quarter_phase_mean_slope_flat(self, small_run):
        cfg, documents = small_run
        curve = documents["curves_phi90.csv"]
        use = curve["count"] >= 100
        x = curve["nA"][use]
        y = curve["mean_nB"][use]
        w = curve["count"][use] / curve["var_nB"][use]
        xbar = np.average(x, weights=w)
        slope = np.sum(w * (x - xbar) * y) / np.sum(w * (x - xbar) ** 2)
        slope_se = 1.0 / math.sqrt(np.sum(w * (x - xbar) ** 2))
        assert abs(slope) < 3.0 * slope_se

    def test_zero_phase_matches_analytic_curve(self, small_run):
        cfg, documents = small_run
        curve = documents["curves_phi0.csv"]
        use = curve["count"] >= 100
        se = np.sqrt(curve["var_nB"][use] / curve["count"][use])
        chi2 = float(np.sum(((curve["mean_nB"][use] - curve["model_mean_nB"][use]) / se) ** 2))
        assert chi2 / use.sum() < 2.0

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2.0])
    def test_variance_curves_match_analytic(self, small_run, phi):
        cfg, documents = small_run
        curve = documents[_CURVE_OF[phi]]
        use = curve["count"] >= 100
        # sample-variance standard error, Gaussian-dominated statistics
        se = curve["var_nB"][use] * np.sqrt(2.0 / curve["count"][use])
        chi2 = float(np.sum(((curve["var_nB"][use] - curve["model_var_nB"][use]) / se) ** 2))
        assert chi2 / use.sum() < 2.0

    def test_variance_ratio_and_error_tracking(self, small_run):
        cfg, documents = small_run
        summary = documents["summary.json"]
        assert summary["variance_ratio"] == pytest.approx(
            counting.variance_peak_ratio(cfg.eta_total), abs=0.05
        )
        assert summary["discrimination_error"] == pytest.approx(
            _model_summary(cfg)["discrimination_error"], abs=0.02
        )

    def test_histograms_are_windowed_subsets(self, small_run):
        cfg, documents = small_run
        histograms = documents["histograms.csv"]
        assert histograms["count_above"].sum() > 0
        assert histograms["count_below"].sum() > 0
        assert histograms["count_above"].sum() < cfg.n_count_shots // 10

    def test_determinism(self):
        cfg = ExperimentConfig(seed=23, n_count_shots=50_000)
        a = pipeline.run_counts_scenario(cfg)
        b = pipeline.run_counts_scenario(cfg)
        # at this shot count outer bins are empty (NaN mean), hence equal_nan
        assert np.array_equal(
            a["curves_phi0.csv"]["mean_nB"], b["curves_phi0.csv"]["mean_nB"], equal_nan=True
        )
        assert a["summary.json"] == b["summary.json"]

    def test_output_files(self, small_run, tmp_path):
        cfg, documents = small_run
        assert sorted(documents) == [
            "curves_phi0.csv", "curves_phi90.csv", "histograms.csv", "summary.json",
        ]
        output.write_documents(tmp_path, documents)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(documents)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"variance_ratio", "discrimination_error", "concurrence"}
        curves = np.genfromtxt(tmp_path / "curves_phi0.csv", delimiter=",", names=True)
        assert curves.shape[0] == 41
        assert curves["count"].sum() == cfg.n_count_shots
        assert list(curves.dtype.names) == [
            "nA", "mean_nB", "var_nB", "count", "model_mean_nB", "model_var_nB",
        ]


def _two_sided_windows(cfg, dn_a, dn_b):
    """Window shot counts, error counts and histograms of phi = 0 records,
    each window tested on its own side of 0."""
    params = cfg.count_params(phi=0.0)
    delta_a = pipeline.default_delta_a(cfg.alpha)
    window = pipeline._WINDOW_FRAC * counting.count_marginal_std(params)
    above = np.abs(dn_a - delta_a) <= window
    below = np.abs(dn_a + delta_a) <= window
    edges = pipeline.count_bin_edges(params)
    return (
        [above.sum(), below.sum()],
        [(dn_b[above] < 0.0).sum(), (dn_b[below] > 0.0).sum()],
        [np.histogram(dn_b[w], bins=edges)[0] for w in (above, below)],
    )


def _whole_array_windows(cfg):
    """:func:`_two_sided_windows` of the phi = 0 stream's whole record arrays."""
    rec = sampling.sample_counts(
        cfg.count_params(phi=0.0), cfg.n_count_shots, cfg.seed, pipeline.STREAM_COUNTS_PHI0
    )
    return _two_sided_windows(cfg, rec.dn_a, rec.dn_b)


def _merged_partial(cfg):
    """The ``_CountPartial`` of all of ``cfg``'s shots: its ``_count_block``
    calls, on this thread, merged in block order."""
    params = (cfg.count_params(phi=0.0), cfg.count_params(phi=math.pi / 2.0))
    edges = pipeline.count_bin_edges(params[0])
    local = threading.local()
    return functools.reduce(pipeline._CountPartial.merge, (
        pipeline._count_block(cfg, params, edges, local, lo)
        for lo in range(0, cfg.n_count_shots, pipeline._COUNT_BLOCK_SHOTS)
    ))


class TestStreamedCounts:
    """The block-by-block reduction of a counting run against whole-array
    oracles: the binning with ``digitize``, ``np.histogram`` and
    :func:`oracles.bin_count_records`."""

    @pytest.mark.parametrize("alpha", [10.0, 1.05e4, 5e153])
    def test_bin_index_equals_clipped_digitize(self, alpha):
        edges = pipeline.count_bin_edges(CountModelParams(alpha, 0.49))
        span = edges[-1]
        x = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            0.5 * (edges[:-1] + edges[1:]),
            [0.0, -0.0, 1e3 * span, -1e3 * span, 1e6 * span, -1e6 * span],
            np.random.default_rng(5).uniform(-1.5 * span, 1.5 * span, 10_000),
        ])
        expected = np.clip(np.digitize(x, edges) - 1, 0, edges.size - 2)
        got = pipeline._bin_index(
            x, edges, np.empty(x.size, np.intp), np.empty(x.size), np.empty(x.size, bool)
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("alpha", [10.0, 1.05e4, 5e153])
    def test_window_histograms_equal_np_histogram(self, alpha):
        edges = pipeline.count_bin_edges(CountModelParams(alpha, 0.49))
        span = edges[-1]
        ends = edges[[0, -1]]
        rng = np.random.default_rng(7)
        bob = np.concatenate([
            ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
            edges, 0.5 * (edges[:-1] + edges[1:]),
            [0.0, 2.0 * span, -2.0 * span, 1e6 * span, -1e6 * span],
            rng.uniform(-1.5 * span, 1.5 * span, 2_000),
        ])
        below = rng.random(bob.size) < 0.5
        for b, w in ((bob, below), (bob[:0], below[:0])):  # and two empty windows
            size = b.size
            got = pipeline._window_histograms(
                b, w, edges, np.empty(size, np.intp), np.empty(size), np.empty(size, bool)
            )
            expected = [np.histogram(b[window], bins=edges)[0] for window in (~w, w)]
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("block", [pipeline._COUNT_BLOCK_SHOTS, 1000, 7])
    @pytest.mark.parametrize("alpha,seed", [(1.05e4, 71), (5e153, 3)])
    def test_matches_whole_array_oracles(self, monkeypatch, block, alpha, seed):
        monkeypatch.setattr(pipeline, "_COUNT_BLOCK_SHOTS", block)
        # at alpha = 5e153 seed 3 has an edge bin whose variance overflows
        cfg = ExperimentConfig(alpha=alpha, n_count_shots=20_000, seed=seed)
        documents = pipeline.run_counts_scenario(cfg)
        shots, errors, (hist_above, hist_below) = _whole_array_windows(cfg)
        # the window counts are in no document: check them on the partial
        total = _merged_partial(cfg)
        assert total.window_shots.tolist() == shots
        assert total.window_errors.tolist() == errors
        histograms = documents["histograms.csv"]
        assert np.array_equal(histograms["count_above"], hist_above)
        assert np.array_equal(histograms["count_below"], hist_below)
        assert documents["summary.json"]["discrimination_error"] == 0.5 * (
            errors[0] / shots[0] + errors[1] / shots[1]
        )
        streams = {0.0: pipeline.STREAM_COUNTS_PHI0, math.pi / 2.0: pipeline.STREAM_COUNTS_PHI90}
        for phi, stream in streams.items():
            params = cfg.count_params(phi=phi)
            rec = sampling.sample_counts(params, cfg.n_count_shots, cfg.seed, stream)
            ref = oracles.bin_count_records(rec, params)
            got = documents[_CURVE_OF[phi]]
            assert np.array_equal(got["count"], ref["count"])
            assert np.array_equal(got["nA"], ref["nA"])
            # NaN and infinity in the same bins; the finite values agree to
            # 1e-12 of the bin's scale, its spread where the mean is near 0
            for name in ("mean_nB", "var_nB"):
                a, b = got[name], ref[name]
                assert np.array_equal(np.isnan(a), np.isnan(b))
                assert np.array_equal(np.isinf(a), np.isinf(b))
            mean, ref_mean, ref_var = got["mean_nB"], ref["mean_nB"], ref["var_nB"]
            filled = ref["count"] > 0
            spread = np.isfinite(ref_var)
            scale = np.abs(ref_mean)
            scale[spread] = np.maximum(scale[spread], np.sqrt(ref_var[spread]))
            assert np.all(np.abs(mean[filled] - ref_mean[filled]) <= 1e-12 * scale[filled])
            var, ref_var = got["var_nB"][spread], ref_var[spread]
            assert np.all(np.abs(var - ref_var) <= 1e-12 * ref_var)

    def test_window_edges_lie_inside(self):
        # at alpha 10502 each edge +-(delta_a +- window) is exactly window
        # from +-delta_a in float64; a shot on an edge is in its window, and
        # one a step past it is not
        cfg = ExperimentConfig(alpha=10502.0, n_count_shots=1000, seed=4)
        params = (cfg.count_params(phi=0.0), cfg.count_params(phi=math.pi / 2.0))
        delta_a = pipeline.default_delta_a(cfg.alpha)
        window = pipeline._WINDOW_FRAC * counting.count_marginal_std(params[0])
        on = np.array([delta_a + window, delta_a - window])
        on = np.concatenate([on, -on])
        assert (np.abs(np.abs(on) - delta_a) == window).all()
        past = np.nextafter(on, [np.inf, -np.inf, -np.inf, np.inf])

        class EdgeWorkspace(sampling.CountWorkspace):
            """Puts Alice's first phi = 0 counts on the edges, then past
            them, and keeps a copy of the record it returns."""

            def draw(self, settings, n_shots, seed, start_shot):
                rec = super().draw(settings, n_shots, seed, start_shot)
                rec.dn_a[0, :8] = np.concatenate([on, past])
                self.record = rec.dn_a[0].copy(), rec.dn_b[0].copy()
                return rec

        local = threading.local()
        ws = local.workspace = EdgeWorkspace(2 * pipeline._COUNT_BLOCK_SHOTS)
        edges = pipeline.count_bin_edges(params[0])
        partial = pipeline._count_block(cfg, params, edges, local, 0)
        shots, errors, (hist_above, hist_below) = _two_sided_windows(cfg, *ws.record)
        assert partial.window_shots.tolist() == shots
        assert partial.window_errors.tolist() == errors
        assert np.array_equal(partial.histograms, [hist_above, hist_below])

    def test_working_memory_does_not_grow_with_shots(self):
        def peak(n_shots):
            cfg = ExperimentConfig(n_count_shots=n_shots, seed=2)
            tracemalloc.start()
            try:
                pipeline.run_counts_scenario(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(1_000_000)
        # whole-array records of 1,000,000 shots alone take 32 MB
        assert large < 8 * 2**20
        assert abs(large - small) < 2**20

    def test_warm_block_allocates_no_block_array(self):
        # a pool thread's first block allocates its arrays; its later blocks
        # draw and reduce in them, so no array of a block's size (2^14
        # doubles, 128 KiB) is allocated while they run
        block = pipeline._COUNT_BLOCK_SHOTS
        cfg = ExperimentConfig(n_count_shots=3 * block, seed=5)
        params = (cfg.count_params(phi=0.0), cfg.count_params(phi=math.pi / 2.0))
        edges = pipeline.count_bin_edges(params[0])
        local = threading.local()

        def peak_of(lo):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                pipeline._count_block(cfg, params, edges, local, lo)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        cold = peak_of(0)
        warm = [peak_of(lo) for lo in (block, 2 * block)]
        # tracemalloc sees numpy's arrays: the first block's hold over ten
        # blocks' worth of doubles
        assert cold > 10 * block * 8
        assert max(warm) < block * 8, warm


def _use_cpus(monkeypatch, n):
    """Make the process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestThreadedCounts:
    """The count blocks run on a thread pool sized from the CPU affinity
    mask; the partials merge in block order."""

    _SMALL = ExperimentConfig(alpha=37.5, n_count_shots=100_000, seed=3)

    @pytest.mark.parametrize(
        "block,cfg,pool_sizes",
        [
            pytest.param(pipeline._COUNT_BLOCK_SHOTS, _SMALL, (1, 2, 4),
                         id=str(pipeline._COUNT_BLOCK_SHOTS)),
            pytest.param(1000, _SMALL, (1, 2, 4), id="1000"),
            # the default run, 2 x 5M shots at seed 1
            pytest.param(pipeline._COUNT_BLOCK_SHOTS, ExperimentConfig(), (1, 2), id="default"),
        ],
    )
    def test_same_bytes_at_every_pool_size(self, monkeypatch, tmp_path, block, cfg, pool_sizes):
        monkeypatch.setattr(pipeline, "_COUNT_BLOCK_SHOTS", block)
        files = []
        for cpus in pool_sizes:
            _use_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            out.mkdir()
            output.write_documents(out, pipeline.run_counts_scenario(cfg))
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(files[0]) == ["curves_phi0.csv", "curves_phi90.csv", "histograms.csv",
                                    "summary.json"]
        assert all(f == files[0] for f in files[1:])

    def test_in_order_bounds_look_ahead(self):
        depth = 3
        pulled = 0

        def items():
            nonlocal pulled
            for i in range(40):
                pulled += 1
                yield i

        def square(i):
            # the first call ends last, so the later results wait for it
            if i == 0:
                time.sleep(0.05)
            return i * i

        ahead = []
        with ThreadPoolExecutor(2) as pool:
            results = []
            for value in pipeline._in_order(pool, square, items(), depth):
                results.append(value)
                ahead.append(pulled - len(results))
        assert results == [i * i for i in range(40)]
        # the consumer holds item j while items up to j + depth are pulled
        assert max(ahead) == depth

    def test_failing_block_raises_its_exception(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        depth = 4  # two blocks per thread
        monkeypatch.setattr(pipeline, "_COUNT_BLOCK_SHOTS", 1000)
        failing = 5
        error = NumericError("block 5 failed")
        started = []
        count_block = pipeline._count_block

        def block(config, params, edges, local, lo):
            started.append(lo)
            if lo == failing * 1000:
                raise error
            return count_block(config, params, edges, local, lo)

        monkeypatch.setattr(pipeline, "_count_block", block)
        cfg = ExperimentConfig(alpha=37.5, n_count_shots=100_000, seed=3)
        with pytest.raises(NumericError) as caught:
            pipeline.run_counts_scenario(cfg)
        assert caught.value is error
        # the blocks past the look-ahead never start
        assert len(started) < failing + 2 + depth


def _qubit_block(data, dim):
    """The block of a dense two-mode matrix on ``|00>, |01>, |10>, |11>``."""
    qubit = [0, 1, dim, dim + 1]
    return data[np.ix_(qubit, qubit)]


def _qubit_state(data, dim):
    """That block over its own trace, as the round trip normalises it."""
    block = _qubit_block(data, dim)
    return fock.DensityMatrix(block / np.trace(block).real)


def _dense_roundtrip_oracle(alpha_small, mismatch_eta, dim, phi):
    """The round trip with dense ``D (x) D`` products and the loss channel
    applied to the undisplaced photon as the reference."""
    rho0 = oracles.pure_state(oracles.delocalized_photon(phi, dim), dim, 2)
    d_fwd = np.kron(*[oracles.displacement_matrix_scipy(alpha_small, dim)] * 2)
    displaced = oracles.FockState(dim, 2, d_fwd @ rho0.data @ d_fwd.conj().T)
    lossy = oracles.apply_loss(oracles.apply_loss(displaced, mismatch_eta, 0), mismatch_eta, 1)
    d_rev = np.kron(*[oracles.displacement_matrix_scipy(-math.sqrt(mismatch_eta) * alpha_small, dim)] * 2)
    data = d_rev @ lossy.data @ d_rev.conj().T
    roundtrip = _qubit_state(data, dim)
    # the displaced state is not renormalized here, so the block's share of
    # its trace is what the normalized round trip keeps
    kept = np.trace(_qubit_block(data, dim)).real / np.trace(displaced.data).real
    reference = oracles.apply_loss(oracles.apply_loss(rho0, mismatch_eta, 0), mismatch_eta, 1)
    return pipeline.RoundtripResult(
        mismatch_eta=mismatch_eta,
        # the reference lies in the block, so the fidelity reads only the
        # round-trip state's block
        fidelity_to_loss_model=tomography.fidelity(roundtrip, _qubit_state(reference.data, dim)),
        concurrence_roundtrip=tomography.concurrence(roundtrip),
        concurrence_initial=tomography.concurrence(_qubit_state(rho0.data, dim)),
        leakage=1.0 - kept,
    )


def _einsum_roundtrip_oracle(alpha_small, mismatch_eta, dim, phi):
    """The round trip on the dense two-mode density matrix: loss on each mode
    with :func:`oracles.apply_loss`, then ``D (x) D`` undisplacement as
    one five-operand ``einsum``.  Returns the unnormalized block on
    ``|00>, |01>, |10>, |11>``, the trace, and the result fields read from
    the block over its own trace; the leakage is ``1 - tr(block)``."""
    displaced = oracles.build_macro_state(alpha_small, phi, dim)
    lossy = oracles.apply_loss(oracles.apply_loss(displaced, mismatch_eta, 0), mismatch_eta, 1)
    u = oracles.displacement_matrix_scipy(-math.sqrt(mismatch_eta) * alpha_small, dim)
    # (mA, kB, nA, lB): D on both ket axes, D^dagger on both bra axes
    t = np.einsum(
        "am,bk,mknl,cn,dl->abcd", u, u, lossy.data.reshape((dim,) * 4), u.conj(), u.conj(),
        optimize=True,
    )
    data = t.reshape(dim * dim, dim * dim)
    roundtrip = _qubit_state(data, dim)
    block = _qubit_block(data, dim)
    result = pipeline.RoundtripResult(
        mismatch_eta=mismatch_eta,
        fidelity_to_loss_model=tomography.fidelity(
            roundtrip, pipeline.model_microscopic_state(mismatch_eta, phi)
        ),
        concurrence_roundtrip=tomography.concurrence(roundtrip),
        concurrence_initial=tomography.concurrence(pipeline.model_microscopic_state(1.0, phi)),
        leakage=1.0 - np.trace(block).real,
    )
    return block, float(np.trace(data).real), result


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
        # at alpha 1 and dim 16 the round trip loses 4.3e-12 of its
        # population to the truncation
        res = pipeline.displacement_roundtrip_check(1.0, eta, dim=16, phi=phi)
        ref = _dense_roundtrip_oracle(1.0, eta, 16, phi)
        for name in ("mismatch_eta", "fidelity_to_loss_model", "concurrence_roundtrip",
                     "concurrence_initial"):
            assert getattr(res, name) == pytest.approx(getattr(ref, name), abs=1e-8), name
        assert abs(res.leakage - ref.leakage) <= 1e-14

    @pytest.mark.parametrize("alpha,dim,eta,phi", _EINSUM_CASES)
    def test_matches_einsum_oracle(self, alpha, dim, eta, phi):
        block = pipeline._roundtrip_block(alpha, eta, dim, phi)
        ref_block, ref_trace, ref = _einsum_roundtrip_oracle(alpha, eta, dim, phi)
        assert np.abs(block - ref_block).max() <= 1e-14
        if dim < 32:
            # alpha 1.4 at dim 16 and alpha 1 at dim 8 lose 2.5e-8 to 5.3e-4
            # of the population to the truncation
            assert ref.leakage > 1e-8
            with pytest.raises(ConfigError, match=f"at dim = {dim}: the round trip loses"):
                pipeline.displacement_roundtrip_check(alpha, eta, dim=dim, phi=phi)
            return
        res = pipeline.displacement_roundtrip_check(alpha, eta, dim=dim, phi=phi)
        assert abs(res.leakage - ref.leakage) <= 1e-14
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

    def test_truncation_dominated_round_trip_rejected(self):
        with pytest.raises(ConfigError, match="alpha_small = 1.0 at dim = 8"):
            pipeline.displacement_roundtrip_check(1.0, 0.95, dim=8, phi=0.0)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_whole_space_block_rejected(self, eta):
        # at dim 2 the block is the whole truncated space, and 1 - tr(block)
        # reads 0.33 and 0.10
        block = pipeline._roundtrip_block(0.5, eta, 2, 0.0)
        assert 1.0 - np.trace(block).real > 0.05
        with pytest.raises(ConfigError, match="at dim = 2"):
            pipeline.displacement_roundtrip_check(0.5, eta, dim=2, phi=0.0)

    def test_perfect_undisplacement(self):
        res = pipeline.displacement_roundtrip_check(2.0, 1.0, dim=32, phi=0.0)
        assert res.fidelity_to_loss_model == pytest.approx(1.0, abs=1e-6)
        assert res.concurrence_roundtrip == pytest.approx(1.0, abs=1e-6)

    def test_small_mismatch(self):
        res = pipeline.displacement_roundtrip_check(2.0, 0.95, dim=32, phi=0.0)
        assert res.fidelity_to_loss_model > 0.99
        assert res.concurrence_roundtrip <= res.concurrence_initial + 1e-6
        assert res.concurrence_roundtrip == pytest.approx(0.95, abs=1e-6)

    def test_concurrence_monotone_in_mismatch(self):
        values = [
            pipeline.displacement_roundtrip_check(2.0, eta, dim=32, phi=0.0).concurrence_roundtrip
            for eta in (1.0, 0.99, 0.95)
        ]
        assert values[0] >= values[1] - 1e-6 >= values[2] - 2e-6
        assert all(v <= 1.0 + 1e-6 for v in values)

    def test_truncation_budget_enforced(self):
        with pytest.raises(ValueError, match="truncation"):
            pipeline.displacement_roundtrip_check(3.0, 1.0, dim=32, phi=0.0)


class TestTomographyScenarioSmall:
    def test_reconstructed_concurrence_monotone_in_loss(self):
        values = []
        for eta in (1.0, 0.8, 0.6, 0.49):
            cfg = ExperimentConfig(
                seed=37, eta_total=eta, eta_budget={}, n_quad_shots=30_000
            )
            result = pipeline.run_tomography_scenario(cfg)["result.json"]
            values.append(result["concurrence"])
        # statistical slack ~2 standard errors at this sample size
        assert all(a >= b - 0.03 for a, b in zip(values, values[1:]))

    def test_small_run_consistent(self):
        cfg = ExperimentConfig(seed=29, n_quad_shots=20_000)
        result = pipeline.run_tomography_scenario(cfg)["result.json"]
        assert result["concurrence"] == pytest.approx(0.49, abs=0.06)
        assert result["fidelity_to_model"] > 0.99
        assert np.all(np.diff(result["loglik"]) >= -1e-9)

    def test_identical_reconstruction_inputs(self):
        cfg = ExperimentConfig(seed=31, n_quad_shots=5_000)
        a = pipeline.run_tomography_scenario(cfg)["records.csv"]
        b = pipeline.run_tomography_scenario(cfg)["records.csv"]
        assert np.array_equal(a["xA"], b["xA"])
        assert np.array_equal(a["thetaA"], b["thetaA"])

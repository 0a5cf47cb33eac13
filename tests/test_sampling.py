"""Monte Carlo sampler tests: determinism contracts and distributional
agreement with the analytic laws.

Oracles: discrete enumeration of the exact Fock-basis law (with windowed
Poisson reference weights), analytic marginal CDF for KS, chi-square
against enumerated histograms, quadrature-marginal moment integrals.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from macrocat import cli, counting, fock, pipeline, sampling
from macrocat.counting import CountModelParams
from macrocat.errors import NumericError
import oracles

_VACUUM = fock.DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
_FOUR_PHASES = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


def _lossy_photon(phi):
    """The delocalized photon with loss 0.4 on mode A, as an oracle state."""
    return oracles.apply_loss(oracles.pure_state(oracles.delocalized_photon(phi, 2), 2, 2), 0.6, 0)


class TestDeterminism:
    def test_counts_bit_identical(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        a = sampling.sample_counts(p, 5000, seed=42)
        b = sampling.sample_counts(p, 5000, seed=42)
        assert np.array_equal(a.dn_a, b.dn_a) and np.array_equal(a.dn_b, b.dn_b)

    def test_counts_partition_equivalence(self):
        p = CountModelParams(1e4, 0.49, 0.7)
        whole = sampling.sample_counts(p, 3000, seed=9)
        parts = [
            sampling.sample_counts(p, 1000, seed=9, start_shot=0),
            sampling.sample_counts(p, 1700, seed=9, start_shot=1000),
            sampling.sample_counts(p, 300, seed=9, start_shot=2700),
        ]
        assert np.array_equal(whole.dn_a, np.concatenate([q.dn_a for q in parts]))
        assert np.array_equal(whole.dn_b, np.concatenate([q.dn_b for q in parts]))

    def test_streams_are_independent(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        a = sampling.sample_counts(p, 100, seed=1, stream=0)
        b = sampling.sample_counts(p, 100, seed=1, stream=1)
        assert not np.array_equal(a.dn_a, b.dn_a)

    def test_exact_counts_partition_equivalence(self):
        whole = oracles.sample_counts_exact(15.0, 0.5, 0.0, 2000, seed=4)
        parts = [
            oracles.sample_counts_exact(15.0, 0.5, 0.0, 900, seed=4),
            oracles.sample_counts_exact(15.0, 0.5, 0.0, 1100, seed=4, start_shot=900),
        ]
        assert np.array_equal(whole.dn_a, np.concatenate([q.dn_a for q in parts]))

    def test_quadratures_partition_equivalence(self):
        rho = _VACUUM
        sched = [0.3]
        whole = sampling.sample_quadrature_schedule(rho, sched, 1200, seed=8)
        parts = [
            sampling.sample_quadrature_schedule(rho, sched, 500, seed=8),
            sampling.sample_quadrature_schedule(rho, sched, 700, seed=8, start_shot=500),
        ]
        assert np.array_equal(whole.x_a, np.concatenate([q.x_a for q in parts]))
        assert np.array_equal(whole.x_b, np.concatenate([q.x_b for q in parts]))

    def test_schedule_partition_equivalence(self):
        # the split at 803 is not a multiple of the 4 settings, so the last
        # part must pick its settings by absolute shot index
        rho = fock.DensityMatrix(_lossy_photon(0.4).data)
        sched = _FOUR_PHASES
        whole = sampling.sample_quadrature_schedule(rho, sched, 1200, seed=8)
        parts = [
            sampling.sample_quadrature_schedule(rho, sched, 500, seed=8),
            sampling.sample_quadrature_schedule(rho, sched, 303, seed=8, start_shot=500),
            sampling.sample_quadrature_schedule(rho, sched, 397, seed=8, start_shot=803),
        ]
        assert [q.start_shot for q in parts] == [0, 500, 803]
        for col in ("theta_a", "x_a", "x_b"):
            joined = np.concatenate([getattr(q, col) for q in parts])
            assert np.array_equal(getattr(whole, col), joined), col

    def test_schedule_reproducible(self):
        rho = _VACUUM
        sched = _FOUR_PHASES
        a = sampling.sample_quadrature_schedule(rho, sched, 1000, seed=6)
        b = sampling.sample_quadrature_schedule(rho, sched, 1000, seed=6)
        assert np.array_equal(a.x_a, b.x_a) and np.array_equal(a.theta_a, b.theta_a)

    def test_zero_shots_rejected(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        with pytest.raises(ValueError):
            sampling.sample_counts(p, 0, seed=1)


def _ndtri(p):
    """The package's normal quantile (``sampling._ndtri``) of any array of
    probabilities, on a copy, with buffers of its own: the narrowest Horner
    stack it accepts, so its rationals run in two passes."""
    p = np.array(p, dtype=float).ravel()
    return sampling._ndtri(
        p, np.empty_like(p), np.empty((2, (p.size + 1) // 2)), np.empty(p.size, bool)
    )


class TestNormalQuantile:
    """``sampling._ndtri`` (AS241) against ``scipy.special.ndtri`` (Cephes)."""

    # two independent rational approximations, each within ~4e-16 of the
    # exact quantile: they stay within about 9 ulps of each other (1.2e-15
    # over 8M Philox draws)
    REL = 2e-15

    @staticmethod
    def _points():
        draws = sampling.shot_uniforms(17, 5, 0, 1 << 14, 4).ravel()
        edges = np.array([0.075, 0.925])
        # 1e-12, 1e-11 and the extreme words reach the far tail (p < e^-25)
        special = [0.5, 2.0**-53, 1.0 - 2.0**-53, 1e-12, 1e-11, math.exp(-25.0)]
        return np.concatenate([
            draws, special, edges,
            np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            np.nextafter(np.nextafter(edges, 0.0), 0.0), np.nextafter(np.nextafter(edges, 1.0), 1.0),
        ])

    def test_matches_scipy(self):
        p = self._points()
        got, ref = _ndtri(p), ndtri(p)
        assert _ndtri(np.array([0.5]))[0] == 0.0
        nonzero = ref != 0.0
        assert np.all(np.abs(got[nonzero] - ref[nonzero]) <= self.REL * np.abs(ref[nonzero]))

    def test_odd_where_one_minus_p_is_exact(self):
        p = self._points()
        m = 1.0 - p
        exact = 1.0 - m == p
        # every Philox word k 2^-53 has an exact complement
        assert exact.sum() >= (1 << 16)
        assert np.array_equal(_ndtri(m[exact]), -_ndtri(p[exact]))

    @pytest.mark.parametrize("edge", [0.075, 0.925])
    def test_nondecreasing_across_branch_edges(self, edge):
        # at 1e-12 spacing, 2e4 steps across the switch between the central
        # and the tail rational.  At ulp spacing the kernel is not monotone:
        # its rounding stepped down by one ulp 134 times within 2000 ulps of
        # p = 0.3, where scipy's ndtri did not; the sampler only needs the
        # quantile's value, so that is accepted
        p = edge + 1e-12 * np.arange(-10_000, 10_001)
        assert np.all(np.diff(_ndtri(p)) >= 0.0)


def _sample_counts_oracle(params, n_shots, seed, stream=0, start_shot=0):
    """The unblocked count kernel: one clipped uniform table of four words
    per shot, the radius and the sign over full columns, nested selects,
    normals from the package's quantile."""
    sigma = math.sqrt(2.0) * params.alpha
    cph = math.cos(params.phi)
    w_u = params.eta * (1.0 + cph) / 4.0
    w_v = params.eta * (1.0 - cph) / 4.0
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance(start_shot)  # four words per shot: one Philox tick
    tab = np.clip(np.random.Generator(bg).random((n_shots, 4)), 2.0**-53, 1.0 - 2.0**-53)
    comp_u = tab[:, 0] < w_u
    comp_v = (tab[:, 0] >= w_u) & (tab[:, 0] < w_u + w_v)
    comp_c = ~(comp_u | comp_v)
    # the component word's position within its component's interval
    negative = np.where(comp_u, tab[:, 0] < w_u / 2.0, tab[:, 0] < w_u + w_v / 2.0)
    sign = np.where(negative, -1.0, 1.0)
    z1 = _ndtri(tab[:, 1])
    radius = sigma * np.sqrt(z1 * z1 - 2.0 * np.log(tab[:, 3]))
    plain = sigma * _ndtri(tab[:, 1])
    partner = sigma * _ndtri(tab[:, 2])
    u = np.where(comp_u, sign * radius, np.where(comp_c, plain, partner))
    v = np.where(comp_v, sign * radius, partner)
    return (u + v) / math.sqrt(2.0), (u - v) / math.sqrt(2.0)


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_BLOCK = pipeline._COUNT_BLOCK_SHOTS


class TestCountKernelOracle:
    """The one-table count kernel reproduces the oracle bit for bit, in one
    call and split into calls of ``part_shots`` shots."""

    @pytest.mark.parametrize(
        "eta,phi,n_shots,start_shot,part_shots",
        [
            (0.49, 0.0, 3000, 0, _BLOCK),  # w_v = 0
            (0.49, math.pi, 3000, 0, _BLOCK),  # w_u = 0
            (0.49, 1.0, 3000, 0, _BLOCK),
            (0.49, math.pi / 2.0, 3000, 0, _BLOCK),
            (0.0, 1.0, 3000, 0, _BLOCK),  # no quadratic-component shots
            (1.0, 1.0, 3000, 0, _BLOCK),
            # unaligned start, 2.5 blocks and a ragged tail
            (0.49, 1.0, 5 * _BLOCK // 2 + 13, 3 * _BLOCK + 77, _BLOCK),
            (0.49, 1.0, 1000, 5, 7),
        ],
    )
    def test_matches_unblocked_kernel(self, eta, phi, n_shots, start_shot, part_shots):
        p = CountModelParams(1.05e4, eta, phi)
        ref_a, ref_b = _sample_counts_oracle(p, n_shots, seed=61, stream=2, start_shot=start_shot)
        rec = sampling.sample_counts(p, n_shots, seed=61, stream=2, start_shot=start_shot)
        assert _bitwise_equal(rec.dn_a, ref_a) and _bitwise_equal(rec.dn_b, ref_b)
        parts = [
            sampling.sample_counts(
                p, min(part_shots, n_shots - lo), seed=61, stream=2, start_shot=start_shot + lo
            )
            for lo in range(0, n_shots, part_shots)
        ]
        assert _bitwise_equal(np.concatenate([q.dn_a for q in parts]), ref_a)
        assert _bitwise_equal(np.concatenate([q.dn_b for q in parts]), ref_b)

    def test_stacked_settings_match_one_setting_draws(self):
        # the scenario's draw: both phase settings, each from its own stream,
        # in one pass over one workspace, block after block.  Row s is setting
        # s's own draw, bit for bit, for a full block, a short last block and
        # a start past 0
        settings = [
            (CountModelParams(1.05e4, 0.49, phi), stream)
            for phi, stream in ((0.0, pipeline.STREAM_COUNTS_PHI0),
                                (math.pi / 2.0, pipeline.STREAM_COUNTS_PHI90))
        ]
        ws = sampling.CountWorkspace(2 * _BLOCK)
        for n_shots, start_shot in [(_BLOCK, 0), (1234, _BLOCK), (_BLOCK, 5 * _BLOCK + 77)]:
            rec = ws.draw(settings, n_shots, 61, start_shot)
            for row, (p, stream) in enumerate(settings):
                one = sampling.sample_counts(p, n_shots, seed=61, stream=stream, start_shot=start_shot)
                ref_a, ref_b = _sample_counts_oracle(p, n_shots, 61, stream, start_shot)
                assert _bitwise_equal(rec.dn_a[row], one.dn_a) and _bitwise_equal(rec.dn_a[row], ref_a)
                assert _bitwise_equal(rec.dn_b[row], one.dn_b) and _bitwise_equal(rec.dn_b[row], ref_b)


class TestShotUniforms:
    @pytest.mark.parametrize("words", [4, 8])
    @pytest.mark.parametrize("seed,stream,start_shot", [(1, 0, 0), (42, 3, 0), (7, 1, 1001)])
    def test_matches_clipped_philox_stream(self, words, seed, stream, start_shot):
        # the reference draws the stream from its first shot, so the
        # nonzero start checks the Philox advance as well
        gen = np.random.Generator(np.random.Philox(key=[seed, stream]))
        ref = np.clip(gen.random((start_shot + 500, words)), 2.0**-53, 1.0 - 2.0**-53)
        got = sampling.shot_uniforms(seed, stream, start_shot, 500, words)
        assert _bitwise_equal(got, ref[start_shot:])

    def test_words_per_shot_must_fill_philox_ticks(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            sampling.shot_uniforms(1, 0, 0, 10, 6)


class TestGaussianCountSampler:
    def test_bob_marginal_centered(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        rec = sampling.sample_counts(p, 1_000_000, seed=21)
        se = rec.dn_b.std() / math.sqrt(rec.dn_b.size)
        assert abs(rec.dn_b.mean()) < 4.0 * se

    def test_marginal_std_matches_model(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        rec = sampling.sample_counts(p, 1_000_000, seed=22)
        assert rec.dn_a.std() == pytest.approx(counting.count_marginal_std(p), rel=5e-3)

    def test_alice_marginal_kolmogorov_smirnov(self):
        p = CountModelParams(1e4, 0.49, 0.0)
        rec = sampling.sample_counts(p, 100_000, seed=23)
        res = stats.kstest(rec.dn_a, lambda x: oracles.alice_marginal_ref_cdf(x, p))
        critical_1pct = 1.628 / math.sqrt(rec.dn_a.size)
        assert res.statistic < critical_1pct

    @staticmethod
    def _rotated(rec, p):
        sigma = math.sqrt(2.0) * p.alpha
        u = (rec.dn_a + rec.dn_b) / math.sqrt(2.0)
        v = (rec.dn_a - rec.dn_b) / math.sqrt(2.0)
        return u / sigma, v / sigma

    def test_rotated_marginals_kolmogorov_smirnov(self):
        # at eta 1, phi 0 (w_v = 0) half the shots are plain, half carry a
        # signed chi(3) radius in u; v is standard normal throughout
        p = CountModelParams(1e4, 1.0, 0.0)
        u, v = self._rotated(sampling.sample_counts(p, 200_000, seed=26), p)
        chi3 = stats.chi(3)

        def mixture_cdf(x):
            signed_chi3 = 0.5 + 0.5 * np.sign(x) * chi3.cdf(np.abs(x))
            return 0.5 * stats.norm.cdf(x) + 0.5 * signed_chi3

        critical_1pct = 1.628 / math.sqrt(u.size)
        assert stats.kstest(u, mixture_cdf).statistic < critical_1pct
        assert stats.kstest(v, stats.norm.cdf).statistic < critical_1pct

    def test_sign_independent_of_component(self):
        # the component word also picks the sign: within each quadratic
        # component, half the radii are negative
        p = CountModelParams(1e4, 0.49, 1.0)
        n_shots = 400_000
        u, v = self._rotated(sampling.sample_counts(p, n_shots, seed=27, stream=3), p)
        c = sampling.shot_uniforms(27, 3, 0, n_shots, sampling._WORDS_COUNTS)[:, 0]
        w_u = p.eta * (1.0 + math.cos(p.phi)) / 4.0
        w_v = p.eta * (1.0 - math.cos(p.phi)) / 4.0
        for radius in (u[c < w_u], v[(c >= w_u) & (c < w_u + w_v)]):
            assert radius.size > 20_000
            # 4.4 binomial standard errors: a two-sided 1e-5 bound
            assert abs(np.mean(radius < 0) - 0.5) < 4.4 * 0.5 / math.sqrt(radius.size)

    def test_variance_ratio_at_full_scale(self):
        # compact version of the headline check; the acceptance suite
        # repeats it at 5e6 shots
        p = CountModelParams(1e4, 0.49, 0.0)
        rec = sampling.sample_counts(p, 2_000_000, seed=24)
        curve = oracles.bin_count_records(rec, p)
        # the center bin's variance over the 2 alpha^2 floor, as summary.json
        # states it
        center = np.argmin(np.abs(curve["nA"]))
        assert curve["var_nB"][center] / (2.0 * p.alpha**2) == pytest.approx(1.28, abs=0.02)

    def test_against_rejection_sampler_oracle(self):
        # independent route: accept/reject under a wider Gaussian envelope
        alpha, eta, phi = 1e4, 0.49, 0.0
        p = CountModelParams(alpha, eta, phi)
        a2 = alpha * alpha
        cph = math.cos(phi)

        def target(u, v):  # rotated-coordinate density
            bracket = eta * (1 + cph) * u**2 + eta * (1 - cph) * v**2
            bracket += 4.0 * (2.0 - eta) * a2
            return np.exp(-(u**2 + v**2) / (4 * a2)) / (32 * math.pi * a2**2) * bracket

        env_var = 4.0 * a2

        def envelope(u, v):
            return np.exp(-(u**2 + v**2) / (2 * env_var)) / (2 * math.pi * env_var)

        r = np.linspace(0, 12 * alpha, 4001)
        bound = 1.001 * np.max(
            np.exp(-(r**2) / (4 * a2) + r**2 / (2 * env_var))
            * (eta * (1 + cph) * r**2 + 4 * (2 - eta) * a2)
            / (32 * math.pi * a2**2)
            * (2 * math.pi * env_var)
        )
        rng = np.random.default_rng(77)
        kept_u, kept_v = [], []
        while sum(len(k) for k in kept_u) < 300_000:
            u = rng.normal(0.0, math.sqrt(env_var), 200_000)
            v = rng.normal(0.0, math.sqrt(env_var), 200_000)
            accept = rng.random(200_000) * bound * envelope(u, v) < target(u, v)
            kept_u.append(u[accept])
            kept_v.append(v[accept])
        u = np.concatenate(kept_u)[:300_000]
        v = np.concatenate(kept_v)[:300_000]
        ref_a = (u + v) / math.sqrt(2.0)
        ref_b = (u - v) / math.sqrt(2.0)
        rec = sampling.sample_counts(p, 300_000, seed=25)
        sig = counting.count_marginal_std(p)
        edges = np.linspace(-4 * sig, 4 * sig, 21)
        h1 = np.histogram2d(rec.dn_a, rec.dn_b, bins=[edges, edges])[0]
        h2 = np.histogram2d(ref_a, ref_b, bins=[edges, edges])[0]
        tv = 0.5 * np.abs(h1 / h1.sum() - h2 / h2.sum()).sum()
        assert tv < 0.02

    @pytest.mark.parametrize("eta", [0.3, 0.49, 1.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2.0])
    def test_conditional_mean_curve_chi_square(self, eta, phi):
        p = CountModelParams(1e4, eta, phi)
        rec = sampling.sample_counts(p, 1_000_000, seed=int(100 * eta + 7 * phi))
        curve = oracles.bin_count_records(rec, p)
        use = curve["count"] >= 200
        assert use.sum() >= 20
        se = np.sqrt(curve["var_nB"][use] / curve["count"][use])
        chi2 = float(np.sum(((curve["mean_nB"][use] - curve["model_mean_nB"][use]) / se) ** 2))
        assert chi2 / use.sum() < 2.0


def _poisson_cdf_table(lam, n_max):
    n = np.arange(n_max + 1, dtype=float)
    pmf = np.exp(-lam + n * np.log(lam) - np.cumsum(np.log(np.maximum(n, 1.0))))
    return np.cumsum(pmf / pmf.sum())


def _window_weights(n_levels, pois_cdf, lo, hi):
    """P(n - r in (lo, hi]) per signal level n with Poissonian reference r."""
    n = np.arange(n_levels)
    top = n - int(math.floor(lo)) - 1  # r <= n - lo - 1
    bot = n - int(math.floor(hi)) - 1  # r <= n - hi - 1

    def cdf_at(idx):
        idx = np.clip(idx, -1, len(pois_cdf) - 1)
        return np.where(idx >= 0, pois_cdf[np.maximum(idx, 0)], 0.0)

    return cdf_at(top) - cdf_at(bot)


def _enumerated_conditional_variance(alpha, eta, phi, lo, hi):
    """Var(dn_B) of the exact law given dn_A in (lo, hi], by enumeration."""
    table = oracles.discrete_joint_table(alpha, eta, phi)
    side = table.shape[0]
    a2 = alpha * alpha
    pois_cdf = _poisson_cdf_table(a2, side - 1)
    w = _window_weights(side, pois_cdf, lo, hi)
    cond = w @ table
    cond = cond / cond.sum()
    n = np.arange(side, dtype=float)
    mean = float(n @ cond)
    var = float((n - mean) ** 2 @ cond)
    return var + a2  # independent reference adds one unit of shot noise


class TestExactCountSampler:
    def test_alpha_cap(self):
        with pytest.raises(ValueError, match="Gaussian"):
            oracles.sample_counts_exact(31.0, 0.5, 0.0, 10, seed=1)

    def test_conditional_variance_ratio_vs_enumeration(self):
        alpha, eta, phi = 20.0, 1.0, 0.0
        rec = oracles.sample_counts_exact(alpha, eta, phi, 4_000_000, seed=31)
        sig = counting.count_marginal_std(CountModelParams(alpha, eta, phi))
        w_c, t, w_t = 0.2 * sig, 3.0 * sig, 0.3 * sig

        def emp_var(lo, hi):
            m = (rec.dn_a > lo) & (rec.dn_a <= hi)
            return rec.dn_b[m].var(ddof=1)

        emp_ratio = emp_var(-w_c, w_c) / (
            0.5 * (emp_var(t - w_t, t + w_t) + emp_var(-t - w_t, -t + w_t))
        )
        enum_center = _enumerated_conditional_variance(alpha, eta, phi, -w_c, w_c)
        enum_tail = 0.5 * (
            _enumerated_conditional_variance(alpha, eta, phi, t - w_t, t + w_t)
            + _enumerated_conditional_variance(alpha, eta, phi, -t - w_t, -t + w_t)
        )
        assert emp_ratio == pytest.approx(enum_center / enum_tail, rel=0.04)

    def test_alice_histogram_chi_square(self):
        alpha, eta, phi = 15.0, 0.49, 0.0
        rec = oracles.sample_counts_exact(alpha, eta, phi, 1_000_000, seed=32)
        table = oracles.discrete_joint_table(alpha, eta, phi)
        marginal_a = table.sum(axis=1)
        side = table.shape[0]
        pois_cdf = _poisson_cdf_table(alpha * alpha, side - 1)
        sig = counting.count_marginal_std(CountModelParams(alpha, eta, phi))
        # half-integer edges keep the integer-valued counts away from
        # bin-boundary convention mismatches
        edges = np.floor(np.linspace(-4 * sig, 4 * sig, 31)) + 0.5
        probs = np.array(
            [marginal_a @ _window_weights(side, pois_cdf, lo, hi)
             for lo, hi in zip(edges[:-1], edges[1:])]
        )
        counts = np.histogram(rec.dn_a, bins=edges)[0]
        inside = counts.sum()
        keep = probs * inside >= 10
        chi2 = float(np.sum((counts[keep] - probs[keep] * inside) ** 2 / (probs[keep] * inside)))
        dof = int(keep.sum()) - 1
        assert chi2 < stats.chi2.ppf(0.99, dof)

    @pytest.mark.parametrize("alpha", [20.0, 25.0])
    def test_total_variation_against_gaussian_sampler(self, alpha):
        eta, phi = 0.49, 0.0
        n = 500_000
        exact = oracles.sample_counts_exact(alpha, eta, phi, n, seed=33)
        gauss = sampling.sample_counts(CountModelParams(alpha, eta, phi), n, seed=34)
        sig = counting.count_marginal_std(CountModelParams(alpha, eta, phi))
        edges = np.floor(np.linspace(-4 * sig, 4 * sig, 26)) + 0.5
        h_e = np.histogram2d(exact.dn_a, exact.dn_b, bins=[edges, edges])[0]
        h_g = np.histogram2d(gauss.dn_a, gauss.dn_b, bins=[edges, edges])[0]
        tv = 0.5 * np.abs(h_e / h_e.sum() - h_g / h_g.sum()).sum()
        assert tv < 0.03


def _marginal_moment_oracle(rho, theta, power, mode):
    grid = np.linspace(-10, 10, 4001)
    red = oracles.partial_trace(rho, mode)
    dens = oracles.quadrature_marginal(red, theta, grid)
    return float(np.trapezoid(dens * grid**power, grid))


class TestQuadratureSampler:
    def test_vacuum_variance(self):
        rec = sampling.sample_quadrature_schedule(_VACUUM, [0.0], 200_000, seed=41)
        se = math.sqrt(2.0 / len(rec)) * 0.5
        assert rec.x_a.var() == pytest.approx(0.5, abs=4 * se)
        assert rec.x_b.var() == pytest.approx(0.5, abs=4 * se)

    def test_delocalized_photon_correlation(self):
        rho = pipeline.model_microscopic_state(1.0, 0.0)
        rec = sampling.sample_quadrature_schedule(rho, [0.0], 200_000, seed=42)
        prod = rec.x_a * rec.x_b
        se = prod.std() / math.sqrt(len(rec))
        assert prod.mean() == pytest.approx(0.5, abs=4 * se)

    def test_single_photon_node(self):
        rho = fock.DensityMatrix(np.diag([0.0, 0.0, 1.0, 0.0]))  # |1>_A |0>_B
        rec = sampling.sample_quadrature_schedule(rho, [0.0], 1_000_000, seed=43)
        h, edges = np.histogram(rec.x_a, bins=np.arange(-4.0, 4.01, 0.05))
        center = h[np.searchsorted(edges, -0.025)]
        assert center < 0.01 * h.max()

    @pytest.mark.parametrize("theta_a", [0.0, 1.0, 2.5])
    def test_moments_match_marginal_integrals(self, theta_a):
        rho = _lossy_photon(0.8)
        rec = sampling.sample_quadrature_schedule(
            fock.DensityMatrix(rho.data), [theta_a], 200_000, seed=44
        )
        # Bob's LO is locked at 0
        for arr, mode, theta in ((rec.x_a, 0, theta_a), (rec.x_b, 1, 0.0)):
            for power in (1, 2):
                target = _marginal_moment_oracle(rho, theta, power, mode)
                se = np.std(arr**power) / math.sqrt(len(arr))
                assert np.mean(arr**power) == pytest.approx(target, abs=5 * se)

    def test_non_states_refused_at_construction(self):
        # Hermitian and of unit trace but not positive, or with a NaN entry:
        # no such rho reaches the sampler, since construction refuses it.
        # The coherence 0.505 between |00> and |01> gives an eigenvalue of
        # -0.005, which a check on the grid's total mass let through
        leaky = np.zeros((4, 4))
        leaky[0, 0] = leaky[1, 1] = 0.5
        leaky[0, 1] = leaky[1, 0] = 0.505
        cases = (
            (np.diag([1.5, -0.5, 0.0, 0.0]), "-5.000e-01"),
            (np.diag([1.0, np.nan, 0.0, 0.0]), "nan"),
            (leaky, "-5.000e-03"),
        )
        for data, low in cases:
            with pytest.raises(NumericError, match=f"not a state: .* smallest eigenvalue {low}"):
                fock.DensityMatrix(data)


def _pure(index):
    """The pure two-mode basis state ``index`` of ``|00>, |01>, |10>, |11>``."""
    data = np.zeros((4, 4), dtype=complex)
    data[index, index] = 1.0
    return fock.DensityMatrix(data)


def _assert_matches_grid_oracle(rho, seed, start_shot, n_shots):
    stream = pipeline.STREAM_QUADRATURES
    rec = sampling.sample_quadrature_schedule(
        rho, pipeline.TOMO_PHASES, n_shots, seed, stream=stream, start_shot=start_shot
    )
    ref = oracles.sample_quadrature_grouped(
        rho, pipeline.TOMO_PHASES, n_shots, seed, stream=stream, start_shot=start_shot
    )
    assert np.array_equal(rec.theta_a, ref.theta_a)
    assert np.abs(rec.x_a - ref.x_a).max() <= 1e-9
    assert np.abs(rec.x_b - ref.x_b).max() <= 1e-9


_DRAW_ORACLE_STATES = [
    (pipeline.model_microscopic_state(eta, phi), f"eta{eta}-phi{phi}")
    for eta in (0.49, 1.0)
    for phi in (0, 1, 2)
] + [
    (pipeline.model_microscopic_state(0.9, 1.0, dephasing_sigma=0.5), "dephased"),
    (_pure(1), "pure01"),  # |01>: every conditional row has a zero-mass cell at x_B = 0
    (_pure(2), "pure10"),  # |10>: the x_A row at 0 has no mass
]


def _cli_default_state():
    """The model state a ``tomography`` run samples at the default config."""
    cfg = pipeline.ExperimentConfig()
    return pipeline.model_microscopic_state(cfg.eta_total, cfg.phi, dephasing_sigma=cfg.phase_noise_sigma)


class TestQuadratureDrawOracle:
    """The rank-4, drawn-rows-only draw against the grouped per-cell draw on
    the full 801 x 801 grid: the same cells up to rounding, so every x within
    1e-9 of the grid oracle's (a cell is 0.02 wide).  The batched row search
    reproduces the per-row search bit for bit."""

    @pytest.mark.parametrize(
        "rho,seed,start_shot,n_shots",
        [
            pytest.param(rho, *case, id="-".join(map(str, case)) + f"-{name}")
            for case in ((3, 0, 1), (11, 5, 13), (29, 17, 6000))
            for rho, name in _DRAW_ORACLE_STATES
        ]
        # the records of the default tomography run (seed 1), and of seed 7
        + [
            pytest.param(_cli_default_state(), seed, 0, 200_000, id=f"{seed}-0-200000-cli-default")
            for seed in (1, 7)
        ],
    )
    def test_matches_grouped_draw(self, rho, seed, start_shot, n_shots):
        _assert_matches_grid_oracle(rho, seed, start_shot, n_shots)

    def test_drawn_rows_clipped_as_grid_oracle(self, monkeypatch):
        # diag(1.5, -0.5, 0, 0) is not a state, so let construction pass it: its
        # density psi_0(x_A)^2 (1.5 psi_0(x_B)^2 - 0.5 psi_1(x_B)^2) is
        # negative for |x_B| > 1.22 on every row, while clipping leaves the
        # shape of the x_A marginal as it is
        monkeypatch.setattr(fock, "_HERMITIAN_ATOL", 1.0)
        _assert_matches_grid_oracle(fock.DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0])), 29, 17, 6000)

    @pytest.mark.parametrize("theta_a", [0.0, 1.0, 2.5])
    def test_grid_oracle_sums_to_single_mode_marginals(self, theta_a):
        rho = _lossy_photon(0.8)
        dens = oracles.joint_quadrature_density(fock.DensityMatrix(rho.data), theta_a)
        step = float(sampling._QUAD_GRID[1] - sampling._QUAD_GRID[0])
        # rows sum to Alice's marginal at theta_a, columns to Bob's at 0
        for axis, mode, theta in ((1, 0, theta_a), (0, 1, 0.0)):
            red = oracles.partial_trace(rho, mode)
            ref = oracles.quadrature_marginal(red, theta, sampling._QUAD_GRID)
            assert np.abs(dens.sum(axis=axis) * step - ref).max() < 1e-12

    def test_ties_and_empty_cells_match_per_row_search(self):
        # dyadic cell masses with runs of empty cells, and targets on or next
        # to CDF entries: a target equal to an entry lands in the first cell
        # reaching it, as searchsorted's side="left" does
        rng = np.random.default_rng(7)
        mass = rng.integers(0, 3, (5, sampling._QUAD_GRID.size)) * 2.0**-12
        mass[:, :40] = 0.0
        mass[2, 300:700] = 0.0
        cum = np.cumsum(mass, axis=1)
        rows = np.repeat(np.arange(5), 60)
        u = np.concatenate([cum[r, rng.integers(0, cum.shape[1], 60)] / cum[r, -1] for r in range(5)])
        u[::7] = rng.random(u[::7].size)
        u[::11] = 2.0**-53
        shuffle = rng.permutation(u.size)
        rows, u = rows[shuffle], u[shuffle]
        x_rows, j_rows = sampling._inverse_cdf(cum, u, rows)
        step = float(sampling._QUAD_GRID[1] - sampling._QUAD_GRID[0])
        for r in range(5):
            mine = rows == r
            ref_x, ref_j = oracles.inverse_cell_draw(cum[r], step, u[mine])
            # row r alone, as a one-row table
            x, j = sampling._inverse_cdf(cum[r][None], u[mine], np.zeros(mine.sum(), np.intp))
            assert np.array_equal(j, ref_j) and np.array_equal(j_rows[mine], ref_j)
            assert np.array_equal(x.view(np.uint64), ref_x.view(np.uint64))
            assert np.array_equal(x_rows[mine].view(np.uint64), ref_x.view(np.uint64))


class TestPhaseSchedule:
    """The tomography run's schedule, ``pipeline.TOMO_PHASES``."""

    def test_four_settings(self):
        # every third phase: the informationally complete 4-phase scan, exactly
        assert pipeline.TOMO_PHASES[::3] == _FOUR_PHASES

    def test_twelve_settings_bob_locked(self):
        sched = pipeline.TOMO_PHASES
        assert len(sched) == 12
        # a setting is Alice's phase alone: Bob's LO has no setting
        assert all(type(ta) is float for ta in sched)
        assert np.allclose(np.diff(sched), math.pi / 6.0)


class TestCsvSerialization:
    def test_quadrature_round_trip(self, tmp_path):
        # the records a tomography run writes read back bit for bit
        cfg = tmp_path / "experiment.json"
        cfg.write_text('{"n_quad_shots": 1000, "seed": 52}')
        out = tmp_path / "out"
        assert cli.main(["tomography", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        path = out / "records.csv"
        header = path.read_text().splitlines()[0]
        assert header == "shot,thetaA,xA,thetaB,xB"
        rec = pipeline.run_tomography_scenario(
            pipeline.ExperimentConfig(n_quad_shots=1000, seed=52)
        )["records.csv"]
        shot, theta_a, x_a, theta_b, x_b = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(shot, rec["shot"])
        assert np.array_equal(x_a, rec["xA"])
        assert np.array_equal(theta_a, rec["thetaA"])
        # Bob's LO is locked at 0
        assert np.array_equal(theta_b, np.zeros(1000))
        assert np.array_equal(x_b, rec["xB"])

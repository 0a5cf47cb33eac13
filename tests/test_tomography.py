"""Reconstruction, concurrence and fidelity tests.

The simulate-then-reconstruct loops use the seeded samplers as data
source; closed-form loss-model states provide exact targets.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrocat import fock, sampling, tomography
from macrocat.errors import NumericError
from macrocat.pipeline import TOMO_PHASES, model_microscopic_state
from oracles import delocalized_photon, projector_rows_per_setting

_VACUUM = fock.DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
_FOUR_PHASES = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


def _simulate(rho, n_shots, seed, schedule=TOMO_PHASES):
    return sampling.sample_quadrature_schedule(rho, schedule, n_shots, seed)


def povm_completeness_defect(theta: float, dim: int, grid: np.ndarray) -> float:
    """Max elementwise deviation of ``sum_x |x,theta><x,theta| dx`` from identity.

    Oracle for the projector family used by the reconstruction: on a
    dense grid covering the truncated space the sum must resolve the
    identity.
    """
    grid = np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])
    basis = fock.quadrature_basis(grid, theta, dim)
    overlap = basis.conj().T @ basis * step
    return float(np.abs(overlap - np.eye(dim)).max())


def _dense_fidelity_oracle(rho, sigma):
    """Uhlmann fidelity through the dense square root of ``rho``."""
    w, v = np.linalg.eigh(rho.data)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.clip(np.linalg.eigvalsh(sqrt_rho @ sigma.data @ sqrt_rho), 0.0, None)
    return min(max(float(np.sqrt(lam).sum() ** 2), 0.0), 1.0)


def _random_full_rank_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    data = g @ g.conj().T
    return fock.DensityMatrix(data / np.trace(data))


class TestPovmCompleteness:
    @pytest.mark.parametrize("theta", [0.0, 1.1])
    def test_dense_grid_resolves_identity(self, theta):
        grid = np.arange(-8.0, 8.0 + 0.01, 0.02)
        defect = povm_completeness_defect(theta, 6, grid)
        assert defect < 1e-3


class TestMleReconstruct:
    def test_vacuum_self_consistency(self):
        rho = _VACUUM
        records = _simulate(rho, 50_000, seed=61)
        result = tomography.mle_reconstruct(records)
        assert tomography.fidelity(result.rho, rho) > 0.99
        assert np.all(np.diff(result.loglik) >= -1e-9)

    def test_lossy_delocalized_photon(self):
        # vacuum admixture and coherence recovered to statistical accuracy
        model = model_microscopic_state(0.49, 0.0)
        records = _simulate(model, 100_000, seed=62)
        result = tomography.mle_reconstruct(records)
        assert result.rho.data[0, 0].real == pytest.approx(0.51, abs=0.02)
        assert abs(result.rho.data[1, 2]) == pytest.approx(0.245, abs=0.02)
        assert result.concurrence == pytest.approx(0.49, abs=0.05)
        assert np.all(np.diff(result.loglik) >= -1e-9)

    def test_likelihood_trace_nondecreasing(self):
        model = model_microscopic_state(0.8, 0.4)
        records = _simulate(model, 20_000, seed=63)
        result = tomography.mle_reconstruct(records)
        assert np.all(np.diff(result.loglik) >= -1e-9)

    def test_phase_covariance(self):
        # relabeling every Alice phase by +c rotates the coherence by -c
        model = model_microscopic_state(0.49, 0.0)
        records = _simulate(model, 50_000, seed=64)
        offset = math.pi / 3.0
        shifted = sampling.QuadratureSample(
            theta_a=records.theta_a + offset,
            x_a=records.x_a,
            x_b=records.x_b,
        )
        base = tomography.mle_reconstruct(records)
        rot = tomography.mle_reconstruct(shifted)
        c0 = base.rho.data[1, 2]
        c1 = rot.rho.data[1, 2]
        assert abs(abs(c1) - abs(c0)) < 0.02
        assert abs(np.exp(1j * (np.angle(c1) - np.angle(c0) - offset)) - 1.0) < 0.05

    def test_consistency_with_sample_size(self):
        # average fidelity to the generating state improves with samples
        model = model_microscopic_state(0.49, 0.0)
        fids = {10_000: [], 200_000: []}
        for seed in range(10):
            for n in fids:
                records = _simulate(model, n, seed=1000 + seed)
                result = tomography.mle_reconstruct(records)
                fids[n].append(tomography.fidelity(result.rho, model))
        assert np.mean(fids[200_000]) >= np.mean(fids[10_000])

    def test_too_few_records_rejected(self):
        records = _simulate(_VACUUM, 999, seed=65)
        with pytest.raises(ValueError, match="records"):
            tomography.mle_reconstruct(records)

    def test_single_phase_rejected(self):
        records = sampling.sample_quadrature_schedule(_VACUUM, [0.7], 2000, seed=66)
        with pytest.raises(ValueError, match="phases"):
            tomography.mle_reconstruct(records)

    def test_result_json_shape(self):
        records = _simulate(_VACUUM, 2000, seed=67, schedule=_FOUR_PHASES)
        result = tomography.mle_reconstruct(records)
        doc = result.to_json_dict()
        assert set(doc) == {
            "rho",
            "loglik",
            "iterations",
            "converged",
            "stop_reason",
            "gap",
            "concurrence",
        }
        shape = result.rho.data.shape
        back = np.reshape(doc["rho"]["re"], shape) + 1j * np.reshape(doc["rho"]["im"], shape)
        assert np.abs(back - result.rho.data).max() < 1e-12
        assert len(doc["loglik"]) == doc["iterations"] + 1

    def test_output_failing_validation_raises(self, monkeypatch):
        # the returned state is checked: coordinates of trace 2 do not pass
        records = _simulate(_VACUUM, 2000, seed=67, schedule=_FOUR_PHASES)
        maximize = tomography._maximize

        def doubled(lik):
            x, loglik, gap, stop_reason = maximize(lik)
            return 2.0 * x, loglik, gap, stop_reason

        monkeypatch.setattr(tomography, "_maximize", doubled)
        with pytest.raises(ValueError, match="trace"):
            tomography.mle_reconstruct(records)

    def test_falling_likelihood_is_numeric_error(self, monkeypatch):
        # with a negative allowance every accepted step counts as a fall
        records = _simulate(_VACUUM, 2000, seed=67, schedule=_FOUR_PHASES)
        monkeypatch.setattr(tomography, "_LL_DECREASE_TOL", -1.0)
        with pytest.raises(NumericError, match="likelihood decreased"):
            tomography.mle_reconstruct(records)

    def test_uncertified_stop_warns(self, monkeypatch):
        model = model_microscopic_state(0.49, 0.0)
        records = _simulate(model, 2_000, seed=69)
        monkeypatch.setattr(tomography, "_MAX_STEPS", 1)
        with pytest.warns(UserWarning, match="uncertified"):
            result = tomography.mle_reconstruct(records)
        assert result.stop_reason == "max_iter"
        assert result.converged is False
        assert result.iterations == 1
        assert result.gap > 1e-8
        assert np.all(np.diff(result.loglik) >= 0.0)

    def test_stalled_stop_below_float64_resolution(self, monkeypatch):
        # tol = 1e-15 lies below what the eigenvalue projection resolves, so a
        # run either certifies or stalls; which seeds stall depends on BLAS
        # rounding, so the test counts stalls over seeds instead of pinning one
        model = model_microscopic_state(0.49, 0.0)
        monkeypatch.setattr(tomography, "_TOL", 1e-15)
        stalled = 0
        for seed in range(3000, 3010):
            records = _simulate(model, 20_000, seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = tomography.mle_reconstruct(records)
            assert result.stop_reason in ("certified", "stalled"), seed
            if result.stop_reason == "stalled":
                stalled += 1
                assert any("uncertified" in str(w.message) for w in caught), seed
                assert result.converged is False
                assert result.gap < 1e-9
                # an accepted step's exact gain is positive, but the float64
                # mean of log pr may still round down by an ulp
                assert np.all(np.diff(result.loglik) >= -1e-12), seed
        assert stalled >= 1


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(
    eta=st.floats(0.05, 1.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    sigma=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
    n_shots=st.integers(1000, 2000),
    tol=st.sampled_from([1e-8, 1e-10, 1e-12, 1e-15]),
)
def test_mle_stop_property(eta, phi, sigma, seed, n_shots, tol):
    """On small datasets from the loss + dephasing model, the stop reason,
    ``converged`` and ``gap`` agree, a stall happens only where ``tol`` lies
    below what float64 resolves, and ``loglik`` never falls by more than the
    rounding of its mean."""
    records = _simulate(model_microscopic_state(eta, phi, sigma), n_shots, seed)
    with warnings.catch_warnings(), mock.patch.object(tomography, "_TOL", tol):
        warnings.simplefilter("ignore", UserWarning)
        result = tomography.mle_reconstruct(records)
    assert result.converged == (result.stop_reason == "certified")
    if result.converged:
        assert result.gap <= tol
    if result.stop_reason == "stalled":
        assert tol <= 1e-10
    loglik = np.asarray(result.loglik)
    scale = np.maximum(np.abs(loglik[:-1]), np.abs(loglik[1:]))
    assert np.all(np.diff(loglik) >= -4.0 * np.spacing(scale)), np.diff(loglik)


def _rrr_oracle_loglik(records, n_iter=2000):
    """Mean log-likelihood after ``n_iter`` passes of the fixed point
    ``rho <- R rho R / Tr[R rho R]`` from the maximally mixed state: the
    estimator the certified solver replaced."""
    W = tomography._projector_rows(records)
    Wc = W.conj()
    n, d = W.shape
    rho = np.eye(d, dtype=complex) / d

    def probabilities(state):
        return ((W @ state) * Wc).sum(axis=1).real

    for _ in range(n_iter):
        R = (Wc.T @ (W / probabilities(rho)[:, None])) / n
        new = R @ rho @ R
        new = 0.5 * (new + new.conj().T)
        rho = new / np.trace(new).real
    return float(np.log(probabilities(rho)).mean())


_DEPHASING_SIGMA = math.sqrt(-2.0 * math.log(0.32 / 0.49))


class TestCertifiedSolverOracle:
    """The certified solver against 2000 passes of the fixed point it replaced,
    with the gap recomputed from the complex projector rows."""

    @pytest.mark.parametrize(
        "case",
        [
            # optimum on the boundary: the estimate has a zero eigenvalue
            ("boundary", model_microscopic_state(0.49, 0.0), 1),
            # optimum inside the state space: the estimate has full rank
            (
                "interior",
                model_microscopic_state(0.49, 0.0, dephasing_sigma=_DEPHASING_SIGMA),
                71,
            ),
        ],
        ids=lambda case: case[0],
    )
    def test_matches_or_beats_fixed_point(self, case):
        kind, model, seed = case
        records = _simulate(model, 20_000, seed=seed)
        tol = tomography._TOL
        result = tomography.mle_reconstruct(records)
        assert result.stop_reason == "certified" and result.converged
        support = tomography.total_photon_support(2, 1)
        block = result.rho.data[np.ix_(support, support)]
        W = tomography._projector_rows(records)
        eig = np.linalg.eigvalsh(block)
        if kind == "boundary":
            assert eig[0] < 1e-12
        else:
            assert eig[0] > 1e-3
        # with Bob's LO locked, Im rho_{00,01} leaves no trace in the data, so
        # the Newton curvature is singular
        features = tomography._LogLikelihood(W).F
        assert np.linalg.matrix_rank(features) < support.size**2

        pr = np.einsum("ja,ab,jb->j", W, block, W.conj()).real
        R = (W.conj().T @ (W / pr[:, None])) / pr.size
        gap = float(np.log(np.linalg.eigvalsh(R)[-1]))
        assert gap <= tol
        assert gap == pytest.approx(result.gap, abs=1e-12)
        assert float(np.log(pr).mean()) == pytest.approx(result.loglik[-1], abs=1e-12)

        oracle = _rrr_oracle_loglik(records)
        assert result.loglik[-1] >= oracle - 1e-12
        assert np.all(np.diff(result.loglik) >= -1e-9)


class TestProjectorRows:
    """The closed-form projector rows against the per-setting construction."""

    @pytest.mark.parametrize(
        "schedule,start_shot",
        [(TOMO_PHASES, 0), ([0.7], 0), ([2.0 * math.pi * j / 5 for j in range(5)], 803)],
        ids=["twelve-settings", "one-setting", "start-shot"],
    )
    def test_matches_per_setting_oracle_bitwise(self, schedule, start_shot):
        model = model_microscopic_state(0.49, 1.3)
        records = sampling.sample_quadrature_schedule(
            model, schedule, 3000, seed=69, start_shot=start_shot
        )
        rows = tomography._projector_rows(records)
        oracle = projector_rows_per_setting(records)
        assert rows.shape == oracle.shape == (3000, 3)
        assert rows.tobytes() == oracle.tobytes()


class TestSupportRestriction:
    def test_support_indices(self):
        idx = tomography.total_photon_support(4, 1)
        assert idx.tolist() == [0, 1, 4]
        idx2 = tomography.total_photon_support(3, 2)
        assert idx2.tolist() == [0, 1, 2, 3, 4, 6]

    def test_restricted_result_lives_on_support(self):
        model = model_microscopic_state(0.49, 0.0)
        records = _simulate(model, 5_000, seed=68)
        result = tomography.mle_reconstruct(records)
        # |11>, index 3, lies outside the support
        assert np.abs(result.rho.data[3]).max() == 0.0
        assert np.abs(result.rho.data[:, 3]).max() == 0.0
        assert result.rho.trace() == pytest.approx(1.0, abs=1e-10)


class TestConcurrence:
    def test_maximally_entangled_single_photon(self):
        rho = model_microscopic_state(1.0, 0.0)
        assert tomography.concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.25, 0.49, 0.8])
    def test_loss_model_equals_efficiency(self, eta):
        rho = model_microscopic_state(eta, 0.0)
        assert tomography.concurrence(rho) == pytest.approx(eta, abs=1e-12)

    def test_separable_state_clamped_to_zero(self):
        # populations without coherence make the bare formula negative
        rho = fock.DensityMatrix(np.diag([0.25, 0.25, 0.25, 0.25]))
        assert tomography.concurrence(rho) == 0.0

    @pytest.mark.parametrize("scale", [0.5, 0.9, 1.0])
    def test_zero_on_separability_boundary(self, scale):
        # coherence at or below sqrt(rho00 rho11) yields zero
        data = np.zeros((4, 4), dtype=complex)
        data[0, 0] = 0.4
        data[3, 3] = 0.1
        data[1, 1] = data[2, 2] = 0.25
        coh = scale * math.sqrt(0.4 * 0.1)
        data[1, 2] = data[2, 1] = coh
        rho = fock.DensityMatrix(data)
        assert tomography.concurrence(rho) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = raw @ raw.conj().T
            rho = fock.DensityMatrix(herm / np.trace(herm).real)
            c = tomography.concurrence(rho)
            assert 0.0 <= c <= 1.0

    def test_leaky_population_warns(self):
        # trace 0.5: the block of a state with half its population elsewhere
        rho = fock.DensityMatrix(np.diag([0.25, 0.125, 0.125, 0.0]))
        with pytest.warns(UserWarning, match="0.500 of the population lies outside"):
            tomography.concurrence(rho)

    def test_non_hermitian_rejected(self):
        data = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
        data[1, 2] = 0.25
        with pytest.raises(ValueError, match="Hermitian"):
            tomography.concurrence(fock.DensityMatrix(data))


class TestFidelity:
    def test_self_fidelity(self):
        rho = model_microscopic_state(0.49, 0.3)
        assert tomography.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        b = fock.DensityMatrix(np.diag([0.0, 1.0, 0.0, 0.0]))
        assert tomography.fidelity(_VACUUM, b) < 1e-12

    def test_pure_state_overlap_formula(self):
        bell = model_microscopic_state(1.0, 0.0)
        lossy = model_microscopic_state(0.49, 0.0)
        # <psi| rho |psi> for pure second argument: 0.49 (the |00> branch
        # is orthogonal to the delocalized photon)
        assert tomography.fidelity(lossy, bell) == pytest.approx(0.49, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle_on_full_rank_pairs(self, seed):
        rng = np.random.default_rng(seed)
        rho, sigma = _random_full_rank_state(rng), _random_full_rank_state(rng)
        assert tomography.fidelity(rho, sigma) == pytest.approx(
            _dense_fidelity_oracle(rho, sigma), abs=1e-12
        )

    @pytest.mark.parametrize("phi", [0.0, 1.3])
    @pytest.mark.parametrize("eta1,eta2", [(0.49, 0.6), (0.95, 0.99), (0.3, 0.3)])
    def test_loss_models_closed_form(self, eta1, eta2, phi):
        # both states mix the same two orthogonal pure states
        expected = (math.sqrt(eta1 * eta2) + math.sqrt((1.0 - eta1) * (1.0 - eta2))) ** 2
        value = tomography.fidelity(
            model_microscopic_state(eta1, phi), model_microscopic_state(eta2, phi)
        )
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 1.3])
    def test_pure_reference_gives_overlap(self, phi):
        # a rank-deficient sigma costs no square root of its zero eigenvalue
        rho = _random_full_rank_state(np.random.default_rng(5))
        psi = delocalized_photon(phi, 2)
        sigma = model_microscopic_state(1.0, phi)
        overlap = float((psi.conj() @ rho.data @ psi).real)
        assert tomography.fidelity(rho, sigma) == pytest.approx(overlap, abs=1e-15)

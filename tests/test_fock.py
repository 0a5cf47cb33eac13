"""Fock-space operator and state tests.

Oracles: brute-force matrix exponential (scaling and squaring, padded
space) for the displacement matrix; direct Kraus sums and closed-form
loss models for channels; trapezoid integration for densities.
"""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from macrocat import fock
from macrocat.errors import ConfigError, TruncationWarning
import oracles


def displacement_expm_oracle(alpha, dim, pad=192):
    """exp(alpha a^dag - conj(alpha) a) in a padded space, then truncated."""
    big = dim + pad
    n = np.arange(1, big)
    adag = np.diag(np.sqrt(n), -1).astype(complex)
    a = np.diag(np.sqrt(n), 1).astype(complex)
    return expm(alpha * adag - np.conj(alpha) * a)[:dim, :dim]


def loss_kraus_operators(eta, dim):
    """Kraus decomposition of the single-mode bosonic loss channel.

    ``K_j`` removes j photons: ``<n-j|K_j|n> =
    sqrt(C(n, j) * (1-eta)^j * eta^(n-j))``.
    """
    if eta == 1.0:
        return [np.eye(dim, dtype=complex)]
    if eta == 0.0:  # every photon is lost: K_j = |0><j|
        ops = []
        for j in range(dim):
            K = np.zeros((dim, dim), dtype=complex)
            K[0, j] = 1.0
            ops.append(K)
        return ops
    n = np.arange(dim)
    ops = []
    for j in range(dim):
        kept = n[j:]  # source levels n >= j
        loga = 0.5 * (
            gammaln(kept + 1)
            - gammaln(j + 1)
            - gammaln(kept - j + 1)
            + j * np.log1p(-eta)
            + (kept - j) * np.log(eta)
        )
        K = np.zeros((dim, dim), dtype=complex)
        K[np.arange(dim - j), kept] = np.exp(loga)
        ops.append(K)
    return ops


def kraus_loss_oracle(rho, eta, mode):
    """Direct Kraus sum ``sum_j K_j rho K_j^dagger`` with the identity on the
    other mode."""
    eye = np.eye(rho.dim)
    out = np.zeros_like(rho.data)
    for K in loss_kraus_operators(eta, rho.dim):
        if rho.modes == 2:
            K = np.kron(K, eye) if mode == 0 else np.kron(eye, K)
        out += K @ rho.data @ K.conj().T
    return out


def random_state(dim, modes, seed):
    rng = np.random.default_rng(seed)
    d = dim**modes
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    data = a @ a.conj().T
    return oracles.FockState(dim, modes, data / np.trace(data))


class TestDisplacementMatrix:
    def test_zero_alpha_is_identity(self):
        assert np.array_equal(fock.displacement_matrix(0.0, 8), np.eye(8))

    def test_vacuum_amplitude(self):
        # <0|D(1)|0> = exp(-1/2)
        D = fock.displacement_matrix(1.0, 32)
        assert D[0, 0].real == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert D[0, 0].imag == 0.0

    @pytest.mark.parametrize("alpha", [1.3, 2.0, -1.1, -2.0])
    def test_matches_matrix_exponential(self, alpha):
        D = fock.displacement_matrix(alpha, 64)
        oracle = displacement_expm_oracle(alpha, 64)
        assert np.abs(D - oracle).max() < 1e-8

    def test_negative_alpha_is_exact_adjoint(self):
        # the round trip's undisplacement: its phase factors are exact signs,
        # so D(-a) is real and bit for bit the adjoint D(a)^T
        D = fock.displacement_matrix(-1.1, 16)
        assert np.array_equal(D.imag, np.zeros((16, 16)))
        assert np.array_equal(D, fock.displacement_matrix(1.1, 16).T)

    def test_column_zero_is_coherent_state(self):
        alpha, dim = 1.7, 48
        D = fock.displacement_matrix(alpha, dim)
        expected = oracles.xi0(np.arange(dim), alpha)
        assert np.abs(D[:, 0].real - expected).max() < 1e-10
        assert np.abs(D[:, 0].imag).max() == 0.0

    def test_composition_with_inverse(self):
        # D(a) D(-a) = 1 on the low block while |a|^2 <= dim/8
        dim = 64
        alpha = np.sqrt(dim / 8.0)
        prod = fock.displacement_matrix(alpha, dim) @ fock.displacement_matrix(-alpha, dim)
        block = dim // 4
        dev = np.abs(prod - np.eye(dim))[:block, :block].max()
        assert dev < 1e-8

    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            fock.displacement_matrix(1.0, 1)

    def test_rejects_dim_past_1024(self):
        # raised before any element is computed: past ~1030 levels they are NaN
        with pytest.raises(ConfigError, match="1024"):
            fock.displacement_matrix(0.5, 1025)

    def test_finite_at_dim_1024(self):
        assert np.isfinite(fock.displacement_matrix(3.0, 1024)).all()

    def test_warns_when_truncation_dominated(self):
        with pytest.warns(TruncationWarning):
            fock.displacement_matrix(3.0, 16)


class TestLossChannel:
    def test_eta_one_is_identity(self):
        rho = oracles.build_macro_state(0.8, 0.3, 16)
        out = oracles.apply_loss(rho, 1.0, 0)
        assert np.abs(out.data - rho.data).max() == 0.0

    def test_single_photon_bernoulli(self):
        rho = oracles.pure_state(np.array([0.0, 1.0]), 2, 1)
        out = oracles.apply_loss(rho, 0.49, 0)
        assert np.allclose(np.diag(out.data).real, [0.51, 0.49], atol=1e-14)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.49, 0.85])
    def test_trace_preserved(self, eta):
        rho = oracles.build_macro_state(1.2, 0.7, 24)
        out = oracles.apply_loss(oracles.apply_loss(rho, eta, 0), eta, 1)
        assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("eta", [0.25, 0.49, 0.9])
    def test_matches_closed_form_on_delocalized_photon(self, eta):
        # equal loss on both arms: eta |psi><psi| + (1-eta)|00><00|
        dim = 4
        psi = oracles.delocalized_photon(0.4, dim)
        rho = oracles.pure_state(psi, dim, 2)
        out = oracles.apply_loss(oracles.apply_loss(rho, eta, 0), eta, 1)
        expected = eta * np.outer(psi, psi.conj())
        expected[0, 0] += 1.0 - eta
        assert np.abs(out.data - expected).max() < 1e-10

    def test_kraus_family_is_complete(self):
        ops = loss_kraus_operators(0.6, 12)
        total = sum(K.conj().T @ K for K in ops)
        assert np.abs(total - np.eye(12)).max() < 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.99, 1.0])
    def test_kraus_coefficients_are_the_operator_diagonals(self, eta):
        dim = 10
        coeffs = fock.loss_kraus_coefficients(eta, dim)
        ops = loss_kraus_operators(eta, dim)
        assert len(coeffs) == len(ops)
        for j, (c, K) in enumerate(zip(coeffs, ops)):
            assert np.abs(np.diagonal(K, offset=j) - c).max() <= 1e-15

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.99])
    @pytest.mark.parametrize("dim,modes,mode", [(8, 1, 0), (6, 2, 0), (6, 2, 1)])
    def test_matches_kraus_sum_oracle(self, eta, dim, modes, mode):
        rho = random_state(dim, modes, seed=dim + mode)
        out = oracles.apply_loss(rho, eta, mode)
        assert np.abs(out.data - kraus_loss_oracle(rho, eta, mode)).max() <= 1e-14

    def test_rejects_bad_eta(self):
        rho = oracles.vacuum(4)
        with pytest.raises(ValueError):
            oracles.apply_loss(rho, 1.2, 0)


def macro_rho(alpha, phi, dim):
    """Density matrix of the amplitude matrix under test."""
    psi = fock.macro_state_amplitudes(alpha, phi, dim)
    return oracles.pure_state(psi.ravel(), dim, 2)


class TestMacroState:
    def test_alpha_zero_is_delocalized_photon(self):
        psi = fock.macro_state_amplitudes(0.0, 0.0, 4)
        expected = oracles.delocalized_photon(0.0, 4)
        assert np.abs(psi.ravel() - expected).max() < 1e-15

    @pytest.mark.parametrize("alpha,phi", [(0.0, 0.0), (1.0, 0.5), (1.5, np.pi / 2)])
    def test_unit_trace(self, alpha, phi):
        psi = fock.macro_state_amplitudes(alpha, phi, 32)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha,phi,dim", [(0.8, 0.3, 16), (1.2, 0.7, 24), (2.0, 1.7, 32)])
    def test_matches_dense_kron_oracle(self, alpha, phi, dim):
        rho = oracles.build_macro_state(alpha, phi, dim)
        assert np.abs(macro_rho(alpha, phi, dim).data - rho.data).max() <= 1e-15

    @pytest.mark.parametrize("phi", [0.0, 1.0, np.pi / 2])
    def test_reduced_state_at_zero_alpha(self, phi):
        red = oracles.partial_trace(macro_rho(0.0, phi, 4), 0)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 0.5
        assert np.abs(red.data - expected).max() < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_reduced_mode_mean_photon_number(self, alpha):
        # each arm averages the displaced-vacuum and displaced-photon branch
        rho = macro_rho(alpha, 0.9, 32)
        for mode in (0, 1):
            mean, _ = oracles.photon_moments(rho, mode)
            assert mean == pytest.approx(alpha**2 + 0.5, abs=1e-6)

    def test_undisplacement_recovers_delocalized_photon(self):
        alpha, dim = 1.5, 32
        psi = fock.macro_state_amplitudes(alpha, 0.3, dim)
        D = fock.displacement_matrix(-alpha, dim)
        back = D @ psi @ D.T  # D (x) D on the ket
        expected = oracles.delocalized_photon(0.3, dim)
        fidelity = abs(np.vdot(expected, back.ravel())) ** 2
        assert fidelity > 1.0 - 1e-6

    @pytest.mark.filterwarnings("ignore::macrocat.errors.TruncationWarning")
    @pytest.mark.parametrize("alpha,dim", [(1.4, 6), (1.0, 8), (1.2, 12), (1.0, 16), (2.0, 32)])
    def test_truncation_warning_matches_dense_pmf(self, alpha, dim):
        # the check on the amplitude marginals warns exactly where the
        # photon-number distributions of the dense state exceed the budget
        rho = oracles.build_macro_state(alpha, 0.4, dim)
        worst = max(oracles.photon_number_pmf(rho, m)[-1] for m in (0, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fock.macro_state_amplitudes(alpha, 0.4, dim)
        warned = any(issubclass(w.category, TruncationWarning) for w in caught)
        assert warned == (worst > fock.TRAILING_POPULATION_BUDGET)


class TestPhotonMoments:
    def test_vacuum(self):
        assert oracles.photon_moments(oracles.vacuum(16)) == (0.0, 0.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_displaced_vacuum(self, alpha):
        vec = fock.displacement_matrix(alpha, 64)[:, 0]
        mean, var = oracles.photon_moments(oracles.pure_state(vec, 64, 1))
        assert mean == pytest.approx(alpha**2, abs=1e-6)
        assert var == pytest.approx(alpha**2, abs=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_displaced_single_photon(self, alpha):
        # mean alpha^2 + 1, variance three shot-noise units
        vec = fock.displacement_matrix(alpha, 64)[:, 1]
        mean, var = oracles.photon_moments(oracles.pure_state(vec, 64, 1))
        assert mean == pytest.approx(alpha**2 + 1.0, abs=1e-6)
        assert var == pytest.approx(3.0 * alpha**2, abs=1e-6)


class TestQuadratureMarginal:
    def test_vacuum_is_gaussian_half_variance(self):
        grid = np.linspace(-8, 8, 1601)
        dens = oracles.quadrature_marginal(oracles.vacuum(8), 0.0, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)
        var = np.trapezoid(dens * grid**2, grid)
        assert var == pytest.approx(0.5, abs=1e-6)

    def test_single_photon_node_at_origin(self):
        rho = oracles.pure_state(np.array([0.0, 1.0, 0.0]), 3, 1)
        grid = np.linspace(-8, 8, 1601)
        dens = oracles.quadrature_marginal(rho, 0.0, grid)
        assert dens[800] < 1e-12  # grid point exactly at x = 0

    def test_balanced_superposition_mean(self):
        rho = oracles.pure_state(np.array([1.0, 1.0]) / np.sqrt(2), 2, 1)
        grid = np.linspace(-8, 8, 3201)
        dens = oracles.quadrature_marginal(rho, 0.0, grid)
        mean = np.trapezoid(dens * grid, grid)
        # oracle: <0|X|1> = 1/sqrt(2) in this scaling
        assert mean == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValueError):
            oracles.quadrature_marginal(
                oracles.vacuum(4), 0.0, np.linspace(-3, 3, 100)
            )


class TestWigner:
    def test_vacuum_at_origin(self):
        grid = np.array([0.0])
        w = fock.wigner(0.0, 1.0, 0.0, grid, grid)
        assert w[0, 0] == pytest.approx(1.0 / np.pi, abs=1e-12)

    def test_single_photon_negativity_at_origin(self):
        w = fock.wigner(0.0, 0.0, 1.0, np.array([0.0]), np.array([0.0]))
        assert w[0, 0] == pytest.approx(-1.0 / np.pi, abs=1e-12)

    def test_normalization(self):
        grid = np.linspace(-6, 6, 241)
        w = fock.wigner(0.5, 1.0, 1.0 - 1.0j, grid, grid)
        total = np.trapezoid(np.trapezoid(w, grid, axis=1), grid)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_marginal_matches_quadrature_marginal(self):
        alpha, dim = 1.0, 16
        D = fock.displacement_matrix(alpha, dim)
        rho = oracles.pure_state(D[:, 0] + D[:, 1], dim, 1)
        xs = np.linspace(-7, 9, 161)
        ps = np.linspace(-8, 8, 641)
        w = fock.wigner(alpha, 1.0, 1.0, xs, ps)
        marg = np.trapezoid(w, ps, axis=1)
        direct = oracles.quadrature_marginal(rho, 0.0, xs)
        assert np.abs(marg - direct).max() < 1e-4

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            fock.wigner(0.0, 1.0, 0.0, np.linspace(-6, 6, 10), np.array([0.0]))

    # dims at which the state's top Fock level holds less than 1e-30
    @pytest.mark.parametrize("alpha,dim", [(0.0, 4), (-0.8, 28), (2.0, 48)])
    def test_matches_fock_oracle(self, alpha, dim):
        c0, c1 = 0.6 + 0.3j, -0.4 + 0.7j
        vec = c0 * fock.displacement_matrix(alpha, dim)[:, 0]
        vec = vec + c1 * fock.displacement_matrix(alpha, dim)[:, 1]
        assert abs(vec[-1]) ** 2 / np.vdot(vec, vec).real < 1e-30
        xs = np.sqrt(2.0) * alpha + np.linspace(-5, 5, 41)
        ps = np.linspace(-5, 5, 41)
        expected = oracles.wigner_fock(oracles.pure_state(vec, dim, 1), xs, ps)
        assert np.abs(fock.wigner(alpha, c0, c1, xs, ps) - expected).max() <= 1e-14

    def test_fock_oracle_normalization(self):
        # a state outside the displaced {|0>, |1>} family, for the oracle alone
        rho = oracles.pure_state(np.array([1.0, 0.0, 1.0]) / np.sqrt(2), 3, 1)
        grid = np.linspace(-6, 6, 241)
        w = oracles.wigner_fock(rho, grid, grid)
        total = np.trapezoid(np.trapezoid(w, grid, axis=1), grid)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_paper_scale_displaced_photon(self):
        # D(alpha)|1> at the experiment's amplitude, ~1e8 photons; no Fock
        # truncation could hold it
        alpha, step = 1.05e4, 0.05
        offsets = np.arange(-120, 121) * step
        w = fock.wigner(alpha, 0.0, 1.0, np.sqrt(2.0) * alpha + offsets, offsets)
        assert w.min() == pytest.approx(-1.0 / np.pi, abs=1e-12)
        assert w.sum() * step * step == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_bound_is_the_count_model_bound(self):
        # the largest alpha with 4 alpha^2 finite is accepted, the next is not
        alpha = math.sqrt(np.finfo(float).max) / 2.0
        while math.isfinite(4.0 * alpha * alpha):
            alpha = math.nextafter(alpha, math.inf)
        grid = np.arange(-60, 61) * 0.1
        for sign in (1.0, -1.0):
            with pytest.raises(ValueError, match="alpha"):
                fock.wigner(sign * alpha, 0.3, 1.0j, grid, grid)
            w = fock.wigner(sign * math.nextafter(alpha, 0.0), 0.3, 1.0j, grid, grid)
            assert np.isfinite(w).all()


class TestSerialization:
    def test_round_trip(self):
        rho = fock.DensityMatrix(random_state(2, 2, seed=12).data)
        doc = json.loads(json.dumps(rho.to_json_dict()))
        # result.json keeps the keys it had when the state type was general
        assert list(doc) == ["dim", "modes", "re", "im"]
        assert (doc["dim"], doc["modes"]) == (2, 2)
        data = np.reshape(doc["re"], (4, 4)) + 1j * np.reshape(doc["im"], (4, 4))
        back = fock.DensityMatrix(data)
        assert np.abs(back.data - rho.data).max() < 1e-15

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (16, 16), (4,), (4, 5), (1, 4, 4)])
    def test_rejects_shapes_other_than_4x4(self, shape):
        with pytest.raises(ValueError, match="4, 4"):
            fock.DensityMatrix(np.zeros(shape))

    def test_rejects_non_hermitian_payload(self):
        bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            fock.DensityMatrix(bad).validate()

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            fock.DensityMatrix(np.diag([0.7, 0.7, 0.0, 0.0])).validate()


class TestInvariantSweeps:
    """Randomized spot checks of the structural invariants."""

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_preserves_state_validity(self, seed):
        rng = np.random.default_rng(seed)
        dim = 6
        raw = rng.normal(size=(dim * dim, dim * dim)) + 1j * rng.normal(size=(dim * dim, dim * dim))
        herm = raw @ raw.conj().T
        rho = oracles.FockState(dim, 2, herm / np.trace(herm).real)
        out = oracles.apply_loss(rho, rng.uniform(0.1, 0.9), int(rng.integers(2)))
        assert np.abs(out.data - out.data.conj().T).max() <= 1e-10
        assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(out.data)[0] >= -1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_marginal_nonnegative_and_normalized(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = 8
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = raw @ raw.conj().T
        rho = oracles.FockState(dim, 1, herm / np.trace(herm).real)
        grid = np.linspace(-10, 10, 2001)
        dens = oracles.quadrature_marginal(rho, rng.uniform(0, 2 * np.pi), grid)
        assert dens.min() >= -1e-10
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_trailing_population_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            with pytest.raises(TruncationWarning):
                fock.macro_state_amplitudes(1.4, 0.0, 6)

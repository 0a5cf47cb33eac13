"""Fock-space operator and state tests.

Oracles: brute-force matrix exponential (scaling and squaring, padded
space) and the scipy special-function forms of ``tests/oracles.py`` for the
displaced levels (the coherent amplitudes and the dense displacement
matrix) and the Kraus coefficients; direct Kraus sums and
closed-form loss models for channels; trapezoid integration for densities.
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from macrocat import fock, pipeline
from macrocat.errors import ConfigError, NumericError
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


def displaced_columns_oracle(alpha, dim):
    """``D(alpha)|0>, D(alpha)|1>`` from ``oracles.xi0``/``xi1``, which take a
    positive amplitude; a negative one through the exact symmetry
    ``<m|D(-a)|n> = (-1)^(m-n) <m|D(a)|n>``."""
    n = np.arange(dim)
    cols = np.stack([oracles.xi0(n, abs(alpha)), oracles.xi1(n, abs(alpha))], axis=1)
    if alpha < 0:
        cols *= (-1.0) ** (n[:, None] - np.arange(2))
    return cols


class TestDisplacementMatrix:
    """Columns 0 and 1 of the displacement matrix, ``D(alpha)|0>`` and
    ``D(alpha)|1>``, from :func:`macrocat.fock.displaced_levels`."""

    def test_zero_alpha_is_identity(self):
        assert np.array_equal(fock.displaced_levels(0.0, 8), np.eye(8)[:, :2])

    def test_vacuum_amplitude(self):
        # <0|D(1)|0> = exp(-1/2), <0|D(1)|1> = -exp(-1/2)
        D = fock.displaced_levels(1.0, 32)
        assert D.dtype == np.float64
        assert D[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert D[0, 1] == pytest.approx(-np.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.3, 2.0, -1.1, -2.0])
    def test_matches_matrix_exponential(self, alpha):
        D = fock.displaced_levels(alpha, 64)
        oracle = displacement_expm_oracle(alpha, 64)[:, :2]
        assert np.abs(D - oracle).max() < 1e-8

    def test_negative_alpha_is_exact_adjoint(self):
        # the round trip's undisplacement reads rows 0 and 1 of D(-a) as the
        # columns of D(a), transposed: the phase factors are exact signs, so
        # D(-a) = D(a)^T bit for bit, column by column
        dim = 16
        signs = (-1.0) ** (np.arange(dim)[:, None] - np.arange(2))
        assert np.array_equal(fock.displaced_levels(-1.1, dim), signs * fock.displaced_levels(1.1, dim))
        rows = oracles.displacement_matrix_scipy(-1.1, dim)[:2].T
        assert np.abs(fock.displaced_levels(1.1, dim) - rows).max() <= 1e-15

    def test_column_zero_is_coherent_state(self):
        alpha, dim = 1.7, 48
        D = fock.displaced_levels(alpha, dim)
        expected = oracles.xi0(np.arange(dim), alpha)
        assert np.abs(D[:, 0] - expected).max() < 1e-10

    def test_composition_with_inverse(self):
        # (D(-a) D(a))[:2, :2] = 1 while |a|^2 <= dim/8: rows 0 and 1 of
        # D(-a) are the columns of D(a), transposed
        dim = 64
        D = fock.displaced_levels(np.sqrt(dim / 8.0), dim)
        assert np.abs(D.T @ D - np.eye(2)).max() < 1e-8

    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            fock.displaced_levels(1.0, 1)
        with pytest.raises(ValueError):
            fock.loss_kraus_coefficients(0.5, 1)

    def test_rejects_dim_past_1024(self):
        # 1024 levels is the round trip kernels' documented domain, the length
        # of their log-factorial table; a larger dim is rejected up front
        with pytest.raises(ConfigError, match="1024"):
            fock.displaced_levels(0.5, 1025)
        with pytest.raises(ConfigError, match="1024"):
            fock.loss_kraus_coefficients(0.5, 1025)

    def test_rejects_alpha_without_finite_square(self):
        with pytest.raises(ConfigError, match="no finite square"):
            fock.displaced_levels(1.4e154, 4)

    # at alpha 1e100 every amplitude underflows to exactly 0, without a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_at_dim_1024(self):
        for alpha in (3.0, 30.0, 1e100):
            assert np.isfinite(fock.displaced_levels(alpha, 1024)).all()

    # the log-space coherent amplitudes against scipy's gammaln forms, and at
    # dims up to 64 against the dense eval_genlaguerre matrix
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [-2.0, -0.3, 0.5, 1.0, 2.0, 3.0, 10.0, 30.0])
    @pytest.mark.parametrize("dim", [2, 3, 16, 32, 64, 256, 1024])
    def test_matches_scipy_oracle(self, dim, alpha):
        D = fock.displaced_levels(alpha, dim)
        assert np.abs(D - displaced_columns_oracle(alpha, dim)).max() <= 1e-12
        if dim <= 64:
            dense = oracles.displacement_matrix_scipy(alpha, dim)[:, :2]
            assert np.abs(D - dense).max() <= 1e-12


# eta = 0 takes 0 log 0 terms, which must give exactly 0 without a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
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

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.95, 0.99, 1.0])
    @pytest.mark.parametrize("dim", [2, 3, 16, 32, 64, 256, 1024])
    def test_kraus_coefficients_match_scipy_oracle(self, dim, eta):
        coeffs = fock.loss_kraus_coefficients(eta, dim)
        ref = oracles.loss_kraus_coefficients_scipy(eta, dim)
        assert [c.shape for c in coeffs] == [r.shape for r in ref]
        assert max(np.abs(c - r).max() for c, r in zip(coeffs, ref)) <= 1e-12

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


# the round trip's displaced ket Psi = D C D^T, C = [[0, 1], [e^{i phi}, 0]]
def _cat_coupling(phi):
    return np.array([[0.0, 1.0], [np.exp(1j * phi), 0.0]])


def macro_ket(alpha, phi, dim):
    """The displaced ket's amplitude matrix from the two displaced levels,
    normalized inside ``dim``."""
    D = fock.displaced_levels(alpha, dim)
    psi = D @ _cat_coupling(phi) @ D.T
    return psi / np.linalg.norm(psi)


def macro_rho(alpha, phi, dim):
    return oracles.pure_state(macro_ket(alpha, phi, dim).ravel(), dim, 2)


class TestMacroState:
    def test_alpha_zero_is_delocalized_photon(self):
        psi = macro_ket(0.0, 0.0, 4)
        expected = oracles.delocalized_photon(0.0, 4)
        assert np.abs(psi.ravel() - expected).max() < 1e-15

    @pytest.mark.parametrize("alpha,phi", [(0.0, 0.0), (1.0, 0.5), (1.5, np.pi / 2)])
    def test_unit_trace(self, alpha, phi):
        # the round trip's norm of Psi inside dim: tr(C S C^dagger S), S = D^T D
        D = fock.displaced_levels(alpha, 32)
        c = _cat_coupling(phi)
        s = D.T @ D
        norm2 = np.trace(c @ s @ c.conj().T @ s).real
        assert np.linalg.norm(D @ c @ D.T) ** 2 == pytest.approx(norm2, rel=1e-14)
        assert norm2 == pytest.approx(2.0, abs=1e-13)

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
        # rows 0 and 1 of D(-alpha) are the displaced levels, transposed: the
        # undisplaced ket's one-photon block is D^T Psi D
        alpha, dim = 1.5, 32
        D = fock.displaced_levels(alpha, dim)
        back = D.T @ macro_ket(alpha, 0.3, dim) @ D
        expected = oracles.delocalized_photon(0.3, 2)
        fidelity = abs(np.vdot(expected, back.ravel())) ** 2
        assert fidelity > 1.0 - 1e-6

    # alpha 30: every amplitude below dim 32 is ~1e-166 and the norm's sum of
    # squares underflows to 0; alpha 1e100: the two columns are exactly 0.
    # Neither warns, and the round trip rejects the state
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [30.0, 1e100])
    def test_unrepresentable_state_rejected(self, alpha):
        assert np.array_equal(np.linalg.norm(fock.displaced_levels(alpha, 32), axis=0), [0.0, 0.0])
        with pytest.raises(ConfigError, match="norm 0.0 below dim = 32"):
            pipeline.displacement_roundtrip_check(alpha, 1.0, 32, 0.0)


class TestPhotonMoments:
    def test_vacuum(self):
        assert oracles.photon_moments(oracles.vacuum(16)) == (0.0, 0.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_displaced_vacuum(self, alpha):
        vec = fock.displaced_levels(alpha, 64)[:, 0]
        mean, var = oracles.photon_moments(oracles.pure_state(vec, 64, 1))
        assert mean == pytest.approx(alpha**2, abs=1e-6)
        assert var == pytest.approx(alpha**2, abs=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_displaced_single_photon(self, alpha):
        # mean alpha^2 + 1, variance three shot-noise units
        vec = fock.displaced_levels(alpha, 64)[:, 1]
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
        D = oracles.displacement_matrix_scipy(alpha, dim)
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
        D = oracles.displacement_matrix_scipy(alpha, dim)
        vec = c0 * D[:, 0] + c1 * D[:, 1]
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
        with pytest.raises(NumericError, match="Hermitian deviation 5.000e-01"):
            fock.DensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NumericError, match="trace 1.400000000"):
            fock.DensityMatrix(np.diag([0.7, 0.7, 0.0, 0.0]))

    @pytest.mark.parametrize("entry", [(1, 1), (0, 2)])
    def test_rejects_nan_entry(self, entry):
        # a comparison with NaN is false, so each check is written to pass
        # only a value that compares within its tolerance
        data = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        data[entry] = np.nan
        with pytest.raises(NumericError, match="not a state: Hermitian deviation nan"):
            fock.DensityMatrix(data)


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

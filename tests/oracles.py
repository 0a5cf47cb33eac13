"""Independent reference implementations the test suite checks the package against.

None of these is reached by a CLI command.  Each is an exact or brute-force
counterpart of code on a command path, and each is itself tested (in the
test module of the package layer it stands in for), which is what makes it
trustworthy as an oracle:

* the coherent-state amplitudes ``xi0``/``xi1`` and the exact discrete count
  law built from them, with the enumerated sampler ``sample_counts_exact``
  (counterpart of :func:`macrocat.sampling.sample_counts`);
* the Gaussian-regime joint and marginal count densities (counterparts of
  the closed-form conditional moments and discrimination error in
  :mod:`macrocat.counting`);
* the delocalized photon with both arms displaced, as a dense two-mode
  density matrix (counterpart of :func:`macrocat.fock.macro_state_amplitudes`);
* the photon-number distribution, partial trace, photon-number moments and
  single-mode quadrature marginal of a truncated Fock-space state
  (counterparts of the truncation check, the homodyne sampler and the
  Wigner function).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, ndtr

from macrocat.counting import CountModelParams
from macrocat.fock import DensityMatrix, displacement_matrix, quadrature_basis
from macrocat.sampling import CountSample, shot_uniforms

# ---------------------------------------------------------------------------
# coherent amplitudes and the exact discrete count law

# Exact discrete enumeration is limited to amplitudes where a 4*alpha^2
# truncation stays tractable.
EXACT_ALPHA_MAX = 30.0
_WORDS_EXACT = 4  # joint cell, reference A, reference B, 1 pad


def xi0(n, alpha: float):
    """Coherent-state amplitude ``exp(-alpha^2/2) alpha^n / sqrt(n!)``."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("photon number must be nonnegative")
    out = np.exp(-alpha * alpha / 2.0 + n * np.log(alpha) - 0.5 * gammaln(n + 1))
    return out if out.shape else float(out)


def xi1(n, alpha: float):
    """Displaced-single-photon amplitude ``xi0(n) * (n/alpha - alpha)``."""
    n = np.asarray(n, dtype=float)
    out = xi0(n, alpha) * (n / alpha - alpha)
    return out if out.shape else float(out)


def discrete_joint_table(alpha: float, eta: float, phi: float) -> np.ndarray:
    """Exact joint photon-number law on ``[0, 4 alpha^2]^2`` before the
    reference subtraction."""
    n = np.arange(int(math.ceil(4.0 * alpha * alpha)) + 1)
    x0, x1 = xi0(n, alpha), xi1(n, alpha)
    a0, a1, cross = x0 * x0, x1 * x1, x0 * x1
    table = 0.5 * eta * (
        np.outer(a0, a1) + np.outer(a1, a0) + 2.0 * math.cos(phi) * np.outer(cross, cross)
    )
    table += (1.0 - eta) * np.outer(a0, a0)
    np.clip(table, 0.0, None, out=table)
    return table / table.sum()


def _table_draw(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(cum, u * cum[-1], side="left")


def sample_counts_exact(
    alpha: float,
    eta: float,
    phi: float,
    n_shots: int,
    seed: int,
    stream: int = 0,
    start_shot: int = 0,
) -> CountSample:
    """Exact Fock-basis counterpart of :func:`macrocat.sampling.sample_counts`.

    Draws the signal pair from the enumerated discrete joint law, then
    subtracts an independent Poissonian reference count of mean
    ``alpha^2`` (the law ``xi0**2``) per arm: the balanced-detection
    model, one extra unit of shot noise each.  Limited to
    ``alpha <= EXACT_ALPHA_MAX``.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha > EXACT_ALPHA_MAX:
        raise ValueError(
            f"alpha={alpha} exceeds {EXACT_ALPHA_MAX}; use the Gaussian sampler"
        )
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if n_shots < 1:
        raise ValueError(f"n_shots must be positive, got {n_shots}")
    table = discrete_joint_table(alpha, eta, phi)
    side = table.shape[0]
    cum_joint = np.cumsum(table.ravel())
    poisson = xi0(np.arange(side), alpha) ** 2
    cum_ref = np.cumsum(poisson / poisson.sum())
    tab = shot_uniforms(seed, stream, start_shot, n_shots, _WORDS_EXACT)
    cell = _table_draw(cum_joint, tab[:, 0])
    n_a = (cell // side).astype(float)
    n_b = (cell % side).astype(float)
    ref_a = _table_draw(cum_ref, tab[:, 1]).astype(float)
    ref_b = _table_draw(cum_ref, tab[:, 2]).astype(float)
    return CountSample(dn_a=n_a - ref_a, dn_b=n_b - ref_b)


# ---------------------------------------------------------------------------
# Gaussian-regime count densities


def joint_prob(dn_a, dn_b, params: CountModelParams):
    """Joint density of the centered counts ``(dn_a, dn_b)``, no reference.

    ``exp(-(u^2+v^2)/2a^2) / (2 pi a^4) *
    [eta/2 (u^2 + v^2 + 2 cos(phi) u v) + (1-eta) a^2]``
    where ``u, v`` are photon numbers relative to ``alpha^2``.
    """
    params.require_gaussian_regime()
    u = np.asarray(dn_a, dtype=float)
    v = np.asarray(dn_b, dtype=float)
    a2 = params.alpha**2
    gauss = np.exp(-(u * u + v * v) / (2.0 * a2)) / (2.0 * math.pi * a2 * a2)
    bracket = 0.5 * params.eta * (u * u + v * v + 2.0 * math.cos(params.phi) * u * v)
    bracket = bracket + (1.0 - params.eta) * a2
    out = gauss * bracket
    return out if out.shape else float(out)


def joint_prob_ref(n_a, n_b, params: CountModelParams):
    """Joint density of the reference-subtracted counts.

    Convolving :func:`joint_prob` with the Gaussian reference statistics in
    each arm gives
    ``exp(-(nA^2+nB^2)/4a^2) / (32 pi a^4) *
    [eta (nA^2 + nB^2 + 2 cos(phi) nA nB) + 4 (2-eta) a^2]``.
    Arguments are centered: zero means the arm matched its reference pulse.
    """
    params.require_gaussian_regime()
    u = np.asarray(n_a, dtype=float)
    v = np.asarray(n_b, dtype=float)
    a2 = params.alpha**2
    gauss = np.exp(-(u * u + v * v) / (4.0 * a2)) / (32.0 * math.pi * a2 * a2)
    bracket = params.eta * (u * u + v * v + 2.0 * math.cos(params.phi) * u * v)
    bracket = bracket + 4.0 * (2.0 - params.eta) * a2
    out = gauss * bracket
    return out if out.shape else float(out)


def alice_marginal_ref(n_a, params: CountModelParams):
    """Single-arm density of the reference-subtracted count (nB integrated out)."""
    params.require_gaussian_regime()
    u = np.asarray(n_a, dtype=float)
    a2 = params.alpha**2
    s2 = 2.0 * a2
    gauss = np.exp(-u * u / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    out = gauss * (params.eta * u * u / (8.0 * a2) + 1.0 - params.eta / 4.0)
    return out if out.shape else float(out)


def alice_marginal_ref_cdf(n_a, params: CountModelParams):
    """CDF of :func:`alice_marginal_ref`: ``Phi(z) - (eta/4) z phi(z)``
    with ``z = n_a / (sqrt(2) alpha)``."""
    params.require_gaussian_regime()
    z = np.asarray(n_a, dtype=float) / (math.sqrt(2.0) * params.alpha)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    out = ndtr(z) - 0.25 * params.eta * z * pdf
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Fock-space reductions


def build_macro_state(alpha: float, phi: float, dim: int) -> DensityMatrix:
    """Two-mode pure state with both arms displaced by ``alpha``.

    ``(D(a)|0>_A D(a)|1>_B + e^{i phi} D(a)|1>_A D(a)|0>_B)/sqrt(2)``
    as a rank-1 density matrix built from Kronecker products.  ``alpha = 0``
    reduces to the delocalized single photon.
    """
    D = displacement_matrix(alpha, dim)
    d0 = D[:, 0]
    d1 = D[:, 1]
    vec = (np.kron(d0, d1) + np.exp(1j * phi) * np.kron(d1, d0)) / np.sqrt(2.0)
    return DensityMatrix.from_pure(vec, dim, 2)


def photon_number_pmf(rho: DensityMatrix, mode: int = 0) -> np.ndarray:
    """Photon-number distribution of one mode (real, clipped at 0)."""
    if rho.modes == 1:
        if mode != 0:
            raise ValueError("single-mode state has only mode 0")
        p = np.diag(rho.data).real
    else:
        d = rho.dim
        t = rho.data.reshape(d, d, d, d)
        p = np.einsum("mkmk->m", t).real if mode == 0 else np.einsum("kmkm->m", t).real
    return np.clip(p, 0.0, None)


def vacuum(dim: int, modes: int = 1) -> DensityMatrix:
    """The vacuum ``|0...0><0...0|`` on ``modes`` modes truncated at ``dim``."""
    vec = np.zeros(dim**modes)
    vec[0] = 1.0
    return DensityMatrix.from_pure(vec, dim, modes)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduce a two-mode state to the given mode (0 = A, 1 = B)."""
    if rho.modes != 2:
        raise ValueError("partial_trace expects a two-mode state")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    d = rho.dim
    t = rho.data.reshape(d, d, d, d)
    out = np.einsum("mknk->mn", t) if keep == 0 else np.einsum("kmkn->mn", t)
    return DensityMatrix(d, 1, out)


def photon_moments(rho: DensityMatrix, mode: int = 0) -> tuple[float, float]:
    """Mean and variance of the photon number in the selected mode."""
    p = photon_number_pmf(rho, mode)
    n = np.arange(rho.dim)
    mean = float(np.dot(n, p))
    var = float(np.dot(n * n, p)) - mean * mean
    return mean, var


def quadrature_marginal(rho: DensityMatrix, theta: float, grid: np.ndarray) -> np.ndarray:
    """Probability density ``pr(x | theta)`` of a single-mode state on ``grid``.

    The grid must extend at least six units beyond the quadrature mean so
    the density integrates to 1 within the contract tolerance.
    """
    if rho.modes != 1:
        raise ValueError("quadrature_marginal expects a single-mode state")
    rho.validate()
    grid = np.asarray(grid, dtype=float)
    d = rho.dim
    a_op = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    mean_a = complex(np.trace(a_op @ rho.data))
    mean_x = np.sqrt(2.0) * (mean_a * np.exp(-1j * theta)).real
    if grid[0] > mean_x - 6.0 or grid[-1] < mean_x + 6.0:
        raise ValueError(
            f"grid [{grid[0]}, {grid[-1]}] does not cover the quadrature mean "
            f"{mean_x:.3f} +- 6"
        )
    basis = quadrature_basis(grid, theta, d)
    dens = np.einsum("xm,mn,xn->x", basis.conj(), rho.data, basis).real
    return np.clip(dens, 0.0, None)

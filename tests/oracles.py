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
* the whole-array binning of count records, ``bin_count_records``
  (counterpart of the block-by-block reduction in
  :func:`macrocat.pipeline.run_counts_scenario`);
* the round trip's two kernels in scipy's special functions: the whole
  displacement matrix element by element from ``eval_genlaguerre`` and
  ``gammaln``, ``displacement_matrix_scipy``, the test suite's one dense
  displacement (its columns 0 and 1 are the counterpart of the numpy-only
  :func:`macrocat.fock.displaced_levels`), and the loss channel's Kraus
  diagonals from ``gammaln`` and ``xlogy``, ``loss_kraus_coefficients_scipy``
  (counterpart of :func:`macrocat.fock.loss_kraus_coefficients`);
* ``FockState``, a density matrix at any per-mode truncation ``dim`` on one
  or two modes: the package's one state type,
  :class:`macrocat.fock.DensityMatrix`, holds two modes at two levels each;
* the delocalized photon's ket at any ``dim``, ``delocalized_photon``
  (counterpart of the ket in :func:`macrocat.pipeline.model_microscopic_state`);
* the delocalized photon with both arms displaced, as a dense two-mode
  density matrix (counterpart of the displaced ket ``D C D^T`` inside
  :func:`macrocat.pipeline.displacement_roundtrip_check`), and the bosonic
  loss channel on a density matrix (with the two, the dense counterpart of
  the round trip itself);
* the rank-1 density matrix of a ket, ``pure_state``;
* the photon-number distribution, partial trace, photon-number moments and
  single-mode quadrature marginal of a truncated Fock-space state
  (counterparts of the truncation check, the homodyne sampler and the
  Wigner function);
* the Wigner function of a truncated single-mode state by the
  displaced-parity Laguerre sum, ``wigner_fock`` (counterpart of the closed
  form :func:`macrocat.fock.wigner`);
* the homodyne sampler's grouped draw, ``sample_quadrature_grouped``: the
  joint density tabulated on all 801 x 801 cells of the outcome grid
  (``joint_quadrature_density``), shots sorted by their x_A cell and one
  ``searchsorted`` per occupied cell over the full conditional CDF table
  (counterpart of the rank-4, drawn-rows-only draw in
  :func:`macrocat.sampling.sample_quadrature_schedule`);
* the CSV text of a ``{column: array}`` document formatted cell by cell,
  ``csv_lines_per_cell`` (counterpart of the block-at-a-time
  :func:`macrocat.output.write_csv`);
* the tomography projector rows, complex, built setting by setting from
  :func:`macrocat.fock.quadrature_basis` at Alice's phase and Bob's locked
  0, ``projector_rows_per_setting``, and the MLE's real feature matrix
  built from them with whole-array complex pair products,
  ``pair_product_features`` (together the counterpart of the real,
  block-by-block ``macrocat.tomography._projector_rows``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, ndtr, xlogy

from macrocat import counting, fock
from macrocat.counting import CountModelParams
from macrocat.fock import loss_kraus_coefficients, quadrature_basis
from macrocat.pipeline import _N_COUNT_BINS, count_bin_edges
from macrocat.sampling import (
    _QUAD_GRID,
    CountSample,
    QuadratureSample,
    shot_uniforms,
)
from macrocat.tomography import total_photon_support

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
    u = np.asarray(n_a, dtype=float)
    a2 = params.alpha**2
    s2 = 2.0 * a2
    gauss = np.exp(-u * u / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    out = gauss * (params.eta * u * u / (8.0 * a2) + 1.0 - params.eta / 4.0)
    return out if out.shape else float(out)


def alice_marginal_ref_cdf(n_a, params: CountModelParams):
    """CDF of :func:`alice_marginal_ref`: ``Phi(z) - (eta/4) z phi(z)``
    with ``z = n_a / (sqrt(2) alpha)``."""
    z = np.asarray(n_a, dtype=float) / (math.sqrt(2.0) * params.alpha)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    out = ndtr(z) - 0.25 * params.eta * z * pdf
    return out if out.shape else float(out)


def bin_count_records(records: CountSample, params: CountModelParams) -> dict:
    """Conditional mean/variance of dn_B binned over Alice's outcome, as the
    columns of a curve file (``nA``, ``mean_nB``, ``var_nB``, ``count``,
    ``model_mean_nB``, ``model_var_nB``).

    Bins are those of :func:`count_bin_edges`; outliers are clipped into
    the edge bins so counts always total the number of shots.
    """
    edges = count_bin_edges(params)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.digitize(records.dn_a, edges) - 1, 0, _N_COUNT_BINS - 1)
    counts = np.bincount(idx, minlength=_N_COUNT_BINS).astype(np.int64)
    # Bob's counts scaled by a power of two near 1/alpha, which is exact, so
    # their squares stay finite at any alpha the config accepts; squared in
    # place, so one full-length temporary serves both sums
    scale = 2.0 ** -math.frexp(params.alpha)[1]
    dn_b = records.dn_b * scale
    sums = np.bincount(idx, weights=dn_b, minlength=_N_COUNT_BINS)
    sq = np.bincount(idx, weights=np.square(dn_b, out=dn_b), minlength=_N_COUNT_BINS)
    # a few shots spread over ~10 alpha can have a variance beyond the float64
    # range once unscaled; the infinity is rejected when the curve is written
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mean = sums / counts
        var = sq / counts - mean**2
        # unbiased correction
        var = np.where(counts > 1, var * counts / (counts - 1), np.nan)
        mean /= scale
        var /= scale**2
    return {
        "nA": centers, "mean_nB": mean, "var_nB": var, "count": counts,
        "model_mean_nB": counting.conditional_mean(centers, params),
        "model_var_nB": counting.conditional_variance(centers, params),
    }


# ---------------------------------------------------------------------------
# the round trip's kernels in scipy's special functions


def displacement_matrix_scipy(alpha: float, dim: int) -> np.ndarray:
    """``<m|D(alpha)|n>`` for a real ``alpha``, element by element: log-space
    factorial prefactors times ``scipy.special.eval_genlaguerre``, which loops
    over the degree for each element (O(dim^3) in all)."""
    alpha = float(alpha)
    if alpha == 0:
        return np.eye(dim)
    a = abs(alpha)
    x = a * a
    n = np.arange(dim)
    row, col = np.meshgrid(n, n, indexing="ij")
    p = np.minimum(row, col)
    k = np.abs(row - col)
    logmag = 0.5 * (gammaln(p + 1) - gammaln(p + k + 1)) + k * np.log(a) - x / 2.0
    with np.errstate(invalid="ignore"):
        mag = np.exp(logmag) * eval_genlaguerre(p, k, x)
    sign = math.copysign(1.0, alpha)
    return mag * np.where(row >= col, sign, -sign) ** k


def loss_kraus_coefficients_scipy(eta: float, dim: int) -> list[np.ndarray]:
    """The loss channel's Kraus diagonals ``c_j[n-j] = sqrt(C(n, j)
    (1-eta)^j eta^(n-j))`` from ``gammaln`` and ``xlogy`` (``0 log 0 = 0``)."""
    if eta == 1.0:
        return [np.ones(dim)]
    n = np.arange(dim)
    coeffs = []
    for j in range(dim):
        kept = n[j:]  # source levels n >= j
        log_binom = gammaln(kept + 1) - gammaln(j + 1) - gammaln(kept - j + 1)
        coeffs.append(np.exp(0.5 * (log_binom + j * np.log1p(-eta) + xlogy(kept - j, eta))))
    return coeffs


# ---------------------------------------------------------------------------
# Fock-space states and reductions


class FockState(NamedTuple):
    """Operator on ``modes`` modes truncated at ``dim`` levels each: ``data``
    is ``dim**modes`` square, two-mode kets ordered as in :mod:`macrocat.fock`."""

    dim: int
    modes: int
    data: np.ndarray


def delocalized_photon(phi: float, dim: int) -> np.ndarray:
    """Ket ``(|0>_A |1>_B + e^{i phi} |1>_A |0>_B) / sqrt(2)`` at ``dim`` levels
    per mode."""
    ket = np.zeros(dim * dim, dtype=complex)
    ket[1] = 1.0  # |0>_A |1>_B
    ket[dim] = np.exp(1j * phi)  # |1>_A |0>_B
    return ket / np.sqrt(2.0)


def pure_state(vec: np.ndarray, dim: int, modes: int) -> FockState:
    """Rank-1 density matrix |v><v| / <v|v> from a ket."""
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot build a state from the zero vector")
    v = v / norm
    return FockState(dim, modes, np.outer(v, v.conj()))


def build_macro_state(alpha: float, phi: float, dim: int) -> FockState:
    """Two-mode pure state with both arms displaced by ``alpha``.

    ``(D(a)|0>_A D(a)|1>_B + e^{i phi} D(a)|1>_A D(a)|0>_B)/sqrt(2)``
    as a rank-1 density matrix built from Kronecker products.  ``alpha = 0``
    reduces to the delocalized single photon.
    """
    D = displacement_matrix_scipy(alpha, dim)
    d0 = D[:, 0]
    d1 = D[:, 1]
    vec = (np.kron(d0, d1) + np.exp(1j * phi) * np.kron(d1, d0)) / np.sqrt(2.0)
    return pure_state(vec, dim, 2)


def apply_loss(rho: FockState, eta: float, mode: int = 0) -> FockState:
    """Bosonic loss channel of transmissivity ``eta`` on one mode of a
    density matrix.

    With the Kraus diagonals ``c_j`` of
    :func:`macrocat.fock.loss_kraus_coefficients`,
    each ``K_j rho K_j^dagger`` is the shifted block ``rho[j:, j:]`` of the
    mode's ket and bra indices, scaled by ``c_j`` on both sides and added
    into ``out[:d-j, :d-j]``.  Trace-preserving by construction.
    """
    coeffs = loss_kraus_coefficients(eta, rho.dim)
    if mode not in range(rho.modes):
        raise ValueError(f"mode {mode} invalid for a {rho.modes}-mode state")
    if eta == 1.0:
        return rho
    d = rho.dim
    t = rho.data
    if rho.modes == 2:
        # (mA, kB, nA, lB): the lossy mode's ket and bra axes go first
        t = np.moveaxis(t.reshape(d, d, d, d), (mode, mode + 2), (0, 1))
    out = np.zeros_like(t)
    spare = (1,) * (t.ndim - 2)  # broadcast over the other mode's axes
    for j, c in enumerate(coeffs):
        ket = c.reshape((d - j, 1) + spare)
        bra = c.reshape((1, d - j) + spare)
        out[: d - j, : d - j] += ket * t[j:, j:] * bra
    if rho.modes == 2:
        out = np.moveaxis(out, (0, 1), (mode, mode + 2)).reshape(d * d, d * d)
    return FockState(d, rho.modes, out)


def photon_number_pmf(rho: FockState, mode: int = 0) -> np.ndarray:
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


def vacuum(dim: int, modes: int = 1) -> FockState:
    """The vacuum ``|0...0><0...0|`` on ``modes`` modes truncated at ``dim``."""
    vec = np.zeros(dim**modes)
    vec[0] = 1.0
    return pure_state(vec, dim, modes)


def partial_trace(rho: FockState, keep: int) -> FockState:
    """Reduce a two-mode state to the given mode (0 = A, 1 = B)."""
    if rho.modes != 2:
        raise ValueError("partial_trace expects a two-mode state")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    d = rho.dim
    t = rho.data.reshape(d, d, d, d)
    out = np.einsum("mknk->mn", t) if keep == 0 else np.einsum("kmkn->mn", t)
    return FockState(d, 1, out)


def photon_moments(rho: FockState, mode: int = 0) -> tuple[float, float]:
    """Mean and variance of the photon number in the selected mode."""
    p = photon_number_pmf(rho, mode)
    n = np.arange(rho.dim)
    mean = float(np.dot(n, p))
    var = float(np.dot(n * n, p)) - mean * mean
    return mean, var


def quadrature_marginal(rho: FockState, theta: float, grid: np.ndarray) -> np.ndarray:
    """Probability density ``pr(x | theta)`` of a single-mode state on ``grid``.

    The grid must extend at least six units beyond the quadrature mean so
    the density integrates to 1 within the contract tolerance.
    """
    if rho.modes != 1:
        raise ValueError("quadrature_marginal expects a single-mode state")
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


def wigner_fock(rho: FockState, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Wigner function of a single-mode state on a phase-space grid.

    Evaluated through the displaced-parity identity
    ``W(x, p) = (1/pi) Tr[rho D(2 gamma) PI]`` with
    ``gamma = (x + i p)/sqrt(2)``, which reuses the analytic
    displacement-matrix elements.  Returns shape ``(len(xs), len(ps))``;
    normalized so that ``sum(W) dx dp -> 1``.
    """
    if rho.modes != 1:
        raise ValueError("wigner expects a single-mode state")
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    for g, name in ((xs, "x"), (ps, "p")):
        if g.size > 1 and np.diff(g).max() > 0.5:
            raise ValueError(f"{name}-grid spacing exceeds 0.5; refine the grid")
    d = rho.dim
    X, P = np.meshgrid(xs, ps, indexing="ij")
    beta = np.sqrt(2.0) * (X + 1j * P)  # 2*gamma
    b2 = np.abs(beta) ** 2
    expfac = np.exp(-0.5 * b2)
    W = np.zeros(X.shape)
    signs = (-1.0) ** np.arange(d)
    for m in range(d):
        for n in range(m, d):
            # <n|D(beta)|m> for n >= m
            k = n - m
            pref = np.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)))
            elem = pref * beta**k * eval_genlaguerre(m, k, b2) * expfac
            term = rho.data[m, n] * signs[m] * elem
            if n == m:
                W += term.real
            else:
                # conjugate pair (m, n) and (n, m)
                W += 2.0 * term.real
    return W / np.pi


# ---------------------------------------------------------------------------
# homodyne sampler: the full outcome grid and the grouped per-cell draw


def joint_quadrature_density(rho: fock.DensityMatrix, theta_a: float) -> np.ndarray:
    """Two-mode homodyne outcome density ``p(x_A, x_B)`` on ``_QUAD_GRID`` in
    both coordinates, at Alice's LO phase ``theta_a`` and Bob's locked at 0."""
    fa = fock.quadrature_basis(_QUAD_GRID, theta_a, 2)
    fb = fock.quadrature_basis(_QUAD_GRID, 0.0, 2)
    ta = (fa.conj()[:, :, None] * fa[:, None, :]).reshape(_QUAD_GRID.size, 4)
    tb = (fb.conj()[:, :, None] * fb[:, None, :]).reshape(_QUAD_GRID.size, 4)
    # r2[(m, n), (k, l)] = <mk| rho |nl>: mode A's ket and bra levels index rows
    r2 = rho.data.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    dens = (ta @ r2 @ tb.T).real
    return np.clip(dens, 0.0, None)


def inverse_cell_draw(cum: np.ndarray, step: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms through the piecewise-linear CDF of tabulated cell masses;
    returns the draws and their cell indices."""
    target = u * cum[-1]
    j = np.searchsorted(cum, target, side="left")
    lo = np.where(j > 0, cum[np.maximum(j - 1, 0)], 0.0)
    frac = (target - lo) / np.maximum(cum[j] - lo, 1e-300)
    return _QUAD_GRID[j] + (frac - 0.5) * step, j


def _draw_setting_grouped(rho, theta_a: float, u_a: np.ndarray, u_b: np.ndarray):
    """``(x_A, x_B)`` at one setting: x_A from the marginal CDF, then the shots
    grouped by x_A cell, each group's x_B drawn from its row of the full
    conditional CDF table."""
    step = float(_QUAD_GRID[1] - _QUAD_GRID[0])
    mass = joint_quadrature_density(rho, theta_a) * step**2
    mass /= mass.sum()
    x_a, ja = inverse_cell_draw(np.cumsum(mass.sum(axis=1)), step, u_a)
    cum_b_rows = np.cumsum(mass, axis=1)
    x_b = np.empty_like(x_a)
    order = np.argsort(ja, kind="stable")
    bounds = np.flatnonzero(np.diff(ja[order])) + 1
    for seg in np.split(order, bounds):
        x_b[seg] = inverse_cell_draw(cum_b_rows[ja[seg[0]]], step, u_b[seg])[0]
    return x_a, x_b


def sample_quadrature_grouped(
    rho, schedule: list[float], n_shots: int, seed: int, stream: int = 0, start_shot: int = 0
) -> QuadratureSample:
    """The schedule sampler with the grouped draw: absolute shot ``s`` at
    Alice's phase ``schedule[s % len(schedule)]``, uniforms from row ``s``."""
    tab = shot_uniforms(seed, stream, start_shot, n_shots, 4)
    theta_a, x_a, x_b = np.empty(n_shots), np.empty(n_shots), np.empty(n_shots)
    for k, ta in enumerate(schedule):
        idx = np.arange((k - start_shot) % len(schedule), n_shots, len(schedule))
        if idx.size:
            theta_a[idx] = ta
            x_a[idx], x_b[idx] = _draw_setting_grouped(rho, ta, tab[idx, 0], tab[idx, 1])
    return QuadratureSample(theta_a=theta_a, x_a=x_a, x_b=x_b, start_shot=start_shot)


# ---------------------------------------------------------------------------
# CSV text, cell by cell


def csv_lines_per_cell(columns: dict[str, np.ndarray]) -> list[str]:
    """The lines of a column CSV: floats with ``.17g``, other values with
    ``format(v, "")``, each cell formatted on its own."""

    def cell(v):
        return f"{v:.17g}" if isinstance(v, float) else f"{v}"

    rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
    return [",".join(columns) + "\n"] + [",".join(cell(v) for v in row) + "\n" for row in rows]


# ---------------------------------------------------------------------------
# tomography projector rows and features


def projector_rows_per_setting(records: QuadratureSample) -> np.ndarray:
    """Row j holds ``<(n,l)|x_j, theta_j>`` on the kets with at most one photon
    in total, each distinct Alice phase's records built together from the
    products of :func:`quadrature_basis` at that phase and at Bob's locked 0."""
    support = total_photon_support(2, 1)
    mode_a, mode_b = np.divmod(support, 2)
    rows = np.empty((len(records), support.size), dtype=complex)
    for theta in np.unique(records.theta_a):
        idx = np.flatnonzero(records.theta_a == theta)
        fa = quadrature_basis(records.x_a[idx], theta, 2)
        fb = quadrature_basis(records.x_b[idx], 0.0, 2)
        rows[idx] = fa[:, mode_a] * fb[:, mode_b]
    return rows


def pair_product_features(rows: np.ndarray) -> np.ndarray:
    """The real feature matrix ``F`` with ``pr = F x`` from complex projector
    rows ``w``, all records at once: ``|w_a|^2``, then ``2 Re`` and ``2 Im`` of
    the pair products ``conj(w_a) w_b`` for ``a < b``, since
    ``pr_j = sum_a |w_a|^2 rho_aa + sum_{a<b} 2 Re(conj(w_a) w_b conj(rho_ab))``."""
    n, m = rows.shape
    iu, ju = np.triu_indices(m, 1)
    p = iu.size
    pair = rows[:, iu].conj() * rows[:, ju]
    features = np.empty((n, m + 2 * p))
    features[:, :m] = rows.real**2 + rows.imag**2
    features[:, m : m + p] = 2.0 * pair.real
    features[:, m + p :] = 2.0 * pair.imag
    return features

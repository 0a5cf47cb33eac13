"""Seeded, reproducible samplers for synthetic detection records.

Reproducibility contract
------------------------
Every sampler consumes a fixed number of 64-bit Philox words per shot
(padded to a multiple of 4, the Philox counter granularity), and all
uniform-to-target transforms are inverse-CDF based (no rejection loops).
Shot ``i`` of stream ``(seed, stream)`` therefore always sees the same
uniforms regardless of how the shot range is partitioned: generating
shots ``[0, N)`` in one call, in chunks, or per shot yields bit-identical
records.  The generator identity is fixed per release: numpy's Philox-4x64
counter-based generator keyed by ``(seed, stream)``.

Each sampler draws its ``n_shots`` from one :func:`shot_uniforms` table per
call, so its working memory grows with ``n_shots``; a caller that must bound
it asks for a range of shots at a time, as the count scenario of
:mod:`macrocat.pipeline` does.

Record containers hold one numpy array per column.

Only :func:`sample_counts` needs ``scipy.special`` (``ndtri``), and imports
it when called: ``simulate-counts`` loads scipy, ``tomography`` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .counting import CountModelParams
from .errors import ConfigError, NumericError

_PHILOX_WORDS_PER_TICK = 4
_WORDS_COUNTS = 8  # component, 3 primary normals, sign, partner normal, 2 pad
_WORDS_QUAD = 4  # x_A uniform, x_B uniform, 2 pad

_U_LO = 2.0**-53

# homodyne outcomes are tabulated on [-8, 8] in steps of 0.02
_QUAD_GRID = np.linspace(-8.0, 8.0, 801)
_QUAD_STEP = float(_QUAD_GRID[1] - _QUAD_GRID[0])


@dataclass(frozen=True)
class CountSample:
    """Reference-subtracted photon counts for a block of shots."""

    dn_a: np.ndarray
    dn_b: np.ndarray

    def __len__(self) -> int:
        return self.dn_a.size


@dataclass(frozen=True)
class QuadratureSample:
    """Homodyne outcomes (theta_A, x_A, x_B) for a block of shots; Bob's LO
    phase is locked at 0."""

    theta_a: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    start_shot: int = 0

    def __len__(self) -> int:
        return self.x_a.size

    @property
    def shots(self) -> np.ndarray:
        return self.start_shot + np.arange(len(self), dtype=np.int64)


def shot_uniforms(
    seed: int, stream: int, start_shot: int, n_shots: int, words_per_shot: int
) -> np.ndarray:
    """Uniform table whose row i belongs to absolute shot ``start_shot + i``.

    ``words_per_shot`` must be a multiple of 4 so blocks align with the
    Philox counter; values are clipped into the open interval (0, 1) for
    safe inverse-CDF transforms.
    """
    if words_per_shot % _PHILOX_WORDS_PER_TICK:
        raise ConfigError("words_per_shot must be a multiple of 4")
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance(start_shot * words_per_shot // _PHILOX_WORDS_PER_TICK)
    u = np.random.Generator(bg).random((n_shots, words_per_shot))
    # random() returns k * 2**-53 for k < 2**53, so only the lower clip can bind
    return np.maximum(u, _U_LO, out=u)


def sample_counts(
    params: CountModelParams,
    n_shots: int,
    seed: int,
    stream: int = 0,
    start_shot: int = 0,
) -> CountSample:
    """Draw i.i.d. reference-subtracted count pairs from the joint law.

    Sampling is exact: in rotated coordinates ``u = (nA+nB)/sqrt(2)``,
    ``v = (nA-nB)/sqrt(2)`` the density factorizes into a three-component
    mixture (quadratically weighted Gaussian in u, same in v, plain
    Gaussian) with weights ``eta(1+cos phi)/4``, ``eta(1-cos phi)/4`` and
    ``1 - eta/2``; the quadratic components are signed chi(3)-distributed
    radii.  Cost per shot is constant in alpha.
    """
    from scipy.special import ndtri

    if n_shots < 1:
        raise ConfigError(f"n_shots must be positive, got {n_shots}")
    sigma = math.sqrt(2.0) * params.alpha
    cph = math.cos(params.phi)
    w_u = params.eta * (1.0 + cph) / 4.0
    w_v = params.eta * (1.0 - cph) / 4.0
    tab = shot_uniforms(seed, stream, start_shot, n_shots, _WORDS_COUNTS)
    # plain component: u is the first primary normal, v the partner
    z1 = ndtri(tab[:, 1])
    u = sigma * z1
    v = sigma * ndtri(tab[:, 5])
    # quadratic components: a signed chi(3) radius replaces u (or v, whose
    # partner normal then moves to u)
    quad = np.flatnonzero(tab[:, 0] < w_u + w_v)
    q = tab[quad]
    z1 = z1[quad]
    z2, z3 = ndtri(q[:, 2]), ndtri(q[:, 3])
    radius = sigma * np.sqrt(z1 * z1 + z2 * z2 + z3 * z3)
    np.negative(radius, out=radius, where=q[:, 4] < 0.5)
    in_u = q[:, 0] < w_u
    iu, iv = quad[in_u], quad[~in_u]
    u[iv] = v[iv]
    v[iv] = radius[~in_u]
    u[iu] = radius[in_u]
    return CountSample(dn_a=(u + v) / math.sqrt(2.0), dn_b=(u - v) / math.sqrt(2.0))


def joint_quadrature_density(
    rho: fock.DensityMatrix, theta_a: float, grid: np.ndarray
) -> np.ndarray:
    """Two-mode homodyne outcome density ``p(x_A, x_B)`` on a square grid, at
    Alice's LO phase ``theta_a`` and Bob's locked at 0."""
    fa = fock.quadrature_basis(grid, theta_a, 2)
    fb = fock.quadrature_basis(grid, 0.0, 2)
    ta = (fa.conj()[:, :, None] * fa[:, None, :]).reshape(grid.size, 4)
    tb = (fb.conj()[:, :, None] * fb[:, None, :]).reshape(grid.size, 4)
    # r2[(m, n), (k, l)] = <mk| rho |nl>: mode A's ket and bra levels index rows
    r2 = rho.data.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    dens = (ta @ r2 @ tb.T).real
    return np.clip(dens, 0.0, None)


def _inverse_cdf(
    cum: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms through piecewise-linear CDFs of tabulated cell masses on
    ``_QUAD_GRID``; returns the draws and their cell indices.

    ``cum`` holds cumulative cell masses: one CDF (1-D), or one per row
    (2-D), draw ``i`` then reading row ``rows[i]``.  Draw ``i`` lands in the
    first cell whose cumulative mass reaches ``u[i]`` times its CDF's total
    (``side="left"``).  One ``np.searchsorted`` finds the cells on a 1-D CDF;
    on rows, a binary search runs over all draws at once, and since the
    target never exceeds the row's last entry, probes past it are clamped
    to it.  The mass is taken as constant on each cell, so the draw is exact
    for that discretization.
    """
    flat = cum.ravel()
    if rows is None:
        target = u * cum[-1]
        pos = j = np.searchsorted(cum, target, side="left")
    else:
        width = cum.shape[1]
        base = rows * width
        last = base + (width - 1)
        target = u * flat[last]
        # pos - base counts the row's entries below target, built bit by bit
        pos = base.copy()
        stride = 1 << (width - 1).bit_length()
        while stride > 1:
            stride >>= 1
            probe = np.minimum(pos + (stride - 1), last)
            np.add(pos, stride, out=pos, where=flat[probe] < target)
        j = pos - base
    lo = np.where(j > 0, flat[np.maximum(pos - 1, 0)], 0.0)
    frac = (target - lo) / np.maximum(flat[pos] - lo, 1e-300)
    return _QUAD_GRID[j] + (frac - 0.5) * _QUAD_STEP, j


def _draw_setting(
    rho: fock.DensityMatrix, theta_a: float, u_a: np.ndarray, u_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(x_A, x_B)`` at one LO setting by conditional inverse CDF over
    the joint density tabulated on ``_QUAD_GRID`` in both coordinates: x_A
    from the marginal CDF, then each x_B from the CDF of its x_A cell's row.
    Only the rows some draw landed in are accumulated.
    """
    mass = joint_quadrature_density(rho, theta_a, _QUAD_GRID)
    mass *= _QUAD_STEP**2
    total = mass.sum()
    # a unit-trace positive state's density sums to 1 here up to rounding,
    # so a miss means rho is not a density matrix
    if abs(total - 1.0) > 1e-3:
        raise NumericError(
            f"the outcome grid [-8, 8] holds {total:.6f} of the quadrature "
            "density, not 1; the state is not a positive unit-trace matrix"
        )
    mass /= total
    x_a, ja = _inverse_cdf(np.cumsum(mass.sum(axis=1)), u_a)
    drawn = np.zeros(_QUAD_GRID.size, dtype=bool)
    drawn[ja] = True
    rows = (np.cumsum(drawn) - 1)[ja]
    x_b, _ = _inverse_cdf(np.cumsum(mass[drawn], axis=1), u_b, rows)
    return x_a, x_b


def sample_quadrature_schedule(
    rho: fock.DensityMatrix,
    schedule: list[float],
    n_shots: int,
    seed: int,
    stream: int = 0,
    start_shot: int = 0,
) -> QuadratureSample:
    """Joint homodyne samples of a two-mode state over a phase schedule.

    Absolute shot ``s`` (``start_shot <= s < start_shot + n_shots``) is
    measured at Alice's LO phase ``schedule[s % len(schedule)]``, with Bob's
    locked at 0, and draws its uniforms from row ``s`` of the stream, so any
    partitioning of a shot range reproduces bit-identical records.  A
    one-setting schedule samples at a fixed phase.  Outcomes are drawn on
    ``[-8, 8]`` in cells of 0.02; a tabulated density whose mass is off 1 by
    more than 1e-3 (``rho`` not positive, or not of unit trace) raises
    :class:`NumericError`.
    """
    if n_shots < 1:
        raise ConfigError(f"n_shots must be positive, got {n_shots}")
    if not schedule:
        raise ConfigError("schedule must contain at least one setting")
    tab = shot_uniforms(seed, stream, start_shot, n_shots, _WORDS_QUAD)
    theta_a = np.empty(n_shots)
    x_a = np.empty(n_shots)
    x_b = np.empty(n_shots)
    for k, ta in enumerate(schedule):
        first = (k - start_shot) % len(schedule)
        if first >= n_shots:
            continue
        idx = slice(first, n_shots, len(schedule))
        theta_a[idx] = ta
        x_a[idx], x_b[idx] = _draw_setting(rho, ta, tab[idx, 0], tab[idx, 1])
    return QuadratureSample(theta_a=theta_a, x_a=x_a, x_b=x_b, start_shot=start_shot)

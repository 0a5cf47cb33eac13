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

Record containers hold one numpy array per column.  The homodyne sampler
draws from the two-mode density's rank-4 form, evaluated only on Alice's
marginal and on the drawn rows, never on the whole outcome grid.

Only :func:`sample_counts` needs ``scipy.special`` (``ndtri``), and imports
it when called: ``simulate-counts`` loads scipy, ``tomography`` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .counting import CountModelParams
from .errors import ConfigError

_PHILOX_WORDS_PER_TICK = 4
# component and sign, primary normal, partner normal, exponential; no pad
_WORDS_COUNTS = 4
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
    Gaussian) with weights ``w_u = eta(1+cos phi)/4``, ``w_v = eta(1-cos
    phi)/4`` and ``1 - eta/2``; the quadratic components are signed
    chi(3)-distributed radii.  Each shot reads four words:

    - ``u0`` picks the component, and the sign of a quadratic one: given
      ``u0 < w_u``, ``u0 / w_u`` is uniform and independent of that choice,
      so ``u0 < w_u/2`` means negative (likewise on ``[w_u, w_u + w_v)``);
    - ``u1`` gives the normal ``z1 = ndtri(u1)``: the plain component's u,
      and the radius's normal;
    - ``u2`` gives the partner normal;
    - ``u3`` gives the exponential ``-2 ln u3``, a chi^2(2) variate (the
      fact behind Box & Muller, Ann. Math. Stat. 29, 610 (1958)), so
      ``z1^2 - 2 ln u3`` is chi^2(3) and the radius is
      ``sigma sqrt(z1^2 - 2 ln u3)``.  ``_U_LO`` keeps ``ln u3`` finite.

    Cost per shot is constant in alpha.
    """
    from scipy.special import ndtri

    if n_shots < 1:
        raise ConfigError(f"n_shots must be positive, got {n_shots}")
    sigma = math.sqrt(2.0) * params.alpha
    cph = math.cos(params.phi)
    w_u = params.eta * (1.0 + cph) / 4.0
    w_v = params.eta * (1.0 - cph) / 4.0
    tab = shot_uniforms(seed, stream, start_shot, n_shots, _WORDS_COUNTS)
    # plain component: u is the primary normal, v the partner
    z1 = ndtri(tab[:, 1])
    u = sigma * z1
    v = sigma * ndtri(tab[:, 2])
    # quadratic components: a signed chi(3) radius replaces u (or v, whose
    # partner normal then moves to u)
    quad = np.flatnonzero(tab[:, 0] < w_u + w_v)
    q = tab[quad]
    z1 = z1[quad]
    radius = sigma * np.sqrt(z1 * z1 - 2.0 * np.log(q[:, 3]))
    c = q[:, 0]
    in_u = c < w_u
    np.negative(radius, out=radius, where=c < np.where(in_u, w_u / 2.0, w_u + w_v / 2.0))
    iu, iv = quad[in_u], quad[~in_u]
    u[iv] = v[iv]
    v[iv] = radius[~in_u]
    u[iu] = radius[in_u]
    return CountSample(dn_a=(u + v) / math.sqrt(2.0), dn_b=(u - v) / math.sqrt(2.0))


def _cell_products(theta: float) -> np.ndarray:
    """Row i holds ``<x_i, theta|m><n|x_i, theta>`` on ``_QUAD_GRID`` for the
    level pairs ``(m, n)`` = 00, 01, 10, 11."""
    f = fock.quadrature_basis(_QUAD_GRID, theta, 2)
    return (f.conj()[:, :, None] * f[:, None, :]).reshape(_QUAD_GRID.size, 4)


def _inverse_cdf(cum: np.ndarray, u: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms through piecewise-linear CDFs of tabulated cell masses on
    ``_QUAD_GRID``; returns the draws and their cell indices.

    Each row of ``cum`` holds one CDF's cumulative cell masses, and draw
    ``i`` reads row ``rows[i]``.  Draw ``i`` lands in the first cell whose
    cumulative mass reaches ``u[i]`` times its CDF's total (``side="left"``).
    A binary search runs over all draws at once, and since the target never
    exceeds the row's last entry, probes past it are clamped to it.  The
    mass is taken as constant on each cell, so the draw is exact for that
    discretization.
    """
    flat = cum.ravel()
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
    r2: np.ndarray, tb: np.ndarray, theta_a: float, u_a: np.ndarray, u_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(x_A, x_B)`` at one LO setting by conditional inverse CDF over
    the joint density ``Re(ta @ r2 @ tb.T)`` on ``_QUAD_GRID`` in both
    coordinates, ``ta`` the cell products at ``theta_a``: x_A from the
    marginal CDF, then each x_B from the CDF of its x_A cell's row.  Only
    the marginal and the rows some draw landed in are evaluated.
    """
    left = _cell_products(theta_a) @ r2
    marginal = np.clip((left @ tb.sum(axis=0)).real, 0.0, None)
    # the marginal CDF as a one-row table
    x_a, ja = _inverse_cdf(np.cumsum(marginal)[None], u_a, np.zeros(u_a.size, np.intp))
    drawn = np.zeros(_QUAD_GRID.size, dtype=bool)
    drawn[ja] = True
    rows = (np.cumsum(drawn) - 1)[ja]
    dens = np.clip((left[drawn] @ tb.T).real, 0.0, None)
    x_b, _ = _inverse_cdf(np.cumsum(dens, axis=1), u_b, rows)
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
    ``[-8, 8]`` in cells of 0.02, which hold all of a state's density, from
    its rank-4 form (:func:`_draw_setting`).  ``rho`` is a state by
    construction (:class:`~macrocat.fock.DensityMatrix`), so its density is
    nonnegative up to rounding.
    """
    if n_shots < 1:
        raise ConfigError(f"n_shots must be positive, got {n_shots}")
    if not schedule:
        raise ConfigError("schedule must contain at least one setting")
    # r2[(m, n), (k, l)] = <mk| rho |nl>: mode A's ket and bra levels index rows
    r2 = rho.data.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    tb = _cell_products(0.0)
    tab = shot_uniforms(seed, stream, start_shot, n_shots, _WORDS_QUAD)
    theta_a = np.empty(n_shots)
    x_a = np.empty(n_shots)
    x_b = np.empty(n_shots)
    for k, phase in enumerate(schedule):
        first = (k - start_shot) % len(schedule)
        if first >= n_shots:
            continue
        idx = slice(first, n_shots, len(schedule))
        theta_a[idx] = phase
        x_a[idx], x_b[idx] = _draw_setting(r2, tb, phase, tab[idx, 0], tab[idx, 1])
    return QuadratureSample(theta_a=theta_a, x_a=x_a, x_b=x_b, start_shot=start_shot)

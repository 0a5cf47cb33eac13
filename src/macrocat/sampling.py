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

The count sampler's normals come from :func:`_ndtri`, Wichura's AS241
normal quantile in numpy, so the package needs numpy alone.  A
:class:`CountWorkspace` holds every array of a count draw, so a caller that
draws block after block, as the count scenario does on each pool thread,
allocates them once.
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
    seed: int,
    stream: int,
    start_shot: int,
    n_shots: int,
    words_per_shot: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform table whose row i belongs to absolute shot ``start_shot + i``.

    ``words_per_shot`` must be a multiple of 4 so blocks align with the
    Philox counter; values are clipped into the open interval (0, 1) for
    safe inverse-CDF transforms.  The table is written to ``out`` (C-ordered,
    ``(n_shots, words_per_shot)``) when one is given.
    """
    if words_per_shot % _PHILOX_WORDS_PER_TICK:
        raise ConfigError("words_per_shot must be a multiple of 4")
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance(start_shot * words_per_shot // _PHILOX_WORDS_PER_TICK)
    u = np.random.Generator(bg).random((n_shots, words_per_shot), out=out)
    # random() returns k * 2**-53 for k < 2**53, so only the lower clip can bind
    return np.maximum(u, _U_LO, out=u)


def _as241(numerator: list[float], denominator: list[float]) -> np.ndarray:
    """One rational of AS241 as Horner coefficients, highest degree first,
    shaped ``(8, 2, 1)``: step j broadcasts ``(P_j, Q_j)`` over a ``(2, n)``
    stack."""
    return np.array([numerator, denominator])[:, ::-1].T[:, :, None].copy()


# Wichura's AS241 PPND16 (Applied Statistics 37, 477 (1988)), coefficients
# lowest degree first: the central rational in 0.180625 - q^2, and the tail
# rationals in r - 1.6 (r <= 5) and r - 5, r = sqrt(-ln min(p, 1 - p))
_AS241_CENTRAL = _as241(
    [3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3],
    [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3],
)
_AS241_NEAR = _as241(
    [1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4],
    [1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9],
)
_AS241_FAR = _as241(
    [6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7],
    [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15],
)


def _rational(coef: np.ndarray, x: np.ndarray, acc: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = P(x) / Q(x)``: numerator and denominator in one Horner pass
    over the ``(2, n)`` stack ``acc``.  ``out`` may be ``x``."""
    acc[...] = coef[0]
    for c in coef[1:]:
        np.multiply(acc, x, out=acc)
        np.add(acc, c, out=acc)
    return np.divide(acc[0], acc[1], out=out)


def _ndtri(
    p: np.ndarray, out: np.ndarray, scratch: np.ndarray, acc: np.ndarray, tail: np.ndarray
) -> np.ndarray:
    """The standard normal quantile of each ``p`` in (0, 1), written to
    ``out``: AS241's PPND16, relative error about 1e-16.

    ``p``, ``out`` and ``scratch`` are 1-D float arrays of one length n,
    ``acc`` a ``(2, n)`` float one and ``tail`` an n-bool one.  With ``q = p -
    1/2``, the central rational runs over the whole array; the tail
    rationals run by index on the ~15% of values with ``|q| > 0.425``, and
    the far one only where ``p`` or ``1 - p`` is below ``exp(-25)``.  The
    sign is q's, so ``ndtri(1 - p) = -ndtri(p)`` wherever ``1 - p`` is exact.
    """
    r = scratch
    q = np.subtract(p, 0.5, out=out)
    np.greater(np.abs(q, out=r), 0.425, out=tail)
    np.subtract(0.180625, np.multiply(q, q, out=r), out=r)
    np.multiply(q, _rational(_AS241_CENTRAL, r, acc, r), out=out)
    idx = np.flatnonzero(tail)
    if idx.size:
        t = np.take(p, idx, out=r[: idx.size], mode="clip")
        np.minimum(t, np.subtract(1.0, t, out=acc[0, : t.size]), out=t)
        np.sqrt(np.negative(np.log(t, out=t), out=t), out=t)
        far = np.flatnonzero(t > 5.0)
        t_far = t[far] - 5.0
        _rational(_AS241_NEAR, np.subtract(t, 1.6, out=t), acc[:, : t.size], t)
        if far.size:
            t[far] = _rational(_AS241_FAR, t_far, np.empty((2, far.size)), t_far)
        # the tail rationals are positive and take q's sign here; the central
        # one, positive, has q's sign already
        sign = np.take(p, idx, out=acc[0, : t.size], mode="clip")
        np.subtract(sign, 0.5, out=sign)
        out[idx] = np.copysign(t, sign, out=t)
    return out


def _negate_where(x: np.ndarray, flags: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``x`` negated in place where ``flags`` is set, as a product with ``1 -
    2 flags`` (in the float array ``scratch``): numpy vectorizes it, where a
    masked ``np.negative(x, where=flags)`` runs element by element."""
    np.multiply(flags, -2.0, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    return np.multiply(x, scratch, out=x)


class CountWorkspace:
    """Every array a count draw of up to ``shots`` shots uses, sliced for
    fewer.  A draw overwrites all of them and returns views of the counts,
    so each thread draws into its own workspace."""

    def __init__(self, shots: int):
        # the uniform table; once its words are copied out, the quantile's
        # Horner stack
        self._table = np.empty(_WORDS_COUNTS * shots)
        # the table's four words as rows; the two normal words' rows then
        # hold the counts
        self._words = np.empty(_WORDS_COUNTS * shots)
        self._normals = np.empty(2 * shots)
        self._scratch = np.empty(2 * shots)
        self._flags = np.empty(3 * shots, dtype=bool)

    def draw(
        self, params: CountModelParams, n_shots: int, seed: int, stream: int, start_shot: int
    ) -> CountSample:
        """Shots ``[start_shot, start_shot + n_shots)`` of ``(seed, stream)``
        (``n_shots`` at most ``shots``), drawn as :func:`sample_counts`
        describes; the arrays are views into this workspace."""
        n = n_shots
        sigma = math.sqrt(2.0) * params.alpha
        cph = math.cos(params.phi)
        w_u = params.eta * (1.0 + cph) / 4.0
        w_v = params.eta * (1.0 - cph) / 4.0
        table = self._table[: _WORDS_COUNTS * n]
        words = self._words[: _WORDS_COUNTS * n].reshape(_WORDS_COUNTS, n)
        tab = shot_uniforms(
            seed, stream, start_shot, n, _WORDS_COUNTS, out=table.reshape(n, _WORDS_COUNTS)
        )
        np.copyto(words, tab.T)
        c, u3 = words[0], words[3]
        normals = _ndtri(
            words[1:3].reshape(-1), self._normals[: 2 * n], self._scratch[: 2 * n],
            table.reshape(2, 2 * n), self._flags[: 2 * n],
        )
        z1 = normals[:n]
        # the signed chi(3) radius of every shot; only the quadratic
        # components' shots keep theirs
        radius, scratch = self._scratch[: 2 * n].reshape(2, n)
        np.multiply(z1, z1, out=radius)
        log_u3 = np.multiply(np.log(u3, out=scratch), 2.0, out=scratch)
        np.multiply(np.sqrt(np.subtract(radius, log_u3, out=radius), out=radius), sigma, out=radius)
        in_u, quad, negative = self._flags[: 3 * n].reshape(3, n)
        np.less(c, w_u, out=in_u)
        # the radius is negative on [0, w_u/2) and on [w_u, w_u + w_v/2):
        # the xor of the nested intervals below w_u/2, w_u and w_u + w_v/2
        np.logical_xor(np.less(c, w_u / 2.0, out=negative), in_u, out=negative)
        np.logical_xor(negative, np.less(c, w_u + w_v / 2.0, out=quad), out=negative)
        _negate_where(radius, negative, scratch)
        # plain component: u is the primary normal, v the partner.  The
        # radius replaces u on the u component; on the v component it
        # replaces v and v's normal moves to u, which leaves u + v as it is
        # and changes the sign of u - v
        u, v = np.multiply(normals, sigma, out=normals).reshape(2, n)
        np.copyto(u, radius, where=np.less(c, w_u + w_v, out=quad))
        dn_a, dn_b = words[1:3]
        np.divide(np.add(u, v, out=dn_a), math.sqrt(2.0), out=dn_a)
        np.divide(np.subtract(u, v, out=dn_b), math.sqrt(2.0), out=dn_b)
        # c < w_u implies c < w_u + w_v, so the xor leaves [w_u, w_u + w_v)
        _negate_where(dn_b, np.logical_xor(quad, in_u, out=quad), scratch)
        return CountSample(dn_a=dn_a, dn_b=dn_b)


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

    ``ndtri`` is :func:`_ndtri`, run once over both normal words.  Cost per
    shot is constant in alpha.  This draws into a new
    :class:`CountWorkspace`; a caller drawing many blocks keeps one.
    """
    if n_shots < 1:
        raise ConfigError(f"n_shots must be positive, got {n_shots}")
    return CountWorkspace(n_shots).draw(params, n_shots, seed, stream, start_shot)


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

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
allocates them once.  One draw takes a stack of phase settings, each from
its own stream, and runs each numpy call once over all of them.
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
    counter = start_shot * words_per_shot // _PHILOX_WORDS_PER_TICK
    bg = np.random.Philox(counter=counter, key=np.array([seed, stream], dtype=np.uint64))
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
    over the ``(2, w)`` stack ``acc``, w values of ``x`` at a time.  ``out``
    may be ``x``."""
    width = acc.shape[1]
    for lo in range(0, x.size, width):
        xs = x[lo : lo + width]
        a = np.multiply(xs, coef[0], out=acc[:, : xs.size])
        for c in coef[1:-1]:
            a += c
            a *= xs
        a += coef[-1]
        np.divide(a[0], a[1], out=out[lo : lo + width])
    return out


def _ndtri(p: np.ndarray, x: np.ndarray, acc: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each ``p`` in (0, 1), written over
    ``p``: AS241's PPND16, relative error about 1e-16.

    ``p`` and ``x`` are 1-D float arrays of one length L, ``acc`` a
    C-ordered ``(2, w)`` float one with ``2 w >= L``, and ``tail`` an L-bool
    one.  With ``q = p - 1/2``, the central rational runs over the whole
    array, w values at a time; the tail rationals run by index on the ~15%
    of values with ``|q| > 0.425``, and the far one only where ``p`` or ``1
    - p`` is below ``exp(-25)``.  The sign is q's, so ``ndtri(1 - p) =
    -ndtri(p)`` wherever ``1 - p`` is exact.
    """
    np.abs(np.subtract(p, 0.5, out=x), out=x)
    np.greater(x, 0.425, out=tail)
    np.subtract(0.180625, np.multiply(x, x, out=x), out=x)
    _rational(_AS241_CENTRAL, x, acc, x)
    idx = tail.nonzero()[0]
    # the tail's p, taken before p is overwritten; the rest of acc is then
    # the tail rational's Horner stack
    flat = acc.reshape(-1)
    tail_p = p.take(idx, out=flat[: idx.size], mode="clip")
    np.multiply(np.subtract(p, 0.5, out=p), x, out=p)
    if idx.size:
        t = x[: idx.size]
        np.minimum(tail_p, np.subtract(1.0, tail_p, out=t), out=t)
        np.sqrt(np.negative(np.log(t, out=t), out=t), out=t)
        # r > 5 needs p or 1 - p below exp(-25): about one value in 10^10
        far = np.flatnonzero(t > 5.0)
        if far.size:
            t_far = t[far] - 5.0
            _rational(_AS241_FAR, t_far, np.empty((2, far.size)), t_far)
        free = flat[idx.size :]
        # with all but one value in the tail, no stack fits in acc
        stack = free[: free.size // 2 * 2].reshape(2, -1) if free.size > 1 else np.empty((2, t.size))
        _rational(_AS241_NEAR, np.subtract(t, 1.6, out=t), stack, t)
        if far.size:
            t[far] = t_far
        # the tail rationals are positive and take q's sign here; the central
        # one, positive, has q's sign already
        p[idx] = np.copysign(t, np.subtract(tail_p, 0.5, out=tail_p), out=t)
    return p


class CountWorkspace:
    """Every array a count draw of up to ``shots`` shots uses, counted over
    all the draw's phase settings, sliced for fewer.  A draw overwrites all
    of them and returns views of the counts, so each thread draws into its
    own workspace.  Between draws the caller may use :attr:`index` (intp),
    :attr:`scratch` (float) and :attr:`flags` (bool), ``shots`` values each:
    they hold nothing a draw returns."""

    def __init__(self, shots: int):
        self._shots = shots
        # [the normal words | 2 ln u3 of the quadratic components' shots |
        # the Philox tables]; once their words are taken out, the tables'
        # space holds the quantile's x and Horner stack, then the counts
        self._floats = np.empty(7 * shots)
        # three flags per shot, then the quantile's tail flags
        self._flags = np.empty(5 * shots, dtype=bool)
        # the normal words' space, which the counts never occupy; an intp is
        # no wider than a float64
        self.index = self._floats[:shots].view(np.intp)[:shots]
        self.scratch = self._floats[shots : 2 * shots]
        self.flags = self._flags[:shots]

    def draw(self, settings: list, n_shots: int, seed: int, start_shot: int) -> CountSample:
        """Shots ``[start_shot, start_shot + n_shots)`` of each of
        ``settings``, pairs ``(params, stream)``, drawn as
        :func:`sample_counts` describes, all settings in one pass
        (``len(settings) * n_shots`` at most ``shots``).  Row s of the
        returned ``(len(settings), n_shots)`` arrays holds setting s; they
        are views into this workspace."""
        s, n, cap = len(settings), n_shots, self._shots
        m = s * n
        # each setting's spread sigma and component weights, as a column over
        # its row; spread's second row, all 1, scales the v component's sign
        spread = np.array([[[math.sqrt(2.0) * p.alpha] for p, _ in settings], [[1.0]] * s])
        w_u = np.array([[p.eta * (1.0 + math.cos(p.phi)) / 4.0] for p, _ in settings])
        w_v = np.array([[p.eta * (1.0 - math.cos(p.phi)) / 4.0] for p, _ in settings])
        space = self._floats[3 * cap : 3 * cap + _WORDS_COUNTS * m]
        tables = space.reshape(s, n, _WORDS_COUNTS)
        for table, (_, stream) in zip(tables, settings):
            shot_uniforms(seed, stream, start_shot, n, _WORDS_COUNTS, out=table)
        c = tables[..., 0]
        negative, flip, quad = self._flags[: 3 * m].reshape(3, s, n)
        # the radius is negative on [0, w_u/2) and on [w_u, w_u + w_v/2):
        # the xor of the nested intervals below w_u/2, w_u and w_u + w_v/2
        in_u = np.less(c, w_u, out=flip)
        np.logical_xor(np.less(c, w_u / 2.0, out=negative), in_u, out=negative)
        np.logical_xor(negative, np.less(c, w_u + w_v / 2.0, out=quad), out=negative)
        np.less(c, w_u + w_v, out=quad)
        # c < w_u implies c < w_u + w_v, so the xor leaves [w_u, w_u + w_v):
        # the v component's shots
        np.logical_xor(quad, in_u, out=flip)
        # only the quadratic components' shots, about eta/2 of them, have a
        # radius: 2 ln u3 is taken on those alone, before the quantile
        # overwrites the tables.  Their index is found again after it, so no
        # index array is held while the quantile allocates its own
        quads = quad.reshape(-1).nonzero()[0]
        log_u3 = self._floats[2 * cap : 2 * cap + quads.size]
        # u3 is word 3 of its shot's row in the tables
        quads *= _WORDS_COUNTS
        space.take(np.add(quads, 3, out=quads), out=log_u3, mode="clip")
        np.multiply(np.log(log_u3, out=log_u3), 2.0, out=log_u3)
        del quads
        normals = self._floats[: 2 * m].reshape(2, s, n)
        np.copyto(normals, tables[..., 1:3].transpose(2, 0, 1))
        _ndtri(
            normals.reshape(-1), space[: 2 * m], space[2 * m :].reshape(2, m),
            self._flags[3 * cap : 3 * cap + 2 * m],
        )
        # spread (1 - 2 flags): the radius's signed spread, and the v
        # component's sign of u - v
        signs = np.multiply(
            self._flags[: 2 * m].reshape(2, s, n), -2.0 * spread, out=space[2 * m :].reshape(2, s, n)
        )
        np.add(signs, spread, out=signs)
        # the signed chi(3) radius of each quadratic component's shot
        quads = quad.reshape(-1).nonzero()[0]
        z1 = normals[0].reshape(-1).take(quads, out=space[: quads.size], mode="clip")
        radius = np.subtract(np.multiply(z1, z1, out=z1), log_u3, out=log_u3)
        np.sqrt(radius, out=radius)
        np.multiply(radius, signs[0].reshape(-1).take(quads, out=z1, mode="clip"), out=radius)
        # plain component: u is the primary normal, v the partner.  The
        # radius replaces u on the u component; on the v component it
        # replaces v and v's normal moves to u, which leaves u + v as it is
        # and changes the sign of u - v
        u, v = np.multiply(normals, spread[0], out=normals)
        u.reshape(-1)[quads] = radius
        dn_a, dn_b = counts = space[: 2 * m].reshape(2, s, n)
        np.add(u, v, out=dn_a)
        np.subtract(u, v, out=dn_b)
        np.divide(counts, math.sqrt(2.0), out=counts)
        np.multiply(dn_b, signs[1], out=dn_b)
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
    :class:`CountWorkspace`; a caller drawing many blocks keeps one, and
    draws all its phase settings in one pass.
    """
    if n_shots < 1:
        raise ConfigError(f"n_shots must be positive, got {n_shots}")
    rec = CountWorkspace(n_shots).draw([(params, stream)], n_shots, seed, start_shot)
    return CountSample(dn_a=rec.dn_a[0], dn_b=rec.dn_b[0])


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
    # pos - base counts the row's entries below target, built bit by bit;
    # each step adds its stride where the probe is below target, as a
    # product, since a masked add runs element by element
    pos = base.copy()
    probe = np.empty_like(pos)
    value = np.empty(pos.size)
    hit = np.empty(pos.size, dtype=bool)
    stride = 1 << (width - 1).bit_length()
    while stride > 1:
        stride >>= 1
        np.minimum(np.add(pos, stride - 1, out=probe), last, out=probe)
        # every probe is in range, so "clip" only skips take's copy of out
        np.less(flat.take(probe, out=value, mode="clip"), target, out=hit)
        pos += np.multiply(hit, stride, out=probe)
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

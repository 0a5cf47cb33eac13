"""The two-mode state type and the Fock-space algebra of the experiment.

The one state type, :class:`DensityMatrix`, is the 4 x 4 matrix on
``|00>, |01>, |10>, |11>``: two modes with two levels each, which hold the
post-undisplacement state the tomography reconstructs.  Construction checks
that the matrix is a state, so every ``DensityMatrix`` is one and no
consumer checks again.  The round trip's kernels act at a per-mode
truncation ``dim``: :func:`displaced_levels`, the two displaced levels
``D(alpha)|0>`` and ``D(alpha)|1>`` of the paper's cats, and
:func:`loss_kraus_coefficients`, the loss channel's Kraus diagonals.  Every
displacement of the experiment is real, so :func:`displaced_levels` takes a
real amplitude and returns real columns whose phase factors are exact signs.

Conventions used throughout the package:

* Quadratures are scaled so that ``a = (X + iP)/sqrt(2)``; the vacuum
  quadrature variance is 1/2 and a real displacement by ``alpha`` shifts
  the position mean to ``X0 = alpha*sqrt(2)``.
* Rotated quadrature eigenstates decompose as ``<n|x,theta> =
  psi_n(x) * exp(i*n*theta)`` with ``psi_n`` the real harmonic-oscillator
  eigenfunctions.
* Two-mode kets are ordered ``|m>_A |k>_B -> index m*dim + k`` (mode A is
  the slow index), matching ``numpy.kron``; at two levels per mode,
  ``|00>, |01>, |10>, |11>``.
* The Wigner function is normalized to ``integral W dx dp = 1`` so the
  vacuum takes the value ``1/pi`` at the origin.

All state objects are immutable after construction and every operation is
a pure function, so everything here is safe to call concurrently.

The round trip's two kernels run on numpy and a once-built table of
``log k!``; nothing here loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

_HERMITIAN_ATOL = 1e-10
_TRACE_ATOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """Two-mode state on ``|00>, |01>, |10>, |11>``: the complex 4 x 4
    ``data``, copied and frozen (read-only) on construction, which raises
    :class:`NumericError` unless it is a state: finite, Hermitian and positive
    within ``_HERMITIAN_ATOL``, of unit trace within ``_TRACE_ATOL``."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=complex, order="C")
        if arr.shape != (4, 4):
            raise ValueError(f"expected shape (4, 4), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        dev = np.abs(arr - arr.conj().T).max()
        # a non-finite entry makes dev NaN or inf, so only a finite Hermitian
        # matrix reaches eigvalsh; each comparison is written so a NaN fails it
        low = np.linalg.eigvalsh(arr)[0] if dev <= _HERMITIAN_ATOL else math.nan
        trace = arr.trace().real
        if not (dev <= _HERMITIAN_ATOL and low >= -_HERMITIAN_ATOL and abs(trace - 1.0) <= _TRACE_ATOL):
            raise NumericError(
                f"not a state: Hermitian deviation {dev:.3e}, smallest eigenvalue "
                f"{low:.3e}, trace {trace:.9f}"
            )

    def to_json_dict(self) -> dict:
        return {
            "dim": 2,
            "modes": 2,
            "re": self.data.real.ravel().tolist(),
            "im": self.data.imag.ravel().tolist(),
        }


# the largest per-mode truncation of the round trip's kernels, and the length
# of the log-factorial table they slice
_DIM_MAX = 1024


@functools.cache
def _log_factorials() -> np.ndarray:
    """``log k!`` for k < ``_DIM_MAX``, built once, read-only."""
    table = np.array([math.lgamma(k + 1.0) for k in range(_DIM_MAX)])
    table.setflags(write=False)
    return table


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise ConfigError(f"dim must be at least 2, got {dim}")
    if dim > _DIM_MAX:
        raise ConfigError(f"dim must be at most {_DIM_MAX}, got {dim}")


def displaced_levels(alpha: float, dim: int) -> np.ndarray:
    """The displaced vacuum and single photon, ``D(alpha)|0>`` and
    ``D(alpha)|1>``, for a real ``alpha``: the amplitudes ``<m|D(alpha)|n>``
    for m < dim as columns n = 0 and 1 of a real ``dim x 2`` array.

    They are the Cahill-Glauber Laguerre form at degree ``p = min(m, n) <=
    1``, where ``L_0 = 1`` and ``L_1^(k)(x) = k + 1 - x``.  Column 0 holds
    the coherent amplitudes ``c0[m] = exp(-alpha^2/2) alpha^m / sqrt(m!)``,
    taken as ``sign(alpha)^m exp(m log|alpha| - alpha^2/2 - log(m!)/2)``;
    column 1 is ``(a^dagger - alpha) D(alpha)|0>``: ``c1[0] = -alpha c0[0]``
    and ``c1[m] = (m - alpha^2)/sqrt(m) c0[m-1]`` for m >= 1.  Each entry is
    exact up to float rounding, so the columns are those of the
    infinite-dimensional operator, truncated.  The sign pattern is exact:
    rows 0 and 1 of ``D(-alpha)`` are these columns, transposed.

    ``dim`` lies in [2, 1024]: the cap is the documented domain (the length
    of the log-factorial table), not an overflow guard.  ``alpha**2`` must be
    finite.  Far out the amplitudes underflow without a numpy warning: at
    ``alpha`` 30 every amplitude below dim 32 is ~1e-166, and at 1e100 every
    amplitude is exactly 0.  The result is a real (float64) array.
    """
    _check_dim(dim)
    alpha = float(alpha)
    if alpha == 0:
        return np.eye(dim, 2)
    x = alpha * alpha
    if not math.isfinite(x):
        raise ConfigError(f"alpha = {alpha} has no finite square")
    m = np.arange(dim)
    c0 = np.exp(m * math.log(abs(alpha)) - x / 2.0 - 0.5 * _log_factorials()[:dim])
    if alpha < 0:
        c0[1::2] = -c0[1::2]
    levels = np.empty((dim, 2))
    levels[:, 0] = c0
    levels[0, 1] = -alpha * c0[0]
    levels[1:, 1] = (m[1:] - x) / np.sqrt(m[1:]) * c0[:-1]
    return levels


def loss_kraus_coefficients(eta: float, dim: int) -> list[np.ndarray]:
    """Nonzero diagonals of the Kraus operators of the bosonic loss channel.

    The operator ``K_j`` that removes j photons has one nonzero diagonal,
    ``<n-j|K_j|n> = c_j[n-j] = sqrt(C(n, j) (1-eta)^j eta^(n-j))`` for the
    source levels ``j <= n < dim``; entry j of the result is ``c_j``.  At
    ``eta = 1`` only ``K_0`` (the identity) is nonzero, and the list holds
    it alone; at ``eta = 0`` the ``n = j`` terms ``0 log 0`` are exactly 0.
    The family is complete on the truncated space.  ``dim`` lies in
    [2, 1024], as for :func:`displaced_levels`.
    """
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"efficiency must lie in [0, 1], got {eta}")
    _check_dim(dim)
    if eta == 1.0:
        return [np.ones(dim)]
    logfact = _log_factorials()[:dim]
    # (n - j) log(eta) for n - j = 0, 1, ..., dim - 1
    kept_log = np.zeros(dim)
    kept_log[1:] = np.arange(1, dim) * (math.log(eta) if eta > 0.0 else -math.inf)
    lost_log = math.log1p(-eta)
    coeffs = []
    for j in range(dim):
        log_binom = logfact[j:] - logfact[j] - logfact[: dim - j]
        coeffs.append(np.exp(0.5 * (log_binom + j * lost_log + kept_log[: dim - j])))
    return coeffs


def quadrature_basis(x: np.ndarray, theta: float, dim: int) -> np.ndarray:
    """Overlap ``<n|x, theta> = psi_n(x) exp(i n theta)`` for n < dim, shape
    ``(len(x), dim)``, with ``psi_n`` from :func:`_oscillator_functions`."""
    phases = np.exp(1j * theta * np.arange(dim))
    return _oscillator_functions(x, dim) * phases[None, :]


def _oscillator_functions(x: np.ndarray, dim: int) -> np.ndarray:
    """The real oscillator eigenfunctions ``psi_n(x) = <n|x, 0>`` for n < dim,
    shape ``(len(x), dim)``.

    They come from the stable three-term recurrence
    ``psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}`` on the
    normalized functions; raw Hermite polynomials overflow near n ~ 30, this
    does not.
    """
    x = np.asarray(x, dtype=float)
    psi = np.empty((x.size, dim))
    psi[:, 0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        psi[:, 1] = np.sqrt(2.0) * x * psi[:, 0]
    for n in range(2, dim):
        psi[:, n] = np.sqrt(2.0 / n) * x * psi[:, n - 1] - np.sqrt((n - 1) / n) * psi[:, n - 2]
    return psi


# Beyond |u| = 40 the Gaussian factor exp(-u^2) is exactly 0 in float64, so
# clipping the shifted coordinates there changes no value of the table and
# keeps u^2 finite at any grid point
_FAR = 40.0


def wigner(alpha: float, c0: complex, c1: complex, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Wigner function of the normalized state ``c0 D(alpha)|0> + c1 D(alpha)|1>``.

    Displacement only shifts the Wigner function: with ``u = x - sqrt(2) alpha``,
    ``v = p`` and ``(c0, c1)`` normalized,
    ``W = exp(-(u^2+v^2))/pi * [|c0|^2 + |c1|^2 (2(u^2+v^2) - 1)
    + 2 sqrt(2) Re(conj(c0) c1 (u - i v))]``, exact at any alpha with no
    Fock truncation.  ``alpha`` must have ``4 alpha^2`` finite, as in the
    counting model.  Returns shape ``(len(xs), len(ps))``; normalized so that
    ``sum(W) dx dp -> 1``.
    """
    alpha = float(alpha)
    if not math.isfinite(4.0 * alpha * alpha):
        raise ConfigError(f"alpha = {alpha} has no finite 4 alpha^2")
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    for g, name in ((xs, "x"), (ps, "p")):
        if g.size > 1 and np.diff(g).max() > 0.5:
            raise ConfigError(f"{name}-grid spacing exceeds 0.5; refine the grid")
    c0, c1 = complex(c0), complex(c1)
    parts = (c0.real, c0.imag, c1.real, c1.imag)
    if not any(parts):
        raise ConfigError("c0 and c1 cannot both vanish")
    # scaled by the largest component's power of two (exact), so that the
    # 2-norm neither overflows nor rounds subnormal components
    exp = math.frexp(max(map(abs, parts)))[1]
    re0, im0, re1, im1 = (math.ldexp(part, -exp) for part in parts)
    norm = math.hypot(re0, im0, re1, im1)
    c0, c1 = complex(re0, im0) / norm, complex(re1, im1) / norm
    cross = 2.0 * math.sqrt(2.0) * c0.conjugate() * c1
    u = np.clip(xs - math.sqrt(2.0) * alpha, -_FAR, _FAR)[:, None]
    v = np.clip(ps, -_FAR, _FAR)[None, :]
    r2 = u * u + v * v
    p0, p1 = abs(c0) ** 2, abs(c1) ** 2
    bracket = p0 + p1 * (2.0 * r2 - 1.0) + cross.real * u + cross.imag * v
    return np.exp(-r2) / np.pi * bracket

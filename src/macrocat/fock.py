"""The two-mode state type and the Fock-space algebra of the experiment.

The one state type, :class:`DensityMatrix`, is the 4 x 4 matrix on
``|00>, |01>, |10>, |11>``: two modes with two levels each, which hold the
post-undisplacement state the tomography reconstructs.  The round trip's
operators (displacement, loss Kraus coefficients, the displaced amplitudes)
act at a per-mode truncation ``dim``.  Every displacement of the experiment
is real, so :func:`displacement_matrix` takes a real amplitude and returns
a real matrix whose phase factors are exact signs.

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

Only the round trip's kernels, :func:`displacement_matrix` and
:func:`loss_kraus_coefficients`, need ``scipy.special``; each imports it when
called.  Of the CLI commands, only ``roundtrip-check`` loads scipy through
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_HERMITIAN_ATOL = 1e-10
_TRACE_ATOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """Two-mode state on ``|00>, |01>, |10>, |11>``: the complex 4 x 4
    ``data``, frozen (read-only) on construction."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=complex)
        if arr.shape != (4, 4):
            raise ValueError(f"expected shape (4, 4), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def trace(self) -> float:
        return float(np.trace(self.data).real)

    def check_hermitian(self) -> None:
        """Raise if the matrix deviates from its adjoint beyond rounding."""
        dev = np.abs(self.data - self.data.conj().T).max()
        # written so a NaN entry fails too
        if not dev <= _HERMITIAN_ATOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")

    def validate(self) -> None:
        """Raise if Hermiticity or unit trace is violated."""
        self.check_hermitian()
        tr = self.trace()
        if not abs(tr - 1.0) <= _TRACE_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")

    def to_json_dict(self) -> dict:
        return {
            "dim": 2,
            "modes": 2,
            "re": self.data.real.ravel().tolist(),
            "im": self.data.imag.ravel().tolist(),
        }


def displacement_matrix(alpha: float, dim: int) -> np.ndarray:
    """Matrix elements ``<m|D(alpha)|n>`` for a real ``alpha`` and m, n < dim.

    Uses the closed-form associated-Laguerre expression with log-space
    factorial prefactors; each element is exact up to float rounding, so
    the result is the truncation of the infinite-dimensional operator
    (approximately unitary only while ``alpha**2`` is well below dim).
    Column 0 holds the coherent-state amplitudes
    ``exp(-alpha^2/2) alpha^m / sqrt(m!)``.  ``dim`` lies in [2, 1024].
    The result is a real (float64) array.
    """
    from scipy.special import eval_genlaguerre, gammaln

    if dim < 2:
        raise ConfigError(f"dim must be at least 2, got {dim}")
    # past ~1030 levels the Laguerre factor overflows while its prefactor
    # underflows to 0, and the product is NaN
    if dim > 1024:
        raise ConfigError(f"dim must be at most 1024, got {dim}")
    alpha = float(alpha)
    if alpha == 0:
        return np.eye(dim)
    a = abs(alpha)
    x = a * a
    if not math.isfinite(x):
        raise ConfigError(f"alpha = {alpha} has no finite square")
    n = np.arange(dim)
    row, col = np.meshgrid(n, n, indexing="ij")
    p = np.minimum(row, col)
    k = np.abs(row - col)
    logmag = 0.5 * (gammaln(p + 1) - gammaln(p + k + 1)) + k * np.log(a) - x / 2.0
    # at large alpha a Laguerre factor overflows where its prefactor
    # underflows to 0: that element is NaN, left for the caller to reject
    with np.errstate(invalid="ignore"):
        mag = np.exp(logmag) * eval_genlaguerre(p, k, x)
    # row >= col carries alpha^k, row < col carries (-alpha)^k: |alpha|^k
    # times an exact sign
    sign = math.copysign(1.0, alpha)
    return mag * np.where(row >= col, sign, -sign) ** k


def loss_kraus_coefficients(eta: float, dim: int) -> list[np.ndarray]:
    """Nonzero diagonals of the Kraus operators of the bosonic loss channel.

    The operator ``K_j`` that removes j photons has one nonzero diagonal,
    ``<n-j|K_j|n> = c_j[n-j] = sqrt(C(n, j) (1-eta)^j eta^(n-j))`` for the
    source levels ``j <= n < dim``; entry j of the result is ``c_j``.  At
    ``eta = 1`` only ``K_0`` (the identity) is nonzero, and the list holds
    it alone.  The family is complete on the truncated space.
    """
    from scipy.special import gammaln, xlogy

    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"efficiency must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return [np.ones(dim)]
    n = np.arange(dim)
    coeffs = []
    for j in range(dim):
        kept = n[j:]  # source levels n >= j
        log_binom = gammaln(kept + 1) - gammaln(j + 1) - gammaln(kept - j + 1)
        coeffs.append(np.exp(0.5 * (log_binom + j * np.log1p(-eta) + xlogy(kept - j, eta))))
    return coeffs


def macro_state_amplitudes(alpha: float, phi: float, dim: int) -> np.ndarray:
    """Two-mode pure state with both arms displaced by ``alpha``.

    ``(D(a)|0>_A D(a)|1>_B + e^{i phi} D(a)|1>_A D(a)|0>_B)/sqrt(2)``,
    normalized, as the ``dim x dim`` amplitude matrix ``psi[m, k] =
    <m|_A <k|_B |psi>``; ``psi.ravel()`` is the ket in the package's
    two-mode ordering.  ``alpha = 0`` gives the delocalized single photon.
    Normalized inside ``dim``: the population pushed past ``dim`` is what
    the round trip's leakage measures.  Raises :class:`ConfigError` when
    the truncated norm is 0 or not finite.
    """
    D = displacement_matrix(alpha, dim)
    d0 = D[:, 0]
    d1 = D[:, 1]
    psi = np.outer(d0, d1) + np.exp(1j * phi) * np.outer(d1, d0)
    norm = np.linalg.norm(psi)
    if not 0.0 < norm < math.inf:
        raise ConfigError(
            f"alpha = {alpha} leaves the displaced state norm {norm} below dim = {dim}"
        )
    psi /= norm
    return psi


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
    norm = math.hypot(c0.real, c0.imag, c1.real, c1.imag)
    if norm == 0.0:
        raise ConfigError("c0 and c1 cannot both vanish")
    c0, c1 = c0 / norm, c1 / norm
    cross = 2.0 * math.sqrt(2.0) * c0.conjugate() * c1
    u = np.clip(xs - math.sqrt(2.0) * alpha, -_FAR, _FAR)[:, None]
    v = np.clip(ps, -_FAR, _FAR)[None, :]
    r2 = u * u + v * v
    p0, p1 = abs(c0) ** 2, abs(c1) ** 2
    bracket = p0 + p1 * (2.0 * r2 - 1.0) + cross.real * u + cross.imag * v
    return np.exp(-r2) / np.pi * bracket

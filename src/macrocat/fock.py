"""Truncated Fock-space states and operators for one and two optical modes.

Conventions used throughout the package:

* Quadratures are scaled so that ``a = (X + iP)/sqrt(2)``; the vacuum
  quadrature variance is 1/2 and a real displacement by ``alpha`` shifts
  the position mean to ``X0 = alpha*sqrt(2)``.
* Rotated quadrature eigenstates decompose as ``<n|x,theta> =
  psi_n(x) * exp(i*n*theta)`` with ``psi_n`` the real harmonic-oscillator
  eigenfunctions.
* Two-mode kets are ordered ``|m>_A |k>_B -> index m*dim + k`` (mode A is
  the slow index), matching ``numpy.kron``.
* The Wigner function is normalized to ``integral W dx dp = 1`` so the
  vacuum takes the value ``1/pi`` at the origin.

All state objects are immutable after construction and every operation is
a pure function, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, xlogy

from .errors import TruncationWarning

# Population allowed on the trailing diagonal of any mode before a
# truncation warning is emitted.  Silent truncation error is the dominant
# failure mode of Fock-basis numerics, hence the aggressive default.
TRAILING_POPULATION_BUDGET = 1e-6

_HERMITIAN_ATOL = 1e-10
_TRACE_ATOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian state operator on a truncated Fock space.

    ``dim`` is the per-mode truncation, ``modes`` is 1 or 2 and ``data``
    is the complex matrix of size ``dim**modes`` squared.  The array is
    frozen (read-only) on construction.
    """

    dim: int
    modes: int
    data: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {self.modes}")
        d = self.dim**self.modes
        arr = np.ascontiguousarray(self.data, dtype=complex)
        if arr.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_pure(cls, vec: np.ndarray, dim: int, modes: int) -> "DensityMatrix":
        """Rank-1 density matrix |v><v| / <v|v> from a ket."""
        v = np.asarray(vec, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(dim=dim, modes=modes, data=np.outer(v, v.conj()))

    def trace(self) -> float:
        return float(np.trace(self.data).real)

    def normalize(self) -> "DensityMatrix":
        tr = np.trace(self.data)
        if abs(tr) == 0.0:
            raise ValueError("cannot normalize a traceless operator")
        return DensityMatrix(self.dim, self.modes, self.data / tr)

    def check_hermitian(self) -> None:
        """Raise if the matrix deviates from its adjoint beyond rounding."""
        dev = np.abs(self.data - self.data.conj().T).max()
        if dev > _HERMITIAN_ATOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")

    def validate(self) -> None:
        """Raise if Hermiticity or unit trace is violated."""
        self.check_hermitian()
        tr = self.trace()
        if abs(tr - 1.0) > _TRACE_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "modes": self.modes,
            "re": self.data.real.ravel().tolist(),
            "im": self.data.imag.ravel().tolist(),
        }


def _check_trailing_population(psi: np.ndarray) -> None:
    """Warn if either mode's top Fock level of the two-mode amplitude matrix
    ``psi`` (rows: mode A, columns: mode B) holds too much population."""
    pops = psi.real**2 + psi.imag**2
    worst = max(pops.sum(axis=1)[-1], pops.sum(axis=0)[-1])
    if worst > TRAILING_POPULATION_BUDGET:
        warnings.warn(
            f"trailing Fock level holds population {worst:.2e}; "
            "increase dim to avoid truncation error",
            TruncationWarning,
            stacklevel=3,
        )


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """Matrix elements ``<m|D(alpha)|n>`` for m, n < dim.

    Uses the closed-form associated-Laguerre expression with log-space
    factorial prefactors; each element is exact up to float rounding, so
    the result is the truncation of the infinite-dimensional operator
    (approximately unitary only while ``|alpha|**2`` is well below dim).
    Column 0 holds the coherent-state amplitudes
    ``exp(-|alpha|^2/2) alpha^m / sqrt(m!)``.
    """
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    a = abs(alpha)
    x = a * a
    if not math.isfinite(x):
        raise ValueError(f"alpha = {alpha} has no finite square")
    if x > dim / 4:
        warnings.warn(
            f"|alpha|^2 = {x:.3g} exceeds dim/4 = {dim/4:.3g}; "
            "displacement is truncation-dominated",
            TruncationWarning,
            stacklevel=2,
        )
    theta = np.angle(alpha)
    n = np.arange(dim)
    row, col = np.meshgrid(n, n, indexing="ij")
    p = np.minimum(row, col)
    k = np.abs(row - col)
    logmag = 0.5 * (gammaln(p + 1) - gammaln(p + k + 1)) + k * np.log(a) - x / 2.0
    mag = np.exp(logmag) * eval_genlaguerre(p, k, x)
    # row >= col carries alpha^k, row < col carries (-conj(alpha))^k
    phase = np.where(
        row >= col,
        np.exp(1j * k * theta),
        (-1.0) ** k * np.exp(-1j * k * theta),
    )
    return mag * phase


def loss_kraus_coefficients(eta: float, dim: int) -> list[np.ndarray]:
    """Nonzero diagonals of the Kraus operators of the bosonic loss channel.

    The operator ``K_j`` that removes j photons has one nonzero diagonal,
    ``<n-j|K_j|n> = c_j[n-j] = sqrt(C(n, j) (1-eta)^j eta^(n-j))`` for the
    source levels ``j <= n < dim``; entry j of the result is ``c_j``.  At
    ``eta = 1`` only ``K_0`` (the identity) is nonzero, and the list holds
    it alone.  The family is complete on the truncated space.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return [np.ones(dim)]
    n = np.arange(dim)
    coeffs = []
    for j in range(dim):
        kept = n[j:]  # source levels n >= j
        log_binom = gammaln(kept + 1) - gammaln(j + 1) - gammaln(kept - j + 1)
        coeffs.append(np.exp(0.5 * (log_binom + j * np.log1p(-eta) + xlogy(kept - j, eta))))
    return coeffs


def apply_loss(rho: DensityMatrix, eta: float, mode: int = 0) -> DensityMatrix:
    """Bosonic loss channel of transmissivity ``eta`` on one mode.

    With the Kraus diagonals ``c_j`` of :func:`loss_kraus_coefficients`,
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
    return DensityMatrix(d, rho.modes, out)


def delocalized_photon_state(phi: float, dim: int) -> np.ndarray:
    """Ket of the single photon shared between two modes.

    ``(|0>_A |1>_B + e^{i phi} |1>_A |0>_B) / sqrt(2)``
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    ket01 = np.zeros(dim * dim, dtype=complex)
    ket10 = np.zeros(dim * dim, dtype=complex)
    ket01[1] = 1.0  # |0>_A |1>_B
    ket10[dim] = 1.0  # |1>_A |0>_B
    return (ket01 + np.exp(1j * phi) * ket10) / np.sqrt(2.0)


def macro_state_amplitudes(alpha: float, phi: float, dim: int) -> np.ndarray:
    """Two-mode pure state with both arms displaced by ``alpha``.

    ``(D(a)|0>_A D(a)|1>_B + e^{i phi} D(a)|1>_A D(a)|0>_B)/sqrt(2)``,
    normalized, as the ``dim x dim`` amplitude matrix ``psi[m, k] =
    <m|_A <k|_B |psi>``; ``psi.ravel()`` is the ket in the package's
    two-mode ordering.  ``alpha = 0`` gives the delocalized single photon.
    Warns (:class:`TruncationWarning`) when either mode's top level holds
    more than ``TRAILING_POPULATION_BUDGET``.
    """
    D = displacement_matrix(alpha, dim)
    d0 = D[:, 0]
    d1 = D[:, 1]
    psi = np.outer(d0, d1) + np.exp(1j * phi) * np.outer(d1, d0)
    psi /= np.linalg.norm(psi)
    _check_trailing_population(psi)
    return psi


def hermite_functions(x: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions ``psi_n(x)`` for n < dim.

    Stable three-term recurrence on the normalized functions
    ``psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}``;
    raw Hermite polynomials overflow near n ~ 30, this does not.
    Returns shape ``(len(x), dim)``.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, dim))
    out[:, 0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        out[:, 1] = np.sqrt(2.0) * x * out[:, 0]
    for n in range(2, dim):
        out[:, n] = np.sqrt(2.0 / n) * x * out[:, n - 1] - np.sqrt((n - 1) / n) * out[:, n - 2]
    return out


def quadrature_basis(x: np.ndarray, theta: float, dim: int) -> np.ndarray:
    """Overlap ``<n|x, theta> = psi_n(x) exp(i n theta)``, shape (len(x), dim)."""
    psi = hermite_functions(np.asarray(x, dtype=float), dim)
    phases = np.exp(1j * theta * np.arange(dim))
    return psi * phases[None, :]


def wigner(rho: DensityMatrix, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
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

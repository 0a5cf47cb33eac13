"""Maximum-likelihood reconstruction of two-mode states from homodyne data.

With per-record projectors ``P_j = |x_j, theta_j><x_j, theta_j|`` (tensor
product over the two modes), outcome probabilities ``pr_j = Tr[P_j rho]``
and ``R(rho) = (1/N) sum_j P_j / pr_j``, the mean log-likelihood
``l(rho) = (1/N) sum_j log pr_j`` is concave with gradient ``R``, and every
state ``sigma`` obeys

    l(sigma) - l(rho) <= log Tr[R sigma] <= log lambda_max(R)

(Jensen's inequality; Glancy, Knill and Girard, NJP 14, 095017 (2012)).
So ``gap = log lambda_max(R(rho))`` bounds how far the likelihood of
``rho`` lies below the maximum, and :func:`mle_reconstruct` stops as soon
as the gap is at most ``_TOL``: the stop is certified, not an iteration cap.

The maximiser works on the ``d**2`` real coordinates ``x`` of a Hermitian
``d x d`` matrix on the support, the ``d = 3`` kets with at most one photon
in total (its diagonal, then the real and the imaginary parts of its upper
triangle).  The projectors become one real
``N x d**2`` feature matrix ``F``, built once per call, so that
``pr = F x`` and ``R`` is unpacked from ``F^T (1/pr) / N``: each
likelihood-and-gradient evaluation is two real matrix-vector products.

Every step, from the maximally mixed start on, is a proximal Newton step.
The quadratic model with the weighted Gram ``F^T diag(1/pr**2) F / N`` as
curvature is maximised over the density matrices of the support by
accelerated projected gradient on the model alone, projecting through the
eigenvalue simplex, so a step can also rotate the support of a
rank-deficient state.  The step then halves back along the segment to that
maximiser until the likelihood rises.

A step is accepted only if the likelihood rises.  That test uses
the exact increment ``mean(log1p(F d / pr))`` of the trace-normalised
likelihood, which stays resolvable after ``l`` itself has stopped changing
in float64.  The recorded trace must still never drop by more than
``_LL_DECREASE_TOL``; a :class:`NumericError` aborts the run if it does.

Reconstruction targets the measured (lossy) state directly with
unit-efficiency projectors; no detector-efficiency deconvolution is
attempted, so an inefficient channel shows up as vacuum admixture in the
result, exactly as it does in the data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .fock import DensityMatrix, quadrature_basis
from .sampling import QuadratureSample

# the certificate: a stop with likelihood gap at most this many nats
_TOL = 1e-8
# accepted Newton steps before a run stops uncertified ("max_iter")
_MAX_STEPS = 2000
_LL_DECREASE_TOL = 1e-9
# accelerated gradient iterations spent maximising one Newton model
_MAX_MODEL_ITER = 2000
# step-size halvings before a line search gives up
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed state plus convergence diagnostics."""

    rho: DensityMatrix
    loglik: np.ndarray  # mean log-likelihood per record: start, then one per accepted step
    iterations: int  # accepted steps
    converged: bool  # the likelihood-gap certificate holds
    concurrence: float
    stop_reason: str  # "certified", "max_iter" or "stalled"
    gap: float  # log lambda_max(R): bounds max loglik - loglik[-1]

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho.to_json_dict(),
            "loglik": [float(v) for v in self.loglik],
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "gap": self.gap,
            "concurrence": self.concurrence,
        }


def _projector_rows(records: QuadratureSample) -> np.ndarray:
    """Row j holds the overlaps ``<k|x_j, theta_j>`` with the support kets
    ``|00>, |01>, |10>``.  Bob's LO is locked at 0, so only ``|10>`` carries
    a phase, Alice's ``exp(i theta_A)``."""
    fa = quadrature_basis(records.x_a, 0.0, 2)
    fb = quadrature_basis(records.x_b, 0.0, 2)
    rows = np.empty((len(records), 3), dtype=complex)
    rows[:, 0] = fa[:, 0] * fb[:, 0]
    rows[:, 1] = fa[:, 0] * fb[:, 1]
    rows[:, 2] = fa[:, 1] * np.exp(1j * records.theta_a) * fb[:, 0]
    return rows


def total_photon_support(dim: int, max_total: int) -> np.ndarray:
    """Flat two-mode indices of basis kets with total photon number <= max_total.

    The benchmark's tomography check builds its projector rows on these."""
    m, k = np.divmod(np.arange(dim * dim), dim)
    return np.flatnonzero(m + k <= max_total)


class _LogLikelihood:
    """Mean log-likelihood of the records over the real coordinates ``x`` of a
    Hermitian matrix on the support: its diagonal, then the real and the
    imaginary parts of its upper triangle."""

    def __init__(self, rows: np.ndarray):
        n, m = rows.shape
        self.n, self.m = n, m
        self.iu, self.ju = np.triu_indices(m, 1)
        p = self.iu.size
        # pr_j = sum_a |w_a|^2 rho_aa + sum_{a<b} 2 Re(conj(w_a) w_b conj(rho_ab))
        pair = rows[:, self.iu].conj() * rows[:, self.ju]
        self.F = np.empty((n, m + 2 * p))
        self.F[:, :m] = rows.real**2 + rows.imag**2
        self.F[:, m : m + p] = 2.0 * pair.real
        self.F[:, m + p :] = 2.0 * pair.imag
        self.trace = np.concatenate([np.ones(m), np.zeros(2 * p)])  # Tr rho = trace . x
        # Frobenius product <A, B> = x_A . (metric * x_B)
        self.metric = np.concatenate([np.ones(m), np.full(2 * p, 2.0)])

    def pack(self, a: np.ndarray) -> np.ndarray:
        off = a[self.iu, self.ju]
        return np.concatenate([a.diagonal().real, off.real, off.imag])

    def unpack(self, x: np.ndarray) -> np.ndarray:
        m, p = self.m, self.iu.size
        a = np.diag(x[:m].astype(complex))
        off = x[m : m + p] + 1j * x[m + p :]
        a[self.iu, self.ju] = off
        a[self.ju, self.iu] = off.conj()
        return a

    def gradient(self, pr: np.ndarray) -> np.ndarray:
        """Coordinates of ``R - I`` scaled by ``metric``: the gradient of the
        trace-normalised mean log-likelihood ``l(x) - log Tr x`` at unit trace."""
        return self.F.T @ (1.0 / pr) / self.n - self.trace

    def top_eigenvalue(self, grad: np.ndarray) -> float:
        """Largest eigenvalue of the matrix whose gradient coordinates are ``grad``."""
        return float(np.linalg.eigvalsh(self.unpack(grad / self.metric))[-1])

    def gap(self, grad: np.ndarray) -> float:
        """``log lambda_max(R)``, the likelihood-gap certificate."""
        return math.log1p(self.top_eigenvalue(grad))

    def gain(self, x: np.ndarray, pr: np.ndarray, d: np.ndarray, fd: np.ndarray) -> float:
        """Exact rise of the trace-normalised mean log-likelihood from ``x`` to
        ``x + d``, given ``fd = F d`` (``-inf`` when a record's probability
        would not stay positive)."""
        r = fd / pr
        if r.min() <= -1.0:
            return -math.inf
        return float(np.log1p(r).mean()) - math.log1p(d[: self.m].sum() / x[: self.m].sum())

    def project(self, x: np.ndarray) -> np.ndarray:
        """Nearest density matrix in Frobenius norm: eigenvalues onto the simplex."""
        w, v = np.linalg.eigh(self.unpack(x))
        desc = w[::-1]
        excess = np.cumsum(desc) - 1.0
        k = np.flatnonzero(desc * np.arange(1, w.size + 1) > excess)[-1]
        lam = np.maximum(w - excess[k] / (k + 1), 0.0)
        return self.pack((v * lam) @ v.conj().T)


def _newton_step(lik: _LogLikelihood, x, pr, grad):
    """Proximal Newton step: maximise the quadratic model of the likelihood over
    the density matrices, then halve back along the segment from ``x`` until the
    likelihood rises.  None when it does not."""
    weighted = lik.F / pr[:, None]
    curvature = weighted.T @ weighted / lik.n  # minus the Hessian of l
    scale = 1.0 / np.sqrt(lik.metric)
    lipschitz = float(np.linalg.eigvalsh(curvature * np.outer(scale, scale))[-1])
    step = 1.0 / (lipschitz * lik.metric)

    def model(z):
        d = z - x
        return grad @ d - 0.5 * d @ (curvature @ d)

    # accelerated projected gradient on the model, which costs no pass over F
    z = y = x
    value, theta = 0.0, 1.0
    for it in range(_MAX_MODEL_ITER):
        cand = lik.project(y + step * (grad - curvature @ (y - x)))
        cand_value = model(cand)
        if cand_value < value:
            if y is z:
                break
            y, theta = z, 1.0
            continue
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        y = cand + ((theta - 1.0) / theta_next) * (cand - z)
        z, value, theta = cand, cand_value, theta_next
        if it % 10 == 9:
            # the model's own gap certificate; the likelihood gap after the
            # step is about this plus the model error
            g = grad - curvature @ (z - x)
            if lik.top_eigenvalue(g) - g @ z <= 0.25 * _TOL:
                break
    d = z - x
    fd = lik.F @ d
    for _ in range(_MAX_HALVINGS):
        if lik.gain(x, pr, d, fd) > 0.0:
            return x + d
        d, fd = 0.5 * d, 0.5 * fd
    return None


def _maximize(lik: _LogLikelihood):
    """Raise the likelihood from the maximally mixed state until the gap is at
    most ``_TOL``.  Returns the coordinates, the log-likelihood trace, the final
    gap and the stop reason."""
    x = lik.pack(np.eye(lik.m) / lik.m)
    pr = lik.F @ x
    grad = lik.gradient(pr)
    gap = lik.gap(grad)
    loglik = [float(np.log(pr).mean())]
    while gap > _TOL:
        if len(loglik) > _MAX_STEPS:
            return x, loglik, gap, "max_iter"
        step = _newton_step(lik, x, pr, grad)
        if step is None:
            return x, loglik, gap, "stalled"
        x = step
        pr = lik.F @ x
        ll = float(np.log(pr).mean())
        if ll < loglik[-1] - _LL_DECREASE_TOL:
            raise NumericError(
                f"likelihood decreased from {loglik[-1]:.12f} to {ll:.12f} "
                f"at iteration {len(loglik)}"
            )
        loglik.append(ll)
        grad = lik.gradient(pr)
        gap = lik.gap(grad)
    return x, loglik, gap, "certified"


def mle_reconstruct(records: QuadratureSample) -> TomographyResult:
    """Maximum-likelihood estimate of the two-mode density matrix, with two
    levels per mode, from quadrature records.  Requires at least 1000 records spread over at least
    4 distinct Alice phases.

    Stops, with ``stop_reason == "certified"`` and ``converged`` true, once the
    likelihood gap ``log lambda_max(R(rho))`` is at most ``_TOL`` (1e-8): the
    mean log-likelihood per record is then within that many nats of its
    maximum.  Each step is a proximal Newton step from the maximally mixed
    state on (see the module docstring).  ``_MAX_STEPS`` (2000) accepted
    steps is only a safety cap (``"max_iter"``); a run also ends early
    (``"stalled"``) if no Newton step raises the likelihood at float64
    resolution before the gap reaches ``_TOL``.  Either uncertified stop emits a
    ``UserWarning``.  ``loglik`` holds the start state and one entry per
    accepted step, so ``len(loglik) == iterations + 1``; ``gap`` is the
    final certificate.

    The support is fixed: the kets with at most one photon in total,
    ``|00>``, ``|01>`` and ``|10>``, which hold every state the modeled
    source emits; ``rho`` (on ``|00>, |01>, |10>, |11>``) is zero outside
    them.  With Bob's LO phase held fixed (the protocol modeled here), the
    full product basis contains pairs of coherences with
    identical data signatures (``rho_{01,10}`` and ``rho_{00,11}`` both
    ride ``exp(i theta_A)`` on the same outcome shape), which only
    positivity separates, so an estimate there would not be unique even
    though its likelihood and gap are.  Even on the support,
    ``Im rho_{00,01}`` leaves no trace in data taken at Bob's locked phase:
    the likelihood is flat along it, the Newton curvature is singular, and
    only positivity bounds it.
    """
    n = len(records)
    if n < 1000:
        raise ConfigError(f"need at least 1000 records (n_quad_shots), got {n}")
    distinct = np.unique(np.round(records.theta_a, 12))
    if distinct.size < 4:
        raise ConfigError(
            f"only {distinct.size} distinct Alice phases; tomography needs >= 4"
        )
    lik = _LogLikelihood(_projector_rows(records))
    x, loglik, gap, stop_reason = _maximize(lik)
    if stop_reason != "certified":
        warnings.warn(
            f"MLE stopped uncertified ({stop_reason}) after {len(loglik) - 1} "
            f"steps: likelihood gap {gap:.3e} above the tolerance {_TOL:g}",
            stacklevel=2,
        )

    rho = np.zeros((4, 4), dtype=complex)
    rho[:3, :3] = lik.unpack(x)
    result_rho = DensityMatrix(rho)
    result_rho.validate()
    return TomographyResult(
        rho=result_rho,
        loglik=np.asarray(loglik),
        iterations=len(loglik) - 1,
        converged=stop_reason == "certified",
        concurrence=concurrence(result_rho),
        stop_reason=stop_reason,
        gap=gap,
    )


def concurrence(rho: DensityMatrix) -> float:
    """Entanglement of the one-photon subspace:
    ``2 (|rho_{01,10}| - sqrt(rho_{00} rho_{11}))``, clamped at 0.

    The unclamped expression goes negative on separable states; the clamp
    maps those to zero entanglement.  Raises if ``rho`` is not Hermitian.
    """
    rho.check_hermitian()
    pops = np.clip(np.diag(rho.data).real, 0.0, None)
    coherence = abs(rho.data[1, 2])  # <01| rho |10>
    value = 2.0 * (coherence - math.sqrt(pops[0] * pops[3]))
    return max(0.0, value)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(sigma) rho sqrt(sigma)))**2``.

    ``sigma`` must be a density matrix (positive semidefinite): then a zero
    diagonal entry means a zero row and column, so the fidelity is exactly
    that of ``rho[s, s]`` with ``sigma[s, s]`` on the basis kets ``s`` where
    ``diag(sigma)`` is nonzero, and only that block is decomposed.  The
    product is formed in sigma's eigenbasis on its positive eigenvalues, so
    no square root is taken of a rounding-level eigenvalue of ``sigma`` or
    of ``rho`` outside sigma's range.  Reduces to ``|<psi|phi>|**2`` for
    pure inputs.  Returns a value in [0, 1] (tiny numerical overshoot is
    clipped).
    """
    s = np.flatnonzero(np.diag(sigma.data))
    w, v = np.linalg.eigh(sigma.data[np.ix_(s, s)])
    root, v = np.sqrt(w[w > 0.0]), v[:, w > 0.0]
    inner = root[:, None] * (v.conj().T @ rho.data[np.ix_(s, s)] @ v) * root
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    val = float(np.sqrt(lam).sum() ** 2)
    return min(max(val, 0.0), 1.0)

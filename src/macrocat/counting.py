"""Closed-form photon-counting statistics of the displaced delocalized photon.

Both arms carry a displaced state (displaced vacuum or displaced single
photon, entangled across the arms), each arm is detected against a
reference pulse of the same mean energy, and all counts are expressed
relative to that reference.  In the large-amplitude regime
(``alpha >= GAUSSIAN_ALPHA_MIN``) the Poissonian photon statistics are
replaced by their Gaussian limit, which is what every function below
evaluates; the exact discrete law lives in :mod:`macrocat.sampling` for
small amplitudes.  Every result here is a closed form, including the
single-shot discrimination error; nothing is integrated numerically and
nothing is written to files.

Everything is evaluated in log space where factorials or ``alpha**2`` of
order 1e8 appear, so no intermediate overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr

# Below this amplitude the Gaussian limit of the Poissonian is too crude;
# callers are pointed at the exact Fock-basis path instead.
GAUSSIAN_ALPHA_MIN = 10.0


@dataclass(frozen=True)
class CountModelParams:
    """Displacement amplitude, total efficiency and interferometer phase."""

    alpha: float
    eta: float
    phi: float = 0.0

    def __post_init__(self):
        # alpha**2 appears everywhere below; a finite alpha can still overflow it
        if not (math.isfinite(self.alpha * self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive with a finite square, got {self.alpha}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def require_gaussian_regime(self) -> None:
        if self.alpha < GAUSSIAN_ALPHA_MIN:
            raise ValueError(
                f"alpha={self.alpha} is below {GAUSSIAN_ALPHA_MIN}; the Gaussian "
                "count model does not apply, use the exact Fock-basis sampler"
            )


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


def xi_ratio(n, alpha: float):
    """``|xi1/xi0| = |n/alpha - alpha|``: small within a shot-noise band of
    ``alpha^2``, large far outside it."""
    n = np.asarray(n, dtype=float)
    out = np.abs(n / alpha - alpha)
    return out if out.shape else float(out)


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


def count_marginal_std(params: CountModelParams) -> float:
    """Standard deviation of either arm's reference-subtracted count,
    ``alpha * sqrt(2 + eta)`` (independent of phi)."""
    return params.alpha * math.sqrt(2.0 + params.eta)


def conditional_mean(n_a, params: CountModelParams):
    """Mean of Bob's count given Alice measured ``n_a`` (both centered).

    ``4 a^2 nA eta cos(phi) / (eta (nA^2 - 2 a^2) + 8 a^2)``
    """
    params.require_gaussian_regime()
    u = np.asarray(n_a, dtype=float)
    a2 = params.alpha**2
    den = params.eta * (u * u - 2.0 * a2) + 8.0 * a2
    out = 4.0 * a2 * u * params.eta * math.cos(params.phi) / den
    return out if out.shape else float(out)


def conditional_variance(n_a, params: CountModelParams):
    """Variance of Bob's count given Alice measured ``n_a``.

    ``2 a^2 (2 a^2 (eta+4) + nA^2 eta) / (2 a^2 (4-eta) + nA^2 eta)
    - 16 a^4 nA^2 eta^2 cos^2(phi) / (2 a^2 (4-eta) + nA^2 eta)^2``
    Peaks at ``n_a = 0`` and decays to two shot-noise units ``2 a^2``;
    the peak-to-asymptote ratio is ``(4+eta)/(4-eta)``.
    """
    params.require_gaussian_regime()
    u = np.asarray(n_a, dtype=float)
    a2 = params.alpha**2
    eta = params.eta
    den = 2.0 * a2 * (4.0 - eta) + u * u * eta
    second = 2.0 * a2 * (2.0 * a2 * (eta + 4.0) + u * u * eta) / den
    mean_sq = (4.0 * a2 * u * eta * math.cos(params.phi)) ** 2 / (den * den)
    out = second - mean_sq
    return out if out.shape else float(out)


def variance_peak_ratio(eta: float) -> float:
    """Peak-to-asymptote ratio of the conditional variance, ``(4+eta)/(4-eta)``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return (4.0 + eta) / (4.0 - eta)


def distinguishability_error(params: CountModelParams, delta_a: float) -> float:
    """Bayes-optimal single-shot error for telling Alice's +delta_a and
    -delta_a outcomes apart from Bob's count (phi = 0 model, equal priors).

    The likelihood ratio of Bob's two conditional densities crosses 1 only
    at 0, so the optimal rule is the sign of Bob's count and the error is
    Gaussian partial moments in closed form.  With ``s^2 = 2 alpha^2``,
    ``g = s sqrt(pi/2)``, ``c = 4 (2-eta) alpha^2`` and ``d = delta_a``:
    ``[eta (d^2 g + s^2 g - 2 d s^2) + c g] / (2 g [eta (d^2 + s^2) + c])``,
    which is exactly 0.5 at ``eta = 0``.
    """
    params.require_gaussian_regime()
    if delta_a <= 0:
        raise ValueError(f"delta_a must be positive, got {delta_a}")
    a2 = params.alpha**2
    s2 = 2.0 * a2
    g = math.sqrt(s2) * math.sqrt(math.pi / 2.0)
    c = 4.0 * (2.0 - params.eta) * a2
    d = delta_a
    num = params.eta * (d * d * g + s2 * g - 2.0 * d * s2) + c * g
    return num / (2.0 * g * (params.eta * (d * d + s2) + c))

"""Closed-form photon-counting statistics of the displaced delocalized photon.

Both arms carry a displaced state (displaced vacuum or displaced single
photon, entangled across the arms), each arm is detected against a
reference pulse of the same mean energy, and all counts are expressed
relative to that reference.  In the large-amplitude regime
(``alpha >= GAUSSIAN_ALPHA_MIN``) the Poissonian photon statistics are
replaced by their Gaussian limit, which is what every function below
evaluates; the ones that rely on that limit raise ``ValueError`` below
``GAUSSIAN_ALPHA_MIN``.  Every result here is a closed form, including the single-shot discrimination error;
nothing is integrated numerically and nothing is written to files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this amplitude the Gaussian limit of the Poissonian is too crude.
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
                "count model does not apply"
            )


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

"""Closed-form photon-counting statistics of the displaced delocalized photon.

Both arms carry a displaced state (displaced vacuum or displaced single
photon, entangled across the arms), each arm is detected against a
reference pulse of the same mean energy, and all counts are expressed
relative to that reference.  In the large-amplitude regime
(``alpha >= GAUSSIAN_ALPHA_MIN``) the Poissonian photon statistics are
replaced by their Gaussian limit, which is what every function below
evaluates; a :class:`CountModelParams` below ``GAUSSIAN_ALPHA_MIN`` raises
``ConfigError`` when it is built, so every instance lies in that regime.
Every result here is a closed form, including the single-shot
discrimination error; nothing is integrated numerically and nothing is
written to files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Below this amplitude the Gaussian limit of the Poissonian is too crude.
GAUSSIAN_ALPHA_MIN = 10.0


@dataclass(frozen=True)
class CountModelParams:
    """Displacement amplitude, total efficiency and interferometer phase, in
    the Gaussian regime ``alpha >= GAUSSIAN_ALPHA_MIN``."""

    alpha: float
    eta: float
    phi: float = 0.0

    def __post_init__(self):
        # the largest value below, the conditional-variance peak, is under
        # 4 alpha^2; a finite alpha can still overflow that
        if not (math.isfinite(4.0 * self.alpha * self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be positive with 4 alpha^2 finite, got {self.alpha}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ConfigError(f"phi must lie in [0, 2*pi), got {self.phi}")
        if self.alpha < GAUSSIAN_ALPHA_MIN:
            raise ConfigError(
                f"alpha={self.alpha} is below {GAUSSIAN_ALPHA_MIN}; the Gaussian "
                "count model does not apply"
            )


def count_marginal_std(params: CountModelParams) -> float:
    """Standard deviation of either arm's reference-subtracted count,
    ``alpha * sqrt(2 + eta)`` (independent of phi)."""
    return params.alpha * math.sqrt(2.0 + params.eta)


def _reduced_mean(n_a, params: CountModelParams):
    """Alice's count in units of alpha, ``t = nA / alpha``, the shared
    denominator ``den = 2 (4-eta) + t^2 eta`` and Bob's conditional mean in
    units of alpha, ``4 t eta cos(phi) / den``.  With ``alpha^2`` factored
    out, no intermediate grows with alpha."""
    t = np.asarray(n_a, dtype=float) / params.alpha
    den = 2.0 * (4.0 - params.eta) + t * t * params.eta
    return t, den, 4.0 * t * params.eta * math.cos(params.phi) / den


def conditional_mean(n_a, params: CountModelParams):
    """Mean of Bob's count given Alice measured ``n_a`` (both centered).

    ``4 a^2 nA eta cos(phi) / (eta (nA^2 - 2 a^2) + 8 a^2)``, evaluated as
    ``a * 4 t eta cos(phi) / (2 (4-eta) + t^2 eta)`` with ``t = nA / a``.
    """
    _, _, mean = _reduced_mean(n_a, params)
    return params.alpha * mean


def conditional_variance(n_a, params: CountModelParams):
    """Variance of Bob's count given Alice measured ``n_a``.

    ``2 a^2 (2 a^2 (eta+4) + nA^2 eta) / (2 a^2 (4-eta) + nA^2 eta)
    - 16 a^4 nA^2 eta^2 cos^2(phi) / (2 a^2 (4-eta) + nA^2 eta)^2``,
    evaluated with ``t = nA / a`` and ``den = 2 (4-eta) + t^2 eta`` as
    ``a^2 [2 (2 (eta+4) + t^2 eta) / den - (4 t eta cos(phi) / den)^2]``.
    Peaks at ``n_a = 0`` and decays to two shot-noise units ``2 a^2``;
    the peak-to-asymptote ratio is ``(4+eta)/(4-eta)``.
    """
    t, den, mean = _reduced_mean(n_a, params)
    second = 2.0 * (2.0 * (params.eta + 4.0) + t * t * params.eta) / den
    return params.alpha**2 * (second - mean * mean)


def variance_peak_ratio(eta: float) -> float:
    """Peak-to-asymptote ratio of the conditional variance, ``(4+eta)/(4-eta)``."""
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    return (4.0 + eta) / (4.0 - eta)


def distinguishability_error(params: CountModelParams, delta_a: float) -> float:
    """Bayes-optimal single-shot error for telling Alice's +delta_a and
    -delta_a outcomes apart from Bob's count (phi = 0 model, equal priors).

    The likelihood ratio of Bob's two conditional densities crosses 1 only
    at 0, so the optimal rule is the sign of Bob's count and the error is
    Gaussian partial moments in closed form.  With ``s^2 = 2 alpha^2``,
    ``g = s sqrt(pi/2)``, ``c = 4 (2-eta) alpha^2`` and ``d = delta_a``:
    ``[eta (d^2 g + s^2 g - 2 d s^2) + c g] / (2 g [eta (d^2 + s^2) + c])``.
    It depends on ``r = d / alpha`` alone and is evaluated as
    ``[eta (r^2 + 2 - 4 r / sqrt(pi)) + 4 (2-eta)] / (2 [eta (r^2 + 2) + 4 (2-eta)])``,
    so no intermediate grows with alpha; exactly 0.5 at ``eta = 0``.
    """
    if delta_a <= 0:
        raise ConfigError(f"delta_a must be positive, got {delta_a}")
    eta = params.eta
    r = delta_a / params.alpha
    c = 4.0 * (2.0 - eta)
    num = eta * (r * r + 2.0 - 4.0 * r / math.sqrt(math.pi)) + c
    return num / (2.0 * (eta * (r * r + 2.0) + c))

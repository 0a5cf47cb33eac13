"""End-to-end experiment scenarios: every command's documents (file name to
content, written by :func:`macrocat.output.write_documents`) are built here.

A counting scenario draws balanced-detection records for both phase
settings (0 and pi/2), bins Alice's outcomes, and produces the
conditional mean/variance curves, the two conditional histograms of
Bob's counts at macroscopically separated Alice outcomes, and the
empirical single-shot discrimination error.  It reduces each block of
shots as the sampler draws it and keeps no per-shot array, so its memory
does not grow with the shot count.  A block holds both settings: one
pass of the sampler draws them, and one bin index and one set of
``bincount`` calls reduce them.  The blocks run on a thread pool with
one thread per CPU the process may run on, a bounded number of them
ahead of the merge, and their partials merge in block order, so the
output does not depend on the pool size.  A tomography scenario builds
the microscopic post-undisplacement model state, samples homodyne records
over a phase schedule, and reconstructs it.  The analytic curves, the
Wigner table and the undisplacement locality check are built here too.

The macroscopic counting path uses the Gaussian-regime law.  The
tomography path works on the two-mode, two-level state
:class:`~macrocat.fock.DensityMatrix`; the round trip computes at a per-mode
Fock truncation ``dim`` and hands its block on ``|00>, |01>, |10>, |11>`` to
the same fidelity and concurrence.  The test suite checks the counting law
against the exact Fock-basis law at moderate amplitude, where both apply.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from collections import deque
from dataclasses import dataclass, field, asdict

import numpy as np

from . import counting, fock, sampling, tomography
from .counting import CountModelParams
from .errors import ConfigError

STREAM_COUNTS_PHI0 = 0
STREAM_COUNTS_PHI90 = 1
STREAM_QUADRATURES = 2

# Alice-offset for the conditional histograms, relative to alpha: at the
# default amplitude 1.05e4 this lands on 3.1e4 photons.
_DELTA_A_PER_ALPHA = 3.1e4 / 1.05e4
# Alice's outcomes (and Bob's, for the histograms) are binned uniformly over
# +-4 marginal standard deviations; the conditioning windows of the
# histograms and the empirical error are +-4% of one.
_N_COUNT_BINS = 41
_BIN_SPAN_SIGMAS = 4.0
_WINDOW_FRAC = 0.04
# count shots per phase setting drawn and reduced at a time, both settings
# in one pass: each pool thread's arrays, ~2.0 MB with the two settings'
# 512 KiB uniform tables, are allocated once per thread
_COUNT_BLOCK_SHOTS = 1 << 14
# tomography: Alice's LO steps uniformly through 12 phases over [0, 2 pi)
# while Bob's stays locked at 0; an informationally complete scan of the
# one-photon subspace needs at least 4
_TOMO_SETTINGS = 12
TOMO_PHASES = [2.0 * math.pi * j / _TOMO_SETTINGS for j in range(_TOMO_SETTINGS)]

_DEFAULT_ETA_BUDGET = {
    "modematch": 0.81,
    "optics": 0.77,
    "detector": 0.86,
    "undisplacement": 0.95,
}


# beyond sigma = 40 the dephasing factor exp(-sigma^2/2) is 0 in float64, so
# clamping sigma there changes no value and keeps sigma^2 finite
_SIGMA_FAR = 40.0


def dephasing_factor(sigma: float) -> float:
    """``exp(-sigma^2/2)``, the damping of the single-photon coherence by
    Gaussian phase noise of standard deviation ``sigma``; 0.0 at any sigma
    too large to square."""
    return math.exp(-min(abs(sigma), _SIGMA_FAR) ** 2 / 2.0)


def json_number(name: str, value):
    """``value`` if it is a finite JSON number: an int or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    # an exact comparison, so an int beyond the float range fails it too
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def json_integer(name: str, value) -> int:
    """``value`` if it is a JSON integer (an int, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def check_fields(what: str, doc: dict, known: set[str]) -> None:
    """Raise :class:`ConfigError` if ``doc`` has a key outside ``known``."""
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Run parameters; serializes to JSON with exactly these field names."""

    alpha: float = 1.05e4
    phi: float = 0.0
    eta_total: float = 0.49
    eta_budget: dict = field(default_factory=lambda: dict(_DEFAULT_ETA_BUDGET))
    n_count_shots: int = 5_000_000
    n_quad_shots: int = 200_000
    phase_noise_sigma: float = 0.0
    seed: int = 1

    def __post_init__(self):
        for name in ("n_count_shots", "n_quad_shots", "seed"):
            json_integer(name, getattr(self, name))
        for name in ("alpha", "phi", "eta_total", "phase_noise_sigma"):
            json_number(name, getattr(self, name))
        if not 0.0 < self.eta_total <= 1.0:
            raise ConfigError(f"eta_total must lie in (0, 1], got {self.eta_total}")
        if not isinstance(self.eta_budget, dict):
            raise ConfigError(f"eta_budget must be an object, got {self.eta_budget!r}")
        for name, value in self.eta_budget.items():
            if not 0.0 < json_number(f"eta_budget[{name!r}]", value) <= 1.0:
                raise ConfigError(f"eta_budget[{name!r}] must lie in (0, 1], got {value}")
        if self.eta_budget:
            prod = math.prod(self.eta_budget.values())
            if abs(prod - self.eta_total) > 0.02:
                raise ConfigError(
                    f"eta_budget product {prod:.4f} inconsistent with "
                    f"eta_total {self.eta_total}"
                )
        if self.n_count_shots < 1 or self.n_quad_shots < 1:
            raise ConfigError("shot counts must be positive")
        if self.phase_noise_sigma < 0:
            raise ConfigError(f"phase_noise_sigma must be nonnegative, got {self.phase_noise_sigma}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        # the count model's rules (phi in [0, 2 pi), 4 alpha^2 finite, the
        # Gaussian regime) hold for every command, so a value they reject
        # fails here, before any sampling
        self.count_params(phi=self.phi)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        check_fields("config", doc, set(cls.__dataclass_fields__))
        return cls(**doc)

    def count_params(self, phi: float) -> CountModelParams:
        return CountModelParams(alpha=self.alpha, eta=self.eta_total, phi=phi)


def default_delta_a(alpha: float) -> float:
    return _DELTA_A_PER_ALPHA * alpha


def count_bin_edges(params: CountModelParams) -> np.ndarray:
    """Edges of the count bins: uniform over +-4 marginal standard deviations."""
    span = _BIN_SPAN_SIGMAS * counting.count_marginal_std(params)
    return np.linspace(-span, span, _N_COUNT_BINS + 1)


def _summary(config: ExperimentConfig, **measured: float) -> dict:
    """``summary.json``: the model's three headline numbers, with the ones a
    run measured in their place.  The model's discrimination error is the
    closed form at the default Alice offset, its concurrence that of the
    loss + dephasing model state."""
    return {
        "variance_ratio": counting.variance_peak_ratio(config.eta_total),
        "discrimination_error": counting.distinguishability_error(
            config.count_params(phi=0.0), default_delta_a(config.alpha)
        ),
        "concurrence": config.eta_total * dephasing_factor(config.phase_noise_sigma),
        **measured,
    }


def analytic_documents(config: ExperimentConfig) -> dict:
    """``analytic``'s documents: the model's conditional curves at both phase
    settings over the count bins' centers, and its summary."""
    edges = count_bin_edges(config.count_params(phi=0.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    documents = {}
    for name, phi in (("curves_phi0.csv", 0.0), ("curves_phi90.csv", math.pi / 2.0)):
        params = config.count_params(phi=phi)
        documents[name] = {
            "nA": centers,
            "mean_nB": counting.conditional_mean(centers, params),
            "var_nB": counting.conditional_variance(centers, params),
        }
    documents["summary.json"] = _summary(config)
    return documents


def _bin_index(
    x: np.ndarray, edges: np.ndarray, out: np.ndarray, scratch: np.ndarray, flags: np.ndarray
) -> np.ndarray:
    """Index of the bin of ``edges`` that holds each ``x``, outliers in the
    edge bins: ``np.clip(np.digitize(x, edges) - 1, 0, len(edges) - 2)``.

    ``x`` is clamped in place to ``[edges[0], edges[-2]]``, which moves no
    value to another bin.  The edges are uniform, so the index is
    arithmetic; rounding can put a value within a few ulps of an edge one
    bin off, and one comparison against ``edges`` on each side moves it
    back.  The index goes to the intp array ``out``; ``scratch`` (float) and
    ``flags`` (bool) are scratch of ``x``'s length.
    """
    last = edges.size - 2
    np.minimum(np.maximum(x, edges[0], out=x), edges[last], out=x)
    t = np.subtract(x, edges[0], out=scratch)
    # t is in [0, last] up to rounding: truncation is floor, and the index
    # stays in [0, last] through both corrections
    k = out
    np.copyto(k, np.multiply(t, (last + 1) / (edges[-1] - edges[0]), out=t), casting="unsafe")
    # every index taken is in range, so "clip" only skips take's copy of out
    k -= np.less(x, edges.take(k, out=t, mode="clip"), out=flags)
    k += np.greater_equal(x, edges[1:].take(k, out=t, mode="clip"), out=flags)
    return k


def _window_histograms(
    bob: np.ndarray, below: np.ndarray, edges: np.ndarray, out: np.ndarray, scratch: np.ndarray,
    flags: np.ndarray,
) -> np.ndarray:
    """``np.histogram(bob[~below], edges)[0]`` and ``np.histogram(bob[below],
    edges)[0]`` as the rows of one array: the values in ``[edges[0],
    edges[-1]]`` binned by :func:`_bin_index`, the last edge in the last bin,
    and counted by one ``bincount``.  ``out``, ``scratch`` and ``flags`` are
    as :func:`_bin_index` takes them, at least ``bob``'s length."""
    kept = (bob >= edges[0]) & (bob <= edges[-1])
    m = np.count_nonzero(kept)
    k = _bin_index(bob[kept], edges, out[:m], scratch[:m], flags[:m])
    k += _N_COUNT_BINS * below[kept]
    return np.bincount(k, minlength=2 * _N_COUNT_BINS).reshape(2, _N_COUNT_BINS)


def _count_scale(alpha: float) -> float:
    """A power of two near ``1/alpha``: scaling Bob's counts by it is exact and
    keeps their squares finite at any alpha the config accepts."""
    return 2.0 ** -math.frexp(alpha)[1]


@dataclass(frozen=True)
class _BinMoments:
    """Per-bin shot count, mean and sum of squared deviations (M2) of Bob's
    scaled counts, one row per phase setting."""

    n: np.ndarray
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, idx: np.ndarray, y: np.ndarray, scratch: np.ndarray, settings: int) -> "_BinMoments":
        """The moments of the values ``y`` in bins ``idx``, setting s's bins
        offset by ``s * _N_COUNT_BINS``; ``scratch`` is a float array of
        their length."""
        bins = settings * _N_COUNT_BINS
        n = np.bincount(idx, minlength=bins)
        # an empty bin gets mean 0, which the merge weights by its 0 shots
        mean = np.bincount(idx, weights=y, minlength=bins) / np.maximum(n, 1)
        dev = np.subtract(y, mean.take(idx, out=scratch, mode="clip"), out=scratch)
        m2 = np.bincount(idx, weights=np.square(dev, out=dev), minlength=bins)
        return cls(*(a.reshape(settings, _N_COUNT_BINS) for a in (n, mean, m2)))

    def merge(self, other: "_BinMoments") -> "_BinMoments":
        """The pairwise update of Chan, Golub & LeVeque (1983)."""
        n = self.n + other.n
        frac = np.divide(other.n, n, out=np.zeros(n.shape), where=n > 0)
        delta = other.mean - self.mean
        return _BinMoments(
            n, self.mean + delta * frac, self.m2 + other.m2 + delta * delta * self.n * frac
        )

    def curve(self, setting: int, edges: np.ndarray, params: CountModelParams, scale: float) -> dict:
        """The columns of ``setting``'s curve file: each bin's center,
        unscaled conditional mean and unbiased variance (NaN mean in an
        empty bin, NaN variance in a bin with fewer than 2 shots), shot
        count, and the model's mean and variance."""
        n, mean, m2 = self.n[setting], self.mean[setting], self.m2[setting]
        centers = 0.5 * (edges[:-1] + edges[1:])
        # a few shots spread over ~10 alpha can have a variance beyond the
        # float64 range once unscaled; the infinity is rejected when the
        # curve is written
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            mean = np.where(n > 0, mean / scale, np.nan)
            var = np.where(n > 1, m2 / (n - 1), np.nan) / scale**2
        return {
            "nA": centers, "mean_nB": mean, "var_nB": var, "count": n.astype(np.int64),
            "model_mean_nB": counting.conditional_mean(centers, params),
            "model_var_nB": counting.conditional_variance(centers, params),
        }


@dataclass(frozen=True)
class _CountPartial:
    """What a run of consecutive count shots reduces to: the per-bin moments
    of both phase settings (0, pi/2) and, for phi = 0, the shots and errors
    in the two conditioning windows (above, below) and Bob's histogram in
    each."""

    moments: _BinMoments
    window_shots: np.ndarray
    window_errors: np.ndarray
    histograms: np.ndarray

    def merge(self, other: "_CountPartial") -> "_CountPartial":
        return _CountPartial(
            self.moments.merge(other.moments),
            self.window_shots + other.window_shots,
            self.window_errors + other.window_errors,
            self.histograms + other.histograms,
        )


def _count_block(
    config: ExperimentConfig, params: tuple, edges: np.ndarray, local, lo: int
) -> _CountPartial:
    """Draw shots ``[lo, lo + block)`` of both phase settings and reduce them.

    ``params`` holds the count parameters of phi = 0 and phi = pi/2; both
    settings share the bin ``edges``, so one pass draws them and one bins
    them.  The draw is a function of ``lo`` alone (the Philox stream is
    counter-based), so the blocks can be reduced in any order.  The arrays
    come from the :class:`~macrocat.sampling.CountWorkspace` for both
    settings that the calling thread keeps on ``local`` (a
    ``threading.local``), made on its first block: the reduction runs in its
    index, scratch and flags, so a thread's later blocks allocate no array
    of a block's length.
    """
    n = min(_COUNT_BLOCK_SHOTS, config.n_count_shots - lo)
    ws = getattr(local, "workspace", None)
    if ws is None:
        ws = local.workspace = sampling.CountWorkspace(2 * _COUNT_BLOCK_SHOTS)
    idx, scratch, flags = ws.index[: 2 * n], ws.scratch[: 2 * n], ws.flags[: 2 * n]
    rec = ws.draw(
        list(zip(params, (STREAM_COUNTS_PHI0, STREAM_COUNTS_PHI90))), n, config.seed, lo
    )
    # phi = 0's conditioning windows, where |dn_a - delta_a| or |dn_a +
    # delta_a| is within the window: one test on ||dn_a| - delta_a|, the
    # same bits, as the windows lie on either side of 0
    dn_a = rec.dn_a[0]
    dist = np.abs(dn_a, out=scratch[:n])
    np.abs(np.subtract(dist, default_delta_a(config.alpha), out=dist), out=dist)
    window = _WINDOW_FRAC * counting.count_marginal_std(params[0])
    inside = np.less_equal(dist, window, out=flags[:n])
    below = dn_a[inside] < 0.0
    bob = rec.dn_b[0][inside]
    # the likelihood-ratio test for the two conditional laws reduces to the
    # sign of Bob's count: it errs above on a negative count, below on a
    # positive one
    wrong = np.where(below, bob > 0.0, bob < 0.0)
    histograms = _window_histograms(bob, below, edges, idx, scratch, flags)
    # Bob's counts are scaled in place, so this is the draw's last use
    y = np.multiply(rec.dn_b, _count_scale(config.alpha), out=rec.dn_b).reshape(-1)
    k = _bin_index(rec.dn_a.reshape(-1), edges, idx, scratch, flags)
    k[n:] += _N_COUNT_BINS
    return _CountPartial(
        moments=_BinMoments.of(k, y, scratch, 2),
        window_shots=np.bincount(below, minlength=2),
        window_errors=np.bincount(below[wrong], minlength=2),
        histograms=histograms,
    )


def _in_order(pool, fn, items, depth: int):
    """Yield ``fn(item)`` for each of ``items``, in order, computed on
    ``pool``: at most ``depth`` calls are submitted ahead of the one whose
    result is being waited for.  A call's exception is raised as it is, and
    the calls not yet started are then cancelled."""
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > depth:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_counts_scenario(config: ExperimentConfig) -> dict:
    """``simulate-counts``' documents: a counting run for both phase
    settings with analytic overlays.

    The shots are drawn and reduced in blocks of ``_COUNT_BLOCK_SHOTS``
    by :func:`_count_block`, on a thread pool with one thread per CPU in
    the process's affinity mask; at most two blocks per thread run or wait
    ahead of the one being merged.  Each thread draws and reduces its
    blocks in one set of block-length arrays, kept on a ``threading.local``
    for this scenario.  The partials are merged in block order: no per-shot
    array outlives its thread, so the working memory is O(threads x block)
    for any ``n_count_shots``, and the result does not depend on the pool
    size or on the order in which blocks are drawn.
    """
    # imported here: only this scenario uses them, and every command pays
    # for what `import macrocat.cli` loads
    import threading
    from concurrent.futures import ThreadPoolExecutor

    params = (config.count_params(phi=0.0), config.count_params(phi=math.pi / 2.0))
    # the marginal spread alpha sqrt(2 + eta) does not depend on phi
    edges = count_bin_edges(params[0])
    # the CPUs this process may run on; a platform without affinity masks
    # (macOS) falls back to the CPU count
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    with ThreadPoolExecutor(workers) as pool:
        partials = _in_order(
            pool,
            functools.partial(_count_block, config, params, edges, threading.local()),
            range(0, config.n_count_shots, _COUNT_BLOCK_SHOTS),
            2 * workers,
        )
        total = functools.reduce(_CountPartial.merge, partials)
    if not total.window_shots.all():
        raise ValueError("no shots fall in the conditioning windows")
    error_rates = total.window_errors / total.window_shots
    scale = _count_scale(config.alpha)
    curves = [total.moments.curve(s, edges, p, scale) for s, p in enumerate(params)]
    # the center bin's conditional variance over the large-offset asymptote,
    # the two-shot-noise-unit floor 2 alpha^2 the law decays to: bins at
    # reachable offsets still sit a few percent above it, so the known floor
    # (in the lab: the measured reference/vacuum noise) is the denominator
    center = np.argmin(np.abs(curves[0]["nA"]))
    return {
        "summary.json": _summary(
            config,
            variance_ratio=float(curves[0]["var_nB"][center] / (2.0 * config.alpha**2)),
            # the empirical Bayes error of the sign test
            discrimination_error=0.5 * float(error_rates[0] + error_rates[1]),
        ),
        "curves_phi0.csv": curves[0],
        "curves_phi90.csv": curves[1],
        "histograms.csv": {
            "dnB": curves[0]["nA"],
            "count_above": total.histograms[0],
            "count_below": total.histograms[1],
        },
    }


def model_microscopic_state(
    eta: float, phi: float, dephasing_sigma: float = 0.0
) -> fock.DensityMatrix:
    """Post-undisplacement model: lossy delocalized photon plus dephasing.

    ``eta |psi_0><psi_0| + (1 - eta)|00><00|`` with ``psi_0 = (|01> +
    e^{i phi}|10>)/sqrt(2)`` and the single-photon coherence damped by
    :func:`dephasing_factor`, on ``|00>, |01>, |10>, |11>``.  The dephasing
    factor is a one-parameter surrogate for the quadrature noise of the displacement/
    undisplacement round trip; it is a modeling knob, not a calibrated
    physical mechanism.
    """
    psi = np.array([0.0, 1.0, np.exp(1j * phi), 0.0]) / np.sqrt(2.0)
    data = eta * np.outer(psi, psi.conj())
    data[0, 0] += 1.0 - eta
    kappa = dephasing_factor(dephasing_sigma)
    data[1, 2] *= kappa
    data[2, 1] *= kappa
    return fock.DensityMatrix(data)


def run_tomography_scenario(config: ExperimentConfig) -> dict:
    """``tomography``'s documents: the homodyne run simulated on the model
    state, and its reconstruction.

    The heralded source emits one photon split between the arms, and
    :func:`macrocat.tomography.mle_reconstruct` reconstructs on the vacuum +
    one-photon support (see there why the full product basis is not
    identifiable).
    """
    model = model_microscopic_state(
        config.eta_total, config.phi, dephasing_sigma=config.phase_noise_sigma
    )
    records = sampling.sample_quadrature_schedule(
        model, TOMO_PHASES, config.n_quad_shots, config.seed, stream=STREAM_QUADRATURES
    )
    result = tomography.mle_reconstruct(records)
    return {
        "records.csv": {
            "shot": records.shots, "thetaA": records.theta_a, "xA": records.x_a,
            # Bob's LO is locked at 0; the column keeps the file's format
            "thetaB": np.zeros(len(records)), "xB": records.x_b,
        },
        "result.json": {
            **result.to_json_dict(), "fidelity_to_model": tomography.fidelity(result.rho, model),
        },
        "summary.json": _summary(config, concurrence=result.concurrence),
    }


# The round trip's one truncation rule: the population its 4 x 4 block
# loses to the truncation, at most this
_LEAKAGE_TOL = 1e-10


@dataclass(frozen=True)
class RoundtripResult:
    mismatch_eta: float
    fidelity_to_loss_model: float
    concurrence_roundtrip: float
    concurrence_initial: float
    leakage: float


def _roundtrip_block(alpha_small: float, mismatch_eta: float, dim: int, phi: float) -> np.ndarray:
    """Round-trip state on ``|00>, |01>, |10>, |11>``, with the displaced
    ket normalized inside ``dim``.

    See :func:`displacement_roundtrip_check` for the formulas.  No array
    here has more than ``4 dim`` entries.
    """
    d = fock.displaced_levels(alpha_small, dim)
    norms = np.linalg.norm(d, axis=0)
    if not norms.min() > 0.0:
        raise ConfigError(
            f"alpha = {alpha_small} leaves the displaced state norm {norms.min()} below dim = {dim}"
        )
    # scaling a column scales the ket: unit columns keep its norm, a product
    # of two column norms, from underflowing
    d = d / norms
    e = fock.displaced_levels(math.sqrt(mismatch_eta) * alpha_small, dim)
    c = np.array([[0.0, 1.0], [np.exp(1j * phi), 0.0]])
    s = d.T @ d
    norm2 = np.trace(c @ s @ c.conj().T @ s).real
    coeffs = fock.loss_kraus_coefficients(mismatch_eta, dim)
    v = np.array([e[: dim - j].T @ (cj[:, None] * d[j:]) for j, cj in enumerate(coeffs)])
    w = v.reshape(len(coeffs), 4)
    g = (w.T @ w).reshape(2, 2, 2, 2)  # g[a, c, a', c'] = sum_j V_j[a, c] V_j[a', c']
    block = np.einsum("cd,ef,acge,bdhf->abgh", c, c.conj(), g, g).reshape(4, 4)
    return block / norm2


def displacement_roundtrip_check(
    alpha_small: float, mismatch_eta: float, dim: int, phi: float
) -> RoundtripResult:
    """Displace, lose a fraction of the light, undisplace; compare.

    Both arms of the delocalized photon get ``D(alpha)``, a loss channel of
    transmissivity ``mismatch_eta``, then the reverse displacement matched
    to the attenuated amplitude (``-sqrt(eta) alpha``), applied mode by mode.
    Displacement being local and unitary, the result must coincide with
    applying the loss alone, so the reference is the closed-form loss model
    ``eta |psi_0><psi_0| + (1 - eta)|00><00|`` of
    :func:`model_microscopic_state`, and the entanglement can only drop.

    Only two displaced levels per mode are ever formed.  The displaced ket
    is ``Psi = D C D^T`` as a ``dim x dim`` amplitude matrix, with ``D`` the
    columns ``D(alpha)|0>, D(alpha)|1>`` of
    :func:`macrocat.fock.displaced_levels` and ``C = [[0, 1], [e^{i phi},
    0]]``; its squared norm inside ``dim`` is ``tr(C S C^dagger S)``, ``S =
    D^T D``.  With ``U = D(-sqrt(eta) alpha)`` and the loss Kraus operators
    ``K_j`` (one nonzero diagonal ``c_j`` each,
    :func:`macrocat.fock.loss_kraus_coefficients`), the unnormalized result
    is the ensemble of kets ``A_j Psi A_k^T`` with ``A_j = U K_j``.  Only
    rows 0 and 1 of ``U`` reach the one-photon block, and they are the
    columns ``E`` of ``D(sqrt(eta) alpha)``, transposed, so one mode's map
    is the 2 x 2 matrix ``V_j = E[:dim-j]^T (c_j D[j:])`` and each ket's
    block is ``V_j C V_k^T``.  Summed over j and k,

        block[(a,b), (a',b')] = sum C[c,d] conj(C[c',d']) G[a,c,a',c'] G[b,d,b',d'],
        G[a,c,a',c'] = sum_j V_j[a,c] V_j[a',c'],

    O(dim^2) in all.  The block over its own trace is the
    :class:`~macrocat.fock.DensityMatrix` the fidelity and the concurrence
    read.

    In exact arithmetic the round trip is the loss model itself, so the
    fidelity is 1 at every eta and the check measures the Fock truncation
    error alone.  The exact result lies wholly in the block, with unit
    trace, and ``Psi`` is normalized inside ``dim``, so ``leakage = 1 -
    tr(block)`` counts all the population the truncation loses: what the
    displacement pushed past ``dim`` and what the undisplacement leaves
    outside the block.  Raises :class:`ConfigError` unless the leakage is
    at most 1e-10 (a NaN fails too); the result records it.
    """
    if not 0.0 < mismatch_eta <= 1.0:
        raise ConfigError(f"mismatch_etas entry must lie in (0, 1], got {mismatch_eta}")
    spec = f"alpha_small = {alpha_small} at dim = {dim}"
    try:
        block = _roundtrip_block(alpha_small, mismatch_eta, dim, phi)
    except ConfigError as exc:  # a kernel's own check: name the spec's fields
        raise ConfigError(f"{spec}: {exc}") from None
    kept = float(np.trace(block).real)
    leakage = 1.0 - kept
    if not leakage <= _LEAKAGE_TOL:
        raise ConfigError(
            f"{spec}: the round trip loses {leakage:.3e} of its population "
            f"to the truncation, above {_LEAKAGE_TOL:g}"
        )
    roundtrip = fock.DensityMatrix(block / kept)
    return RoundtripResult(
        mismatch_eta=mismatch_eta,
        fidelity_to_loss_model=tomography.fidelity(
            roundtrip, model_microscopic_state(mismatch_eta, phi)
        ),
        concurrence_roundtrip=tomography.concurrence(roundtrip),
        concurrence_initial=tomography.concurrence(model_microscopic_state(1.0, phi)),
        leakage=leakage,
    )


def roundtrip_documents(alpha_small: float, mismatch_etas: list, dim: int, phi: float) -> dict:
    """``roundtrip-check``'s document: :func:`displacement_roundtrip_check` at
    each of ``mismatch_etas``, and whether the round-trip concurrence falls
    with eta (``None`` unless the etas are in descending order)."""
    rows = [
        asdict(displacement_roundtrip_check(alpha_small, eta, dim=dim, phi=phi))
        for eta in mismatch_etas
    ]
    monotone = all(
        rows[i]["concurrence_roundtrip"] >= rows[i + 1]["concurrence_roundtrip"] - 1e-6
        for i in range(len(rows) - 1)
    ) if sorted(mismatch_etas, reverse=True) == mismatch_etas else None
    return {
        "roundtrip.json": {
            "alpha_small": alpha_small,
            "dim": dim,
            "phi": phi,
            "results": rows,
            "concurrence_monotone": monotone,
        },
    }


def wigner_documents(
    alpha: float, c0: complex, c1: complex, lo: float, hi: float, step: float
) -> dict:
    """``wigner``'s document: the Wigner function of ``c0 D(alpha)|0> + c1
    D(alpha)|1>``, normalized, on the square grid from ``lo`` to ``hi`` in
    steps of ``step``.

    A ``UserWarning`` names the table's captured mass ``sum(w) step^2`` when
    it is off 1 by more than 1e-3.
    """
    axis = np.arange(lo, hi + step / 2.0, step)
    grid_w = fock.wigner(alpha, c0, c1, axis, axis)
    mass = float(grid_w.sum()) * step * step
    if abs(mass - 1.0) > 1e-3:
        warnings.warn(
            f"the grid captures {mass:.6f} of the Wigner function's unit mass; "
            "the state lies partly or wholly off the grid"
        )
    return {
        "wigner.csv": {
            "x": np.repeat(axis, axis.size), "p": np.tile(axis, axis.size), "w": grid_w.ravel(),
        },
    }

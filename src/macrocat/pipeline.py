"""End-to-end experiment scenarios: counting runs, tomography runs and the
undisplacement locality check, with analytic overlays and the documents a
counting run emits.

A counting scenario draws balanced-detection records for both phase
settings (0 and pi/2), bins Alice's outcomes, and produces the
conditional mean/variance curves, the two conditional histograms of
Bob's counts at macroscopically separated Alice outcomes, and the
empirical single-shot discrimination error.  It reduces each block of
shots as the sampler draws it and keeps no per-shot array, so its memory
does not grow with the shot count.  The blocks run on a thread pool with
one thread per CPU the process may run on, a bounded number of them
ahead of the merge, and their partials merge in block order, so the
output does not depend on the pool size.  A tomography scenario builds
the microscopic post-undisplacement model state, samples homodyne records
over a phase schedule, and reconstructs it.

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
# count shots drawn and reduced at a time: a 1 MiB uniform table that stays
# in cache
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

    def model_concurrence(self) -> float:
        """Concurrence of the loss + dephasing model state."""
        return self.eta_total * dephasing_factor(self.phase_noise_sigma)

    def model_discrimination_error(self) -> float:
        """Closed-form discrimination error at the default Alice offset."""
        return counting.distinguishability_error(
            self.count_params(phi=0.0), default_delta_a(self.alpha)
        )


def default_delta_a(alpha: float) -> float:
    return _DELTA_A_PER_ALPHA * alpha


def count_bin_edges(params: CountModelParams) -> np.ndarray:
    """Edges of the count bins: uniform over +-4 marginal standard deviations."""
    span = _BIN_SPAN_SIGMAS * counting.count_marginal_std(params)
    return np.linspace(-span, span, _N_COUNT_BINS + 1)


@dataclass(frozen=True)
class BinnedCurve:
    """Per-bin conditional statistics of Bob's counts vs Alice's bin center."""

    centers: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    counts: np.ndarray
    model_mean: np.ndarray
    model_variance: np.ndarray


@dataclass(frozen=True)
class CountScenarioResult:
    """Everything a counting run produces (curves, histograms, summary)."""

    curves: dict  # phi -> BinnedCurve
    histogram_above: np.ndarray
    histogram_below: np.ndarray
    # shots in the conditioning windows (above, below), and how many of them
    # the sign test misassigns
    window_shots: np.ndarray
    window_errors: np.ndarray
    discrimination_error: float
    variance_ratio: float


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index of the bin of ``edges`` that holds each ``x``, outliers clipped
    into the edge bins: ``np.clip(np.digitize(x, edges) - 1, 0, len(edges) - 2)``.

    The edges are uniform, so the index is arithmetic; rounding can put a
    value within a few ulps of an edge one bin off, and one comparison
    against ``edges`` on each side moves it back.
    """
    last = edges.size - 2
    t = (x - edges[0]) * ((last + 1) / (edges[-1] - edges[0]))
    # truncation is floor on [0, last]
    k = np.clip(t, 0, last, out=t).astype(np.intp)
    k -= x < edges[k]
    k += x >= edges[k + 1]
    # an outlier's step to -1 or last + 1 is clipped back
    return np.clip(k, 0, last, out=k)


def _count_scale(alpha: float) -> float:
    """A power of two near ``1/alpha``: scaling Bob's counts by it is exact and
    keeps their squares finite at any alpha the config accepts."""
    return 2.0 ** -math.frexp(alpha)[1]


@dataclass(frozen=True)
class _BinMoments:
    """Per-bin shot count, mean and sum of squared deviations (M2) of Bob's
    scaled counts."""

    n: np.ndarray
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, idx: np.ndarray, y: np.ndarray) -> "_BinMoments":
        n = np.bincount(idx, minlength=_N_COUNT_BINS)
        # an empty bin gets mean 0, which the merge weights by its 0 shots
        mean = np.bincount(idx, weights=y, minlength=_N_COUNT_BINS) / np.maximum(n, 1)
        dev = y - mean[idx]
        return cls(n, mean, np.bincount(idx, weights=dev * dev, minlength=_N_COUNT_BINS))

    def merge(self, other: "_BinMoments") -> "_BinMoments":
        """The pairwise update of Chan, Golub & LeVeque (1983)."""
        n = self.n + other.n
        frac = np.divide(other.n, n, out=np.zeros(n.size), where=n > 0)
        delta = other.mean - self.mean
        return _BinMoments(
            n, self.mean + delta * frac, self.m2 + other.m2 + delta * delta * self.n * frac
        )

    def curve(self, edges: np.ndarray, params: CountModelParams, scale: float) -> BinnedCurve:
        """Unscaled conditional mean and unbiased variance of each bin: NaN
        mean in an empty bin, NaN variance in a bin with fewer than 2 shots."""
        centers = 0.5 * (edges[:-1] + edges[1:])
        # a few shots spread over ~10 alpha can have a variance beyond the
        # float64 range once unscaled; the infinity is rejected when the
        # curve is written
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            mean = np.where(self.n > 0, self.mean / scale, np.nan)
            var = np.where(self.n > 1, self.m2 / (self.n - 1), np.nan) / scale**2
        return BinnedCurve(
            centers=centers,
            mean=mean,
            variance=var,
            counts=self.n.astype(np.int64),
            model_mean=counting.conditional_mean(centers, params),
            model_variance=counting.conditional_variance(centers, params),
        )


@dataclass(frozen=True)
class _CountPartial:
    """What a run of consecutive count shots reduces to: the per-bin moments
    of each phase setting (0, pi/2) and, for phi = 0, the shots and errors in
    the two conditioning windows (above, below) and Bob's histogram in each."""

    moments: tuple[_BinMoments, _BinMoments]
    window_shots: np.ndarray
    window_errors: np.ndarray
    histograms: np.ndarray

    def merge(self, other: "_CountPartial") -> "_CountPartial":
        return _CountPartial(
            tuple(a.merge(b) for a, b in zip(self.moments, other.moments)),
            self.window_shots + other.window_shots,
            self.window_errors + other.window_errors,
            self.histograms + other.histograms,
        )


def _count_block(
    config: ExperimentConfig, params: tuple, edges: np.ndarray, lo: int
) -> _CountPartial:
    """Draw shots ``[lo, lo + block)`` of both phase settings and reduce them.

    ``params`` holds the count parameters of phi = 0 and phi = pi/2; both
    settings share the bin ``edges``.  The draw is a function of ``lo`` alone
    (the Philox stream is counter-based), so the blocks can be reduced in any
    order.
    """
    n = min(_COUNT_BLOCK_SHOTS, config.n_count_shots - lo)
    scale = _count_scale(config.alpha)
    records = [
        sampling.sample_counts(p, n, config.seed, stream, start_shot=lo)
        for p, stream in zip(params, (STREAM_COUNTS_PHI0, STREAM_COUNTS_PHI90))
    ]
    moments = tuple(
        _BinMoments.of(_bin_index(rec.dn_a, edges), rec.dn_b * scale) for rec in records
    )
    rec0 = records[0]
    delta_a = default_delta_a(config.alpha)
    window = _WINDOW_FRAC * counting.count_marginal_std(params[0])
    bob = [
        rec0.dn_b[np.abs(rec0.dn_a - delta_a) <= window],
        rec0.dn_b[np.abs(rec0.dn_a + delta_a) <= window],
    ]
    # the likelihood-ratio test for the two conditional laws reduces to the
    # sign of Bob's count: it errs above on a negative count, below on a
    # positive one
    return _CountPartial(
        moments=moments,
        window_shots=np.array([b.size for b in bob]),
        window_errors=np.array([np.count_nonzero(bob[0] < 0.0), np.count_nonzero(bob[1] > 0.0)]),
        histograms=np.array([np.histogram(b, bins=edges)[0] for b in bob]),
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


def peak_variance_ratio(curve: BinnedCurve, params: CountModelParams) -> float:
    """Center-bin conditional variance over the large-offset asymptote.

    The asymptote is the two-shot-noise-unit floor ``2 alpha^2`` the law
    decays to; bins at reachable offsets still sit a few percent above it,
    so the known floor (in the lab: the measured reference/vacuum noise)
    serves as the denominator.
    """
    center = np.argmin(np.abs(curve.centers))
    return float(curve.variance[center] / (2.0 * params.alpha**2))


def run_counts_scenario(config: ExperimentConfig) -> CountScenarioResult:
    """Counting run for both phase settings with analytic overlays.

    The shots are drawn and reduced in blocks of ``_COUNT_BLOCK_SHOTS``
    by :func:`_count_block`, on a thread pool with one thread per CPU in
    the process's affinity mask; at most two blocks per thread run or wait
    ahead of the one being merged.  The partials are merged in block
    order: no per-shot array outlives its block, so the working memory is
    O(threads x block) for any ``n_count_shots``, and the result does not
    depend on the pool size or on the order in which blocks are drawn.
    """
    # imported here, like scipy: only this scenario uses it, and every
    # command pays for what `import macrocat.cli` loads
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
            functools.partial(_count_block, config, params, edges),
            range(0, config.n_count_shots, _COUNT_BLOCK_SHOTS),
            2 * workers,
        )
        total = functools.reduce(_CountPartial.merge, partials)
    if not total.window_shots.all():
        raise ValueError("no shots fall in the conditioning windows")
    error_rates = total.window_errors / total.window_shots
    scale = _count_scale(config.alpha)
    curves = {
        phi: m.curve(edges, p, scale)
        for phi, m, p in zip((0.0, math.pi / 2.0), total.moments, params)
    }
    return CountScenarioResult(
        curves=curves,
        histogram_above=total.histograms[0],
        histogram_below=total.histograms[1],
        window_shots=total.window_shots,
        window_errors=total.window_errors,
        # the empirical Bayes error of the sign test
        discrimination_error=0.5 * float(error_rates[0] + error_rates[1]),
        variance_ratio=peak_variance_ratio(curves[0.0], params[0]),
    )


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


@dataclass(frozen=True)
class TomographyScenarioResult:
    result: tomography.TomographyResult
    records: sampling.QuadratureSample
    fidelity_to_model: float


def run_tomography_scenario(config: ExperimentConfig) -> TomographyScenarioResult:
    """Simulate the homodyne run on the model state and reconstruct it.

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
    return TomographyScenarioResult(
        result=result,
        records=records,
        fidelity_to_model=tomography.fidelity(result.rho, model),
    )


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


# ---------------------------------------------------------------------------
# documents (written by macrocat.output.write_documents)

def summary(variance_ratio: float, discrimination_error: float, concurrence: float) -> dict:
    """``summary.json``: the three headline numbers of a run."""
    return {
        "variance_ratio": variance_ratio,
        "discrimination_error": discrimination_error,
        "concurrence": concurrence,
    }


def count_documents(result: CountScenarioResult, config: ExperimentConfig) -> dict:
    """The documents of a counting run: summary.json, curves_phi0.csv,
    curves_phi90.csv and histograms.csv."""
    documents = {
        "summary.json": summary(
            result.variance_ratio, result.discrimination_error, config.model_concurrence()
        ),
    }
    for name, phi in (("curves_phi0.csv", 0.0), ("curves_phi90.csv", math.pi / 2.0)):
        curve = result.curves[phi]
        documents[name] = {
            "nA": curve.centers, "mean_nB": curve.mean, "var_nB": curve.variance,
            "count": curve.counts, "model_mean_nB": curve.model_mean,
            "model_var_nB": curve.model_variance,
        }
    documents["histograms.csv"] = {
        "dnB": result.curves[0.0].centers,
        "count_above": result.histogram_above,
        "count_below": result.histogram_below,
    }
    return documents

"""End-to-end experiment scenarios: counting runs, tomography runs and the
undisplacement locality check, with analytic overlays and file emission.

A counting scenario draws balanced-detection records for both phase
settings (0 and pi/2), bins Alice's outcomes, and produces the
conditional mean/variance curves, the two conditional histograms of
Bob's counts at macroscopically separated Alice outcomes, and the
empirical single-shot discrimination error.  A tomography scenario builds
the microscopic post-undisplacement model state, samples homodyne records
over a phase schedule, and reconstructs it.

The macroscopic counting path uses the Gaussian-regime law while the
tomography path uses truncated Fock states; their mutual consistency is
validated at moderate amplitude where both apply (see the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import counting, fock, output, sampling, tomography
from .counting import CountModelParams
from .errors import ConfigError, NumericError

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
# tomography: Alice's LO sweeps 12 phases; each mode is truncated at 4 levels
_TOMO_SETTINGS = 12
_TOMO_DIM = 4

_DEFAULT_ETA_BUDGET = {
    "modematch": 0.81,
    "optics": 0.77,
    "detector": 0.86,
    "undisplacement": 0.95,
}


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # the range checks below also reject NaN; alpha and sigma need isfinite
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ConfigError(f"phi must lie in [0, 2*pi), got {self.phi}")
        if not 0.0 < self.eta_total <= 1.0:
            raise ConfigError(f"eta_total must lie in (0, 1], got {self.eta_total}")
        if not isinstance(self.eta_budget, dict):
            raise ConfigError(f"eta_budget must be an object, got {self.eta_budget!r}")
        for name, value in self.eta_budget.items():
            if not 0.0 < value <= 1.0:
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
        if not (math.isfinite(self.phase_noise_sigma) and self.phase_noise_sigma >= 0):
            raise ConfigError(
                f"phase_noise_sigma must be finite and nonnegative, got {self.phase_noise_sigma}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def replace_seed(self, seed: int) -> "ExperimentConfig":
        doc = self.to_json_dict()
        doc["seed"] = seed
        return self.from_json_dict(doc)

    def count_params(self, phi: float | None = None) -> CountModelParams:
        return CountModelParams(
            alpha=self.alpha,
            eta=self.eta_total,
            phi=self.phi if phi is None else phi,
        )

    def model_concurrence(self) -> float:
        """Concurrence of the loss + dephasing model state."""
        return self.eta_total * math.exp(-self.phase_noise_sigma**2 / 2.0)

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
    histogram_centers: np.ndarray
    histogram_above: np.ndarray
    histogram_below: np.ndarray
    discrimination_error: float
    variance_ratio: float
    model_discrimination_error: float
    model_variance_ratio: float


def bin_count_records(records: sampling.CountSample, params: CountModelParams) -> BinnedCurve:
    """Conditional mean/variance of dn_B binned over Alice's outcome.

    Bins are those of :func:`count_bin_edges`; outliers are clipped into
    the edge bins so counts always total the number of shots.
    """
    edges = count_bin_edges(params)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.digitize(records.dn_a, edges) - 1, 0, _N_COUNT_BINS - 1)
    counts = np.bincount(idx, minlength=_N_COUNT_BINS).astype(np.int64)
    sums = np.bincount(idx, weights=records.dn_b, minlength=_N_COUNT_BINS)
    sq = np.bincount(idx, weights=records.dn_b**2, minlength=_N_COUNT_BINS)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        var = sq / counts - mean**2
        # unbiased correction
        var = np.where(counts > 1, var * counts / (counts - 1), np.nan)
    return BinnedCurve(
        centers=centers,
        mean=mean,
        variance=var,
        counts=counts,
        model_mean=counting.conditional_mean(centers, params),
        model_variance=counting.conditional_variance(centers, params),
    )


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
    """Counting run for both phase settings with analytic overlays."""
    delta_a = default_delta_a(config.alpha)
    params0 = config.count_params(phi=0.0)
    params90 = config.count_params(phi=math.pi / 2.0)
    rec0 = sampling.sample_counts(
        params0, config.n_count_shots, config.seed, stream=STREAM_COUNTS_PHI0
    )
    rec90 = sampling.sample_counts(
        params90, config.n_count_shots, config.seed, stream=STREAM_COUNTS_PHI90
    )
    curves = {
        0.0: bin_count_records(rec0, params0),
        math.pi / 2.0: bin_count_records(rec90, params90),
    }
    window = _WINDOW_FRAC * counting.count_marginal_std(params0)
    hist_edges = count_bin_edges(params0)
    above = np.abs(rec0.dn_a - delta_a) <= window
    below = np.abs(rec0.dn_a + delta_a) <= window
    if above.sum() == 0 or below.sum() == 0:
        raise ValueError("no shots fall in the conditioning windows")
    # the likelihood-ratio test for the two conditional laws reduces to the
    # sign of Bob's count, so its error rate here is the empirical Bayes error
    err_above = float(np.mean(rec0.dn_b[above] < 0.0))
    err_below = float(np.mean(rec0.dn_b[below] > 0.0))
    return CountScenarioResult(
        curves=curves,
        histogram_centers=curves[0.0].centers,
        histogram_above=np.histogram(rec0.dn_b[above], bins=hist_edges)[0],
        histogram_below=np.histogram(rec0.dn_b[below], bins=hist_edges)[0],
        discrimination_error=0.5 * (err_above + err_below),
        variance_ratio=peak_variance_ratio(curves[0.0], params0),
        model_discrimination_error=config.model_discrimination_error(),
        model_variance_ratio=counting.variance_peak_ratio(config.eta_total),
    )


def model_microscopic_state(
    eta: float, phi: float, dim: int = 4, dephasing_sigma: float = 0.0
) -> fock.DensityMatrix:
    """Post-undisplacement model: lossy delocalized photon plus dephasing.

    ``eta |psi_0><psi_0| + (1 - eta)|00><00|`` with the single-photon
    coherence damped by ``exp(-sigma^2/2)``.  The dephasing factor is a
    one-parameter surrogate for the quadrature noise of the displacement/
    undisplacement round trip; it is a modeling knob, not a calibrated
    physical mechanism.
    """
    psi = fock.delocalized_photon_state(phi, dim)
    data = eta * np.outer(psi, psi.conj())
    data[0, 0] += 1.0 - eta
    kappa = math.exp(-dephasing_sigma**2 / 2.0)
    data[1, dim] *= kappa
    data[dim, 1] *= kappa
    return fock.DensityMatrix(dim, 2, data)


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
        config.eta_total, config.phi, dim=_TOMO_DIM, dephasing_sigma=config.phase_noise_sigma
    )
    schedule = sampling.phase_schedule(_TOMO_SETTINGS)
    records = sampling.sample_quadrature_schedule(
        model, schedule, config.n_quad_shots, config.seed, stream=STREAM_QUADRATURES
    )
    result = tomography.mle_reconstruct(records, dim=_TOMO_DIM)
    return TomographyScenarioResult(
        result=result,
        records=records,
        fidelity_to_model=tomography.fidelity(result.rho, model),
    )


@dataclass(frozen=True)
class RoundtripResult:
    mismatch_eta: float
    fidelity_to_loss_model: float
    concurrence_roundtrip: float
    concurrence_initial: float


def _roundtrip_block(
    alpha_small: float, mismatch_eta: float, dim: int, phi: float
) -> tuple[np.ndarray, float]:
    """Unnormalized round-trip state on ``|00>, |01>, |10>, |11>``, and its trace.

    See :func:`displacement_roundtrip_check` for the formulas.  No array
    here has more than ``4 dim**2`` entries.
    """
    psi = fock.macro_state_amplitudes(alpha_small, phi, dim)
    u = fock.displacement_matrix(-math.sqrt(mismatch_eta) * alpha_small, dim)
    coeffs = fock.loss_kraus_coefficients(mismatch_eta, dim)
    n = len(coeffs)
    gram = u.conj().T @ u
    rows = np.zeros((n, 2, dim), dtype=complex)  # first two rows of U K_j
    h = np.zeros((dim, dim), dtype=complex)  # sum_j K_j^dagger U^dagger U K_j
    for j, c in enumerate(coeffs):
        rows[j, :, j:] = u[:2, : dim - j] * c
        h[j:, j:] += c[:, None] * gram[: dim - j, : dim - j] * c
    rows = rows.reshape(2 * n, dim)
    m = rows @ psi @ rows.T  # m[(j, a), (k, b)] = (A_j psi A_k^T)[a, b]
    # x[(a, b), (j, k)]: the block is x x^dagger
    x = m.reshape(n, 2, n, 2).transpose(1, 3, 0, 2).reshape(4, n * n)
    trace = float(np.trace(psi @ h.conj() @ psi.conj().T @ h).real)
    return x @ x.conj().T, trace


def displacement_roundtrip_check(
    alpha_small: float,
    mismatch_eta: float,
    dim: int = 32,
    phi: float = 0.0,
) -> RoundtripResult:
    """Displace, lose a fraction of the light, undisplace; compare.

    Both arms of the delocalized photon get ``D(alpha)``, a loss channel of
    transmissivity ``mismatch_eta``, then the reverse displacement matched
    to the attenuated amplitude (``-sqrt(eta) alpha``), applied mode by mode.
    Displacement being local and unitary, the result must coincide with
    applying the loss alone, so the reference is the closed-form loss model
    ``eta |psi_0><psi_0| + (1 - eta)|00><00|`` of
    :func:`model_microscopic_state`, and the entanglement can only drop.

    The state is never formed on the full two-mode space.  The displaced
    ket is the ``dim x dim`` amplitude matrix ``Psi`` of
    :func:`macrocat.fock.macro_state_amplitudes`, and with ``U =
    D(-sqrt(eta) alpha)`` and the loss Kraus operators ``K_j`` (one nonzero
    diagonal ``c_j`` each, :func:`macrocat.fock.loss_kraus_coefficients`)
    the unnormalized result is the ensemble of kets ``A_j Psi A_k^T`` with
    ``A_j = U K_j``.  Only the first two rows of each ``A_j`` reach the
    one-photon block: ``(U K_j)[a, n] = U[a, n-j] c_j[n-j]`` for ``n >= j``.
    Stacked into ``L`` (``2 dim x dim``), ``M = L Psi L^T`` holds every
    ``(A_j Psi A_k^T)[a, b]`` and

        block[(a,b), (c,e)] = sum_jk M[(j,a), (k,b)] conj(M[(j,c), (k,e)]),
        trace = Tr(Psi conj(H) Psi^dagger H),  H = sum_j K_j^dagger U^dagger U K_j,

    with ``H`` built from shifted diagonal blocks of ``U^dagger U``: O(dim^3)
    in all.  The trace falls short of 1 by the truncation leakage; the
    block over the trace is the dim-2 two-mode state the fidelity and the
    concurrence read, and the concurrence's leakage warning sees
    ``1 - tr(block) / trace``.
    """
    a2 = alpha_small * alpha_small
    if not math.isfinite(a2):
        raise ValueError(f"alpha_small = {alpha_small} has no finite square")
    if a2 > dim / 8.0:
        raise ValueError(
            f"alpha_small^2 = {a2} violates the dim/8 = {dim/8} truncation budget"
        )
    if not 0.0 < mismatch_eta <= 1.0:
        raise ValueError(f"mismatch_eta must lie in (0, 1], got {mismatch_eta}")
    block, trace = _roundtrip_block(alpha_small, mismatch_eta, dim, phi)
    if not (math.isfinite(trace) and trace > 0.0):
        raise NumericError(f"round-trip state has trace {trace}")
    roundtrip = fock.DensityMatrix(2, 2, block / trace)
    roundtrip.check_hermitian()
    return RoundtripResult(
        mismatch_eta=mismatch_eta,
        fidelity_to_loss_model=tomography.fidelity(
            roundtrip, model_microscopic_state(mismatch_eta, phi, dim=2)
        ),
        concurrence_roundtrip=tomography._qubit_block_concurrence(roundtrip.data),
        concurrence_initial=tomography.concurrence(model_microscopic_state(1.0, phi, dim=2)),
    )


# ---------------------------------------------------------------------------
# file emission

def write_summary(
    path, variance_ratio: float, discrimination_error: float, concurrence: float
) -> None:
    """``summary.json``: the three headline numbers of a run."""
    output.write_json(path, {
        "variance_ratio": variance_ratio,
        "discrimination_error": discrimination_error,
        "concurrence": concurrence,
    })


def write_count_outputs(outdir, result: CountScenarioResult, config: ExperimentConfig) -> list[str]:
    """Emit curves_phi0.csv, curves_phi90.csv, histograms.csv, summary.json."""
    for name, phi in (("curves_phi0.csv", 0.0), ("curves_phi90.csv", math.pi / 2.0)):
        curve = result.curves[phi]
        output.write_csv(outdir / name, {
            "nA": curve.centers, "mean_nB": curve.mean, "var_nB": curve.variance,
            "count": curve.counts, "model_mean_nB": curve.model_mean,
            "model_var_nB": curve.model_variance,
        })
    output.write_csv(outdir / "histograms.csv", {
        "dnB": result.histogram_centers,
        "count_above": result.histogram_above,
        "count_below": result.histogram_below,
    })
    write_summary(outdir / "summary.json", result.variance_ratio, result.discrimination_error,
                  config.model_concurrence())
    return ["curves_phi0.csv", "curves_phi90.csv", "histograms.csv", "summary.json"]

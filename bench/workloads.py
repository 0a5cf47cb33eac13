"""The benchmark's workloads: which CLI runs make up one scenario, with what configs.

Every config is generated here from the workload seed; the program sees the
seed only through these documents.

A workload has two scenario kinds:

* ``main`` is the timed scenario at the sizes users run (the CLI defaults).
* ``pair`` is the same subcommands at the acceptance suite's criterion-8
  sizes (30,000 count shots, 6,000 quadrature shots, small Fock specs).  It
  runs twice per benchmark run at the run's seed and both copies must be
  byte-identical, so every run checks determinism even when only one main
  scenario fits in it.

``tomo``'s main scenario always reconstructs the dataset of config seed 1.
The MLE stops on a data-dependent rule (or at its 2000-iteration cap):
measured at the default 200,000 shots, seeds 1-5 and 7 stop after 2000, 958,
2000, 2000, 2000 and 1596 iterations.  Drawing the data from the run seed
would make the timed work differ by 2x between runs, so the run seed reaches
``tomo`` through its pair scenario instead.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("counts", "tomo", "fock")

# seed of the dataset tomo's main scenario reconstructs (see module docstring)
TOMO_DATA_SEED = 1

_ETA_BUDGET = {"modematch": 0.81, "optics": 0.77, "detector": 0.86, "undisplacement": 0.95}


def experiment(seed: int, n_count_shots: int = 5_000_000, n_quad_shots: int = 200_000) -> dict:
    """Experiment config with every field spelled out (defaults as documented)."""
    return {
        "alpha": 1.05e4,
        "phi": 0.0,
        "eta_total": 0.49,
        "eta_budget": dict(_ETA_BUDGET),
        "n_count_shots": n_count_shots,
        "n_quad_shots": n_quad_shots,
        "phase_noise_sigma": 0.0,
        "seed": seed,
    }


def _small_experiment(seed: int) -> dict:
    return experiment(seed, n_count_shots=30_000, n_quad_shots=6_000)


def _roundtrip(rng: random.Random, alpha_small: float, etas: list[float], dim: int) -> dict:
    # the phase of the delocalized photon is free: the check holds for any phi
    return {
        "alpha_small": alpha_small,
        "mismatch_etas": etas,
        "dim": dim,
        "phi": 2.0 * math.pi * rng.random(),
    }


def _state(rng: random.Random, dim: int, lo: float, hi: float, step: float) -> dict:
    # c0 D(alpha)|0> + c1 D(alpha)|1> with |alpha| < 1, well inside dim's budget
    return {
        "alpha": rng.random(),
        "c0": 1.0,
        "c1": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
        "dim": dim,
        "grid": {"min": lo, "max": hi, "step": step},
    }


def scenario_runs(workload: str, seed: int) -> dict[str, list[tuple[str, dict]]]:
    """Scenario kind -> ordered ``(subcommand, config document)`` list."""
    rng = random.Random(seed)
    if workload == "counts":
        return {
            "main": [("simulate-counts", experiment(seed))],
            "pair": [("simulate-counts", _small_experiment(seed))],
        }
    if workload == "tomo":
        return {
            "main": [("tomography", experiment(TOMO_DATA_SEED))],
            "pair": [("tomography", _small_experiment(seed))],
        }
    if workload == "fock":
        # main sizes are the subcommand defaults: roundtrip dim 32, alpha 2,
        # eta 1/0.99/0.95; wigner dim 16 on a 121 x 121 grid
        main = [
            ("roundtrip-check", _roundtrip(rng, 2.0, [1.0, 0.99, 0.95], 32)),
            ("wigner", _state(rng, 16, -6.0, 6.0, 0.1)),
            ("analytic", experiment(seed)),
        ]
        pair = [
            ("roundtrip-check", _roundtrip(rng, 1.0, [1.0, 0.95], 16)),
            ("wigner", _state(rng, 12, -5.0, 5.0, 0.25)),
            ("analytic", _small_experiment(seed)),
        ]
        return {"main": main, "pair": pair}
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, seed: int, workdir: Path) -> dict[str, list[tuple[str, Path]]]:
    """Write each config to ``workdir``; return kind -> ``(subcommand, config path)``."""
    out = {}
    for kind, runs in scenario_runs(workload, seed).items():
        out[kind] = []
        for command, doc in runs:
            path = workdir / f"{kind}-{command}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            out[kind].append((command, path))
    return out

"""Command-line front end.

Subcommands::

    macrocat analytic        --out DIR [--config experiment.json] [--seed N]
    macrocat simulate-counts --out DIR [--config experiment.json] [--seed N]
    macrocat tomography      --out DIR [--config experiment.json] [--seed N]
    macrocat wigner          --out DIR [--config state.json]
    macrocat roundtrip-check --out DIR [--config roundtrip.json]

Each command returns its resolved configuration and its documents (file
name to content); :func:`main` adds a ``manifest.json`` recording the
command, that configuration, the package version and the output list, and
hands everything to :func:`macrocat.output.write_documents`.  Re-running the
command with the manifest's config regenerates the output directory byte for
byte (no timestamps or machine state enter any output file).  A run that
exits 1 or 2 writes no file.  Unless ``--quiet``, ``simulate-counts`` and
``tomography`` print ``progress:`` lines on stderr, and every command that
succeeds prints a ``wrote`` line on stdout.

Exit codes: 0 success, 1 configuration error, 2 numerical error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, counting, fock, output, pipeline
from .errors import ConfigError, NumericError


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on unknown flags; route through the
    # config-error path so the documented exit taxonomy holds
    def error(self, message):
        raise ConfigError(message)


# the commands that read experiment.json, the only document with a seed
_EXPERIMENT_COMMANDS = ("analytic", "simulate-counts", "tomography")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="macrocat", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("analytic", "write the analytic conditional curves and summary"),
        ("simulate-counts", "Monte Carlo counting run with binned statistics"),
        ("tomography", "simulate homodyne records and reconstruct the state"),
        ("wigner", "tabulate the Wigner function of a displaced superposition"),
        ("roundtrip-check", "displacement/undisplacement locality check"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None, help="JSON config path")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        if name in _EXPERIMENT_COMMANDS:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _load_json(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    # a JSONDecodeError, or an integer literal past int's digit limit
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(doc).__name__}")
    return doc


def _progress(args, message: str) -> None:
    """A ``progress:`` line on stderr, unless ``--quiet``."""
    if not args.quiet:
        print(f"progress: {message}", file=sys.stderr)


def _experiment_config(args) -> pipeline.ExperimentConfig:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    return pipeline.ExperimentConfig.from_json_dict(doc)


def cmd_analytic(args) -> tuple[dict, dict]:
    config = _experiment_config(args)
    edges = pipeline.count_bin_edges(config.count_params(phi=0.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    documents = {}
    for name, phi in (("curves_phi0.csv", 0.0), ("curves_phi90.csv", math.pi / 2.0)):
        params = config.count_params(phi=phi)
        documents[name] = {
            "nA": centers,
            "mean_nB": counting.conditional_mean(centers, params),
            "var_nB": counting.conditional_variance(centers, params),
        }
    documents["summary.json"] = pipeline.summary(
        counting.variance_peak_ratio(config.eta_total),
        config.model_discrimination_error(),
        config.model_concurrence(),
    )
    return config.to_json_dict(), documents


def cmd_simulate_counts(args) -> tuple[dict, dict]:
    config = _experiment_config(args)
    _progress(
        args, f"sampling {config.n_count_shots} count shots per setting at alpha={config.alpha:g}"
    )
    result = pipeline.run_counts_scenario(config)
    _progress(
        args,
        f"variance ratio {result.variance_ratio:.4f}, "
        f"discrimination error {result.discrimination_error:.4f}",
    )
    return config.to_json_dict(), pipeline.count_documents(result, config)


def cmd_tomography(args) -> tuple[dict, dict]:
    config = _experiment_config(args)
    _progress(args, f"sampling {config.n_quad_shots} quadrature records")
    scenario = pipeline.run_tomography_scenario(config)
    result, records = scenario.result, scenario.records
    _progress(
        args,
        f"reconstruction: {result.iterations} iterations, stop {result.stop_reason} "
        f"at likelihood gap {result.gap:.3e}, concurrence {result.concurrence:.4f}, "
        f"fidelity to model {scenario.fidelity_to_model:.4f}",
    )
    return config.to_json_dict(), {
        "records.csv": {
            "shot": records.shots, "thetaA": records.theta_a, "xA": records.x_a,
            # Bob's LO is locked at 0; the column keeps the file's format
            "thetaB": np.zeros(len(records)), "xB": records.x_b,
        },
        "result.json": {**result.to_json_dict(), "fidelity_to_model": scenario.fidelity_to_model},
        "summary.json": pipeline.summary(
            counting.variance_peak_ratio(config.eta_total),
            config.model_discrimination_error(),
            result.concurrence,
        ),
    }


def _coeff(name: str, value) -> complex:
    """A number, or an ``[re, im]`` pair of numbers."""
    if not isinstance(value, list):
        return complex(pipeline.json_number(name, value))
    if len(value) != 2:
        raise ConfigError(f"{name} must be a number or an [re, im] pair, got {value!r}")
    re, im = (pipeline.json_number(f"{name}[{k}]", v) for k, v in enumerate(value))
    return complex(float(re), float(im))


def cmd_wigner(args) -> tuple[dict, dict]:
    """Config: {"alpha", "c0", "c1", "grid": {"min", "max", "step"}}.

    The tabulated state is ``c0 D(alpha)|0> + c1 D(alpha)|1>``, normalized.
    A ``UserWarning`` names the table's captured mass ``sum(w) step^2`` when
    it is off 1 by more than 1e-3.
    An integer ``dim`` is accepted for older spec files and ignored: the
    closed form has no truncation.
    """
    doc = _load_json(args.config)
    pipeline.check_fields("state", doc, {"alpha", "c0", "c1", "dim", "grid"})
    alpha = float(pipeline.json_number("alpha", doc.get("alpha", 0.0)))
    c0 = _coeff("c0", doc.get("c0", 1.0))
    c1 = _coeff("c1", doc.get("c1", 0.0))
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError(f"grid must be an object, got {grid_doc!r}")
    pipeline.check_fields("grid", grid_doc, {"min", "max", "step"})
    lo, hi, step = (
        float(pipeline.json_number(f"grid.{key}", grid_doc.get(key, default)))
        for key, default in (("min", -6.0), ("max", 6.0), ("step", 0.1))
    )
    if "dim" in doc:
        pipeline.json_integer("dim", doc["dim"])
    if hi <= lo or step <= 0:
        raise ConfigError("grid must satisfy min < max and step > 0")
    axis = np.arange(lo, hi + step / 2.0, step)
    grid_w = fock.wigner(alpha, c0, c1, axis, axis)
    mass = float(grid_w.sum()) * step * step
    if abs(mass - 1.0) > 1e-3:
        warnings.warn(
            f"the grid captures {mass:.6f} of the Wigner function's unit mass; "
            "the state lies partly or wholly off the grid"
        )
    resolved = {
        "alpha": alpha,
        "c0": [c0.real, c0.imag],
        "c1": [c1.real, c1.imag],
        "grid": {"min": lo, "max": hi, "step": step},
    }
    return resolved, {
        "wigner.csv": {
            "x": np.repeat(axis, axis.size), "p": np.tile(axis, axis.size), "w": grid_w.ravel(),
        },
    }


def cmd_roundtrip_check(args) -> tuple[dict, dict]:
    """Config: {"alpha_small", "mismatch_etas", "dim", "phi"}; all optional."""
    doc = _load_json(args.config)
    pipeline.check_fields("roundtrip-spec", doc, {"alpha_small", "mismatch_etas", "dim", "phi"})
    etas = doc.get("mismatch_etas", [1.0, 0.99, 0.95])
    if not isinstance(etas, list) or not etas:
        raise ConfigError(f"mismatch_etas must be a non-empty list, got {etas!r}")
    alpha_small = float(pipeline.json_number("alpha_small", doc.get("alpha_small", 2.0)))
    etas = [float(pipeline.json_number(f"mismatch_etas[{k}]", v)) for k, v in enumerate(etas)]
    phi = float(pipeline.json_number("phi", doc.get("phi", 0.0)))
    dim = pipeline.json_integer("dim", doc.get("dim", 32))
    rows = [
        asdict(pipeline.displacement_roundtrip_check(alpha_small, eta, dim=dim, phi=phi))
        for eta in etas
    ]
    monotone = all(
        rows[i]["concurrence_roundtrip"] >= rows[i + 1]["concurrence_roundtrip"] - 1e-6
        for i in range(len(rows) - 1)
    ) if sorted(etas, reverse=True) == etas else None
    resolved = {"alpha_small": alpha_small, "mismatch_etas": etas, "dim": dim, "phi": phi}
    return resolved, {
        "roundtrip.json": {
            "alpha_small": alpha_small,
            "dim": dim,
            "phi": phi,
            "results": rows,
            "concurrence_monotone": monotone,
        },
    }


_COMMANDS = {
    "analytic": cmd_analytic,
    "simulate-counts": cmd_simulate_counts,
    "tomography": cmd_tomography,
    "wigner": cmd_wigner,
    "roundtrip-check": cmd_roundtrip_check,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.out.mkdir(parents=True, exist_ok=True)
        config, documents = _COMMANDS[args.command](args)
        outputs = sorted(documents)
        documents["manifest.json"] = {
            "command": args.command,
            "config": config,
            "package": "macrocat",
            "version": __version__,
            "outputs": outputs,
        }
        output.write_documents(args.out, documents)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # ValueError covers numpy's LinAlgError, ArithmeticError a float overflow,
    # MemoryError an array too large for this machine
    except (NumericError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(f"wrote {', '.join(outputs)} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

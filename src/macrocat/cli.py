"""Command-line front end.

Subcommands::

    macrocat analytic        --out DIR [--config experiment.json] [--seed N]
    macrocat simulate-counts --out DIR [--config experiment.json] [--seed N]
    macrocat tomography      --out DIR [--config experiment.json] [--seed N]
    macrocat wigner          --out DIR [--config state.json]
    macrocat roundtrip-check --out DIR [--config roundtrip.json]

:func:`main` runs one loop for every command: it reads the config into the
command's spec type, whose construction checks it, has
:mod:`macrocat.pipeline` build the spec's documents (file name to content),
adds a ``manifest.json`` recording the command, the spec, the package
version and the output list, and writes them all with
:func:`macrocat.output.write_documents`.  Re-running the command with the
manifest's config regenerates the output directory byte for byte (no
timestamps or machine state enter any output file).  A run that exits 1 or
2 writes no file.  Unless ``--quiet``, ``simulate-counts`` and
``tomography`` print ``progress:`` lines on stderr, and every command that
succeeds prints a ``wrote`` line on stdout.

Exit codes: 0 success, 1 configuration error, 2 numerical error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__, output, pipeline
from .errors import ConfigError, NumericError


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on unknown flags; route through the
    # config-error path so the documented exit taxonomy holds
    def error(self, message):
        raise ConfigError(message)


# each command: its help, spec type and documents function, and its progress
# lines of the spec before the run and of the documents after it (or None)
_COMMANDS = {
    "analytic": (
        "write the analytic conditional curves and summary",
        pipeline.ExperimentConfig, pipeline.analytic_documents, None, None,
    ),
    "simulate-counts": (
        "Monte Carlo counting run with binned statistics",
        pipeline.ExperimentConfig, pipeline.run_counts_scenario,
        lambda c: f"sampling {c.n_count_shots} count shots per setting at alpha={c.alpha:g}",
        lambda d: "variance ratio {variance_ratio:.4f}, discrimination error "
        "{discrimination_error:.4f}".format_map(d["summary.json"]),
    ),
    "tomography": (
        "simulate homodyne records and reconstruct the state",
        pipeline.ExperimentConfig, pipeline.run_tomography_scenario,
        lambda c: f"sampling {c.n_quad_shots} quadrature records",
        lambda d: "reconstruction: {iterations} iterations, stop {stop_reason} at likelihood "
        "gap {gap:.3e}, concurrence {concurrence:.4f}, fidelity to model "
        "{fidelity_to_model:.4f}".format_map(d["result.json"]),
    ),
    "wigner": (
        "tabulate the Wigner function of a displaced superposition",
        pipeline.WignerSpec, pipeline.wigner_documents, None, None,
    ),
    "roundtrip-check": (
        "displacement/undisplacement locality check",
        pipeline.RoundtripSpec, pipeline.roundtrip_documents, None, None,
    ),
}


# built on the first call and reused: main parses every argv with one parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="macrocat", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, spec_type, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None, help="JSON config path")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        if "seed" in spec_type.__dataclass_fields__:
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _, spec_type, documents_of, before, after = _COMMANDS[args.command]
        args.out.mkdir(parents=True, exist_ok=True)
        doc = _load_json(args.config)
        if getattr(args, "seed", None) is not None:
            doc["seed"] = args.seed
        spec = spec_type.from_json_dict(doc)
        if before and not args.quiet:
            print(f"progress: {before(spec)}", file=sys.stderr)
        documents = documents_of(spec)
        if after and not args.quiet:
            print(f"progress: {after(documents)}", file=sys.stderr)
        outputs = sorted(documents)
        documents["manifest.json"] = {
            "command": args.command,
            "config": spec.to_json_dict(),
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

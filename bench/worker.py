"""Benchmark worker: runs one workload's scenarios in a closed loop, in-process.

Started by ``run.py`` in a fresh interpreter whose ``ru_maxrss`` is then the
workload's peak memory, so this process does no output checking.  It writes
``worker.json`` (one record per scenario, plus the peak RSS) to ``--work``
and, when tracing, the spans to ``--spans``.

Scenarios run one after another until ``--seconds`` have passed (at least
one; with tracing, untraced and traced scenarios alternate and at least one
of each runs), then the criterion-8-size pair runs twice.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

from macrocat import cli, counting, fock, pipeline, sampling, tomography

TRACED_MODULES = (cli, counting, fock, pipeline, sampling, tomography)
# private kernel the roadmap names; traced alongside the public functions
TRACED_EXTRA = ((tomography, "_projector_rows"),)
BYTE_RULES = {
    "sampling.shot_uniforms": lambda a: a["n_shots"] * a["words_per_shot"] * 8,
}


def run_scenario(runs, outdir: Path, kind: str, index: int, traced: bool) -> dict:
    record = {"kind": kind, "index": index, "traced": traced, "wall_s": 0.0, "runs": []}
    for command, config in runs:
        out = outdir / command
        argv = [command, "--config", str(config), "--out", str(out), "--quiet"]
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None  # looked up per call: the traced wrapper when installed
        except Exception:
            code, error = None, traceback.format_exc()
        record["wall_s"] += time.perf_counter() - start
        record["runs"].append({"command": command, "out": str(out), "exit": code, "error": error})
    return record


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="no new main scenario starts if it would end past this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    configs = workloads.write_configs(args.workload, args.seed, args.work)
    tracer = Tracer(BYTE_RULES) if args.trace else None
    records = []
    begin = time.perf_counter()
    while True:
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.run = index
            tracer.install(TRACED_MODULES, "macrocat.", TRACED_EXTRA)
        try:
            rec = run_scenario(configs["main"], args.work / f"main-{index}", "main", index, traced)
        finally:
            if traced:
                tracer.uninstall()
        records.append(rec)
        elapsed = time.perf_counter() - begin
        if elapsed + rec["wall_s"] > args.budget:
            break
        if elapsed >= args.seconds and (tracer is None or len(records) >= 2):
            break
    for index in range(2):
        records.append(run_scenario(configs["pair"], args.work / f"pair-{index}", "pair", index, False))

    if tracer is not None:
        tracer.write(args.spans)
    doc = {
        "scenarios": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "macrocat_file": cli.__file__,
    }
    (args.work / "worker.json").write_text(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()

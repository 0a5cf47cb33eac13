"""macrocat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {counts,tomo,fock} --seed N --seconds T --trace {0,1}

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  The run

1. with ``--trace 0``, times ``import macrocat.cli`` in fresh interpreters
   (``setup_s``, the median of several);
2. starts a worker process that drives ``macrocat.cli.main`` in-process
   through the workload's scenarios for ``--seconds`` (see ``worker.py``);
   its own ``ru_maxrss`` is ``peak_rss_mb``;
3. checks every scenario's outputs (see ``checks.py``);
4. prints every metric by name, value, unit and kind (measured or
   computed), then, as the last line, one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
   the metrics are the end-to-end ones of ``BENCHMARK.json``; with
   ``--trace 1`` the per-layer ones, derived from the spans of the traced
   scenarios (medians over them).

``attempted`` counts scenarios, ``failed`` those that failed a check; their
ratio is the error rate.  Machine and library versions, every metric and
every problem found go to ``.bench/results/``, and the spans of a traced run
to ``.bench/results/spans-*.jsonl``.  BLAS threads are capped at the number
of CPUs the process may use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import Span, totals_by_run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench"

TIME_LIMIT_S = 175.0  # a run must end within 180 s
SETUP_REPEATS = 7
# counts that are computed, not timed: they must repeat exactly at one seed
COMPUTED = ("tomography.mle.iterations", "fock.apply_loss.n", "sampling.uniform_bytes", "cli.bytes_out")
# per-layer metric -> span whose self time (summed over one scenario) it reports
SELF_TIME_OF = {
    "sampling.sample_counts.s": "sampling.sample_counts",
    "sampling.shot_uniforms.s": "sampling.shot_uniforms",
    "pipeline.bin_count_records.s": "pipeline.bin_count_records",
    "pipeline.run_counts_scenario.s": "pipeline.run_counts_scenario",
    "tomography.mle_reconstruct.s": "tomography.mle_reconstruct",
    "tomography.projector_rows.s": "tomography._projector_rows",
    "sampling.sample_quadrature_schedule.s": "sampling.sample_quadrature_schedule",
    "sampling.joint_quadrature_density.s": "sampling.joint_quadrature_density",
    "fock.quadrature_basis.s": "fock.quadrature_basis",
    "sampling.write_quadrature_csv.s": "sampling.write_quadrature_csv",
    "tomography.fidelity.s": "tomography.fidelity",
    "fock.apply_loss.s": "fock.apply_loss",
    "pipeline.displacement_roundtrip_check.s": "pipeline.displacement_roundtrip_check",
    "fock.displacement_matrix.s": "fock.displacement_matrix",
    "fock.wigner.s": "fock.wigner",
    "counting.distinguishability_error.s": "counting.distinguishability_error",
    "cli.self.s": "cli.main",
}


def fail(message: str, code: int) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds for a fresh interpreter to ``import macrocat.cli``, once per repeat."""
    code = (
        "import time; t = time.perf_counter(); import macrocat.cli; "
        "d = time.perf_counter() - t; print(repr(d)); print(macrocat.cli.__file__)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
            )
        except subprocess.TimeoutExpired:
            fail("importing macrocat.cli took over 60 s", 1)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 2:
            fail(f"importing macrocat.cli failed:\n{proc.stderr}", 1)
        if Path(lines[1]).resolve() != SRC / "macrocat" / "cli.py":
            fail(f"imported macrocat from {lines[1]}, not from {SRC}", 1)
        times.append(float(lines[0]))
    return times


def machine_info(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": threads,
        "nproc": threads,
        "cpu": cpu,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "macrocat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def layer_metrics(spans_path: Path, scenarios: list[dict], facts: dict) -> tuple[dict, list[str]]:
    """Per-layer values (medians over traced scenarios) and any mismatch of computed counts."""
    spans = [Span(**json.loads(line)) for line in spans_path.read_text().splitlines()]
    totals = totals_by_run(spans)
    traced = [s for s in scenarios if s["kind"] == "main" and s["traced"]]
    untraced = [s for s in scenarios if s["kind"] == "main" and not s["traced"]]
    iterations = facts.get("iterations", 0)
    per_scenario = []
    for scenario in traced:
        tot = totals[scenario["index"]]
        values = {metric: tot.self_s.get(name, 0.0) for metric, name in SELF_TIME_OF.items()}
        mle_self = tot.self_s.get("tomography.mle_reconstruct", 0.0)
        values.update({
            "fock.apply_loss.n": tot.calls.get("fock.apply_loss", 0),
            "sampling.uniform_bytes": tot.bytes.get("sampling.shot_uniforms", 0),
            "tomography.mle.iterations": iterations,
            "tomography.mle.iter_ms": 1e3 * mle_self / iterations if iterations else 0.0,
            "tomography.mle.gap": facts.get("gap", 0.0),
            "cli.bytes_out": facts.get("bytes_out", 0),
        })
        per_scenario.append(values)
    problems = []
    metrics = {}
    for name in per_scenario[0]:
        values = [v[name] for v in per_scenario]
        if name in COMPUTED and len(set(values)) > 1:
            problems.append(f"computed count {name} differs between traced scenarios: {values}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in untraced
    )
    return metrics, problems


def check_computed_repeat(workload: str, seed: int, metrics: dict) -> list[str]:
    """Compare computed counts with those of an earlier run at this seed on the same source."""
    path = STATE / "computed" / f"{workload}-seed{seed}.json"
    current = {"source": source_digest(), "values": {k: metrics[k] for k in COMPUTED}}
    problems = []
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source"] == current["source"] and earlier["values"] != current["values"]:
            problems.append(f"computed counts differ from an earlier run at seed {seed}: "
                            f"{earlier['values']} vs {current['values']}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 unsigned bits", 2)
    if not (SRC / "macrocat" / "cli.py").is_file():
        fail(f"no macrocat sources under {SRC}; run from a source checkout", 2)
    begin = time.perf_counter()

    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    setup = [] if args.trace else measure_setup(env)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    results = STATE / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    spans_path = results / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        remaining = TIME_LIMIT_S - (time.perf_counter() - begin)
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--budget", str(remaining - 25.0),
            "--trace", str(args.trace), "--work", str(work), "--spans", str(spans_path),
        ]
        with open(work / "worker.log", "w") as log:
            try:
                proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=remaining - 10.0)
            except subprocess.TimeoutExpired:
                fail("worker did not finish in time", 1)
        if proc.returncode != 0:
            fail(f"worker exited {proc.returncode}:\n{(work / 'worker.log').read_text()[-4000:]}", 1)
        worker = json.loads((work / "worker.json").read_text())

        import checks

        scenarios = worker["scenarios"]
        evaluation = checks.evaluate(args.workload, scenarios)
        problems = []
        main_untraced = [s["wall_s"] for s in scenarios if s["kind"] == "main" and not s["traced"]]
        if args.trace:
            traced = [s for s in scenarios if s["kind"] == "main" and s["traced"]]
            if not traced or not main_untraced:
                fail("the time limit left no room for both a traced and an untraced scenario", 1)
            metrics, problems = layer_metrics(spans_path, scenarios, evaluation.facts)
            problems += check_computed_repeat(args.workload, args.seed, metrics)
        else:
            metrics = {
                "wall_s": statistics.median(main_untraced),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", 1)
    attempted = len(scenarios)
    failed = evaluation.failed
    machine = machine_info(threads)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "metrics": {k: {"value": v, "unit": units[k], "kind": "computed" if k in COMPUTED else "measured"}
                    for k, v in metrics.items()},
        "error_rate": failed / attempted,
        "scenarios": [
            {"kind": s["kind"], "index": s["index"], "traced": s["traced"], "wall_s": s["wall_s"],
             "problems": p}
            for s, p in zip(scenarios, evaluation.problems)
        ],
        "problems": problems,
        "setup_samples_s": setup,
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for s, p in zip(scenarios, evaluation.problems):
        state = "FAILED " + "; ".join(p) if p else "ok"
        traced = " traced" if s["traced"] else ""
        print(f"scenario {s['kind']}-{s['index']}{traced}: {s['wall_s']:.4f} s {state}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"{'error_rate':40s} {failed / attempted!r:>24} 1 ({failed} of {attempted} scenarios failed)")
    for name, entry in report["metrics"].items():
        print(f"{name:40s} {entry['value']!r:>24} {entry['unit']} ({entry['kind']})")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()

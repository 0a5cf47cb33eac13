"""Self-test of the benchmark harness at the acceptance suite's criterion-8 sizes
(30,000 count shots, 6,000 quadrature shots).

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, self_times, totals_by_run  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 7),
        Span(1, "a", 1.0, 4.0, 0, 7),
        Span(2, "b", 5.0, 9.0, 0, 7),
        Span(3, "c", 6.0, 7.5, 2, 7),
        Span(4, "a", 0.0, 2.0, None, 8),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.5, 3: 1.5, 4: 2.0}
    totals = totals_by_run(spans)
    assert totals[7].self_s["a"] == 3.0 and totals[8].self_s["a"] == 2.0
    assert totals[7].calls["a"] == 1 and totals[7].calls["root"] == 1


def test_tracer_nests_spans_and_restores_functions():
    mod = types.ModuleType("pkg.inner")
    exec(
        "def outer(n):\n    return inner(n) + _private(n)\n"
        "def inner(n):\n    return n\n"
        "def _private(n):\n    return inner(n)\n",
        mod.__dict__,
    )
    originals = dict(vars(mod))
    tracer = Tracer({"inner.inner": lambda a: 8 * a["n"]})
    tracer.run = 3
    tracer.install([mod], "pkg.", extra=((mod, "_private"),))
    assert mod.outer(5) == 10
    tracer.uninstall()
    assert all(vars(mod)[k] is v for k, v in originals.items())

    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("inner.outer", None), ("inner.inner", 0), ("inner._private", 0), ("inner.inner", 2)]
    assert {s.run for s in tracer.spans} == {3}
    assert sum(s.bytes for s in tracer.spans) == 80
    selfs = self_times(tracer.spans)
    outer = tracer.spans[0]
    children = sum(s.end - s.start for s in tracer.spans if s.parent == 0)
    assert selfs[0] == pytest.approx(outer.end - outer.start - children, abs=1e-12)
    assert all(v >= 0.0 for v in selfs.values())


def _run_pair(workload: str, kind: str, tmp_path: Path, copies: int = 2) -> list[dict]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    runs = workloads.write_configs(workload, 11, tmp_path)["pair"]
    return [worker.run_scenario(runs, tmp_path / f"{kind}-{i}", kind, i, False) for i in range(copies)]


def test_certificate_reproduces_the_recorded_loglik(tmp_path):
    (scenario,) = _run_pair("tomo", "pair", tmp_path, copies=1)
    out = Path(scenario["runs"][0]["out"])
    result = json.loads((out / "result.json").read_text())
    cert = checks.certificate(out / "records.csv", result)
    assert abs(cert.loglik - result["loglik"][-1]) <= checks.LOGLIK_MATCH
    assert np.isfinite(cert.gap) and cert.gap >= -1e-12  # lambda_max(R) >= 1 at any state

    # the conjugate pairing w^dagger rho w is a different likelihood, and the
    # cross-check is what catches it
    rec = np.loadtxt(out / "records.csv", delimiter=",", skiprows=1)
    dim = result["rho"]["dim"]
    support = checks.tomography.total_photon_support(dim, 1)
    full = (np.asarray(result["rho"]["re"]) + 1j * np.asarray(result["rho"]["im"])).reshape(dim * dim, -1)
    W = checks.projector_rows(rec[:, 1], rec[:, 2], rec[:, 3], rec[:, 4], dim)[:, support]
    wrong = np.log(checks.outcome_probabilities(W.conj(), full[np.ix_(support, support)])).mean()
    assert abs(wrong - result["loglik"][-1]) > checks.LOGLIK_MATCH


def test_clean_pair_passes_and_tampering_raises_error_rate(tmp_path):
    scenarios = _run_pair("counts", "pair", tmp_path)
    assert checks.evaluate("counts", scenarios).failed == 0

    curves = Path(scenarios[1]["runs"][0]["out"]) / "curves_phi0.csv"
    curves.write_text(curves.read_text().replace(",", ";", 1))
    evaluation = checks.evaluate("counts", scenarios)
    assert evaluation.failed == 1 and "differ" in evaluation.problems[1][0]

    summary = Path(scenarios[0]["runs"][0]["out"]) / "summary.json"
    summary.write_text(summary.read_text().replace('"variance_ratio": ', '"variance_ratio": NaN, "x": '))
    assert checks.evaluate("counts", scenarios).failed == 2


def test_failing_workload_check_fails_every_identical_scenario(tmp_path):
    scenarios = _run_pair("fock", "main", tmp_path)
    assert checks.evaluate("fock", scenarios).failed == 0

    for scenario in scenarios:
        path = Path(scenario["runs"][0]["out"]) / "roundtrip.json"
        doc = json.loads(path.read_text())
        doc["concurrence_monotone"] = False
        path.write_text(json.dumps(doc))
    evaluation = checks.evaluate("fock", scenarios)
    assert evaluation.failed == 2
    assert all("concurrence_monotone" in p[0] for p in evaluation.problems)


def test_cli_failure_counts_as_failed(tmp_path):
    scenarios = _run_pair("counts", "pair", tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": -1}')
    scenarios.append(worker.run_scenario([("simulate-counts", bad)], tmp_path / "bad", "pair", 2, False))
    evaluation = checks.evaluate("counts", scenarios)
    assert evaluation.failed == 1 and "exit code 1" in evaluation.problems[2][0]

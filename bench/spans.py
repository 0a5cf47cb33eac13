"""Span recording around macrocat's layer boundaries, from outside the package.

A :class:`Tracer` swaps timing wrappers in for the public functions of the
package modules (plus any extra private kernels named by the caller) while
a traced scenario runs, and restores the originals afterwards.  Every name
a module binds to a wrapped function is swapped, so calls that go through
``from .fock import quadrature_basis`` are traced as well as calls through
``fock.quadrature_basis``.  Nothing inside the package changes.

Spans stay in memory as :class:`Span` tuples and are written out once, when
the benchmark ends.  Self time is derived from them afterwards: a span's
duration minus the durations of its direct children (the program is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    # bytes the call is computed to move (filled only where a byte rule
    # exists for the span name), else 0
    bytes: int = 0


# name -> rule computing a byte count from the bound call arguments
ByteRule = Callable[[dict], int]


class Tracer:
    def __init__(self, byte_rules: dict[str, ByteRule] | None = None):
        self.spans: list[Span] = []
        self.run = -1
        self._byte_rules = dict(byte_rules or {})
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules, prefix: str, extra: tuple[tuple[object, str], ...] = ()):
        """Wrap the public functions defined in ``modules`` and each ``(module, attr)``
        of ``extra``; rebind every module-level name in ``modules`` that refers
        to a wrapped function.

        Span names are ``<module name without prefix>.<function name>``.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    targets[obj] = f"{mod.__name__.removeprefix(prefix)}.{attr}"
        for mod, attr in extra:
            obj = getattr(mod, attr)
            targets[obj] = f"{mod.__name__.removeprefix(prefix)}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        rule = self._byte_rules.get(name)
        signature = inspect.signature(fn) if rule else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled when the call ends
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                nbytes = 0
                if rule is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    nbytes = rule(bound.arguments)
                self.spans[sid] = Span(sid, name, start, end, parent, self.run, nbytes)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: span.end - span.start - covered[span.id] for span in spans}


class RunTotals(NamedTuple):
    """Per-name sums over the spans of one traced scenario."""

    self_s: dict[str, float]
    calls: dict[str, int]
    bytes: dict[str, int]


def totals_by_run(spans: list[Span]) -> dict[int, RunTotals]:
    selfs = self_times(spans)
    out: dict[int, RunTotals] = {}
    for span in spans:
        tot = out.setdefault(span.run, RunTotals(defaultdict(float), defaultdict(int), defaultdict(int)))
        tot.self_s[span.name] += selfs[span.id]
        tot.calls[span.name] += 1
        tot.bytes[span.name] += span.bytes
    return out

"""Spans around calls into the package's public functions.

The tracer wraps module and class attributes from outside the package (no
file under ``src/`` changes) and restores them on ``uninstall``.  A span is
``[name, start, end, parent index, op id]``; spans stay in memory and are
written out once, with the run record.  A layer's self time is its span's
duration minus that of its direct children.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (name, unit, better) of every per-layer metric; times and counts are per op.
LAYER_METRICS = [
    ("harness.phi_table_s", "s/op", "lower"),
    ("harness.phi_entries", "count/op", "lower"),
    ("harness.count_self_s", "s/op", "lower"),
    ("harness.driver_self_s", "s/op", "lower"),
    ("harness.escalations", "count/op", "lower"),
    ("kernel.scan_s", "s/op", "lower"),
    ("kernel.scan_steps", "count/op", "lower"),
    ("kernel.candidates", "count/op", "lower"),
    ("kernel.precision_hits", "count/op", "lower"),
    ("kernel.reduced_check_s", "s/op", "lower"),
    ("kernel.reduced_checks", "count/op", "lower"),
    ("kernel.walk_steps", "count/op", "lower"),
    ("kernel.reduced_yield", "ratio", "higher"),
    ("iet.is_reduced_triple_s", "s/op", "lower"),
    ("iet.is_reduced_triple_calls", "count/op", "lower"),
    ("iet.evaluate_calls", "count/op", "lower"),
    ("induction.rauzy_step_s", "s/op", "lower"),
    ("induction.rauzy_steps", "count/op", "lower"),
    ("induction.late_early_step_ratio", "ratio", "lower"),
    ("triples.detect_s", "s/op", "lower"),
    ("triples.detect_steps", "count/op", "lower"),
    ("triples.enumerate_targets_s", "s/op", "lower"),
    ("triples.paths_built", "count/op", "lower"),
    ("trace.op_s", "s/op", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

OP = "op"
INDUCT = "bench.induct"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _patch(self, targets, make):
        """Replace ``owner.attr`` for every (owner, attr) in ``targets`` by
        ``make(original)``; all targets must hold the same original."""
        original = getattr(*targets[0])
        replacement = make(original)
        for owner, attr in targets:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the function traced")
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def wrap(self, targets, name: str, on_result=None) -> None:
        """Record a span around every call; ``on_result(args, result)`` then
        updates the counts."""
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                if on_result is not None:
                    on_result(args, result)
                return result

            return traced

        self._patch(targets, make)

    def tally(self, targets, key: str, when=None) -> None:
        """Count calls, without a span; ``when()`` filters them."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                if when is None or when():
                    counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        self._patch(targets, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from ietkhinchin import harness, iet, induction, kernel, triples

    counts = tracer.counts

    def on_table(args, result):
        counts["phi_entries"] += len(result)

    def on_scan(args, result):
        status, candidates, steps = result
        counts["scan_steps"] += steps
        counts["candidates"] += len(candidates)
        counts["precision_hits"] += status == kernel.PRECISION

    def on_reduced(args, result):
        counts["walk_steps"] += args[5]
        counts["reduced"] += result[0] == kernel.REDUCED
        counts["precision_hits"] += result[0] == kernel.PRECISION

    def on_detect(args, result):
        counts["detect_steps"] += len(result.path)

    def on_targets(args, result):
        counts["paths_built"] += len(result.paths) + len(result.complement.paths)

    tracer.wrap([(harness.Phi, "table")], "harness.phi_table", on_table)
    tracer.wrap([(harness, "khinchin_count")], "harness.khinchin_count")
    tracer.wrap([(harness, "dichotomy_experiment")], "harness.dichotomy_experiment")
    tracer.wrap([(kernel, "scan_solutions")], "kernel.scan_solutions", on_scan)
    tracer.wrap([(kernel, "reduced_check")], "kernel.reduced_check", on_reduced)
    tracer.wrap(
        [(iet, "is_reduced_triple"), (harness, "is_reduced_triple"), (triples, "is_reduced_triple")],
        "iet.is_reduced_triple",
    )
    tracer.tally([(iet.IET, "evaluate")], "evaluate_calls")
    tracer.tally(
        [(iet.IET, "to_exact")], "escalations", when=lambda: tracer.inside("harness.khinchin_count")
    )
    tracer.wrap([(induction.InductionState, "rauzy_step")], "induction.rauzy_step")
    tracer.wrap([(triples, "detect")], "triples.detect", on_detect)
    tracer.wrap(
        [(triples, "enumerate_targets"), (harness, "enumerate_targets")],
        "triples.enumerate_targets",
        on_targets,
    )


def late_early_ratio(tracer: Tracer) -> float:
    """Median over the benchmark's own induction runs of the mean step time
    in the run's last tenth over that in its first tenth; 0 without runs."""
    runs: dict[int, list[float]] = {}
    inducts = {i for i, span in enumerate(tracer.spans) if span[0] == INDUCT}
    for name, start, end, parent, _ in tracer.spans:
        if name == "induction.rauzy_step" and parent in inducts:
            runs.setdefault(parent, []).append(end - start)
    ratios = []
    for steps in runs.values():
        k = len(steps) // 10
        if k:
            ratios.append(statistics.fmean(steps[-k:]) / statistics.fmean(steps[:k]))
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(tracer: Tracer, ops: int, factor: float) -> dict[str, float]:
    """Per-op self times, scaled by ``factor``, and counts by layer."""
    own = tracer.self_times()
    by_name: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), value in zip(tracer.spans, own):
        by_name[name] += value * factor
        calls[name] += 1
    c = tracer.counts
    checks = calls["kernel.reduced_check"]
    return {
        "harness.phi_table_s": by_name["harness.phi_table"] / ops,
        "harness.phi_entries": c["phi_entries"] / ops,
        "harness.count_self_s": by_name["harness.khinchin_count"] / ops,
        "harness.driver_self_s": by_name["harness.dichotomy_experiment"] / ops,
        "harness.escalations": c["escalations"] / ops,
        "kernel.scan_s": by_name["kernel.scan_solutions"] / ops,
        "kernel.scan_steps": c["scan_steps"] / ops,
        "kernel.candidates": c["candidates"] / ops,
        "kernel.precision_hits": c["precision_hits"] / ops,
        "kernel.reduced_check_s": by_name["kernel.reduced_check"] / ops,
        "kernel.reduced_checks": checks / ops,
        "kernel.walk_steps": c["walk_steps"] / ops,
        "kernel.reduced_yield": c["reduced"] / checks if checks else 0.0,
        "iet.is_reduced_triple_s": by_name["iet.is_reduced_triple"] / ops,
        "iet.is_reduced_triple_calls": calls["iet.is_reduced_triple"] / ops,
        "iet.evaluate_calls": c["evaluate_calls"] / ops,
        "induction.rauzy_step_s": by_name["induction.rauzy_step"] / ops,
        "induction.rauzy_steps": calls["induction.rauzy_step"] / ops,
        "induction.late_early_step_ratio": late_early_ratio(tracer),
        "triples.detect_s": by_name["triples.detect"] / ops,
        "triples.detect_steps": c["detect_steps"] / ops,
        "triples.enumerate_targets_s": by_name["triples.enumerate_targets"] / ops,
        "triples.paths_built": c["paths_built"] / ops,
    }


def nesting_errors(tracer: Tracer) -> list[str]:
    """Spans that leave their op, or ops whose layers' self times add up to
    more than the op's own time."""
    own = tracer.self_times()
    op_span = {op: (start, end) for name, start, end, _, op in tracer.spans if name == OP}
    layer_total: Counter = Counter()
    errors = []
    for index, (name, start, end, _, op) in enumerate(tracer.spans):
        if name == OP:
            continue
        if op not in op_span or not op_span[op][0] <= start <= end <= op_span[op][1]:
            errors.append(f"span {name} #{index} lies outside its op {op}")
        layer_total[op] += own[index]
    for op, (start, end) in op_span.items():
        if layer_total[op] > end - start:
            errors.append(f"op {op}: layer self times {layer_total[op]} exceed the op's {end - start}")
    return errors

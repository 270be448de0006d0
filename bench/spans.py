"""Per-layer tracing for the benchmark, done from outside the program.

``vccsim`` carries no instrumentation.  A :class:`Tracer` instead replaces
the names that callers resolve at call time (``vccsim.experiments.solve_mmf``,
``vccsim.recipes.run_msv`` and so on) with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Spans are kept
in memory; :func:`layer_metrics` reduces one run's spans to the per-layer
metrics listed in :data:`PER_LAYER`.  Leaving the ``with`` block puts every
original name back.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# solve_mmf skips its root search when the analytic bracket is this narrow.
COLLAPSE_RTOL = 1e-13

# Public calls timed per layer: (module resolving the name, name, span name).
LEAF_CALLS = tuple(
    ("vccsim.experiments", attr, f"{layer}.{attr}")
    for layer, attr in (
        ("allocation", "solve_mmf"),
        ("allocation", "UserRateFunction"),
        ("allocation", "zf_mmf_bounds"),
        ("precoding", "bd_mrc_eigenvalues"),
        ("precoding", "zf_matrix"),
        ("precoding", "msv_gains_fast"),
        ("precoding", "msv_rate_from_gains"),
        ("channel", "substream"),
        ("channel", "complex_gaussian"),
        ("channel", "sample_user_position"),
        ("channel", "corrupt_csit"),
    )
)
RUNNER_CALLS = tuple(
    ("vccsim.recipes", r, f"experiments.{r}")
    for r in ("run_vcc_bd_mrc", "run_cacheless_bd_mrc", "run_vcc_zf", "run_msv",
              "run_imperfect_csi")
)
TRACED = (
    ("vccsim.cli", "run_recipe", "recipes.run_recipe"),
    ("vccsim.cli", "format_csv", "cli.format_csv"),
) + RUNNER_CALLS + LEAF_CALLS

# Per-layer metrics with their units and the direction that counts as better.
PER_LAYER = (
    [("allocation.solve_mmf.users", "count", "lower"),
     ("allocation.solve_mmf.collapsed_ratio", "ratio", "higher"),
     ("allocation.solve_mmf.clamped_ratio", "ratio", "lower"),
     ("precoding.bd_mrc_eigenvalues.streams", "count", "lower")]
    + [(f"{span}.{kind}", unit, "lower")
       for _, _, span in LEAF_CALLS for kind, unit in (("calls", "count"), ("s", "s"))]
    + [(f"{span}.s", "s", "lower") for _, _, span in RUNNER_CALLS]
    + [("experiments.self_s", "s", "lower"),
       ("experiments.pool_cpu_s", "s", "lower"),
       ("experiments.pool_efficiency", "ratio", "higher"),
       ("recipes.self_s", "s", "lower"),
       ("cli.format_and_write_s", "s", "lower"),
       ("cli.run.s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    note: object  # a summary of the call (_NOTES), or children CPU for runners


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _mmf_note(args, result):
    lo, hi = result.bracket
    collapsed = hi - lo <= COLLAPSE_RTOL * hi
    clamped = not collapsed and result.sum_rate in (lo, hi)
    return len(args[0]), collapsed, clamped


def _streams_note(args, result):
    return sum(len(gains) for gains in result)


_NOTES = {
    "allocation.solve_mmf": _mmf_note,
    "precoding.bd_mrc_eigenvalues": _streams_note,
}


class Tracer:
    """Wraps the given names for the duration of a ``with`` block.

    Runner spans also note the CPU time that finished child processes (the
    pool workers) used during the call.  A name the program no longer
    defines is left alone and reported on stderr; its metrics read 0.
    """

    def __init__(self, calls=TRACED):
        self.calls = calls
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in self.calls:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                print(f"bench: {module_name}.{attr} not found; {span} reads 0",
                      file=sys.stderr)
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)
        pool = name.startswith("experiments.")

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children index after it
            stack.append(idx)
            cpu = _children_cpu() if pool else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, None)
            if pool:
                spans[idx] = spans[idx]._replace(note=_children_cpu() - cpu)
            elif note is not None:
                spans[idx] = spans[idx]._replace(note=note(args, result))
            return result

        return traced


def layer_metrics(spans: list[Span], workers: int = 1) -> dict[str, float]:
    """Reduce one run's spans to per-layer metrics.

    ``workers`` is the pool size the run used; it scales the pool
    efficiency (children CPU over ``workers`` times runner wall).  Metrics
    that need a second run (``trace.overhead_s``) are left to the caller.
    """
    covered = defaultdict(float)  # span index -> time covered by its children
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name):
        return sum(s.end - s.start - covered[i]
                   for i, s in enumerate(spans) if s.name == name)

    out: dict[str, float] = {}
    for _, _, name in LEAF_CALLS:
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.s"] = total(name)
    mmf = [s.note for s in by_name["allocation.solve_mmf"]]
    out["allocation.solve_mmf.users"] = sum(n[0] for n in mmf)
    out["allocation.solve_mmf.collapsed_ratio"] = _ratio(sum(n[1] for n in mmf), len(mmf))
    out["allocation.solve_mmf.clamped_ratio"] = _ratio(sum(n[2] for n in mmf), len(mmf))
    out["precoding.bd_mrc_eigenvalues.streams"] = sum(
        s.note for s in by_name["precoding.bd_mrc_eigenvalues"])

    runner_wall = 0.0
    pool_cpu = 0.0
    experiments_self = 0.0
    for _, _, name in RUNNER_CALLS:
        out[f"{name}.s"] = total(name)
        runner_wall += total(name)
        pool_cpu += sum(s.note for s in by_name[name])
        experiments_self += self_time(name)
    out["experiments.self_s"] = experiments_self
    out["experiments.pool_cpu_s"] = pool_cpu
    out["experiments.pool_efficiency"] = _ratio(pool_cpu, workers * runner_wall)
    out["recipes.self_s"] = self_time("recipes.run_recipe")

    run = by_name["cli.run"]
    fmt = by_name["cli.format_csv"]
    out["cli.run.s"] = total("cli.run")
    # format_csv returns the text; cli.run then writes it and ends.
    out["cli.format_and_write_s"] = sum(r.end - f.start for r, f in zip(run, fmt))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

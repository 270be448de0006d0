"""Recipe-level benchmark for vccsim.

Usage::

    python3 bench/run.py --workload fig7-micro --seed 0 --seconds 25 --trace 0

Each workload is one figure recipe at its default scenario and power sweep,
run at a reduced location x fading count through the public CLI path
(``cli.parse_config`` then ``cli.run``, which calls ``recipes.run_recipe``
and writes the CSV).  The load is a closed loop of one client: one run after
another until ``--seconds`` have passed.  Every CSV is checked (see
``csvcheck.py``), and every run of a seed must write the same bytes, whatever
its worker count and whether it is traced.

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` per run,
``setup_s`` (median over fresh interpreters that import vccsim and run a 1x1
warm-up), both scaled to the reference host speed (``hostspeed.py``), and
``peak_rss_mib``.  ``--trace 1`` alternates traced 1-worker
runs with untraced ones and reports the per-layer metrics of ``spans.py``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program must be at
``src/vccsim`` next to this directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import csvcheck
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    """A recipe at its default scenario, run at ``locations x fadings``."""

    name: str
    recipe: str
    locations: int
    fadings: int
    workers: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig7-micro", "fig7", 2, 1, 1),
        Workload("fig8-msv", "fig8", 2, 1, 1),
        Workload("fig9-csi", "fig9", 32, 1, 2),
    )
}

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


class Session:
    """Runs one workload at one seed and checks every CSV it writes."""

    def __init__(self, cli, workload: Workload, seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.reference = (HERE / "reference" / f"{workload.name}.csv").read_text()
        ref_header, _ = csvcheck.parse(self.reference)
        self.pinned = (ref_header.get("seed"), ref_header.get("locations"),
                       ref_header.get("fadings")) == (
            str(seed), str(workload.locations), str(workload.fadings))
        self.attempted = 0
        self.failed = 0
        self._expected: bytes | None = None
        self._verdict: list[str] = []

    def run(self, workers: int, tracer: spans.Tracer | None = None) -> float | None:
        """One ``cli.run``; returns its wall seconds, or None if it failed."""
        wl = self.workload
        out = self.out_dir / f"{wl.name}-w{workers}.csv"
        out.unlink(missing_ok=True)
        config = self.cli.parse_config(
            recipe=wl.recipe, seed=self.seed, locations=wl.locations,
            fadings=wl.fadings, out=str(out), workers=workers,
        )
        run = self.cli.run if tracer is None else tracer.wrap("cli.run", self.cli.run)
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                run(config)
                wall = time.perf_counter() - start
            data = out.read_bytes()
        except Exception:  # a failing run is counted and reported, not fatal
            return self._fail(f"{workers}-worker run raised:\n{traceback.format_exc()}")
        problems = self._check(data)
        if problems:
            return self._fail(f"{workers}-worker run: " + "; ".join(problems[:10]))
        return wall

    def _check(self, data: bytes) -> list[str]:
        if self._expected is None:
            self._expected = data
            wl = self.workload
            text = data.decode()
            self._verdict = csvcheck.invariants(
                text, self.reference, self.seed, wl.locations, wl.fadings)
            if self.pinned:
                self._verdict += csvcheck.compare(text, self.reference)
        elif data != self._expected:
            return ["CSV bytes differ from the first run of this seed"]
        return self._verdict

    def setup_probe(self) -> float | None:
        """Seconds for a fresh interpreter to import vccsim and run a 1x1 warm-up."""
        wl = self.workload
        out = self.out_dir / f"{wl.name}-probe.csv"
        cmd = [sys.executable, str(HERE / "probe.py"), wl.recipe, str(self.seed), str(out)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"set-up probe ran over {PROBE_TIMEOUT_S} s")
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            return self._fail(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"bench: {self.workload.name} seed {self.seed}: {message}", file=sys.stderr)
        return None


def _until(deadline: float, step) -> None:
    """Call ``step`` once, then again while the deadline has not passed."""
    step()
    while time.perf_counter() < deadline:
        step()


def _median(values):
    return statistics.median(values) if values else None


def measure_end_to_end(session: Session, seconds: float, probes: int = SETUP_PROBES):
    """Untraced runs at the workload's worker count, then set-up probes.

    Every timing is paired with the host's slowdown around it (see
    ``hostspeed.py``).  Returns ``(metrics, walls, setups)``, the last two
    as lists of ``(seconds, slowdown)``.
    """
    import hostspeed  # loads numpy, so only once main() has pinned BLAS threads

    wl = session.workload
    session.run(wl.workers)  # warm-up: first-call costs are paid in set-up
    deadline = time.perf_counter() + seconds
    with hostspeed.HostSpeed(wl.workers) as host:
        walls = host.paired(lambda: session.run(wl.workers),
                            lambda calls: time.perf_counter() < deadline)
    if wl.workers > 1:
        # Worker-count contract: a traced 1-worker run writes the same bytes.
        with spans.Tracer() as tracer:
            session.run(1, tracer)
    # Read before the probes start, so only pool workers count as children.
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with hostspeed.HostSpeed(1) as host:
        setups = host.paired(session.setup_probe, lambda calls: calls < probes)
    metrics = {
        "wall_s": _median([t / slow for t, slow in walls]),
        "setup_s": _median([t / slow for t, slow in setups]),
        "peak_rss_mib": rss_kib / 1024.0,
    }
    return metrics, walls, setups


def measure_layers(session: Session, seconds: float):
    """Traced 1-worker runs alternating with untraced ones.

    Untraced runs go at 1 worker (the base of ``trace.overhead_s``) and, if
    the workload uses a pool, at its worker count (the pool metrics); they
    carry spans on the runner calls only.  Returns ``(metrics, last_spans)``
    with each metric the median over the runs that gave it.
    """
    wl = session.workload
    session.run(wl.workers)  # warm-up
    traced: list[dict] = []
    pooled: list[dict] = []
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    last_spans: list[spans.Span] = []

    def step():
        nonlocal last_spans
        with spans.Tracer() as tracer:
            wall = session.run(1, tracer)
        if wall is not None:
            traced.append(spans.layer_metrics(tracer.spans))
            traced_walls.append(wall)
            last_spans = tracer.spans
        for workers in sorted({1, wl.workers}):
            with spans.Tracer(spans.RUNNER_CALLS) as meter:
                wall = session.run(workers, meter)
            if wall is None:
                continue
            if workers == 1:
                plain_walls.append(wall)
            if workers == wl.workers:
                pooled.append(spans.layer_metrics(meter.spans, workers))

    _until(time.perf_counter() + seconds, step)
    metrics = {name: _median([m[name] for m in traced]) for name in traced[0]} if traced else {}
    for name in ("experiments.pool_cpu_s", "experiments.pool_efficiency"):
        metrics[name] = _median([m[name] for m in pooled])
    if traced_walls and plain_walls:
        metrics["trace.overhead_s"] = _median(traced_walls) - _median(plain_walls)
    return {name: metrics.get(name) for name, _, _ in spans.PER_LAYER}, last_spans


def environment(seed: int, workload: Workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
        "workload": workload.name,
        "size": f"{workload.locations}x{workload.fadings}",
        "workers": workload.workers,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _scaled_note(pairs: list[tuple[float, float]], what: str) -> str:
    return (f"median of {len(pairs)} {what} on the reference host; as measured "
            f"{_fmt(_median([t for t, _ in pairs]))} s at host slowdown "
            f"{_fmt(_median([slow for _, slow in pairs]))}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "vccsim" / "__init__.py").is_file():
        print(f"error: vccsim sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread per process, so compute threads never exceed the pool
    # size; set before numpy loads and inherited by workers and probes.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from vccsim import cli
    from vccsim.recipes import RECIPES

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    session = Session(cli, wl, args.seed, OUT_DIR)
    print(f"env {json.dumps(environment(args.seed, wl), sort_keys=True)}")

    if args.trace:
        metrics, last_spans = measure_layers(session, args.seconds)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        (OUT_DIR / f"{wl.name}-spans.json").write_text(json.dumps(
            {"run": f"{wl.name}/seed{args.seed}", "spans": [s._asdict() for s in last_spans]}))
    else:
        metrics, walls, setups = measure_end_to_end(session, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}
        recipe = RECIPES[wl.recipe]
        scale = recipe.default_locations * recipe.default_fadings / (wl.locations * wl.fadings)
        print(f"wall_s = {_fmt(metrics['wall_s'])} s ({_scaled_note(walls, 'runs')})")
        if metrics["wall_s"] is not None:
            print(f"paper_scale_s = {_fmt(metrics['wall_s'] * scale)} s (extrapolated linearly "
                  f"to {recipe.default_locations}x{recipe.default_fadings}; not gated)")
        print(f"setup_s = {_fmt(metrics['setup_s'])} s "
              f"({_scaled_note(setups, 'fresh interpreters')})")
        print(f"peak_rss_mib = {_fmt(metrics['peak_rss_mib'])} MiB")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {_fmt(value)} {units[name]}")
    print(f"error_rate = {_fmt(session.failed / session.attempted)} "
          f"({session.failed} of {session.attempted} runs failed)")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: names, output checks, tracer hygiene and
per-layer coverage.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import dataclasses
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import csvcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from vccsim import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _triples(metrics):
    return [(m["name"], m["unit"], m["better"]) for m in metrics]


def test_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _triples(spec["end_to_end"]) == list(run.END_TO_END)
    assert _triples(spec["per_layer"]) == list(spans.PER_LAYER)
    names = list(run.WORKLOADS) + [m[0] for m in run.END_TO_END + tuple(spans.PER_LAYER)]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_reference_passes_its_checks_and_a_perturbed_copy_fails(name):
    wl = run.WORKLOADS[name]
    ref = (BENCH / "reference" / f"{name}.csv").read_text()
    header, rows = csvcheck.parse(ref)
    seed = int(header["seed"])
    assert csvcheck.compare(ref, ref) == []
    assert csvcheck.invariants(ref, ref, seed, wl.locations, wl.fadings) == []
    value = rows[0]["mean_rate_nats"]
    nudged = ref.replace(value, repr(float(value) * (1 + 1e-6)), 1)
    assert csvcheck.compare(nudged, ref)
    negated = ref.replace(value, "-" + value, 1)
    assert csvcheck.invariants(negated, ref, seed, wl.locations, wl.fadings)


def test_invariants_catch_a_bound_band_inversion():
    wl = run.WORKLOADS["fig7-micro"]
    ref = (BENCH / "reference" / "fig7-micro.csv").read_text()
    swapped = ref.replace("vcc_zf_lower_opt", "TMP").replace(
        "vcc_zf_upper_opt", "vcc_zf_lower_opt").replace("TMP", "vcc_zf_upper_opt")
    problems = csvcheck.invariants(swapped, swapped, 0, wl.locations, wl.fadings)
    assert any("vcc_zf_lower_opt" in p for p in problems)


def _targets():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.TRACED}


@pytest.fixture
def tiny_session(tmp_path):
    def make(name):
        wl = dataclasses.replace(run.WORKLOADS[name], locations=1, fadings=1)
        return run.Session(cli, wl, 1, tmp_path)
    return make


def test_tracer_restores_every_wrapped_name(tiny_session):
    before = _targets()
    session = tiny_session("fig9-csi")
    with spans.Tracer() as tracer:
        during = _targets()
        assert session.run(1, tracer) is not None
    assert all(during[key] is not fn for key, fn in before.items())
    assert _targets() == before
    assert tracer.spans and all(s is not None for s in tracer.spans)


@pytest.mark.parametrize("name, collapsed, mmf", [
    ("fig7-micro", 0.0, True), ("fig8-msv", 1.0, True), ("fig9-csi", 0.0, False),
])
def test_traced_run_yields_every_per_layer_metric(tiny_session, name, collapsed, mmf):
    session = tiny_session(name)
    metrics, last_spans = run.measure_layers(session, seconds=0)
    assert (session.failed, session.attempted > 0) == (0, True)
    assert list(metrics) == [m[0] for m in spans.PER_LAYER]
    assert all(isinstance(v, (int, float)) for v in metrics.values()), metrics
    assert metrics["allocation.solve_mmf.collapsed_ratio"] == collapsed
    assert (metrics["allocation.solve_mmf.calls"] > 0) == mmf
    assert last_spans[0].name == "cli.run"



def _child_pids() -> set[int]:
    """Live processes whose parent is this one, read from ``/proc``."""
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while being listed
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            pids.add(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs Linux /proc")
def test_host_speed_leaves_no_process_behind():
    import hostspeed

    before = _child_pids()
    with hostspeed.HostSpeed(2) as host:
        assert len(_child_pids() - before) == 1
        assert host.slowdown() > 0
    assert _child_pids() <= before

def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig9-csi", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

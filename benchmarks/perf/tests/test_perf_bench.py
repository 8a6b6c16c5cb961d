"""Checks of the benchmark itself, at smoke-test sizes (``--quick``).

Run with ``python -m pytest benchmarks/perf/tests -q`` from the repository
root; the directory is outside the tier-1 ``testpaths`` on purpose.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF))
sys.path[:0] = [PERF, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import serve  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--quick",
         "--workload", workload, "--seed", "5", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def _serve_processes() -> list:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        if b"repro" in argv and b"serve" in argv:
            found.append(int(pid))
    return found


def _shm_segments() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_exactly_the_declared_end_to_end_metrics(workload):
    report, _ = _run(workload, trace=0)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    assert list(report["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for decl in SPEC["end_to_end"]:
        metric = report["metrics"][decl["name"]]
        assert metric["unit"] == decl["unit"]
        assert metric["value"] > 0, f"{decl['name']} must never read 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_exactly_the_declared_per_layer_metrics(workload):
    before = _shm_segments()
    report, _ = _run(workload, trace=1)
    assert report["correct"] is True
    assert list(report["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    value = {name: m["value"] for name, m in report["metrics"].items()}
    # The workloads separate the layers.
    on_process = workload == "sssp_process"
    on_service = workload == "serve_mixed"
    for name in value:
        if name.startswith(("wire.", "process.")):
            assert (value[name] > 0) == on_process, name
    assert (value["service.execute_ms_p50"] > 0) == on_service
    assert (value["http.submit_ms_p50"] > 0) == on_service
    assert (value["patterns.tier_vector_s"] > 0) == (workload == "analytics_sim")
    assert value["host.calib_s"] > 0
    with open(os.path.join(PERF, "out", f"trace_{workload}.json")) as fh:
        trace = json.load(fh)
    assert trace["spans"], "the span file holds the individual spans"
    if not on_service:
        # Self times of all layers add up to the traced wall clock.
        assert abs(trace["self_sum_s"] / trace["traced_wall_s"] - 1.0) <= 0.05
        assert abs(value["trace.self_sum_ratio"] - 1.0) <= 0.05
        assert value["trace.overhead_ratio"] > 0
        ids = {s["id"] for s in trace["spans"]}
        roots = [s for s in trace["spans"] if s["parent"] is None]
        assert [s["name"] for s in roots] == ["solve"]
        assert all(s["parent"] in ids for s in trace["spans"] if s["parent"] is not None)
    assert _shm_segments() <= before, "leaked /dev/shm segments"


def test_vector_tier_vectorises_sssp_but_none_of_the_analytics_phases():
    sssp, _ = _run("sssp_sim", trace=1)
    assert sssp["metrics"]["patterns.vector_item_ratio"]["value"] > 0.9
    _run("analytics_sim", trace=1)
    with open(os.path.join(PERF, "out", "trace_analytics_sim.json")) as fh:
        phases = {p["phase"]: p for p in json.load(fh)["phases"]}
    assert set(phases) == {"bfs", "cc", "pagerank"}
    assert phases["cc"]["vector_item_ratio"] == 0
    assert phases["pagerank"]["vector_item_ratio"] == 0


def test_serve_reports_a_tail_with_ten_samples_beyond_it_and_stops_its_server():
    before_shm = _shm_segments()
    _, out = _run("serve_mixed", trace=1)
    notes = dict(
        line[4:].split(": ", 1) for line in out.splitlines() if line.startswith("#   ")
    )
    samples, tail = int(notes["latency_samples"]), float(notes["tail_quantile"])
    assert int(notes["samples_beyond_tail"]) >= 10
    assert tail <= 0.9 and samples - samples * tail >= 10
    assert _serve_processes() == [], "orphan repro serve process"
    assert _shm_segments() <= before_shm


#: Adopts, as a subreaper, whatever the benchmark run orphans; after the run
#: has exited it may have no child of any kind (waitpid: ECHILD).
_ADOPT_ORPHANS = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0
code = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL).wait()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a process of the run outlived it")
"""


@pytest.mark.parametrize("workload", ["sssp_process", "serve_mixed"])
def test_no_process_outlives_a_run(workload):
    """Not the rank workers, not ``repro serve``, and not multiprocessing's
    resource tracker, which ends only after the process that used shared
    memory has gone."""
    done = subprocess.run(
        [sys.executable, "-c", _ADOPT_ORPHANS, sys.executable, os.path.join(PERF, "run.py"),
         "--quick", "--workload", workload, "--seed", "5", "--trace", "0"],
        stderr=subprocess.PIPE, text=True, cwd=ROOT, timeout=170,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr


def test_each_why_names_the_scale_the_workload_runs_at():
    scales = {name: w.scale for name, w in workloads.WORKLOADS.items()}
    scales["serve_mixed"] = serve.SCALE
    for decl in SPEC["workloads"]:
        named = re.findall(r"scale (\d+)", decl["why"])
        assert named == [str(scales[decl["name"]])], decl["name"]


def test_tail_quantile_rule():
    assert measure.tail_quantile(112) == 0.9
    assert measure.samples_beyond(112, 0.9) >= 10
    for n in (25, 54, 99):
        q = measure.tail_quantile(n)
        assert q < 0.9 and measure.samples_beyond(n, q) >= 10
        assert measure.samples_beyond(n, q + 1.0 / n) < 10, "not the highest such quantile"
    assert measure.tail_quantile(5) == 0.5  # too few samples for any tail
    assert measure.quantile([3, 1, 2, 4], 0.75) == 3


def test_tracer_restores_the_original_functions_and_times_self_time():
    from repro.runtime.coalescing import CoalescingLayer
    from repro.runtime.epoch import Epoch
    from repro.runtime.transport import Transport

    originals = [vars(Transport)["send"], vars(Epoch)["__exit__"], vars(CoalescingLayer)["flush"]]
    spans = tracer.Tracer()
    spans.install()
    try:
        assert vars(Transport)["send"] is not originals[0]
        with pytest.raises(RuntimeError):
            spans.install()
    finally:
        spans.uninstall()
    assert [
        vars(Transport)["send"], vars(Epoch)["__exit__"], vars(CoalescingLayer)["flush"]
    ] == originals  # fmt: skip
    assert not spans.installed

    # Self time is duration minus wrapped children, so the parts add up.
    spans.open_span("outer")
    spans.open_span("inner")
    inner = spans.close_span()
    outer = spans.close_span()
    assert outer[5] + inner[5] == outer[4] - outer[3]


def test_stale_trace_table_entry_fails_loudly_by_name():
    from repro.runtime.transport import Transport

    original = vars(Transport)["send"]
    stale = tracer.TABLE + (
        ("repro.runtime.transport", "Transport", "no_such_method", "runtime.gone", tracer.AGG),
    )
    with pytest.raises(tracer.TraceTableError, match="Transport.no_such_method.*runtime.gone"):
        tracer.Tracer(stale).install()
    assert vars(Transport)["send"] is original, "nothing may stay patched after a failed install"
    # An inherited attribute is not the class's own: patching it there could
    # not be undone.
    inherited = (("repro.runtime.sim", "SimTransport", "send", "runtime.send", tracer.AGG),)
    with pytest.raises(tracer.TraceTableError, match="SimTransport.send"):
        tracer.Tracer(inherited).install()


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )  # fmt: skip
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "sssp_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_check_repeat_compares_the_whole_suite_only():
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--check-repeat", "--workload", "sssp_sim"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, timeout=60,
    )  # fmt: skip
    assert done.returncode == 2 and "--check-repeat takes only" in done.stderr

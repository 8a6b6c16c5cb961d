#!/usr/bin/env python3
"""The repository's standing benchmark (see README.md beside this file).

    python benchmarks/perf/run.py                      # every workload, untraced
    python benchmarks/perf/run.py --trace              # ... plus the per-layer pass
    python benchmarks/perf/run.py --workload sssp_sim --seed 3 --seconds 26 --trace 0
    python benchmarks/perf/run.py --check-repeat       # two sets of ten runs must agree

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): every end-to-end
metric of BENCHMARK.json untraced, every per-layer metric with ``--trace 1``.
The workload runs in a child of this process, which returns only once every
process the run started (rank workers, ``repro serve``, multiprocessing's
resource tracker) has ended.  Without ``--workload`` every workload runs in
a fresh subprocess of its own.  Any answer that fails its oracle makes the
exit code non-zero.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"{ROOT} holds no src/repro: the benchmark needs the program it measures")
sys.path.insert(0, os.path.join(ROOT, "src"))
# Crash dumps of the flight recorder stay inside the checkout.
os.environ.setdefault("REPRO_FLIGHT_DIR", os.path.join(OUT_DIR, "flight"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    if name == "serve_mixed":
        from serve import run_serve

        return run_serve(seed, seconds, trace, quick)
    from workloads import run_batch

    return run_batch(name, seed, seconds, trace, quick)


def single(args) -> int:
    """Run one workload here; the contract's JSON object is the last line."""
    import measure

    measure.warm_probe()
    calib_s = statistics.median(measure.probe() for _ in range(5))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
    declared = PER_LAYER if args.trace else END_TO_END
    measured = result.per_layer if args.trace else result.end_to_end
    if args.trace:
        measured["host.calib_s"] = calib_s
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not args.trace and set(measured) != set(declared):
        raise SystemExit(f"end-to-end metrics missing: {sorted(set(declared) - set(measured))}")
    print(f"# {args.workload} seed={args.seed} trace={int(args.trace)}")
    for key, value in result.notes.items():
        print(f"#   {key}: {value}")
    metrics = {}
    for name, decl in declared.items():
        # A layer this workload does not exercise reads 0.
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": decl["unit"]}
        mark = "" if name in measured else "   (not on this workload)"
        print(f"{name:<28} {value:>16.6g} {decl['unit']}{mark}")
    if result.trace is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{args.workload}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "host": measure.host_fingerprint(),
                    "notes": result.notes,
                    **result.trace,
                },
                fh,
            )
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    correct = result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- containment: nothing a run started outlives it --------------------------------

PR_SET_CHILD_SUBREAPER = 36
#: How long processes orphaned by the workload get to end by themselves
#: (the resource tracker unlinks what it tracks and goes) before SIGKILL.
ORPHAN_GRACE_S = 5.0
TRACKER_GRACE_S = 2.0


def _children() -> dict:
    """Command line by pid of every process whose parent is this one."""
    me, found = os.getpid(), {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces and brackets.
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read()
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found[int(entry)] = cmdline
    return found


def _reap_all(grace_s: float) -> None:
    """Wait until this process has no child left.  As a subreaper it
    inherits every descendant whose parent has gone, so "no child" means
    that the run has left nothing behind.  After ``grace_s`` whatever is
    still there is killed and waited for: the resource tracker last, since
    it ends by itself, unlinking the shared memory a killed run leaked,
    once no process holds its pipe."""
    kill_after = time.monotonic() + grace_s
    kill_tracker_after = kill_after + TRACKER_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        now = time.monotonic()
        if now > kill_after:
            for child, cmdline in _children().items():
                if "resource_tracker" in cmdline and now <= kill_tracker_after:
                    continue
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def contained(argv: list) -> int:
    """Run ``argv`` as a child and return its exit code once the child and
    every process it started, directly or not, have ended -- on every path
    out, a signal to this process included."""
    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, interrupted)
    grace_s = 0.0
    try:
        code = subprocess.Popen(argv, cwd=ROOT).wait()
        grace_s = ORPHAN_GRACE_S
    finally:
        _reap_all(grace_s)
    return code


# -- the whole suite: one fresh subprocess per workload ---------------------------


def child(workload: str, seed: int, args, trace: bool) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload}: no result line (exit code {done.returncode})")
    report["exit_code"] = done.returncode
    report["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    return report


def print_report(workload: str, report: dict, declared: dict) -> None:
    status = "ok" if report["correct"] else "FAILED"
    print(f"\n== {workload}: {status}, {report['failed']} of {report['attempted']} failed")
    for line in report["notes"][1:]:
        print(line)
    for name in declared:
        metric = report["metrics"][name]
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")


def suite(args) -> int:
    import measure

    host = measure.host_fingerprint()
    print(f"host: {host}")
    out = {"host": host, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    exit_code = 0
    for workload in WORKLOADS:
        entry = {"end_to_end": child(workload, args.seed, args, trace=False)}
        print_report(workload, entry["end_to_end"], END_TO_END)
        if args.trace:
            entry["per_layer"] = child(workload, args.seed, args, trace=True)
            print_report(f"{workload} (traced)", entry["per_layer"], PER_LAYER)
        exit_code |= any(r["exit_code"] != 0 for r in entry.values())
        out["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
        print(f"\nwritten to {args.out}")
    return int(exit_code)


# -- --check-repeat: do two sets of runs of the same code agree? -------------------------


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


#: Runs per set of ``--check-repeat``: what the driver does, and what the
#: bounds in BENCHMARK.json were derived from.
RUNS_PER_SET = 10


def check_repeat(args) -> int:
    """Two sets of ten untraced runs per workload, every run on another
    seed; a set's value is its median.  Fails when the second set is worse
    than the first by more than the metric's bound (``setup_s`` included)
    or when a set's own spread exceeds it (``setup_s`` excepted, as the
    spread of set-up time is not gated)."""
    failures = []
    for workload in WORKLOADS:
        sets = []
        for which in range(2):
            runs = [child(workload, args.seed + i, args, trace=False) for i in range(RUNS_PER_SET)]
            if any(r["exit_code"] != 0 for r in runs):
                failures.append(f"{workload}: a run of set {which + 1} failed its checks")
            sets.append(runs)
        print(f"\n== {workload}: two sets of {RUNS_PER_SET} runs, seeds {args.seed}..")
        for name, decl in END_TO_END.items():
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = worse_by(medians[0], medians[1], decl["better"])
            for which, v in enumerate(values):
                quartiles = statistics.quantiles(v, n=4)
                print(
                    f"  {name:<16} set {which + 1}: median {medians[which]:.6g} {decl['unit']}"
                    f"  quartiles {quartiles[0]:.6g}..{quartiles[2]:.6g}"
                    f"  spread {spreads[which]:.1%}  values {[round(x, 4) for x in v]}"
                )
            verdict = "ok"
            if drift > decl["bound"]:
                verdict = "SECOND SET WORSE THAN BOUND"
            elif name != "setup_s" and max(spreads) > decl["bound"]:
                verdict = "SPREAD WIDER THAN BOUND"
            if verdict != "ok":
                failures.append(f"{workload}/{name}: {verdict}")
            print(
                f"  {name:<16} second set {drift:+.1%} worse, bound {decl['bound']:.0%},"
                f" spread at most {max(spreads):.1%} -> {verdict}"
            )
    print()
    for failure in failures:
        print(f"FAIL {failure}")
    print("check-repeat:", "FAILED" if failures else "both sets agree within every bound")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS,
        help="run only this one and print the contract's JSON line",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=1, help="every input derives from it")
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="how long one run measures",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the per-layer pass (wrappers installed); 0: end-to-end numbers",
    )  # fmt: skip
    parser.add_argument("--out", metavar="FILE", help="also write the suite's numbers as JSON")
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run the untraced suite twice, ten seeds each time, and compare the two sets",
    )  # fmt: skip
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-test sizes (scale 8, one pass, 5 s of serving); numbers mean nothing",
    )  # fmt: skip
    # What contained() passes to the child that does the run.
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.trace = bool(args.trace)
    if args.check_repeat:
        if args.workload or args.trace or args.out:
            parser.error("--check-repeat takes only --seed, --seconds and --quick")
        return check_repeat(args)
    if args.workload and args.in_process:
        return single(args)
    if args.workload:
        return contained([sys.executable, os.path.abspath(__file__), *sys.argv[1:], "--in-process"])
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())

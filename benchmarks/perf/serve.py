"""``serve_mixed``: a load generator against a live ``repro serve``.

One generator process, two threads (a submitter and an in-order long-poll
collector), so at most two connections are open at a time.  The server is
a subprocess that only ever receives CLI generator flags; the benchmark
derives the same graph from the same generator call to pick sources and to
check every SSSP/BFS answer against a sequential reference on the edge list
of the graph version the job ran on.

* **steady phase** (every run) — open loop, in windows of
  :data:`WINDOW_S` seconds: a ``mutate`` (a barrier that empties the result
  cache) is due first and Poisson arrivals at :data:`RATE` jobs/s follow
  it; latency runs from the instant a job was *due* until the collector
  holds its complete 200 body, so a stalled server is charged for the jobs
  queued behind it.  The end-to-end numbers are those of the SSSP jobs the
  server had to compute and that found nothing ahead of them.
* **burst** (traced run) — a closed set: one ``mutate``, a long PageRank
  job that keeps the executor busy, and behind it :data:`BURST`
  distinct-source SSSP jobs; timed from the moment the client holds the
  PageRank result until it holds the last SSSP result.
* **rate sweep** (traced run) — short open-loop windows at rising rates,
  for the highest rate that still meets :data:`SLO_MS`.
"""

from __future__ import annotations

import json
import os
import queue
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.algorithms.bfs import bfs_reference
from repro.algorithms.sssp import dijkstra_reference
from repro.graph import rmat, uniform_weights

import measure
from workloads import EDGE_FACTOR, SETUPS, Result

#: The directory ``repro`` was imported from, for the server's PYTHONPATH.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCALE = 8
#: The served graph is a fixed data set; ``--seed`` drives the request
#: stream (arrival times, kinds, sources, mutations).  At this scale R-MAT
#: graphs of different seeds differ by 50 % in what one job costs, which
#: would show as run-to-run spread of every latency.
GRAPH_SEED = 1
RANKS = 4
#: Steady-phase arrival rate, jobs/s.  The server is busy a little under half
#: of the time, as in the issue's sizing, and a third of the way to the
#: highest rate at which it still meets SLO_MS (``service.max_rate_ok``).  At
#: 40 jobs/s a host state 1.4x slower tips the queue towards saturation and
#: the median latency doubles, which no linear clock correction undoes.
RATE = 24.0
MIX = (("sssp", 0.75), ("bfs", 0.22), ("cc", 0.03))
ZIPF_EXPONENT = 1.3
#: Length of one steady-phase window.  Each opens with a ``mutate``, a write
#: beside the reads, and is bracketed by the probes of the corrected clock.
WINDOW_S = 4.0
BURST = 64
#: Bursts of a traced run; ``service.burst_jobs_per_s`` is their median.
BURSTS = 3
#: Power iterations of the job that holds the executor while a burst is
#: queued behind it (about 1.4 s here; queueing 64 jobs takes 0.1-0.3 s).
PLUG_ITERATIONS = 40
#: Share of ``--seconds`` the traced run's steady phase lasts (the bursts
#: and the sweep take the rest).
STEADY_SHARE = 0.6
#: Latency limit a job is expected to meet, due -> body.
SLO_MS = 150.0
#: Rates of the traced run's sweep, as multiples of RATE, and window length.
SWEEP_FACTORS = (1.5, 2.5, 3.5, 4.5)
SWEEP_WINDOW_S = 3.0


@dataclass
class Job:
    kind: str
    params: dict
    due: float  # seconds after the phase started, like sent, accepted and body
    phase: str
    sent: float = 0.0
    accepted: float = 0.0
    body: float = 0.0
    body_wall: float = 0.0  # time.time() when the body was complete
    submit_status: int = 0
    status: int = 0
    job_id: str | None = None
    #: The 200 body: the server's job record (timestamps, ``cache_hit``,
    #: ``batch_size``, ...) and the result.
    payload: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.submit_status == 202 and self.status == 200

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.body - self.due)


# -- the server process -----------------------------------------------------------


class Server:
    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--generator", "rmat", "--scale", str(SCALE),
            "--edge-factor", str(EDGE_FACTOR), "--seed", str(GRAPH_SEED),
            "--ranks", str(RANKS), "--partition", "cyclic",
            "--fast-path", "vector", "--port", "0",
        ]  # fmt: skip
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if " on http://" not in line:
                raise RuntimeError(f"repro serve did not announce a URL: {line!r}")
        except BaseException:
            self.stop()
            raise
        #: Process launch until the URL line was printed.
        self.launch_s = time.perf_counter() - start
        self.url = line.split(" on ", 1)[1].split()[0]

    def stop(self) -> int:
        """SIGINT, wait, and kill if that did not end it; the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def request(self, method: str, path: str, body=None, timeout: float = 75.0):
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )  # fmt: skip
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            with err:
                raw = err.read()
            try:
                return err.code, json.loads(raw)
            except ValueError:
                return err.code, {}


# -- running a phase -----------------------------------------------------------------


def run_phase(server: Server, jobs: list) -> None:
    """Submit ``jobs`` on their schedule from one thread and collect their
    results in order from another."""
    handoff: queue.Queue = queue.Queue()
    errors: list = []
    start = time.perf_counter()

    def submit() -> None:
        try:
            for job in jobs:
                delay = start + job.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                job.sent = time.perf_counter() - start
                job.submit_status, reply = server.request(
                    "POST", "/jobs", {"algorithm": job.kind, "params": job.params}
                )
                job.accepted = time.perf_counter() - start
                job.job_id = reply.get("job_id")
                handoff.put(job)
        except Exception as err:  # surfaced by the caller after join
            errors.append(err)
        finally:
            handoff.put(None)

    def collect() -> None:
        try:
            while (job := handoff.get()) is not None:
                if job.job_id is None:
                    continue
                while True:
                    job.status, job.payload = server.request(
                        "GET", f"/jobs/{job.job_id}/result?wait=30"
                    )
                    if job.status != 202:
                        break
                job.body = time.perf_counter() - start
                job.body_wall = time.time()
        except Exception as err:
            errors.append(err)

    threads = [threading.Thread(target=submit), threading.Thread(target=collect)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def run_burst(server: Server, plug: Job, burst: list) -> dict:
    """Queue ``burst`` behind ``plug`` and time how long the server takes to
    drain it, as its client sees it.

    Jobs that are simply posted back to back race the executor: whether it
    finds 16 of them queued (one fused run) or one (64 runs, 2.3x slower)
    depends on how fast the handler threads get the interpreter lock next
    to it, which on the recording host flips for minutes at a time.  With
    the executor held by ``plug`` the whole burst is queued when it becomes
    free, so every run fuses the same four groups of 16.
    """
    start = time.perf_counter()

    def now() -> float:
        return time.perf_counter() - start

    def fetch(job: Job) -> None:
        job.status, job.payload = server.request("GET", f"/jobs/{job.job_id}/result?wait=60")
        job.body = now()

    for job in (plug, *burst):
        job.sent = now()
        job.submit_status, reply = server.request(
            "POST", "/jobs", {"algorithm": job.kind, "params": job.params}
        )
        job.accepted = now()
        job.job_id = reply.get("job_id")
    fetch(plug)
    fetch(burst[-1])
    for job in burst[:-1]:  # already done: fetched for checking, off the clock
        fetch(job)
    last = burst[-1]
    return {
        "plug": plug,
        "jobs": burst,
        "drain_s": last.body - plug.body,
        # The point of the plug is lost if the burst was still being posted
        # when it finished.
        "queued_in_time": last.accepted < plug.body,
    }


# -- the plan: every input is a function of the seed -----------------------------------


class Plan:
    def __init__(self, seed: int) -> None:
        self.n = 1 << SCALE
        self.src, self.trg = rmat(SCALE, edge_factor=EDGE_FACTOR, seed=GRAPH_SEED)
        self.w = uniform_weights(len(self.src), 1.0, 10.0, seed=GRAPH_SEED + 1)
        self.rng = np.random.default_rng([seed, SCALE])
        self.scc = self._giant_scc()
        # Zipf over a seeded order of the component: a few hot sources
        # repeat (cache hits), the tail stays cold.
        self.order = self.rng.permutation(self.scc)
        weights = np.arange(1, len(self.order) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.zipf = weights / weights.sum()

    def _giant_scc(self) -> np.ndarray:
        """Vertices reaching and reached from the max-out-degree vertex, so
        no job is the near-free traversal of a dead-end source."""
        root = int(np.argmax(np.bincount(self.src, minlength=self.n)))
        forward = np.isfinite(bfs_reference(self.n, self.src, self.trg, root))
        backward = np.isfinite(bfs_reference(self.n, self.trg, self.src, root))
        return np.flatnonzero(forward & backward)

    def mutate(self, due: float, phase: str) -> Job:
        u, v = self.rng.choice(self.scc, size=2, replace=False)
        weight = float(self.rng.uniform(1.0, 10.0))
        return Job("mutate", {"insert": [[int(u), int(v), weight]]}, due, phase)

    def open_loop(self, rate: float, seconds: float, phase: str) -> list:
        """A ``mutate`` due at once, then Poisson arrivals of reads."""
        jobs, now = [self.mutate(0.0, phase)], 0.0
        kinds, shares = zip(*MIX)
        while True:
            now += float(self.rng.exponential(1.0 / rate))
            if now >= seconds:
                return jobs
            kind = str(self.rng.choice(kinds, p=shares))
            params = {}
            if kind != "cc":
                params["source"] = int(self.order[self.rng.choice(len(self.order), p=self.zipf)])
            jobs.append(Job(kind, params, now, phase))

    def plug(self, index: int) -> Job:
        params = {"iterations": PLUG_ITERATIONS, "tol": 0.0}
        return Job("pagerank", params, 0.0, f"burst{index}")

    def burst(self, index: int) -> list:
        size = min(BURST, len(self.scc))
        sources = self.rng.choice(self.scc, size=size, replace=False)
        phase = f"burst{index}"
        return [Job("sssp", {"source": int(s)}, 0.0, phase) for s in sources]


# -- checking answers ---------------------------------------------------------------------


class Oracle:
    """Reference answers on the edge list of each graph version."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.inserted: dict = {}  # graph version -> the edge that made it
        self._edges: dict = {}
        self._answers: dict = {}

    def saw_mutation(self, job: Job) -> None:
        self.inserted[job.payload["result"]["graph_version"]] = job.params["insert"][0]

    def edges(self, version: int):
        if version not in self._edges:
            extra = [self.inserted[v] for v in range(1, version + 1)]
            p = self.plan
            src = np.concatenate([p.src, [e[0] for e in extra]]).astype(np.int64)
            self._edges[version] = (
                src,
                np.concatenate([p.trg, [e[1] for e in extra]]).astype(np.int64),
                np.concatenate([p.w, [e[2] for e in extra]]),
                np.bincount(src, minlength=p.n),
            )
        return self._edges[version]

    def answer(self, kind: str, version: int, source: int) -> np.ndarray:
        key = (kind, version, source)
        if key not in self._answers:
            src, trg, w, _out_degree = self.edges(version)
            if kind == "sssp":
                self._answers[key] = dijkstra_reference(self.plan.n, src, trg, w, source)
            else:
                self._answers[key] = bfs_reference(self.plan.n, src, trg, source)
        return self._answers[key]

    def correct(self, job: Job) -> bool:
        if not job.ok:
            return False
        if job.kind not in ("sssp", "bfs"):
            return True
        expected = self.answer(job.kind, job.payload["graph_version"], job.params["source"])
        return bool(np.array_equal(expected, np.asarray(job.payload["result"], dtype=float)))

    def traversed_edges(self, job: Job) -> int:
        out_degree = self.edges(job.payload["graph_version"])[3]
        reached = np.isfinite(np.asarray(job.payload["result"], dtype=float))
        return int(out_degree[reached].sum())


# -- the workload ------------------------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool, quick: bool) -> Result:
    # Generator and server (which inherits the mask) share one CPU.  The
    # host's two vCPUs drift in speed independently of each other, and the
    # probes of the corrected clock, taken here, say nothing about a server
    # on the other one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    plan = Plan(seed)
    launches = []
    # setup_s is the median launch; the traced run does not report it.
    for _ in range(0 if quick or trace else SETUPS - 1):
        with measure.corrected() as clock:
            spare = Server()
        launches.append(spare.launch_s * clock.factor)
        # An answered request shows the main thread has had time to reach
        # its interruptible wait; a SIGINT between its announcement and
        # that wait still kills it with a traceback, which is the server's
        # business and not a failed set-up.
        spare.request("GET", "/stats")
        if spare.stop() not in (0, -signal.SIGINT):
            raise RuntimeError(f"repro serve exited with {spare.proc.returncode}")
    with measure.corrected() as clock:
        server = Server()
    launches.append(server.launch_s * clock.factor)
    steady_s = seconds * (STEADY_SHARE if trace else 1.0)
    window_s = 5.0 if quick else WINDOW_S
    n_windows = 1 if quick else max(1, int(steady_s // window_s))
    n_bursts = 0 if not trace else 1 if quick else BURSTS
    windows, sweep, bursts = [], [], []
    try:
        for index in range(n_windows):
            jobs = plan.open_loop(RATE, window_s, f"steady{index}")
            with measure.corrected() as clock:
                run_phase(server, jobs)
            windows.append({"jobs": jobs, "factor": clock.factor})
        for index in range(n_bursts):
            barrier = plan.mutate(0.0, f"burst{index}")
            run_phase(server, [barrier])
            burst = run_burst(server, plan.plug(index), plan.burst(index))
            bursts.append({"barrier": barrier, **burst})
        if trace and not quick:
            sweep = _rate_sweep(server, plan)
        _, stats = server.request("GET", "/stats")
    finally:
        exit_code = server.stop()
    if exit_code != 0:
        raise RuntimeError(f"repro serve exited with {exit_code}")

    steady = [j for w in windows for j in w["jobs"]]
    jobs = steady + [j for b in bursts for j in (b["barrier"], b["plug"], *b["jobs"])]
    jobs += [j for w in sweep for j in w["jobs"]]
    oracle = Oracle(plan)
    for job in jobs:
        if job.kind == "mutate" and job.ok:
            oracle.saw_mutation(job)
    failed = sum(not oracle.correct(job) for job in jobs)
    # What a client sees of one SSSP job that the server had to compute and
    # that did not have to queue, on the corrected clock of the job's
    # window: due -> body, and the edges its traversal covered over that time.
    solves = [
        (j.latency_ms / 1e3, w["factor"], oracle.traversed_edges(j))
        for w in windows
        for j in sent_with_none_outstanding(w["jobs"])
        if j.ok and j.kind == "sssp" and not j.payload["cache_hit"]
    ]
    result = Result(
        end_to_end={
            "setup_s": measure.median(launches),
            "solve_s": measure.median(raw * f for raw, f, _ in solves),
            "edges_per_s": measure.median(e / (raw * f) for raw, f, e in solves),
            # The server is the only child this process has waited for.
            "peak_rss_mb": measure.peak_rss_mb(own=False, children=True),
        },
        attempted=len(jobs),
        failed=failed,
        notes={
            "scale": SCALE,
            "setups": len(launches),
            "rate": RATE,
            "windows": len(windows),
            "window_s": window_s,
            "steady_jobs": len(steady),
            "solve_samples": len(solves),
            "scc_vertices": len(plan.scc),
            # Wall-clock readings beside the corrected ones.
            "raw_solve_s": measure.median(raw for raw, _, _ in solves),
            "raw_edges_per_s": measure.median(e / raw for raw, _, e in solves),
            "host_speed_factor": measure.median(w["factor"] for w in windows),
        },
    )
    if trace:
        result.end_to_end = {}
        result.per_layer, notes = _service_layers(windows, bursts, sweep, stats)
        result.notes.update(notes)
        result.trace = {
            "stats": stats,
            "sweep": [{k: v for k, v in w.items() if k != "jobs"} for w in sweep],
            "spans": [_job_span(j) for j in jobs],
        }
    return result


def sent_with_none_outstanding(jobs: list) -> list:
    """The jobs of a phase that were sent when the client held the result
    of every earlier one.

    The median latency over *all* computed jobs sits where the queued and
    the unqueued meet (the server is busy just under half of the time), so
    a host state 1.4x slower, which lengthens every queue more than in
    proportion, moved it by 25-60 % between runs of the same code.  What a
    job costs when nothing is ahead of it scales with the host and is what
    the corrected clock can steady; queue wait is a per-layer reading.
    """
    alone, outstanding_until = [], 0.0
    for job in jobs:
        if job.sent >= outstanding_until:
            alone.append(job)
        outstanding_until = max(outstanding_until, job.body)
    return alone


def _rate_sweep(server: Server, plan: Plan) -> list:
    """Open-loop windows at rising rates, each from an empty result cache;
    stops at the first rate that misses the limit (the rest would too, and
    their backlog would have to be drained on the clock)."""
    windows = []
    for factor in SWEEP_FACTORS:
        rate = RATE * factor
        jobs = plan.open_loop(rate, SWEEP_WINDOW_S, f"sweep{rate:g}")
        run_phase(server, jobs)
        window = _window_verdict(rate, jobs)
        window["jobs"] = jobs
        windows.append(window)
        if not window["ok"]:
            break
    return windows


def _window_verdict(rate: float, jobs: list) -> dict:
    """Do the reads of an open-loop window meet the limit without a
    growing backlog?

    By Little's law a server that keeps up while meeting the limit holds
    ``rate * limit`` jobs on average; more than twice that (plus two, for
    one slow job with its followers) still outstanding when the last job
    is sent means the queue was growing.
    """
    reads = [j for j in jobs if j.kind != "mutate"]
    latencies = [j.latency_ms for j in reads if j.ok]
    tail = measure.tail_quantile(len(latencies))
    p_tail = measure.quantile(latencies, tail) if latencies else float("inf")
    last_sent = max(j.sent for j in reads)
    backlog = sum(1 for j in reads if j.body > last_sent) - 1
    ok = (
        len(latencies) == len(reads)
        and p_tail <= SLO_MS
        and backlog <= 2 * rate * SLO_MS / 1e3 + 2
    )
    return {
        "rate": rate,
        "jobs_sent": len(reads),
        "tail_quantile": tail,
        "latency_tail_ms": p_tail,
        "backlog_at_end": backlog,
        "ok": ok,
    }


def _service_layers(windows, bursts, sweep, stats) -> tuple[dict, dict]:
    """The per-layer metrics of the service and the notes printed with
    them: raw wall time on the generator's clock, and the job records'
    own timestamps."""
    steady = [j for w in windows for j in w["jobs"]]
    all_reads = [j for j in steady if j.kind != "mutate"]
    reads = [j for j in all_reads if j.ok]
    latencies = [j.latency_ms for j in reads]
    tail = measure.tail_quantile(len(reads))

    def server_ms(job: Job, since: str, until: str) -> float:
        return 1e3 * (job.payload[until] - job.payload[since])

    queue_wait = [server_ms(j, "submitted_at", "started_at") for j in reads]
    execute = [server_ms(j, "started_at", "finished_at") for j in reads]
    mutates = [j for j in steady if j.kind == "mutate" and j.ok]
    burst_jobs = [j for b in bursts for j in b["jobs"] if j.ok]
    # Jobs of one fused run all report that run's message count: count each
    # run once.
    runs = {j.payload["batch_id"]: j.payload["messages_sent"] for j in burst_jobs}
    rates_ok = [RATE] if all(_window_verdict(RATE, w["jobs"])["ok"] for w in windows) else []
    rates_ok += [w["rate"] for w in sweep if w["ok"]]
    service = stats["service"]
    layers = {
        "service.latency_p50_ms": measure.median(latencies),
        "service.latency_p90_ms": measure.quantile(latencies, tail),
        "service.queue_wait_ms_p50": measure.median(queue_wait),
        "service.queue_wait_ms_p90": measure.quantile(queue_wait, tail),
        "service.execute_ms_p50": measure.median(execute),
        "service.execute_ms_p90": measure.quantile(execute, tail),
        "service.cache_hit_ratio": sum(j.payload["cache_hit"] for j in reads) / len(reads),
        # Width of the fused run behind each steady-phase job that was
        # computed (a cache hit has width 0; a queued burst always fuses 16).
        "service.batch_size_mean": float(
            np.mean([w for w in (j.payload["batch_size"] for j in reads) if w])
        ),
        "service.batches": service["batches_executed"],
        "service.msgs_per_job": sum(runs.values()) / len(burst_jobs),
        "service.burst_jobs_per_s": measure.median(len(b["jobs"]) / b["drain_s"] for b in bursts),
        "service.mutate_ms_p50": measure.median(
            server_ms(j, "submitted_at", "finished_at") for j in mutates
        ),
        "service.rejected": service["jobs_rejected"],
        # A failed or refused job misses the limit too.
        "service.slo_miss_ratio": sum(not j.ok or j.latency_ms > SLO_MS for j in all_reads)
        / len(all_reads),
        "service.max_rate_ok": max(rates_ok, default=0.0),
        "http.submit_ms_p50": measure.median(1e3 * (j.accepted - j.sent) for j in reads),
        # The same round trip while the executor thread is busy: the handler
        # threads' wait for the interpreter lock.
        "http.submit_busy_ms_p50": measure.median(1e3 * (j.accepted - j.sent) for j in burst_jobs),
        "http.result_ms_p50": measure.median(
            1e3 * (j.body_wall - j.payload["finished_at"]) for j in reads
        ),
        "loadgen.late_ms_max": 1e3 * max(j.sent - j.due for j in steady),
        "trace.overhead_ratio": 1.0,  # nothing is wrapped inside the server
    }
    notes = {
        "bursts": len(bursts),
        "burst_jobs": len(bursts[0]["jobs"]),
        "bursts_queued_in_time": sum(b["queued_in_time"] for b in bursts),
        "latency_samples": len(latencies),
        "tail_quantile": tail,
        "samples_beyond_tail": measure.samples_beyond(len(latencies), tail),
    }
    return layers, notes


def _job_span(job: Job) -> dict:
    return {
        "name": "job",
        "id": job.job_id,
        "phase": job.phase,
        "kind": job.kind,
        "due_s": job.due,
        "sent_s": job.sent,
        "accepted_s": job.accepted,
        "body_s": job.body,
        "status": job.status,
        "server": {
            k: job.payload.get(k)
            for k in (
                "submitted_at", "started_at", "finished_at", "graph_version",
                "cache_hit", "batch_id", "batch_size", "messages_sent",
            )
        },
    }  # fmt: skip

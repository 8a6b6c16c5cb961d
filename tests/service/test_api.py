"""HTTP front end: concurrent submissions, route/status codes, and the
ephemeral-port lifecycle shared with the observability server."""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import sssp_fixed_point
from repro.analysis import scrape
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.service import GraphEngine, ServiceServer
from repro.service.api import MAX_BODY_BYTES


def instance(n=40, m=130, seed=3, n_ranks=4):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1, 10, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


@pytest.fixture()
def served():
    g, wg = instance()
    eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
    srv = ServiceServer(eng).start()
    try:
        yield srv.url, eng, g, wg
    finally:
        srv.stop()
        eng.close()


def post_job(url, algorithm, params):
    return scrape(url + "/jobs", data={"algorithm": algorithm, "params": params})


def raw_post(url, content_length):
    """POST /jobs with a hand-written ``Content-Length`` and no body.

    The socket stays open after the request, so a server that tries to
    read the declared length blocks; the short timeout turns that into a
    test failure instead of a hung suite.
    """
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        data = b""
        while chunk := sock.recv(4096):  # the server closes after replying
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload.decode()


class TestConcurrentSubmissions:
    def test_sixteen_concurrent_jobs_batch_and_verify(self, served):
        url, eng, g, wg = served
        sources = [(3 * i) % g.n_vertices for i in range(16)]
        accepted = [None] * len(sources)

        def submit(i):
            status, body = post_job(url, "sssp", {"source": sources[i]})
            assert status == 202, body
            accepted[i] = json.loads(body)["job_id"]

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(sources))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(accepted), "a submission thread never completed"

        for i, job_id in enumerate(accepted):
            status, body = scrape(url + f"/jobs/{job_id}/result?wait=30")
            assert status == 200, body
            payload = json.loads(body)
            assert payload["status"] == "done"
            ref = sssp_fixed_point(
                Machine(4, fast_path="vector"), g, wg, sources[i]
            )
            assert np.array_equal(np.asarray(payload["result"]), ref)

        status, body = scrape(url + "/stats")
        stats = json.loads(body)
        assert status == 200
        assert stats["service"]["jobs_completed"] == 16
        # 16 distinct sources: one run per job, each with its own traffic
        assert stats["service"]["batches_executed"] == 16
        for job_id in accepted:
            job = json.loads(scrape(url + f"/jobs/{job_id}")[1])
            assert job["batch_size"] == 1 and job["messages_sent"] > 0, job

    def test_repeat_submissions_hit_the_cache(self, served):
        url, eng, _, _ = served
        for round_no in range(2):
            status, body = post_job(url, "bfs", {"source": 7})
            assert status == 202
            job_id = json.loads(body)["job_id"]
            status, _ = scrape(url + f"/jobs/{job_id}/result?wait=30")
            assert status == 200
        status, body = scrape(url + "/stats")
        stats = json.loads(body)
        assert stats["service"]["cache_hits"] == 1
        assert stats["cache"]["entries"] == 1


class TestRoutesAndStatusCodes:
    def test_root_lists_routes(self, served):
        url, _, _, _ = served
        status, body = scrape(url)
        assert status == 200 and "POST /jobs" in body

    def test_job_status_and_listing(self, served):
        url, _, _, _ = served
        _, body = post_job(url, "bfs", {"source": 0})
        job_id = json.loads(body)["job_id"]
        scrape(url + f"/jobs/{job_id}/result?wait=30")
        status, body = scrape(url + f"/jobs/{job_id}")
        assert status == 200 and json.loads(body)["status"] == "done"
        status, body = scrape(url + "/jobs")
        assert status == 200
        assert any(j["job_id"] == job_id for j in json.loads(body)["jobs"])

    def test_unknown_job_is_404(self, served):
        url, _, _, _ = served
        for route in ("/jobs/job-999999", "/jobs/job-999999/result"):
            status, body = scrape(url + route)
            assert status == 404 and "unknown job" in body
        status, _ = scrape(url + "/jobs/job-999999/cancel", method="POST")
        assert status == 404

    def test_validation_errors_are_400(self, served):
        url, _, g, _ = served
        status, body = post_job(url, "nope", {})
        assert status == 400 and "unknown algorithm" in body
        status, body = post_job(url, "sssp", {"source": g.n_vertices})
        assert status == 400 and "out of range" in body
        _, body = post_job(url, "bfs", {"source": 0})
        job_id = json.loads(body)["job_id"]
        for wait in ("abc", "nan", "inf"):
            status, body = scrape(url + f"/jobs/{job_id}/result?wait={wait}")
            assert status == 400 and "wait must be a finite number" in body

    def test_bad_pagerank_params_are_400(self, served):
        url, _, _, _ = served
        status, body = post_job(url, "pagerank", {"damping": 7.0})
        assert status == 400 and "'damping' must be a real in [0, 1]" in body

    def test_malformed_body_is_400(self, served):
        url, _, _, _ = served
        from urllib.request import Request, urlopen
        from urllib.error import HTTPError

        req = Request(url + "/jobs", data=b"not json", method="POST")
        with pytest.raises(HTTPError) as exc_info:
            urlopen(req, timeout=5)
        assert exc_info.value.code == 400

    def test_negative_content_length_is_400(self, served):
        url, _, _, _ = served
        status, body = raw_post(url, "-1")
        assert status == 400 and "negative Content-Length" in body

    def test_oversized_content_length_is_413(self, served):
        url, eng, _, _ = served
        status, body = raw_post(url, str(MAX_BODY_BYTES + 1))
        assert status == 413 and str(MAX_BODY_BYTES) in body
        assert eng.stats_snapshot()["service"]["jobs_submitted"] == 0

    def test_full_queue_is_429(self, served):
        url, eng, _, _ = served
        eng.max_pending = 0  # admission control refuses everything
        try:
            status, body = post_job(url, "bfs", {"source": 0})
            assert status == 429 and "queue full" in body
        finally:
            eng.max_pending = 256
        status, _ = post_job(url, "bfs", {"source": 0})
        assert status == 202

    def test_unknown_routes_are_404(self, served):
        url, _, _, _ = served
        assert scrape(url + "/nope")[0] == 404
        assert scrape(url + "/nope", method="POST")[0] == 404

    def test_metrics_and_healthz(self, served):
        url, _, _, _ = served
        status, body = scrape(url + "/metrics")
        assert status == 200 and "repro_service_jobs_submitted" in body
        status, body = scrape(url + "/healthz")
        assert status == 200 and json.loads(body)["healthy"] is True


class TestQueuedJobRoutes:
    """Queue-state transitions need jobs that *stay* queued, so these
    run against an engine whose worker thread never starts."""

    @pytest.fixture()
    def parked(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg, start=False)
        eng._running = True  # accept submissions without draining them
        srv = ServiceServer(eng).start()
        try:
            yield srv.url, eng
        finally:
            srv.stop()
            eng._running = False

    def test_pending_result_is_202(self, parked):
        url, _ = parked
        _, body = post_job(url, "bfs", {"source": 0})
        job_id = json.loads(body)["job_id"]
        status, body = scrape(url + f"/jobs/{job_id}/result")
        assert status == 202 and json.loads(body)["status"] == "queued"

    def test_cancel_queued_then_conflict(self, parked):
        url, _ = parked
        _, body = post_job(url, "bfs", {"source": 0})
        job_id = json.loads(body)["job_id"]
        status, body = scrape(url + f"/jobs/{job_id}/cancel", method="POST")
        assert status == 200 and json.loads(body)["status"] == "cancelled"
        status, body = scrape(url + f"/jobs/{job_id}/cancel", method="POST")
        assert status == 409
        status, _ = scrape(url + f"/jobs/{job_id}/result")
        assert status == 409  # cancelled jobs have no result


class TestServerLifecycle:
    def test_ephemeral_ports_are_distinct(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4), g, wg)
        try:
            with ServiceServer(eng) as a, ServiceServer(eng) as b:
                assert a.port and b.port and a.port != b.port
                assert scrape(a.url + "/stats")[0] == 200
                assert scrape(b.url + "/stats")[0] == 200
        finally:
            eng.close()

    def test_url_before_start_raises(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4), g, wg, start=False)
        srv = ServiceServer(eng)
        with pytest.raises(RuntimeError, match="not started"):
            srv.url

    def test_bind_conflict_reports_port(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4), g, wg, start=False)
        srv = ServiceServer(eng).start()
        try:
            clash = ServiceServer(eng, port=srv.port)
            with pytest.raises(OSError, match="pass port=0"):
                clash.start()
        finally:
            srv.stop()

    def test_clean_shutdown(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        srv = ServiceServer(eng).start()
        url = srv.url
        _, body = post_job(url, "bfs", {"source": 0})
        job_id = json.loads(body)["job_id"]
        assert scrape(url + f"/jobs/{job_id}/result?wait=30")[0] == 200
        srv.stop()
        eng.close()
        with pytest.raises(OSError):
            from urllib.request import urlopen

            urlopen(url + "/stats", timeout=1)
        srv.stop()  # idempotent

"""HTTP front end for the graph service.

Extends the :class:`~repro.analysis.serve.MetricsServer` pattern — a
``ThreadingHTTPServer`` on a daemon thread, ephemeral ``port=0`` by
default with the bound port reported on ``.port`` — with job routes:

* ``POST /jobs`` ``{"algorithm": ..., "params": {...}}`` → **202** with
  the job snapshot; **429** when admission control refuses; **400** on
  validation errors or a negative ``Content-Length``; **413** when the
  declared body exceeds :data:`MAX_BODY_BYTES`.
* ``GET /jobs`` → all job snapshots (most recent last).
* ``GET /jobs/<id>`` → one job snapshot.
* ``GET /jobs/<id>/result[?wait=SECONDS]`` → **200** with the result
  once done, **202** while pending (after the optional wait), **409**
  for failed/cancelled jobs.
* ``POST /jobs/<id>/cancel`` → **200** when cancelled, **409** when the
  job already ran.
* ``GET /stats`` → engine snapshot (service counters, queue depth,
  cache residency, batching config).
* ``GET /metrics`` / ``GET /healthz`` — the machine's reflective
  Prometheus export and watchdog verdicts, same as the observability
  server, so one port serves both queries and scrapes.

Request handlers only touch the engine's thread-safe surface (submit /
job / cancel / stats_snapshot); all machine work stays on the engine's
single executor thread.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .engine import EngineBusy, GraphEngine, UnknownJob

#: Largest ``POST /jobs`` body read; a longer declared length gets 413
#: without reading (a job request is a few hundred bytes of JSON).
MAX_BODY_BYTES = 1 << 20


class _ServiceHTTPServer(ThreadingHTTPServer):
    # The stdlib default backlog of 5 resets connections under a burst
    # of concurrent submissions; the service exists to absorb bursts.
    request_queue_size = 128


class ServiceServer:
    """Background HTTP server bound to one :class:`GraphEngine`."""

    def __init__(
        self, engine: GraphEngine, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.engine = engine
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: The bound port (resolves port 0 to the ephemeral allocation).
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "ServiceServer":
        if self._httpd is not None:
            return self
        handler = _make_handler(self.engine)
        try:
            self._httpd = _ServiceHTTPServer(
                (self.host, self._requested_port), handler
            )
        except OSError as err:
            raise OSError(
                f"cannot bind service API on {self.host}:"
                f"{self._requested_port} ({err}); pass port=0 for an "
                f"ephemeral port and read it back from .port"
            ) from err
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-service-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError(
                "server not started; the bound port is only known after "
                "start()"
            )
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _make_handler(engine: GraphEngine):
    """A request-handler class closed over ``engine``."""

    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-service/1"

        # -- routing -------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path, query = self._split_path()
            try:
                if path == "/stats":
                    self._send_json(200, engine.stats_snapshot())
                elif path == "/jobs":
                    self._send_json(
                        200, {"jobs": [j.snapshot() for j in engine.jobs()]}
                    )
                elif path.startswith("/jobs/") and path.endswith("/result"):
                    self._get_result(path[len("/jobs/"):-len("/result")], query)
                elif path.startswith("/jobs/"):
                    job = engine.job(path[len("/jobs/"):])
                    self._send_json(200, job.snapshot())
                elif path == "/metrics":
                    from ..analysis.telemetry_export import to_prometheus

                    self._send(200, to_prometheus(engine.machine),
                               "text/plain; version=0.0.4")
                elif path == "/healthz":
                    ok, payload = engine.machine.health.check()
                    self._send_json(200 if ok else 503, payload)
                elif path == "/":
                    self._send_json(200, {
                        "routes": [
                            "POST /jobs", "GET /jobs", "GET /jobs/<id>",
                            "GET /jobs/<id>/result", "POST /jobs/<id>/cancel",
                            "GET /stats", "GET /metrics", "GET /healthz",
                        ]
                    })
                else:
                    self._send_json(404, {"error": f"no route {path}"})
            except UnknownJob as exc:
                self._send_json(404, {"error": f"unknown job {exc.args[0]!r}"})
            except Exception as exc:  # the API must never kill the engine
                self._safe_error(exc)

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            path, _ = self._split_path()
            try:
                if path == "/jobs":
                    self._submit()
                elif path.startswith("/jobs/") and path.endswith("/cancel"):
                    job_id = path[len("/jobs/"):-len("/cancel")]
                    if engine.cancel(job_id):
                        self._send_json(200, engine.job(job_id).snapshot())
                    else:
                        self._send_json(409, {
                            "error": "job is not cancellable",
                            "status": engine.job(job_id).status,
                        })
                else:
                    self._send_json(404, {"error": f"no POST route {path}"})
            except UnknownJob as exc:
                self._send_json(404, {"error": f"unknown job {exc.args[0]!r}"})
            except Exception as exc:
                self._safe_error(exc)

        # -- handlers ------------------------------------------------------
        def _submit(self) -> None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
                if length < 0:
                    raise ValueError(f"negative Content-Length {length}")
                if length > MAX_BODY_BYTES:
                    self._send_json(413, {
                        "error": f"request body of {length} bytes exceeds "
                        f"{MAX_BODY_BYTES}",
                    })
                    return
                body = json.loads(self.rfile.read(length) or b"{}")
                if not isinstance(body, dict):
                    raise ValueError("request body must be a JSON object")
            except (ValueError, json.JSONDecodeError) as exc:
                self._send_json(400, {"error": f"bad request body: {exc}"})
                return
            algorithm = body.get("algorithm")
            params = body.get("params") or {}
            try:
                job = engine.submit(algorithm, params)
            except EngineBusy as exc:
                self._send_json(429, {"error": str(exc)})
                return
            except (ValueError, RuntimeError) as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(202, job.snapshot())

        def _get_result(self, job_id: str, query: dict) -> None:
            job = engine.job(job_id)
            wait = query.get("wait")
            if wait is not None:
                job.wait(timeout=min(float(wait), 60.0))
            if job.status in ("queued", "running"):
                self._send_json(202, job.snapshot())
            elif job.status == "done":
                payload = job.snapshot()
                payload["result"] = job.result_payload()
                self._send_json(200, payload)
            else:  # failed / cancelled
                self._send_json(409, job.snapshot())

        # -- plumbing ------------------------------------------------------
        def _split_path(self) -> tuple[str, dict]:
            raw = self.path.split("?", 1)
            path = raw[0].rstrip("/") or "/"
            query: dict = {}
            if len(raw) == 2:
                for part in raw[1].split("&"):
                    if "=" in part:
                        k, v = part.split("=", 1)
                        query[k] = v
            return path, query

        def _safe_error(self, exc: Exception) -> None:
            try:
                self._send_json(500, {"error": repr(exc)})
            except Exception:  # pragma: no cover - client went away
                pass

        def _send(self, code: int, body: str, ctype: str) -> None:
            data = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _send_json(self, code: int, obj) -> None:
            self._send(code, json.dumps(obj, indent=2) + "\n",
                       "application/json")

        def log_message(self, fmt, *args) -> None:  # silence stderr spam
            pass

    return _Handler


__all__ = ["ServiceServer"]

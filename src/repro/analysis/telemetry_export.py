"""Telemetry exporters: Chrome-trace/Perfetto JSON and Prometheus text.

Two standard observability surfaces for a machine's telemetry:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by ``chrome://tracing`` and https://ui.perfetto.dev.
  Each rank becomes a process track (plus one ``driver`` track for
  rank ``-1`` activity); msg/handle/batch/phase spans become complete
  (``"X"``) events; chaos faults and retries become instants (``"i"``);
  message causality is drawn with flow events (``"s"``/``"f"``) so
  Perfetto renders the paper's Fig. 5-6 gather→gather→evaluate arrows.
* :func:`to_prometheus` — the Prometheus text exposition format, built
  by *reflection* over the stats dataclasses (``dataclasses.fields``),
  so a counter added to :class:`~repro.runtime.stats.TypeStats` or
  :class:`~repro.runtime.stats.ChaosStats` shows up here automatically.

Both formats ship with validating parsers (:func:`validate_chrome_trace`,
:func:`parse_prometheus`) used by CI so an export regression fails a
schema check rather than silently producing files Perfetto rejects.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from typing import Any, Optional

#: Chrome-trace categories per span kind.
_CATEGORIES = {
    "msg": "msg",
    "handle": "handle",
    "batch": "batch",
    "phase": "phase",
    "event": "event",
}


def _pid_of(rank: int, driver_pid: int) -> int:
    return rank if rank >= 0 else driver_pid


def to_chrome_trace(machine) -> dict:
    """Render a machine's recorded spans as a Chrome-trace JSON object.

    Requires ``Machine(telemetry="spans")``.  Timestamps are microseconds
    relative to telemetry start; one "process" per rank plus a ``driver``
    process for driver-side activity (rank ``-1``).
    """
    tel = machine.telemetry
    spans = tel.snapshot_spans()
    t0 = tel.t_start
    driver_pid = machine.n_ranks
    events: list[dict] = []

    # -- track metadata ------------------------------------------------------
    for rank in range(machine.n_ranks):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": rank,
                "tid": 0,
                "args": {"name": f"rank {rank}"},
            }
        )
    events.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": driver_pid,
            "tid": 0,
            "args": {"name": "driver"},
        }
    )

    def us(t: float) -> float:
        return round((t - t0) * 1e6, 3)

    by_sid = {sp.sid: sp for sp in spans}
    for sp in spans:
        pid = _pid_of(sp.rank, driver_pid)
        end = sp.t1 if sp.t1 is not None else sp.t0
        args: dict = {"sid": sp.sid, "epoch": sp.epoch}
        if sp.trace is not None:
            args["trace"] = sp.trace
        if sp.parent is not None:
            args["parent"] = sp.parent
        if sp.args:
            args.update(sp.args)
        if sp.kind == "event":
            events.append(
                {
                    "ph": "i",
                    "name": sp.name,
                    "cat": _CATEGORIES["event"],
                    "ts": us(sp.t0),
                    "pid": pid,
                    "tid": 0,
                    "s": "p",  # process-scoped instant
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "ph": "X",
                "name": f"{sp.kind}:{sp.name}",
                "cat": _CATEGORIES.get(sp.kind, sp.kind),
                "ts": us(sp.t0),
                "dur": max(round((end - sp.t0) * 1e6, 3), 0.001),
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
        # -- causality arrows -------------------------------------------------
        if sp.kind == "handle" and sp.parent in by_sid:
            msg = by_sid[sp.parent]
            events.append(
                {
                    "ph": "s",
                    "name": f"msg:{msg.name}",
                    "cat": "flow",
                    "id": msg.sid,
                    "ts": us(msg.t0),
                    "pid": _pid_of(msg.rank, driver_pid),
                    "tid": 0,
                }
            )
            events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "name": f"msg:{msg.name}",
                    "cat": "flow",
                    "id": msg.sid,
                    "ts": us(sp.t0),
                    "pid": pid,
                    "tid": 0,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "n_ranks": machine.n_ranks,
            "telemetry": tel.summary(),
        },
    }


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_chrome_trace(machine, path: str) -> dict:
    """Write :func:`to_chrome_trace` output to ``path``; returns the dict."""
    obj = to_chrome_trace(machine)
    _ensure_parent(path)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return obj


def validate_chrome_trace(obj: Any) -> list[str]:
    """Schema-check a Chrome-trace object; returns a list of problems
    (empty when valid).  Covers the subset of the Trace Event Format this
    package emits — enough for CI to catch export regressions."""
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    flow_starts: set = set()
    flow_ends: set = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "s", "f", "M"):
            errors.append(f"{where}: unknown ph {ph!r}")
            continue
        for key in ("pid", "tid") if ph != "M" else ("pid",):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} must be an int")
        if ph == "M":
            if "name" not in ev or "args" not in ev:
                errors.append(f"{where}: metadata needs name and args")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing name")
        if not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs dur >= 0")
        if ph == "i" and ev.get("s") not in ("g", "p", "t"):
            errors.append(f"{where}: instant needs scope s in g/p/t")
        if ph in ("s", "f"):
            if "id" not in ev:
                errors.append(f"{where}: flow event needs id")
            else:
                (flow_starts if ph == "s" else flow_ends).add(ev["id"])
    for fid in flow_ends - flow_starts:
        errors.append(f"flow finish id {fid} has no start")
    return errors


# -- Prometheus -----------------------------------------------------------------

_METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _esc(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _PromWriter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self._declared: set[str] = set()

    def declare(self, name: str, mtype: str, help_text: str) -> None:
        if name in self._declared:
            return
        self._declared.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {mtype}")

    def sample(self, name: str, labels: dict[str, str], value) -> None:
        if labels:
            body = ",".join(f'{k}="{_esc(str(v))}"' for k, v in sorted(labels.items()))
            self.lines.append(f"{name}{{{body}}} {value}")
        else:
            self.lines.append(f"{name} {value}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def to_prometheus(machine) -> str:
    """Render a machine's statistics + telemetry counters as Prometheus
    text exposition format.

    Per-type counters (:class:`TypeStats`) and chaos counters
    (:class:`ChaosStats`) are exported by reflection over their dataclass
    fields, so new counters appear here without touching this module.
    Works at any telemetry level; phase counters require ``counters`` or
    ``spans``.
    """
    stats = machine.stats
    tel = machine.telemetry
    w = _PromWriter()

    # -- per-message-type counters (reflective) ------------------------------
    for fld in dataclasses.fields(next(iter(stats.by_type.values()))) if stats.by_type else []:
        metric = f"repro_type_{fld.name}"
        kind = "counter" if fld.type in ("int", int) else "gauge"
        w.declare(metric, kind, f"TypeStats.{fld.name} per message type")
        for name, ts in sorted(stats.by_type.items()):
            w.sample(metric, {"type": name}, getattr(ts, fld.name))

    # -- run totals (reflective over EpochStats) -----------------------------
    for fld in dataclasses.fields(stats.total):
        if fld.name == "epoch_index":
            continue
        metric = f"repro_total_{fld.name}"
        w.declare(metric, "counter", f"EpochStats.{fld.name} over the whole run")
        w.sample(metric, {}, getattr(stats.total, fld.name))
    w.declare("repro_epochs", "counter", "epochs completed")
    w.sample("repro_epochs", {}, len(stats.epochs))

    # -- chaos / reliability (reflective over ChaosStats) --------------------
    for fld in dataclasses.fields(stats.chaos):
        metric = f"repro_chaos_{fld.name}"
        w.declare(metric, "counter", f"ChaosStats.{fld.name}")
        w.sample(metric, {}, getattr(stats.chaos, fld.name))

    # -- checkpoint / recovery (reflective over CheckpointStats) -------------
    for fld in dataclasses.fields(stats.checkpoint):
        metric = f"repro_checkpoint_{fld.name}"
        w.declare(metric, "counter", f"CheckpointStats.{fld.name}")
        w.sample(metric, {}, getattr(stats.checkpoint, fld.name))
    w.declare(
        "repro_checkpoint_dirty_fraction",
        "gauge",
        "fraction of visited chunks re-encoded at capture time",
    )
    w.sample(
        "repro_checkpoint_dirty_fraction",
        {},
        f"{stats.checkpoint.dirty_fraction:.9f}",
    )

    # -- vector-tier fusion (reflective over FusionStats) --------------------
    for fld in dataclasses.fields(stats.fusion):
        metric = f"repro_fusion_{fld.name}"
        kind = "counter" if fld.type in ("int", int) else "gauge"
        w.declare(metric, kind, f"FusionStats.{fld.name}")
        value = getattr(stats.fusion, fld.name)
        w.sample(metric, {}, f"{value:.9f}" if isinstance(value, float) else value)

    # -- partition quality (reflective over PartitionStats) ------------------
    part = stats.partition
    w.declare("repro_partition_info", "gauge", "attached partitioner (label)")
    w.sample("repro_partition_info", {"kind": part.kind or "none"}, 1)
    for fld in dataclasses.fields(part):
        if fld.name == "kind":
            continue  # exported as the info label above
        metric = f"repro_partition_{fld.name}"
        kind = "counter" if fld.name == "rebalances" else "gauge"
        w.declare(metric, kind, f"PartitionStats.{fld.name}")
        value = getattr(part, fld.name)
        w.sample(metric, {}, f"{value:.9f}" if isinstance(value, float) else value)

    # -- graph service layer (reflective over ServiceStats) ------------------
    for fld in dataclasses.fields(stats.service):
        metric = f"repro_service_{fld.name}"
        kind = "gauge" if fld.name.startswith("cache_") and fld.name.endswith(
            ("entries", "bytes")
        ) else "counter"
        w.declare(metric, kind, f"ServiceStats.{fld.name}")
        w.sample(metric, {}, getattr(stats.service, fld.name))

    # -- live health (reflective over HealthStats) ---------------------------
    health = getattr(machine, "health", None)
    if health is not None and health.enabled:
        # Scrape-time refresh: memory accounting walks property maps and
        # shm segments here — never on the hot path.
        health.refresh_skew()
        health.refresh_memory()
        for fld in dataclasses.fields(stats.health):
            metric = f"repro_health_{fld.name}"
            kind = (
                "gauge" if fld.name.endswith(("_bytes", "_skew")) else "counter"
            )
            w.declare(metric, kind, f"HealthStats.{fld.name}")
            value = getattr(stats.health, fld.name)
            w.sample(
                metric,
                {},
                f"{value:.9f}" if isinstance(value, float) else value,
            )
        w.declare(
            "repro_health_rank_messages",
            "counter",
            "logical payloads delivered per rank",
        )
        w.declare(
            "repro_health_rank_handler_seconds",
            "counter",
            "handler wall seconds per rank",
        )
        for r in range(machine.n_ranks):
            labels = {"rank": str(r)}
            w.sample("repro_health_rank_messages", labels, health.msgs_by_rank[r])
            w.sample(
                "repro_health_rank_handler_seconds",
                labels,
                f"{health.handler_seconds_by_rank[r]:.9f}",
            )
        w.declare(
            "repro_health_watchdog_firing",
            "gauge",
            "1 while the named watchdog is firing",
        )
        for name, v in sorted(health.verdicts.items()):
            w.sample(
                "repro_health_watchdog_firing", {"watchdog": name}, int(v.firing)
            )

    # -- telemetry phase counters --------------------------------------------
    counters = tel.counters_snapshot()
    if counters:
        w.declare("repro_phase_invocations", "counter", "phase scope entries")
        w.declare("repro_phase_seconds", "counter", "seconds inside phase scopes")
    for (phase, rank), (count, secs) in sorted(counters.items()):
        labels = {"phase": phase, "rank": str(rank)}
        w.sample("repro_phase_invocations", labels, count)
        w.sample("repro_phase_seconds", labels, f"{secs:.9f}")
    summ = tel.summary()
    w.declare("repro_spans_recorded", "gauge", "spans in the telemetry ring buffer")
    w.sample("repro_spans_recorded", {}, summ["spans_recorded"])
    w.declare("repro_spans_evicted", "counter", "spans evicted from the ring buffer")
    w.sample("repro_spans_evicted", {}, summ["spans_evicted"])
    w.declare("repro_traces_sampled_out", "counter", "whole traces dropped by sampling")
    w.sample("repro_traces_sampled_out", {}, summ["traces_sampled_out"])
    return w.text()


def write_prometheus(machine, path: str) -> str:
    text = to_prometheus(machine)
    _ensure_parent(path)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def parse_prometheus(text: str) -> tuple[dict, list[str]]:
    """Parse (and lint, promtool-style) Prometheus text exposition.

    Returns ``(samples, errors)`` where ``samples`` maps
    ``(metric, frozenset(label items))`` to a float value and ``errors``
    lists lint problems: samples without a preceding TYPE, malformed
    metric/label names, non-numeric values, duplicate samples, duplicate
    HELP/TYPE declarations, HELP/TYPE lines appearing *after* the
    metric's samples (Prometheus requires declaration-first grouping),
    HELP without a matching TYPE, and HELP/TYPE lines for metrics that
    never produce a sample.
    """
    samples: dict = {}
    errors: list[str] = []
    typed: set[str] = set()
    helped: set[str] = set()
    sampled: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                errors.append(f"line {lineno}: malformed {parts[1]} line")
                continue
            name = parts[2]
            if not _METRIC_RE.match(name):
                errors.append(f"line {lineno}: bad metric name {name!r}")
            if name in sampled:
                errors.append(
                    f"line {lineno}: {parts[1]} for {name} after its samples"
                )
            if parts[1] == "HELP":
                if name in helped:
                    errors.append(f"line {lineno}: duplicate HELP for {name}")
                helped.add(name)
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    errors.append(f"line {lineno}: bad metric type {parts[3]!r}")
                if name in typed:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                typed.add(name)
            continue
        if line.startswith("#"):
            continue
        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$", line)
        if not m:
            errors.append(f"line {lineno}: unparsable sample {line!r}")
            continue
        name, _, labelstr, value = m.groups()
        labels = {}
        if labelstr:
            for item in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', labelstr):
                labels[item[0]] = item[1]
            # crude but effective: every k="v" pair must be accounted for
            reconstructed = ",".join(f'{k}="{v}"' for k, v in
                                     re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', labelstr))
            if reconstructed.replace(" ", "") != labelstr.replace(" ", ""):
                errors.append(f"line {lineno}: malformed labels {labelstr!r}")
        for k in labels:
            if not _LABEL_RE.match(k):
                errors.append(f"line {lineno}: bad label name {k!r}")
        try:
            val = float(value)
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value {value!r}")
            continue
        if name not in typed:
            errors.append(f"line {lineno}: sample for {name} without TYPE")
        key = (name, frozenset(labels.items()))
        if key in samples:
            errors.append(f"line {lineno}: duplicate sample for {name}{labels}")
        samples[key] = val
        sampled.add(name)
    for name in typed - sampled:
        errors.append(f"metric {name} declared but has no samples")
    for name in helped - typed:
        errors.append(f"metric {name} has HELP but no TYPE")
    return samples, errors

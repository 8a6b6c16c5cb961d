"""Flight recorder: an always-on black box for the runtime.

Production graph engines treat post-mortem observability as a first-class
concern: when a rank dies mid-epoch, the question is never "what was the
final state" (the checkpoint answers that) but "what was the machine
*doing* in the seconds before it died".  The :class:`FlightRecorder`
answers it with a bounded per-rank ring buffer of structured runtime
events — epoch boundaries, termination-detector probes, reliable-delivery
retries, chaos faults, checkpoint captures, recovery rollbacks, graph
mutations — recorded unconditionally (unlike telemetry, which defaults
to ``off``) at a cost of one deque append per *coarse* runtime event,
never per message.

Design constraints:

* **Always on, negligible overhead.**  Events fire at epoch/probe/fault
  granularity (tens to hundreds per run), not per payload; recording is
  a lock-guarded seq bump plus a ``deque.append`` into a bounded ring,
  so the C6 overhead budget (<= 1.10x with health counters included,
  ``BENCH_observe.json``) holds with room to spare.  ``Machine(
  observe=False)`` disarms it entirely for A/B benches.
* **Crash-proof.**  The recorder dumps itself to JSONL automatically
  when a :class:`~repro.runtime.recovery.RankCrashed` or any other
  exception unwinds an epoch (``Epoch.__exit__``), and again is attached
  to the recovery report — every crash ships a black box of the last N
  events per rank even if the process dies before the driver regains
  control.
* **Causally mergeable.**  Every event carries a per-recorder monotonic
  sequence number and a wall-clock timestamp; process-transport workers
  namespace their sequence numbers (like telemetry span ids) so dumps
  from many ranks/processes merge into one totally-ordered timeline —
  ``repro flight dump1.jsonl dump2.jsonl`` prints it.

Event kinds recorded by the runtime (the set is open — ``record()``
accepts any kind):

===================  ==========================================================
``epoch_enter``      an epoch scope opened (args: epoch index)
``epoch_exit``       an epoch finished quiescent (args: epoch, sent, handled,
                     wall seconds)
``epoch_abort``      an exception unwound an epoch (args: error type/text)
``probe``            a termination-detector probe (args: result)
``fault``            a chaos fault was injected (kind/arg/tick/decision)
``retry``            the reliable layer retransmitted (channel/seq/tick)
``crash``            a rank died (:class:`RankCrashed` is about to be raised)
``checkpoint``       a snapshot was captured (index/epoch/full)
``restore``          a checkpoint was restored (index/epoch)
``recovery``         the coordinator rolled back and is replaying
``mutation``         a graph mutation batch was applied (version/op counts)
``health``           a watchdog verdict changed (name/firing/detail)
``sync``             a process-transport worker shipped its sync blob home
``dump``             the recorder wrote itself to disk (path/reason)
===================  ==========================================================
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from time import time as _wall
from typing import Iterable, Optional

#: Environment variable naming the auto-dump directory.  ``off`` (or
#: ``0`` / empty) disables automatic crash dumps; unset falls back to
#: ``FlightConfig.dir`` and finally the system temp directory.
ENV_DIR = "REPRO_FLIGHT_DIR"


@dataclass(frozen=True)
class FlightConfig:
    """Flight-recorder knobs.

    ``capacity`` bounds each per-rank ring (rank ``-1`` is the driver);
    ``dir`` names where crash dumps land (``None``: ``$REPRO_FLIGHT_DIR``,
    else the system temp dir); ``probes`` opts detector-probe events out
    for workloads with very chatty ``try_finish`` loops.
    """

    capacity: int = 256
    dir: Optional[str] = None
    probes: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("flight capacity must be >= 1")


class FlightRecorder:
    """Bounded per-rank ring buffers of structured runtime events."""

    def __init__(self, machine=None, config: Optional[FlightConfig] = None,
                 *, enabled: bool = True) -> None:
        self.machine = machine
        self.config = config or FlightConfig()
        #: False only under ``Machine(observe=False)``: every record()
        #: collapses to one attribute check.
        self.enabled = enabled
        self._rings: dict[int, deque] = {}
        self._lock = threading.Lock()
        self._seq = 0
        #: Sequence-number base; process-transport workers re-base theirs
        #: post-fork so merged events never collide with the parent's.
        self.seq_base = 0
        #: Path of the most recent dump (crash dumps land here too).
        self.last_dump: Optional[str] = None
        self._dumps = 0

    # -- recording -----------------------------------------------------------
    def record(self, kind: str, rank: int = -1, **args) -> None:
        """Append one event to ``rank``'s ring (coarse events only —
        never call this per message)."""
        if not self.enabled:
            return
        with self._lock:
            self._seq += 1
            ring = self._rings.get(rank)
            if ring is None:
                ring = deque(maxlen=self.config.capacity)
                self._rings[rank] = ring
            ring.append((self.seq_base + self._seq, _wall(), kind,
                         args or None))

    def record_probe(self, result: bool) -> None:
        """Detector-probe event, gated by ``config.probes``."""
        if self.config.probes:
            self.record("probe", result=bool(result))

    # -- access --------------------------------------------------------------
    def events(self, rank: Optional[int] = None) -> list[dict]:
        """Events as dicts, sequence-ordered (one rank, or all merged)."""
        with self._lock:
            if rank is not None:
                raw = [(rank, e) for e in self._rings.get(rank, ())]
            else:
                raw = [(r, e) for r, ring in self._rings.items()
                       for e in ring]
        raw.sort(key=lambda re: re[1][0])
        return [_as_dict(r, e) for r, e in raw]

    def tail(self, n: int = 16) -> list[dict]:
        """The newest ``n`` events across every rank (for ``/status``)."""
        return self.events()[-n:]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(r) for r in self._rings.values())

    def clear(self) -> None:
        """Drop buffered events; sequence numbers keep advancing (the
        process transport clears after shipping a sync blob)."""
        with self._lock:
            self._rings = {}

    # -- process-transport support --------------------------------------------
    def reset_after_fork(self, rank: int) -> None:
        """Worker-side: fresh rings, namespaced sequence numbers."""
        self._lock = threading.Lock()
        self._rings = {}
        self._seq = 0
        self.seq_base = (rank + 1) * 10 ** 12
        self.last_dump = None
        self._dumps = 0

    def export_state(self) -> list:
        """Worker-side: the rings as plain data for the sync blob."""
        with self._lock:
            return [
                (r, list(ring)) for r, ring in self._rings.items() if ring
            ]

    def merge_state(self, state: list) -> None:
        """Parent-side: fold one worker's shipped rings into ours."""
        with self._lock:
            for r, events in state:
                ring = self._rings.get(r)
                if ring is None:
                    ring = deque(maxlen=self.config.capacity)
                    self._rings[r] = ring
                ring.extend(tuple(e) for e in events)

    # -- dumping ---------------------------------------------------------------
    def dump(self, path: str, *, reason: str = "manual") -> str:
        """Write every buffered event to ``path`` as JSONL; returns path."""
        events = self.events()
        parent = os.path.dirname(os.path.abspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            for ev in events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")
        self.last_dump = path
        self.record("dump", path=path, reason=reason)
        return path

    def _auto_dir(self) -> Optional[str]:
        env = os.environ.get(ENV_DIR)
        if env is not None:
            if env.strip().lower() in ("off", "0", ""):
                return None
            return env
        if self.config.dir:
            return self.config.dir
        import tempfile

        return os.path.join(tempfile.gettempdir(), "repro-flight")

    def auto_dump(self, reason: str) -> Optional[str]:
        """Crash-path dump into the auto directory (``$REPRO_FLIGHT_DIR``).

        Returns the dump path, or ``None`` when disabled/empty.  Each dump
        gets a fresh file so multi-crash recovery runs keep every black
        box.
        """
        if not self.enabled or not len(self):
            return None
        directory = self._auto_dir()
        if directory is None:
            return None
        self._dumps += 1
        name = f"flight-{os.getpid()}-{self._dumps}.jsonl"
        try:
            return self.dump(os.path.join(directory, name), reason=reason)
        except OSError:  # pragma: no cover - disk full / perms: best effort
            return None


def _as_dict(rank: int, event: tuple) -> dict:
    seq, t, kind, args = event
    out = {"seq": seq, "t": t, "rank": rank, "kind": kind}
    if args:
        for k, v in args.items():
            # Never let an event arg shadow the envelope fields the
            # merge/dedup machinery keys on.
            out["arg_" + k if k in out else k] = v
    return out


# -- dump inspection (repro flight) ---------------------------------------------


def load_flight_dump(path: str) -> list[dict]:
    """Parse one JSONL flight dump; raises ValueError on malformed lines."""
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            if not isinstance(ev, dict) or "seq" not in ev or "kind" not in ev:
                raise ValueError(f"{path}:{lineno}: not a flight event")
            events.append(ev)
    return events


def merge_flight_events(dumps: Iterable[list[dict]]) -> list[dict]:
    """Merge several dumps into one causally-ordered timeline.

    Within one recorder the sequence number is the causal order; across
    recorders (worker processes, separate runs) wall-clock time breaks
    ties.  Sorting by ``(t, seq)`` therefore preserves per-recorder
    causality exactly while interleaving recorders sensibly; exact
    duplicates (the same event in two dumps) collapse to one.
    """
    seen: set[tuple] = set()
    merged: list[dict] = []
    for events in dumps:
        for ev in events:
            key = (ev.get("seq"), ev.get("t"), ev.get("rank"), ev.get("kind"))
            if key in seen:
                continue
            seen.add(key)
            merged.append(ev)
    merged.sort(key=lambda e: (e.get("t", 0.0), e.get("seq", 0)))
    return merged


def render_flight_timeline(events: list[dict]) -> str:
    """Human-readable timeline of merged flight events."""
    if not events:
        return "(no flight events)"
    t0 = events[0].get("t", 0.0)
    lines = []
    for ev in events:
        extras = {k: v for k, v in ev.items()
                  if k not in ("seq", "t", "rank", "kind")}
        detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
        lines.append(
            f"{ev.get('t', 0.0) - t0:>10.4f}s  rank {ev.get('rank', -1):>3}  "
            f"{ev.get('kind', '?'):<14} {detail}".rstrip()
        )
    return "\n".join(lines)


__all__ = [
    "ENV_DIR",
    "FlightConfig",
    "FlightRecorder",
    "load_flight_dump",
    "merge_flight_events",
    "render_flight_timeline",
]

"""Always-on flight recorder: bounded per-rank rings of recent events.

The tracer (:mod:`repro.trace`) is opt-in and unbounded; the flight
recorder is the opposite — *always armed*, O(capacity) memory per rank,
and interesting precisely when a run dies.  :mod:`repro.obs` records
small fixed-shape :class:`FlightEvent` objects (exchange rounds,
achieved error vs ``e_tol``, resilience events, heartbeat verdicts,
recovery phases) and per-rank live fields into the installed *sink*
(protocol: ``record`` / ``update`` / ``add_many``); when
a rank fails, a collective aborts, a retry budget is exhausted or the
user sends ``SIGUSR1``, the last-N events per rank are dumped as a
black-box crash report (:mod:`repro.telemetry.blackbox`).

Two sinks exist:

* :class:`FlightRecorder` (here) — in-process deques, the default, used
  by the thread and virtual runtimes;
* :class:`~repro.telemetry.shmseg.ShmTelemetry` — a shared-memory segment,
  installed inside each :class:`~repro.runtime.proc.ProcessWorld` rank
  so the parent can recover a dead child's ring post-mortem.

This module deliberately imports nothing from the rest of the package,
and the disabled path is one attribute load + branch so the recorder
can stay on in production.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightEvent",
    "FlightRecorder",
    "flight",
    "live_update",
    "live_add_many",
    "get_recorder",
    "install_sink",
    "reset",
    "configure",
    "is_enabled",
]

#: Ring capacity (events per rank) of the default in-process recorder.
DEFAULT_CAPACITY = 256


@dataclass(slots=True)
class FlightEvent:
    """One recorded moment: a fixed, serialisable shape shared by the
    in-process and shared-memory rings (strings are truncated by the
    shm backend; keep ``kind`` ≤ 16 and ``detail`` ≤ 40 bytes)."""

    kind: str
    rank: int
    t_ns: int = 0
    seq: int = 0
    peer: int = -1
    round: int = -1
    value: float = 0.0
    value2: float = 0.0
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        peer = f" peer={self.peer}" if self.peer >= 0 else ""
        rnd = f" round={self.round}" if self.round >= 0 else ""
        return (
            f"[{self.kind}] rank={self.rank}{peer}{rnd} "
            f"value={self.value:g} {self.detail}".rstrip()
        )


#: CLOCK_MONOTONIC nanoseconds — comparable across forked ranks.
_now_ns = time.perf_counter_ns


class FlightRecorder:
    """In-process sink: one bounded deque of events per rank.

    Thread-safe (rank threads of a :class:`ThreadWorld` record
    concurrently); memory is strictly ``capacity`` events per observed
    rank plus one live-state dict per rank.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._rings: dict[int, deque[FlightEvent]] = {}
        self._live: dict[int, dict[str, Any]] = {}  # rank -> {"phase": ..., <field>: ...}
        self._seq = 0

    def _row(self, rank: int) -> dict[str, Any]:
        """One rank's live row (caller holds the lock)."""
        row = self._live.get(rank)
        if row is None:
            row = self._live[rank] = {"phase": ""}
        return row

    # -- sink protocol (shared with ShmTelemetry) ----------------------------------------

    def record(
        self,
        kind: str,
        rank: int,
        peer: int = -1,
        round_: int = -1,
        value: float = 0.0,
        value2: float = 0.0,
        detail: str = "",
        t_ns: int | None = None,
    ) -> FlightEvent:
        # Hot path: no type coercions (callers are internal and pass the
        # documented types) and the timestamp is taken outside the lock.
        now = _now_ns() if t_ns is None else t_ns
        rank = int(rank)
        with self._lock:
            self._seq += 1
            event = FlightEvent(kind, rank, now, self._seq, peer, round_, value, value2, detail)
            ring = self._rings.get(rank)
            if ring is None:
                ring = deque(maxlen=self.capacity)
                self._rings[rank] = ring
            ring.append(event)
            row = self._row(rank)
            row["events"] = row.get("events", 0.0) + 1.0
            row["heartbeat_ns"] = float(now)
        return event

    def update(self, rank: int, updates: dict[str, Any]) -> None:
        with self._lock:
            row = self._row(int(rank))
            row.update(updates)
            row["heartbeat_ns"] = float(_now_ns())

    def add_many(
        self,
        rank: int,
        deltas: dict[str, float],
        sets: dict[str, float] | None = None,
    ) -> None:
        """Accumulate (and optionally set) several live gauges in one lock
        acquisition — the per-exchange hot path publishes its round
        counters and error gauges through a single call here."""
        with self._lock:
            row = self._row(int(rank))
            for name, delta in deltas.items():
                row[name] = row.get(name, 0.0) + delta
            if sets:
                row.update(sets)

    # -- introspection ---------------------------------------------------------------

    def events(self, rank: int | None = None) -> list[FlightEvent]:
        """Snapshot of one rank's ring (or every ring, seq-ordered)."""
        with self._lock:
            if rank is not None:
                return list(self._rings.get(int(rank), ()))
            merged: list[FlightEvent] = []
            for ring in self._rings.values():
                merged.extend(ring)
        return sorted(merged, key=lambda e: e.seq)

    def events_by_rank(self) -> dict[int, list[FlightEvent]]:
        with self._lock:
            return {r: list(ring) for r, ring in self._rings.items()}

    def live_snapshot(self) -> dict[int, dict[str, Any]]:
        """Per-rank live state: ``{rank: {"phase": ..., <field>: ...}}``."""
        with self._lock:
            return {rank: dict(row) for rank, row in self._live.items()}

    def clear(self) -> None:
        with self._lock:
            self._rings.clear()
            self._live.clear()
            self._seq = 0


# -- module-global always-on sink ----------------------------------------------------
#
# `flight()` is called from exchange hot paths, so the disabled/enabled
# checks are a single global load each.  There is always a sink
# installed (the recorder is "always armed"); `configure(enabled=False)`
# exists for the overhead benchmark's baseline and for users who truly
# want zero instrumentation.

_enabled: bool = True
_sink: Any = FlightRecorder()
_default_recorder: FlightRecorder = _sink


def is_enabled() -> bool:
    return _enabled


def configure(*, enabled: bool | None = None, capacity: int | None = None) -> None:
    """Reconfigure the global recorder (``enabled=False`` disarms it)."""
    global _enabled, _sink, _default_recorder
    if capacity is not None:
        _default_recorder = FlightRecorder(capacity)
        _sink = _default_recorder
    if enabled is not None:
        _enabled = bool(enabled)


def get_recorder() -> Any:
    """The installed sink (a :class:`FlightRecorder` unless a runtime
    swapped in a shared-memory sink)."""
    return _sink


def install_sink(sink: Any) -> Any:
    """Swap the global sink (returns the previous one).

    The process runtime installs its :class:`~repro.telemetry.shmseg.ShmTelemetry`
    inside each forked rank so events land in shared memory.
    """
    global _sink
    prev = _sink
    _sink = sink if sink is not None else _default_recorder
    return prev


def reset(capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Fresh default recorder, armed (tests isolate through this)."""
    global _enabled, _sink, _default_recorder
    _default_recorder = FlightRecorder(capacity)
    _sink = _default_recorder
    _enabled = True
    return _default_recorder


def flight(
    kind: str,
    rank: int,
    *,
    peer: int = -1,
    round_: int = -1,
    value: float = 0.0,
    value2: float = 0.0,
    detail: str = "",
) -> None:
    """Record one flight event into the armed ring (no-op when disarmed)."""
    if not _enabled:
        return
    try:
        _sink.record(kind, rank, peer, round_, value, value2, detail)
    except Exception:  # noqa: BLE001 - telemetry must never kill a rank
        pass


def live_update(rank: int, **fields: Any) -> None:
    """Set live per-rank fields (``phase`` plus any live kind of :data:`repro.obs.KINDS`)."""
    if not _enabled:
        return
    try:
        _sink.update(rank, fields)
    except Exception:  # noqa: BLE001
        pass


def live_add_many(
    rank: int,
    deltas: dict[str, float],
    sets: dict[str, float] | None = None,
) -> None:
    """Accumulate (``deltas``) and set (``sets``) live per-rank fields in
    one sink call."""
    if not _enabled:
        return
    try:
        _sink.add_many(rank, deltas, sets)
    except Exception:  # noqa: BLE001
        pass

"""One instrumentation path: emit once, derive every view.

Instrumented code calls only this module.  Three calls and one
epilogue cover every site:

* :func:`span` — a timed scope (``with obs.span("pack", rank, peer=d):``);
* :func:`count` — add to a typed counter;
* :func:`event` — one moment in a rank's life (a ring record, a
  lifecycle state, a labelled metric, or an interval known only in
  hindsight);
* :func:`publish_round` — the single epilogue of every exchange path
  (compressed flat and two-level, OSC, pairwise, reference, virtual):
  one round's volumes, error against ``e_tol`` and resilience record.

What each kind feeds is decided by one table, :data:`KINDS`.  Behind it
sit the sinks:

* the opt-in **tracer** (:mod:`repro.trace`) — spans, counters,
  instants; one global load and a branch when none is installed;
* the always-on **flight ring** and **live store** — the installed
  sink of :mod:`repro.telemetry.recorder`: an in-process
  :class:`~repro.telemetry.recorder.FlightRecorder`, or the shared
  memory segment inside :class:`~repro.runtime.proc.ProcessWorld`
  ranks, whose per-rank slots are laid out from this table;
* the **metrics registry** — its per-rank series are fed from the same
  live totals, but only by the in-process store (a forked rank's
  registry dies with it; the parent replays the rank's shared-memory
  totals through :func:`replay` instead), with series handles
  resolved once per process.

Cost rules: per-message spans (pack, compress, put, …) are tracer-only,
so they cost nothing new when no tracer is installed; only the phase
kinds (fft, exchange, local_fft, recovery phases) touch the live store
on entry.  Every always-on write is best-effort: telemetry never raises
into a rank.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.telemetry import recorder as _rec
from repro.telemetry.metrics import Counter, Gauge, Histogram, get_registry
from repro.trace import core as _trace

__all__ = ["KINDS", "Kind", "ExchangeStats", "span", "count", "event", "publish_round", "replay"]


class Kind(NamedTuple):
    """One row of the kind table; every column defaults to "not fed"."""

    span: bool = False  # a tracer span kind (opened with span())
    phase: str = ""  # live phase set on span entry / by event()
    sets: tuple = ()  # further live fields set together with the phase
    ring: bool = False  # recorded in the flight ring (phase spans: on exit, value = seconds)
    live: str = ""  # live per-rank field: "sum" (accumulated) or "set" (gauge); one shm slot each
    metric: str = ""  # registry series (labelled by rank unless `labels` says otherwise)
    labels: tuple = ()  # attrs that label the metric instead of the rank


_SPAN = Kind(span=True)
_RING = Kind(ring=True)
_ALIVE = (("alive", 1.0),)
_DEAD = (("alive", 0.0),)
_RECOVERY = dict(span=True, ring=True, metric="repro_recoveries_total", labels=("phase", "runtime"))

#: The one kind table: spans, counters, live fields, ring events, metrics.
KINDS: dict[str, Kind] = {
    # -- spans: the paper's time decomposition (Alg. 1 / Alg. 3), then structure
    "pack": _SPAN,  # extract the contiguous chunk owed to one destination
    "compress": _SPAN,  # codec encode (incl. wire framing) for one destination
    "put": _SPAN,  # one-sided write into a remote window
    "fence": _SPAN,  # RMA epoch open/close synchronisation
    "decompress": _SPAN,  # frame walk + codec decode of one source block
    "unpack": _SPAN,  # insert a received chunk into the output block
    "sendrecv": _SPAN,  # one two-sided ring step (pairwise, two-level stages)
    "checkpoint": _SPAN,  # CRC-framed pencil checkpoint save/load
    "retry": Kind(span=True, ring=True),  # recovery rounds; as an event: a same-codec retry
    "local_fft": Kind(span=True, phase="local_fft"),  # batched 1-D FFT phase
    "exchange": Kind(span=True, phase="exchange"),  # whole all-to-all of one reshape
    "fft": Kind(span=True, phase="fft", sets=_ALIVE, ring=True),  # one transform
    "detect": Kind(span=True, ring=True),  # last beacon -> failure declaration (hindsight)
    "agree": Kind(phase="agree", **_RECOVERY),  # ULFM agree on the survivor set
    "shrink": Kind(phase="shrink", **_RECOVERY),  # communicator rebuild over the survivors
    "restart": Kind(phase="restart", **_RECOVERY),  # checkpointed resume after a shrink
    # -- counters (tracer; live + registry where a column says so)
    "rounds": Kind(live="sum", metric="repro_exchange_rounds_total"),
    "messages": Kind(live="sum", metric="repro_messages_total"),
    "logical_bytes": Kind(live="sum", metric="repro_logical_bytes_total"),
    "wire_bytes": Kind(live="sum", metric="repro_wire_bytes_total"),
    "retries": Kind(live="sum", metric="repro_retries_total"),
    "degradations": Kind(live="sum", metric="repro_degradations_total"),
    "retransmissions": Kind(),  # blocks re-sent during recovery
    "internode_messages": Kind(),  # aggregated NIC crossings (two-level exchange)
    "pool_hits": Kind(metric="repro_pool_hits_total", labels=("pool",)),
    "pool_misses": Kind(metric="repro_pool_misses_total", labels=("pool",)),
    # -- live gauges and lifecycle fields
    "compression_ratio": Kind(live="set", metric="repro_compression_ratio"),
    "link_bandwidth": Kind(live="set", metric="repro_link_bandwidth_bytes_per_s"),
    "achieved_error": Kind(live="set", metric="repro_achieved_error"),
    "error_headroom": Kind(live="set", metric="repro_error_headroom"),
    "e_tol": Kind(live="set"),
    "alive": Kind(live="set"),
    "done": Kind(live="set"),
    "heartbeat_ns": Kind(live="set"),  # stamped by the sinks on every write
    "events": Kind(live="sum"),  # ring records so far (bumped by the sinks)
    "start": Kind(phase="start", sets=_ALIVE),
    "idle": Kind(phase="idle"),
    "finish": Kind(phase="done", sets=(("done", 1.0),)),
    "failed": Kind(phase="failed", sets=_DEAD),
    "abort": Kind(ring=True, phase="failed", sets=_DEAD),  # world abort / kernel exception
    "fault-kill": Kind(ring=True, phase="killed", sets=_DEAD),  # injected kill about to land
    "fault-hang": Kind(ring=True, phase="hung"),  # injected hang parked a rank
    # -- ring events: one exchange round, then the resilience report's kinds
    "exchange-round": _RING,  # value = wire bytes, value2 = compression ratio
    "error": _RING,  # value = achieved error, value2 = headroom to e_tol
    "degrade": _RING,
    "retransmit": _RING,
    "recovered": _RING,
    "integrity-failure": _RING,
    "transient-codec": _RING,
    "tolerance-exceeded": _RING,
    "budget-exhausted": _RING,
    "rank-failed": _RING,  # watchdog verdict (value = beacon silence, s)
    "leader-failover": Kind(ring=True, metric="repro_leader_failovers_total"),
    "exchange-degrade": Kind(ring=True, metric="repro_exchange_degraded_total", labels=("reason",)),
}

_NONE = Kind()
_NULL_SPAN = _trace._NULL_SPAN
#: Derived from the table: per-rank registry series of the live kinds,
#: and the live update each phase kind writes.
_PER_RANK = {k: row.metric for k, row in KINDS.items() if row.live and row.metric}
_PHASE = {k: {"phase": row.phase, **dict(row.sets)} for k, row in KINDS.items() if row.phase}


@dataclass
class ExchangeStats:
    """Volume accounting of one exchange round (this rank's sends)."""

    sent_messages: int = 0
    original_bytes: int = 0
    wire_bytes: int = 0
    retransmissions: int = 0
    retransmitted_bytes: int = 0
    #: Largest measured round-trip relative error of this round's lossy
    #: messages (0.0 for lossless sends); only meaningful when
    #: ``error_measured`` — i.e. the exchange ran with an ``e_tol``.
    achieved_error: float = 0.0
    error_measured: bool = False

    @property
    def achieved_rate(self) -> float:
        """``original / wire``; 0/0 is 1.0, nonzero/0 is ``inf`` (anomaly)."""
        if self.wire_bytes:
            return self.original_bytes / self.wire_bytes
        return 1.0 if self.original_bytes == 0 else float("inf")


# -- registry side ---------------------------------------------------------------------


def _in_process() -> bool:
    """Is the installed sink this process's own store (which feeds the registry)?"""
    return _rec._sink is _rec._default_recorder


def _totals(rank: int, deltas: dict[str, float], sets: dict[str, float] | None = None) -> None:
    """Live totals of one rank, mirrored into its registry series in-process."""
    _rec.live_add_many(rank, deltas, sets)
    if not (_rec._enabled and _in_process()):
        return
    try:
        handle, key = get_registry().handle, (("rank", rank),)
        for name, n in deltas.items():
            if n and name in _PER_RANK:
                handle(Counter, _PER_RANK[name], key).inc(n)
        for name, v in (sets or {}).items():
            if name in _PER_RANK:
                handle(Gauge, _PER_RANK[name], key).set(v)
    except Exception:  # noqa: BLE001 - telemetry must never kill a rank
        pass


def _labelled(row: Kind, attrs: dict[str, Any], n: float = 1.0) -> None:
    """Increment a kind's labelled (not per-rank) counter."""
    if not (_rec._enabled and _in_process()):
        return
    try:
        handle = get_registry().handle
        labels = tuple((k, attrs.get(k, "")) for k in row.labels)
        handle(Counter, row.metric, labels).inc(n)
        if row.metric.startswith("repro_pool_"):
            # Derived view: the pool's hit rate from its two counters.
            hits = handle(Counter, "repro_pool_hits_total", labels).value
            total = hits + handle(Counter, "repro_pool_misses_total", labels).value
            handle(Gauge, "repro_pool_hit_rate", labels).set(hits / total)
    except Exception:  # noqa: BLE001
        pass


# -- the emit API ----------------------------------------------------------------------


class _PhaseSpan:
    """A phase kind's scope: live phase on entry, tracer span, ring on exit."""

    __slots__ = ("_kind", "_row", "_rank", "_attrs", "_inner", "_t0")

    def __init__(self, kind: str, row: Kind, rank: int, attrs: dict[str, Any]) -> None:
        self._kind, self._row, self._rank, self._attrs = kind, row, rank, attrs

    def __enter__(self) -> "_PhaseSpan":
        _rec.live_update(self._rank, **_PHASE[self._kind])
        t = _trace._active
        self._inner = None if t is None else t.span(self._kind, rank=self._rank, **self._attrs)
        if self._inner is not None:
            self._inner.__enter__()
        if self._row.ring:
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._inner is not None:
            self._inner.__exit__(*exc)
        if self._row.ring:
            _rec.flight(self._kind, self._rank, value=time.perf_counter() - self._t0)
        if self._row.metric:
            _labelled(self._row, self._attrs)
        return False


def span(kind: str, rank: int | None = None, **attrs: Any):
    """Open a span of ``kind`` on ``rank`` (``None``: the thread's bound rank)."""
    if kind in _PHASE:
        return _PhaseSpan(kind, KINDS[kind], rank, attrs)
    t = _trace._active  # per-message kinds: tracer-only, one load and a branch
    if t is None:
        return _NULL_SPAN
    return t.span(kind, rank=rank, **attrs)


def count(kind: str, n: float = 1, rank: int | None = None, **labels: Any) -> None:
    """Add ``n`` to counter ``kind``: tracer, live field and registry series
    as the table says (``labels`` address a labelled series, e.g. a pool)."""
    t = _trace._active
    if t is not None:
        t.incr(kind, n, rank=rank)
    row = KINDS.get(kind, _NONE)
    if row.labels:
        _labelled(row, labels, n)
    elif row.live and rank is not None:
        _totals(rank, {kind: n})


def event(
    kind: str,
    rank: int,
    *,
    peer: int = -1,
    round_: int = -1,
    value: float = 0.0,
    value2: float = 0.0,
    detail: str = "",
    seconds: float | None = None,
    **attrs: Any,
) -> None:
    """One moment on ``rank``: a ring record and/or lifecycle state and/or
    labelled metric, per the table.  ``seconds`` marks an interval that
    ended now but was known only in hindsight (the failure detection
    window): the tracer records it as a span and the ring keeps its length.
    """
    row = KINDS.get(kind, _RING)
    if seconds is not None:
        value = seconds
        t = _trace._active
        if t is not None:
            t.record_span(kind, rank, duration_ns=int(seconds * 1e9), **attrs)
    if row.ring:
        _rec.flight(kind, rank, peer=peer, round_=round_, value=value, value2=value2, detail=detail)
    if row.phase and not row.span:
        _rec.live_update(rank, **_PHASE[kind])
    if row.metric:
        _labelled(row, attrs)


def publish_round(
    stats: ExchangeStats,
    report: Any = None,
    *,
    rank: int | None = None,
    detail: str = "",
    e_tol: float | None = None,
    seconds: float = 0.0,
    round_: int = -1,
) -> None:
    """Publish one exchange round of ``rank`` (default: the report's) to
    every surface: tracer counters + report instants, ring events, live
    totals and gauges, registry series.  Call it exactly once per round."""
    if rank is None:
        rank = report.rank
    counts = {
        "rounds": 1,
        "messages": stats.sent_messages,
        "logical_bytes": stats.original_bytes,
        "wire_bytes": stats.wire_bytes,
    }
    events = () if report is None else report.events
    if events:
        for name in ("retries", "degradations", "retransmissions"):
            n = getattr(report, name)
            if n:
                counts[name] = n
    t = _trace._active
    if t is not None:
        for name, n in counts.items():
            t.incr(name, n, rank=rank)
        for ev in events:
            t.instant(ev.kind, rank=rank, peer=ev.peer, attempt=ev.attempt,
                      codec=ev.codec or "", detail=ev.detail)
    if not _rec._enabled:
        return
    ratio = stats.achieved_rate
    sets = {} if ratio == float("inf") else {"compression_ratio": ratio}
    try:
        sink = _rec._sink
        sink.record("exchange-round", rank, -1, round_, float(stats.wire_bytes),
                    sets.get("compression_ratio", 0.0), detail)
        if e_tol is not None and stats.error_measured:
            headroom = e_tol - stats.achieved_error
            sink.record("error", rank, -1, round_, stats.achieved_error, headroom, detail)
            sets.update(achieved_error=stats.achieved_error, error_headroom=headroom, e_tol=e_tol)
        for ev in events:
            sink.record(ev.kind, rank, ev.peer, round_, float(ev.attempt), 0.0,
                        (ev.codec or ev.detail or "")[:40])
        if seconds > 0.0:
            if stats.wire_bytes:
                sets["link_bandwidth"] = stats.wire_bytes / seconds
            if _in_process():
                key = (("rank", rank),)
                get_registry().handle(Histogram, "repro_exchange_seconds", key).observe(seconds)
    except Exception:  # noqa: BLE001 - telemetry must never kill a rank
        pass
    counts.pop("retransmissions", None)  # tracer-only
    _totals(rank, counts, sets)


def replay(live: dict[int, dict[str, Any]]) -> None:
    """Fold per-rank live rows recorded elsewhere (a process world's shared
    segment, read before it is unlinked) into this process's store and
    registry, so both runtimes export the same series."""
    for rank, row in live.items():
        deltas = {k: row[k] for k, r in KINDS.items() if r.live == "sum" and row.get(k)}
        sets = {k: row[k] for k, r in KINDS.items() if r.live == "set" and row.get(k)}
        _totals(rank, deltas, sets)

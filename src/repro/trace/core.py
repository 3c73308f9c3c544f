"""Per-rank tracing and metrics: spans, instants and typed counters.

The measurement substrate every perf claim reports through.  Three
design constraints drive the shape of this module:

* **per-rank attribution** — every event carries the rank it happened
  on.  SPMD threads bind their rank once (``ThreadWorld.run`` does it
  automatically) and all spans/counters opened on that thread inherit
  it; the virtual executor, which runs every rank in one thread, passes
  ``rank=`` explicitly per event.
* **thread safety** — each thread appends to its own buffer (created
  lazily, registered under a lock); buffers are merged only at export
  time, so the hot path takes no locks.
* **zero overhead when uninstalled** — the module-level helpers
  (:func:`span`, :func:`incr`, …) short-circuit to shared no-op objects
  when no tracer is installed.  Instrumented code reaches the tracer
  through :mod:`repro.obs`, which fans each emit out to the tracer and
  the always-on views.

Usage, SPMD::

    with trace.tracing() as tracer:
        ThreadWorld(8).run(kernel)          # ranks auto-bound
    print(summarize(tracer))

Usage, explicit::

    tracer = Tracer()
    install(tracer)
    with trace.span("compress", rank=3, peer=5, bytes=4096):
        ...
    uninstall()
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

__all__ = [
    "SpanEvent",
    "InstantEvent",
    "Tracer",
    "get_tracer",
    "install",
    "uninstall",
    "tracing",
    "span",
    "instant",
    "incr",
    "bind_rank",
]

@dataclass
class SpanEvent:
    """One closed span: a named interval on one rank."""

    kind: str
    rank: int
    t0_ns: int
    t1_ns: int
    depth: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.t1_ns - self.t0_ns


@dataclass
class InstantEvent:
    """A point event (e.g. a folded resilience event)."""

    kind: str
    rank: int
    ts_ns: int
    attrs: dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ThreadBuffer:
    """Per-thread event storage; merged by the tracer at export time."""

    __slots__ = ("rank", "depth", "spans", "instants", "counters", "histograms", "samples")

    def __init__(self) -> None:
        self.rank = -1  # unbound until bind_rank()
        self.depth = 0
        self.spans: list[SpanEvent] = []
        self.instants: list[InstantEvent] = []
        self.counters: dict[tuple[int, str], float] = {}
        # span_histograms mode: (rank, kind) -> LogHistogram of duration_ns
        self.histograms: dict[tuple[int, str], Any] = {}
        # counter time series: (ts_ns, rank, name, delta) per incr()
        self.samples: list[tuple[int, int, str, float]] = []


class _Span:
    """Live span handle (context manager)."""

    __slots__ = ("_tracer", "_buf", "_kind", "_rank", "_attrs", "_t0", "_depth")

    def __init__(
        self, tracer: "Tracer", buf: _ThreadBuffer, kind: str, rank: int | None, attrs: dict
    ) -> None:
        self._tracer = tracer
        self._buf = buf
        self._kind = kind
        self._rank = rank
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        buf = self._buf
        self._depth = buf.depth
        buf.depth += 1
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = self._tracer._clock()
        buf = self._buf
        buf.depth = self._depth
        rank = self._rank if self._rank is not None else buf.rank
        self._tracer._store(buf, self._kind, rank, self._t0, t1, self._depth, self._attrs)
        return False


class Tracer:
    """Per-process trace collector; one instance per measured run.

    The span and counter vocabulary is :data:`repro.obs.KINDS`; the
    tracer itself accepts any name.

    Parameters
    ----------
    clock:
        Nanosecond monotonic clock (overridable for deterministic tests).
    span_histograms:
        Bounded-memory mode for long runs: span durations are folded
        into per-(rank, kind) streaming :class:`~repro.perf.histogram.
        LogHistogram` objects instead of retaining every
        :class:`SpanEvent` (attrs dropped, counter time series off).
        ``span_aggregates``/``summarize``/``bench_payload`` transparently
        read the histograms; Chrome export has no spans to draw.
    """

    def __init__(
        self,
        *,
        clock=time.perf_counter_ns,
        span_histograms: bool = False,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self._local = threading.local()
        self._hist_factory = None
        if span_histograms:
            # Lazy import: repro.perf depends on repro.trace at module
            # load; by construction time both are fully initialised.
            from repro.perf.histogram import LogHistogram

            self._hist_factory = LogHistogram

    @property
    def span_histograms_enabled(self) -> bool:
        return self._hist_factory is not None

    # -- hot path -----------------------------------------------------------------

    def _buf(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def bind_rank(self, rank: int) -> None:
        """Attribute this thread's subsequent events to ``rank``."""
        self._buf().rank = int(rank)

    def span(self, kind: str, *, rank: int | None = None, **attrs: Any):
        """Open a nestable span; use as a context manager."""
        return _Span(self, self._buf(), kind, rank, attrs)

    def instant(self, kind: str, *, rank: int | None = None, **attrs: Any) -> None:
        """Record a point event."""
        buf = self._buf()
        r = rank if rank is not None else buf.rank
        buf.instants.append(InstantEvent(kind, r, self._clock(), attrs))

    def record_span(
        self,
        kind: str,
        rank: int | None = None,
        *,
        duration_ns: int,
        **attrs: Any,
    ) -> None:
        """Append an already-closed span ending now, ``duration_ns`` long.

        For intervals whose start is only known in hindsight — e.g. the
        failure *detection window* (a victim's last beacon to the
        watchdog verdict), which no context manager could have wrapped.
        The end timestamp comes from this tracer's clock, so the span
        lines up with context-manager spans in the Chrome export.
        """
        buf = self._buf()
        r = rank if rank is not None else buf.rank
        t1 = self._clock()
        self._store(buf, kind, r, t1 - max(0, int(duration_ns)), t1, buf.depth, attrs)

    def _store(self, buf, kind, rank, t0, t1, depth, attrs) -> None:
        """Keep a closed span — or, in bounded-memory mode, fold its
        duration into a per-(rank, kind) histogram (attrs dropped)."""
        if self._hist_factory is None:
            buf.spans.append(SpanEvent(kind, rank, t0, t1, depth, attrs))
            return
        hist = buf.histograms.get((rank, kind))
        if hist is None:
            hist = buf.histograms[(rank, kind)] = self._hist_factory()
        hist.add(t1 - t0)

    def incr(self, name: str, value: float = 1, *, rank: int | None = None) -> None:
        """Add ``value`` to counter ``name`` on ``rank``.

        Outside histogram mode every increment is also timestamped, so
        exporters can render counters as time series (Chrome ``ph: "C"``
        lanes); histogram mode keeps only the running totals.
        """
        buf = self._buf()
        r = rank if rank is not None else buf.rank
        key = (r, name)
        buf.counters[key] = buf.counters.get(key, 0) + value
        if self._hist_factory is None:
            buf.samples.append((self._clock(), r, name, value))

    # -- export-side accessors ------------------------------------------------------

    def _all_buffers(self) -> list[_ThreadBuffer]:
        with self._lock:
            return list(self._buffers)

    def span_events(self) -> list[SpanEvent]:
        """All closed spans, merged across threads, ordered by start time."""
        events = [s for buf in self._all_buffers() for s in buf.spans]
        events.sort(key=lambda s: s.t0_ns)
        return events

    def instant_events(self) -> list[InstantEvent]:
        """All point events, merged across threads, ordered by timestamp."""
        events = [i for buf in self._all_buffers() for i in buf.instants]
        events.sort(key=lambda i: i.ts_ns)
        return events

    def counters(self) -> dict[tuple[int, str], float]:
        """Merged ``(rank, name) -> value`` counter map."""
        out: dict[tuple[int, str], float] = {}
        for buf in self._all_buffers():
            for key, value in buf.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def counter_total(self, name: str) -> float:
        """Sum of counter ``name`` across all ranks."""
        return sum(v for (_, n), v in self.counters().items() if n == name)

    def counter_samples(self) -> list[tuple[int, int, str, float]]:
        """Timestamped counter increments ``(ts_ns, rank, name, delta)``.

        Merged across threads, ordered by timestamp.  Empty in
        histogram mode (only totals are kept there).
        """
        samples = [s for buf in self._all_buffers() for s in buf.samples]
        samples.sort(key=lambda s: s[0])
        return samples

    def span_histograms(self) -> dict[tuple[int, str], Any]:
        """Merged ``(rank, kind) -> LogHistogram`` map (histogram mode).

        Empty when ``span_histograms`` was not enabled.
        """
        out: dict[tuple[int, str], Any] = {}
        for buf in self._all_buffers():
            for key, hist in buf.histograms.items():
                if key in out:
                    out[key].merge(hist)
                else:
                    merged = type(hist)(growth=hist.growth)
                    merged.merge(hist)
                    out[key] = merged
        return out

    def ranks(self) -> list[int]:
        """Sorted ranks that recorded at least one event or counter."""
        seen: set[int] = set()
        for buf in self._all_buffers():
            seen.update(s.rank for s in buf.spans)
            seen.update(i.rank for i in buf.instants)
            seen.update(r for r, _ in buf.counters)
            seen.update(r for r, _ in buf.histograms)
        return sorted(seen)

    def absorb(
        self,
        *,
        spans: Sequence[SpanEvent] = (),
        instants: Sequence[InstantEvent] = (),
        counters: dict[tuple[int, str], float] | None = None,
        samples: Sequence[tuple[int, int, str, float]] = (),
        histograms: dict[tuple[int, str], Any] | None = None,
    ) -> None:
        """Merge events recorded elsewhere into this tracer.

        The process runtime uses this to fold each rank's spooled trace
        back into the parent's tracer: spans/instants/samples append,
        counters add, histograms merge.  Timestamps are assumed
        comparable with this tracer's clock (true for
        ``perf_counter_ns`` across processes on one Linux machine).
        """
        buf = self._buf()
        buf.spans.extend(spans)
        buf.instants.extend(instants)
        if counters:
            for key, value in counters.items():
                buf.counters[key] = buf.counters.get(key, 0) + value
        buf.samples.extend(samples)
        if histograms:
            for key, hist in histograms.items():
                mine = buf.histograms.get(key)
                if mine is None:
                    buf.histograms[key] = hist
                else:
                    mine.merge(hist)

    def clear(self) -> None:
        """Drop all recorded events and counters (buffers stay bound)."""
        for buf in self._all_buffers():
            buf.spans.clear()
            buf.instants.clear()
            buf.counters.clear()
            buf.histograms.clear()
            buf.samples.clear()


# -- module-level active tracer -------------------------------------------------------

_active: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is off."""
    return _active


def install(tracer: Tracer | None) -> None:
    """Install ``tracer`` as the process-global active tracer."""
    global _active
    _active = tracer


def uninstall() -> None:
    """Turn tracing off (equivalent to ``install(None)``)."""
    install(None)


@contextmanager
def tracing(**kwargs: Any) -> Iterator[Tracer]:
    """Run a block under a fresh installed tracer; restores the previous one."""
    tracer = Tracer(**kwargs)
    previous = _active
    install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


def span(kind: str, *, rank: int | None = None, **attrs: Any):
    """Open a span on the active tracer (no-op context when disabled)."""
    t = _active
    if t is None:
        return _NULL_SPAN
    return _Span(t, t._buf(), kind, rank, attrs)


def instant(kind: str, *, rank: int | None = None, **attrs: Any) -> None:
    """Record a point event on the active tracer (no-op when disabled)."""
    t = _active
    if t is not None:
        t.instant(kind, rank=rank, **attrs)


def incr(name: str, value: float = 1, *, rank: int | None = None) -> None:
    """Bump a typed counter on the active tracer (no-op when disabled)."""
    t = _active
    if t is not None:
        t.incr(name, value, rank=rank)


def bind_rank(rank: int) -> None:
    """Bind the calling thread to ``rank`` on the active tracer."""
    t = _active
    if t is not None:
        t.bind_rank(rank)

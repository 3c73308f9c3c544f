"""Heartbeat watchdog: liveness beacons, stall classification, reports.

The fence-synchronised exchanges of the paper (Alg. 3) have the classic
failure mode of bulk-synchronous code: one dead or wedged rank stalls
every peer for the full window.  This module supplies the *detection*
half of the fault-tolerance story, for both real runtimes:

* every rank beacons (:meth:`HeartbeatMonitor.beat`) at each transport
  operation — and keeps beaconing while *blocked* in a receive or
  barrier, because a rank waiting on a dead peer is itself perfectly
  alive;
* blocked waits (recv, barrier, agreement) stamp the moment they began
  into the control state, so a slow peer can be told apart from a wait
  cycle;
* :meth:`HeartbeatMonitor.poll` — run by whichever rank happens to be
  blocked, every wait quantum; no watchdog thread needed — declares a
  rank dead when its beacon goes silent past ``suspect_after`` or the
  world's liveness probe says its thread or process is gone;
* a stall is *classified*, not just timed out: ``dead`` (rank gone or
  explicitly killed), ``deadlock`` (alive but silent — a wedged rank,
  or every live rank blocked on another), ``straggler`` (peer still
  beaconing, just slow).

Every fact lives in a :class:`~repro.resilience.control.ControlState`;
a monitor is only a *view* of it in one communicator's rank numbering.
Everything the watchdog concludes lands in a structured
:class:`FailureReport` — which ranks failed, how each stall was
classified, when detection happened, and the detect → agree → shrink →
restart recovery timeline — instead of an opaque ``TimeoutError``.

This module deliberately imports nothing from the runtime: the runtimes
import *it*.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro import obs
from repro.resilience.control import ControlState

__all__ = [
    "STALL_CLASSIFICATIONS",
    "RankFailure",
    "PhaseSpan",
    "FailureReport",
    "HeartbeatMonitor",
]

#: How a stalled rank can be classified by the watchdog.
STALL_CLASSIFICATIONS = ("alive", "straggler", "deadlock", "dead")

#: Recovery phases, in protocol order.
RECOVERY_PHASES = ("detect", "agree", "shrink", "restart")


@dataclass
class RankFailure:
    """One detected rank failure.

    ``kind`` is the *cause* (``kill``, ``hang``, ``crash``, ``timeout``);
    ``classification`` is what the watchdog *observed* (``dead`` for an
    exited thread, ``deadlock`` for an alive-but-silent one, …).
    """

    rank: int
    kind: str
    classification: str
    detail: str = ""
    detected_at: float = 0.0  # seconds since monitor start
    last_beat_age: float = 0.0  # beacon silence at detection time

    def to_json(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "kind": self.kind,
            "classification": self.classification,
            "detail": self.detail,
            "detected_at_s": round(self.detected_at, 6),
            "last_beat_age_s": round(self.last_beat_age, 6),
        }


@dataclass
class PhaseSpan:
    """One recovery phase interval on one rank (monitor-clock seconds)."""

    name: str
    rank: int
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rank": self.rank,
            "t0_s": round(self.t0, 6),
            "t1_s": round(self.t1, 6),
            "duration_s": round(self.duration, 6),
        }


@dataclass
class FailureReport:
    """Structured record of a failure episode and its recovery.

    Produced by the runtime instead of an opaque timeout: who failed and
    how the stall was classified, who survived, and the per-rank
    detect/agree/shrink/restart timeline.
    """

    nranks: int = 0
    failures: list[RankFailure] = field(default_factory=list)
    survivors: list[int] = field(default_factory=list)
    phase_spans: list[PhaseSpan] = field(default_factory=list)
    recovered: bool = False
    detail: str = ""

    @property
    def failed_ranks(self) -> list[int]:
        return sorted(f.rank for f in self.failures)

    def phases(self) -> dict[str, float]:
        """Aggregate duration per phase (earliest start → latest end)."""
        out: dict[str, float] = {}
        for name in RECOVERY_PHASES:
            spans = [s for s in self.phase_spans if s.name == name]
            if spans:
                out[name] = max(s.t1 for s in spans) - min(s.t0 for s in spans)
        return out

    def phase_sequence_complete(self) -> bool:
        """True when every recovery phase was recorded, in order."""
        agg = self.phases()
        if any(name not in agg for name in RECOVERY_PHASES):
            return False
        starts = [
            min(s.t0 for s in self.phase_spans if s.name == name)
            for name in RECOVERY_PHASES
        ]
        return starts == sorted(starts)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "repro-failure-report-v1",
            "nranks": self.nranks,
            "failed_ranks": self.failed_ranks,
            "survivors": list(self.survivors),
            "recovered": self.recovered,
            "detail": self.detail,
            "failures": [f.to_json() for f in self.failures],
            "phases": {k: round(v, 6) for k, v in self.phases().items()},
            "phase_spans": [s.to_json() for s in self.phase_spans],
        }

    def summary(self) -> str:
        if not self.failures:
            return f"{self.nranks} ranks: no failures detected"
        parts = [
            f"rank {f.rank} {f.kind} ({f.classification}, "
            f"detected at t+{f.detected_at:.3f}s)"
            for f in self.failures
        ]
        tail = "recovered" if self.recovered else "not recovered"
        phases = self.phases()
        if phases:
            tail += " [" + " -> ".join(
                f"{k}:{phases[k] * 1e3:.1f}ms" for k in RECOVERY_PHASES if k in phases
            ) + "]"
        return f"{self.nranks} ranks: " + "; ".join(parts) + f" — {tail}"


class HeartbeatMonitor:
    """Watchdog view of a :class:`ControlState` in one rank numbering.

    Parameters
    ----------
    state:
        The world's control state (facts are keyed by original rank).
    members:
        Original rank of each of this view's dense ranks; the identity
        for a world, the survivor map for a shrunk communicator.
    suspect_after:
        Beacon silence (seconds) after which a rank is declared dead by
        :meth:`poll`.  Kept well under the blocking-op timeout so a
        failure is *detected and classified* long before peers would
        have timed out on their own.
    alive:
        The world's liveness probe, called with an original rank:
        ``Thread.is_alive`` for threads, pid liveness for processes.
    runtime_label:
        Stamped onto the ``repro_recoveries_total`` metric so dashboards
        can tell thread-world drills from real process recoveries.
    """

    def __init__(
        self,
        state: ControlState,
        members: tuple[int, ...] | None = None,
        *,
        suspect_after: float = 30.0,
        alive: Callable[[int], bool] | None = None,
        runtime_label: str = "thread",
    ) -> None:
        self.state = state
        self.members = tuple(range(state.nranks)) if members is None else tuple(members)
        self.nranks = len(self.members)
        self.suspect_after = float(suspect_after)
        self.runtime_label = runtime_label
        self._alive = alive
        self._index = {g: r for r, g in enumerate(self.members)}
        # Failure records never change once written: one object per rank.
        self._known: dict[int, RankFailure] = {}

    def view(self, members: tuple[int, ...]) -> "HeartbeatMonitor":
        """The same watchdog over ``members`` (original ranks)."""
        return HeartbeatMonitor(
            self.state,
            members,
            suspect_after=self.suspect_after,
            alive=self._alive,
            runtime_label=self.runtime_label,
        )

    # -- beacons -----------------------------------------------------------------------

    def start(self) -> None:
        """Arm the watchdog (all beacons reset to *now*)."""
        self.state.start()

    def beat(self, rank: int) -> None:
        """Liveness beacon from ``rank``."""
        self.state.beacon(self.members[rank])

    def mark_done(self, rank: int) -> None:
        """Record that ``rank`` finished its kernel cleanly.

        A done rank stops beaconing and its thread or process exits —
        both of which look exactly like death to the watchdog.  Marking
        completion exempts it from suspicion (and from agreement's
        expected set) so peers still blocked in their own final
        exchanges are not tricked into revoking a healthy world.
        """
        self.state.mark_done(self.members[rank])

    # -- failure registry -------------------------------------------------------------

    def _failure(self, rec: tuple[int, str, str, str, float, float]) -> RankFailure:
        g = rec[0]
        failure = self._known.get(g)
        if failure is None:
            _, kind, cls, detail, at, age = rec
            failure = self._known[g] = RankFailure(
                self._index[g], kind, cls, detail, detected_at=at, last_beat_age=age
            )
        return failure

    def _record(self, g: int, kind: str, cls: str, detail: str) -> bool:
        """Write one failure record; the first observer also publishes it."""
        now = self.state.now()
        age = self.state.beacon_age(g)
        if not self.state.record_failure(g, kind, cls, detail, now, age):
            return False
        # The detection window: from the victim's last sign of life to
        # the moment the failure was pinned down.
        self.state.add_span("detect", g, now - age, now)
        obs.event("rank-failed", g, value=age, detail=f"{kind}/{cls}"[:40])
        obs.event("detect", g, seconds=age, failure_kind=kind, classification=cls)
        return True

    def declare_failed(
        self, rank: int, kind: str, detail: str = "", classification: str | None = None
    ) -> RankFailure:
        """Record a rank failure (idempotent: the first declaration wins)."""
        cls = classification or self.classify(rank)
        self._record(self.members[rank], kind, "dead" if cls == "alive" else cls, detail)
        (failure,) = [f for f in self.failures() if f.rank == rank]
        return failure

    def failures(self) -> list[RankFailure]:
        return [self._failure(rec) for rec in self.state.failures() if rec[0] in self._index]

    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._index[g] for g in self.state.failed_ranks() if g in self._index)

    def absent_ranks(self) -> frozenset[int]:
        """Ranks that will never contribute again: dead or cleanly done."""
        done = (r for r, g in enumerate(self.members) if self.state.is_done(g))
        return self.dead_ranks().union(done)

    def alive_ranks(self) -> tuple[int, ...]:
        dead = self.dead_ranks()
        return tuple(r for r in range(self.nranks) if r not in dead)

    def alive_bitmap(self) -> int:
        """Liveness as a bitmap (bit ``r`` set = rank ``r`` believed alive)."""
        return sum(1 << r for r in self.alive_ranks())

    # -- classification ---------------------------------------------------------------

    def _gone(self, g: int) -> bool:
        """Exited without finishing.  A rank marks itself done *before*
        it exits, so re-reading the flag after the probe closes the race
        with a rank finishing between the caller's done check and here."""
        return self._alive is not None and not self._alive(g) and not self.state.is_done(g)

    def _stuck(self, g: int) -> bool:
        waited = self.state.blocked_for(g)
        return waited is not None and waited > self.suspect_after

    def classify(self, rank: int) -> str:
        """Watchdog's current verdict on ``rank`` (see STALL_CLASSIFICATIONS)."""
        g = self.members[rank]
        for rec in self.state.failures():
            if rec[0] == g:
                return rec[2]
        if self.state.is_done(g):
            return "alive"  # finished cleanly; silence is expected
        if self._gone(g):
            return "dead"
        if self.state.started and self.state.beacon_age(g) > self.suspect_after:
            # Alive but silent: wedged (our `hang` fault) or a
            # participant in a mutual-wait cycle.
            return "deadlock"
        if self._stuck(g):
            # Still beaconing, just slow — unless *every* unfinished rank
            # is blocked past its deadline, which is a wait cycle: nobody
            # can ever post the message everybody is waiting for.
            failed = self.state.failed_ranks()
            pending = [m for m in self.members if m not in failed and not self.state.is_done(m)]
            return "deadlock" if all(self._stuck(m) for m in pending) else "straggler"
        return "alive"

    def poll(self) -> list[RankFailure]:
        """Scan beacons; declare silent or gone ranks dead.  Returns the
        deaths *this call* recorded (other observers race idempotently).

        Run opportunistically by blocked ranks every wait quantum — the
        watchdog rides on the ranks that are already awake, no dedicated
        monitor thread.
        """
        if not self.state.started:
            return []
        new: list[RankFailure] = []
        failed = self.state.failed_ranks()
        for g in self.members:
            if g in failed or self.state.is_done(g):
                continue
            gone = self._gone(g)
            age = self.state.beacon_age(g)
            if not (gone or age > self.suspect_after):
                continue
            if gone:
                kind, cls, detail = "crash", "dead", f"{self.runtime_label} rank exited without unwinding"
            else:
                kind, cls = "hang", "deadlock"
                detail = f"beacon silent for {age:.3f}s (> suspect_after={self.suspect_after:g}s)"
            if self._record(g, kind, cls, detail):
                new.extend(f for f in self.failures() if self.members[f.rank] == g)
        return new

    # -- recovery timeline -------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, rank: int, **attrs: Any) -> Iterator[None]:
        """One recovery phase: an interval of the report timeline, and an
        ``obs`` span (live phase, tracer span, ring record, metric)."""
        g = self.members[rank]
        t0 = self.state.now()
        try:
            with obs.span(name, g, phase=name, runtime=self.runtime_label, **attrs):
                yield
        finally:
            self.state.add_span(name, g, t0, self.state.now())

    # -- reporting -----------------------------------------------------------------------

    def build_report(self, *, recovered: bool = False, detail: str = "") -> FailureReport:
        """Snapshot everything the watchdog knows into a FailureReport."""
        failures = self.failures()
        failed = {f.rank for f in failures}
        return FailureReport(
            nranks=self.nranks,
            failures=failures,
            survivors=[r for r in range(self.nranks) if r not in failed],
            phase_spans=[
                PhaseSpan(name, self._index[g], t0, t1)
                for name, g, t0, t1 in self.state.spans()
                if g in self._index
            ],
            recovered=recovered,
            detail=detail,
        )

"""The ULFM layer shared by both real runtimes: revoke, agree, shrink.

After a failure is detected, survivors must reach a *consistent* view
of who is alive before they can shrink: if rank 0 thinks {0, 2, 3}
survived while rank 2 thinks {0, 1, 2, 3} did, the shrunk communicators
disagree on size and the ring permutation, and recovery itself
deadlocks.  The protocol, implemented once here over a
:class:`~repro.resilience.control.ControlState`:

* **revoke** is generational: it wakes every rank blocked at the
  revoked generation (or below) with :class:`RevokedError`, while the
  world stays usable for recovery;
* **agree** runs a crash-tolerant agreement over liveness *bitmaps*
  (bit ``r`` set = rank ``r`` believed alive).  A round completes once
  every rank not dead or done has contributed; the decision is the
  pessimistic AND with dead ranks masked out (false suspicion costs a
  healthy rank, disagreement costs the whole job), frozen by the first
  observer so every survivor returns the same value;
* **shrink** agrees on the survivors, bumps the generation, and hands
  back a communicator over a :class:`SurvivorWorld` — a view of the
  *same* world (transport, windows, control state) with a dense rank
  numbering and its own generation, so its traffic never matches
  anything posted before the failure.

:class:`UlfmComm` carries all of that plus the transport preamble
(beacon, watchdog scan, revocation check, ``kill``/``hang`` fault
injection) and the barrier.  A runtime's communicator supplies only the
transport: send/recv, draining its inbox (:meth:`UlfmComm._drain`), and
what an injected kill does (:meth:`UlfmComm._kill_self`); building the
survivor communicator is just its constructor over a survivor world.
"""

from __future__ import annotations

import time
from typing import Any

from repro import obs
from repro.errors import CommunicatorError, RankHungError, RevokedError, RuntimeAbort
from repro.resilience.control import WAIT_QUANTUM
from repro.resilience.monitor import FailureReport

__all__ = ["SurvivorWorld", "UlfmComm", "UlfmWorld", "bitmap_ranks", "ranks_bitmap"]

def bitmap_ranks(bitmap: int, nranks: int) -> tuple[int, ...]:
    """Decode a liveness bitmap into a sorted tuple of rank ids."""
    return tuple(r for r in range(nranks) if bitmap >> r & 1)


def ranks_bitmap(ranks) -> int:
    """Encode an iterable of rank ids as a liveness bitmap."""
    out = 0
    for r in ranks:
        out |= 1 << int(r)
    return out


class UlfmWorld:
    """Revocation surface of a world or of a survivor view of one.

    Needs ``root``, ``members``, ``gen``, ``state`` and ``monitor``.
    """

    gen = 0

    @property
    def halted(self) -> bool:
        """True once the world is aborted or this generation revoked."""
        return self.state.abort_reason() is not None or self.revoked is not None

    @property
    def revoked(self) -> str | None:
        return self.state.revoked_reason(self.gen)

    def revoke(self, reason: str, gen: int | None = None) -> None:
        """ULFM-style revocation of generation ``gen`` (default: this one).

        Unlike an abort, the world stays usable for recovery — agree
        and shrink keep working.  Same-generation revocations keep the
        first reason.
        """
        self.state.revoke(reason, self.gen if gen is None else gen)
        self.root.wake()

    def wake(self) -> None:
        """Kick blocked waiters after a revocation (runtime hook)."""

    def declare_failed(self, rank: int, kind: str, detail: str = "") -> None:
        """Record a rank death and revoke every generation so peers wake."""
        failure = self.monitor.declare_failed(rank, kind, detail)
        self.revoke(
            f"rank {self.members[rank]} {kind} ({failure.classification})"
            + (f": {detail}" if detail else ""),
            gen=self.state.cur_gen(),
        )


class SurvivorWorld(UlfmWorld):
    """The world as seen by a shrunk communicator.

    Same transport, windows, store and control state as ``root``; dense
    rank numbering over ``members`` (original ranks) and one generation
    up.  Every survivor builds its own and the world caches none, so a
    later run can never pick up a survivor world of an earlier one.
    """

    #: Injected faults target generation 0 only: the episode is over.
    injector = None

    def __init__(self, root: Any, members: tuple[int, ...], gen: int) -> None:
        self.root = root
        self.members = tuple(members)
        self.gen = int(gen)
        self.nranks = len(self.members)
        self.monitor = root.monitor.view(self.members)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.root, name)


class UlfmComm:
    """Runtime-independent half of a communicator (see the module docstring)."""

    def __init__(self, world: Any, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.nranks
        self.gen: int = world.gen
        self._state = world.state
        self._monitor = world.monitor
        self._me = world.members[rank]  # original-world rank
        self._scan_every = min(WAIT_QUANTUM / 2, self._monitor.suspect_after / 4)
        self._last_scan = 0.0

    @property
    def parent_ranks(self) -> tuple[int, ...]:
        """This communicator's ranks in the *original* world's numbering."""
        return self.world.members

    # -- runtime hooks -------------------------------------------------------------------

    def _drain(self) -> None:
        """Move arrived messages into this rank's local queue (if any)."""

    def _kill_self(self, op: str) -> None:
        raise NotImplementedError

    # -- transport preamble and progress -------------------------------------------------

    def _pre(self, op: str, peer: int | None = None) -> None:
        """Run before every transport op: beacon, check, scan, inject.

        A matching ``kill`` rule terminates this rank, a ``hang`` rule
        parks it (no beacons, no progress) until peers detect it.
        """
        self._state.beacon(self._me)
        self.world.check_abort()
        self._scan()
        self._check_revoked()
        injector = self.world.injector
        if injector is not None:
            action = injector.fail_action(self.rank, op)
            if action == "kill":
                self._kill_self(op)
            elif action == "hang":
                self._hang_self(op)

    def _progress(self, recovery: bool = False) -> None:
        """Per-quantum callback of every blocked wait.

        Drains the inbox, beacons, runs the watchdog, then surfaces
        abort/revocation — except in ``recovery`` mode, where agreement
        must keep progressing on a revoked world.
        """
        self._drain()
        self._state.beacon(self._me)
        self._scan()
        if not recovery:
            self.world.check_abort()
            self._check_revoked()

    def _scan(self) -> None:
        """Watchdog scan (rate-limited); a new death revokes this generation."""
        now = time.monotonic()
        if now - self._last_scan < self._scan_every:
            return
        self._last_scan = now
        if self._state.abort_reason() is not None:
            return
        for failure in self._monitor.poll():
            self.world.revoke(
                f"rank {self.parent_ranks[failure.rank]} declared "
                f"{failure.classification} ({failure.kind}): {failure.detail}"
            )

    def _check_revoked(self) -> None:
        reason = self._state.revoked_reason(self.gen)
        if reason is not None:
            raise RevokedError(
                f"communicator revoked: {reason}",
                report=self._monitor.build_report(detail=reason),
            )

    def _stalled(self, exc: Any, peer: int | None) -> Any:
        """Attach the watchdog's report and verdict on ``peer`` to a StallError."""
        exc.report = self._monitor.build_report(detail=str(exc))
        if peer is not None and peer >= 0:
            exc.classification = self._monitor.classify(peer)
        return exc

    def _hang_self(self, op: str) -> None:
        """Injected ``hang``: park without beacons until peers detect the
        silence and revoke (or the world aborts), then unwind."""
        obs.event("fault-hang", self._me, detail=op[:40])
        deadline = time.monotonic() + self.world.timeout * 2
        while (
            self._state.revoked_reason(0) is None
            and self._state.abort_reason() is None
            and time.monotonic() < deadline
        ):
            time.sleep(WAIT_QUANTUM)  # no beacons: silence IS the fault
        detail = f"injected hang at {op}"
        if self._state.revoked_reason(0) is None and self._state.abort_reason() is None:
            detail += " (never detected: no peer polled the watchdog)"
        self._monitor.declare_failed(self.rank, "hang", detail, classification="deadlock")
        self.world.revoke(f"rank {self._me} hang (deadlock): {detail}")
        obs.event("failed", self._me)
        raise RankHungError(
            f"rank {self._me} wedged by fault injection at {op}",
            report=self._monitor.build_report(detail=detail),
        )

    # -- barrier ---------------------------------------------------------------------------

    def barrier(self) -> None:
        self._pre("barrier")
        self._barrier_wait()

    def _barrier_wait(self) -> None:
        self._state.set_blocked(self._me, True)
        try:
            self._state.barrier(self.gen, self.size, self.world.timeout, poll=self._progress)
        except CommunicatorError:
            # The barrier breaks for everyone when any waiter unwinds;
            # surface the *cause* (abort/revocation) over the echo.
            self.world.check_abort()
            self._check_revoked()
            raise
        finally:
            self._state.set_blocked(self._me, False)

    # -- failure handling (ULFM analogues) ---------------------------------------------------

    def revoke(self, reason: str = "revoked by application") -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``)."""
        self.world.revoke(f"rank {self._me}: {reason}")

    def agree(self, bitmap: int | None = None) -> int:
        """Fault-aware agreement on a liveness bitmap (``MPIX_Comm_agree``).

        Contributes this rank's view (default: the watchdog's) and
        returns the decided bitmap — identical on every survivor.
        Usable on a revoked world; that is its purpose.
        """
        if bitmap is None:
            bitmap = self._monitor.alive_bitmap()
        slot = self._state.next_slot(self._me, self.gen)
        self._state.beacon(self._me)
        with self._monitor.phase("agree", self.rank, round=slot):
            self._state.set_blocked(self._me, True)
            try:
                return self._state.agree_wait(
                    slot,
                    self.rank,
                    int(bitmap),
                    nranks=self.size,
                    absent=self._monitor.absent_ranks,
                    poll=lambda: self._progress(recovery=True),
                    timeout=self.world.timeout,
                )
            finally:
                self._state.set_blocked(self._me, False)

    def shrink(self, survivors: tuple[int, ...] | None = None) -> Any:
        """Build a working communicator over the survivors (``MPIX_Comm_shrink``).

        Without an explicit survivor set, runs :meth:`agree` first so
        every caller shrinks to the *same* communicator.  Its rank is
        this rank's index among the survivors (ranks are dense again;
        ring permutations recompute from the new size), and
        ``parent_ranks`` maps back to original-world ranks.
        """
        if survivors is None:
            survivors = bitmap_ranks(self.agree(), self.size)
        survivors = tuple(sorted(survivors))
        if self.rank not in survivors:
            raise CommunicatorError(
                f"rank {self.rank} cannot shrink onto survivors {survivors} "
                "(it is not one of them)"
            )
        with self._monitor.phase("shrink", self.rank, survivors=len(survivors)):
            gen = self.gen + 1
            self._state.bump_gen(gen)
            members = tuple(self.parent_ranks[r] for r in survivors)
            world = SurvivorWorld(self.world.root, members, gen)
            return type(self)(world, survivors.index(self.rank))

    def failure_report(self, **kwargs: Any) -> FailureReport:
        """Snapshot the watchdog's view of this communicator (see FailureReport)."""
        return self._monitor.build_report(**kwargs)

    def abort(self, msg: str = "user abort") -> None:
        self.world.abort(f"rank {self._me}: {msg}")
        raise RuntimeAbort(msg)

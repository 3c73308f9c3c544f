"""Thread-based SPMD runtime: every rank is a Python thread.

This is the testing substrate for the communication *algorithms*
(pairwise ring, OSC ring, compression pipeline): real concurrency, real
blocking semantics, real data movement through shared memory.  NumPy
copies release the GIL, so ranks genuinely overlap on large buffers.

Usage::

    def kernel(comm, n):
        data = np.full(n, comm.rank, dtype=np.float64)
        return comm.alltoallv([data] * comm.size)

    results = run_spmd(4, kernel, 1024)   # list of per-rank returns

Failure model: the ULFM core of :mod:`repro.resilience`, shared with the
process runtime.  Every run gets a fresh in-process
:class:`~repro.resilience.control.ControlState` (beacons, done flags,
failure registry, generational revocation, agreement slots, barrier)
and a :class:`~repro.resilience.monitor.HeartbeatMonitor` whose
liveness probe is ``Thread.is_alive``.  Blocked operations (recv,
barrier, fences) wait in quanta and run the watchdog each quantum, so a
dead or wedged peer is detected, classified (straggler / dead /
deadlock) and broadcast as a *revocation* — every blocked rank wakes
with :class:`~repro.errors.RevokedError` instead of timing out
independently.  Survivors then run :meth:`ThreadComm.agree` and
:meth:`ThreadComm.shrink` (:class:`~repro.resilience.agreement.UlfmComm`):
the survivor communicator keeps the world's mailboxes, and the
generation stamped on every envelope keeps its traffic apart from
anything posted before the failure.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from repro.errors import (
    CommunicatorError,
    RankFailureError,
    RankHungError,
    RankKilledError,
    RevokedError,
    RuntimeAbort,
    StallError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.resilience.agreement import UlfmComm, UlfmWorld
from repro.resilience.control import ControlState
from repro.resilience.monitor import HeartbeatMonitor
from repro.runtime.base import ANY_SOURCE, ANY_TAG, Comm, Request
from repro.runtime.mailbox import Envelope, Mailbox
from repro.runtime.window import Window
from repro.telemetry.blackbox import emit_blackbox
from repro.trace import bind_rank as trace_bind_rank

__all__ = ["ThreadWorld", "ThreadComm", "run_spmd"]

#: Default blocking-op timeout — generous, but converts deadlocks into errors.
DEFAULT_TIMEOUT = 120.0

#: Fraction of the blocking-op timeout after which a silent rank is
#: declared dead.  Detection must land *well before* peers would have
#: timed out on their own (and far under the 2x join deadline).
SUSPECT_FRACTION = 0.25


class ThreadWorld(UlfmWorld):
    """Shared state of one SPMD execution (mailboxes, control state, windows).

    Pass ``faults`` (a :class:`~repro.faults.FaultPlan` or a prebuilt
    :class:`~repro.faults.FaultInjector`) to run the world under
    deterministic fault injection; ``None`` (the default) leaves every
    transport hook a no-op.  ``suspect_after`` overrides the watchdog's
    silence threshold (default: ``SUSPECT_FRACTION * timeout``).

    A world is multi-shot: every :meth:`run` starts from fresh per-run
    state (mailboxes, control state, monitor, window registry), so no
    liveness fact, revocation or survivor communicator leaks from one
    run into the next.  The burst-buffer ``store`` persists.
    """

    def __init__(
        self,
        nranks: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        faults: FaultPlan | FaultInjector | None = None,
        suspect_after: float | None = None,
    ) -> None:
        if nranks < 1:
            raise CommunicatorError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.timeout = timeout
        self.root = self
        self.members = tuple(range(nranks))
        if faults is None or isinstance(faults, FaultInjector):
            self.injector = faults
        else:
            self.injector = FaultInjector(faults)
        if suspect_after is None:
            suspect_after = max(0.05, SUSPECT_FRACTION * timeout)
        self.suspect_after = float(suspect_after)
        self._win_lock = threading.Lock()
        #: World-shared key/value store surviving rank death (see
        #: repro.resilience.checkpoint — the "burst buffer").
        self.store: dict[Any, Any] = {}
        self.store_lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        """Fresh per-run state: nothing of a previous run may leak in."""
        self.mailboxes = [Mailbox(r) for r in range(self.nranks)]
        self.state = ControlState(self.nranks)
        self._threads: list[threading.Thread | None] = [None] * self.nranks
        self.monitor = HeartbeatMonitor(
            self.state, suspect_after=self.suspect_after, alive=self._thread_alive
        )
        self._abort_cause: BaseException | None = None
        self._win_registry: dict[Any, list[Any]] = {}
        self._win_counter: dict[tuple[int, int], int] = {}

    def _thread_alive(self, rank: int) -> bool:
        thread = self._threads[rank]
        return thread is None or thread.is_alive()

    # -- abort and revocation --------------------------------------------------------

    def abort(self, reason: str, cause: BaseException | None = None) -> None:
        """Poison every blocking primitive so all ranks unwind promptly."""
        if self.state.abort_reason() is None:
            self._abort_cause = cause  # travels with the first reason
        self.state.abort(reason)
        for mb in self.mailboxes:
            mb.abort(reason, cause)

    def check_abort(self) -> None:
        reason = self.state.abort_reason()
        if reason is not None:
            raise RuntimeAbort(reason) from self._abort_cause

    def wake(self) -> None:
        """Revocation kicks the mailboxes: waiters' polls decide what to raise."""
        for mb in self.mailboxes:
            mb.kick()

    # -- collective window creation ------------------------------------------------

    def create_window(self, comm: "ThreadComm", nbytes: int) -> Window:
        """Collective: every rank contributes its exposed buffer size."""
        with self._win_lock:
            seq = self._win_counter.get((comm.gen, comm.rank), 0)
            self._win_counter[(comm.gen, comm.rank)] = seq + 1
            win_id = (comm.gen, seq)
            slot = self._win_registry.setdefault(win_id, [None] * comm.size)
            slot[comm.rank] = np.zeros(max(0, int(nbytes)), dtype=np.uint8)
        comm._barrier_wait()  # all contributions visible
        with self._win_lock:
            buffers = list(self._win_registry[win_id])
            locks = self._win_registry.get(("locks", win_id))
            if locks is None:
                locks = [threading.Lock() for _ in range(comm.size)]
                self._win_registry[("locks", win_id)] = locks
        return Window(comm.world, comm, buffers, locks, win_id=win_id)

    def release_window(self, win_id: Any) -> None:
        """Deregister a freed window's buffers and locks (idempotent).

        Called by :meth:`Window.free` on every rank after its closing
        barrier, so no rank can still be touching the entries.
        """
        with self._win_lock:
            self._win_registry.pop(win_id, None)
            self._win_registry.pop(("locks", win_id), None)

    # -- execution -------------------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; gather returns.

        The first exception raised by any rank aborts the world and is
        re-raised (with rank annotation) in the caller.  Injected rank
        deaths (:class:`RankKilledError` / :class:`RankHungError`) are
        *expected* terminal failures: the victim's slot is ``None`` and
        the world is revoked, not aborted — survivors may recover.  If
        nobody recovers, the caller gets a :class:`RankFailureError`
        carrying the watchdog's :class:`FailureReport` instead of an
        opaque timeout.
        """
        self._reset()
        results: list[Any] = [None] * self.nranks
        errors: list[tuple[int, BaseException]] = []
        err_lock = threading.Lock()
        self.state.start()

        def body(rank: int) -> None:
            self._threads[rank] = threading.current_thread()
            comm = ThreadComm(self, rank)
            trace_bind_rank(rank)  # spans on this thread attribute to its rank
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except (RankKilledError, RankHungError):
                # Expected death: already recorded + revoked; survivors
                # decide whether to recover.  The victim returns nothing.
                results[rank] = None
            except BaseException as exc:  # noqa: BLE001 - must not hang peers
                with err_lock:
                    errors.append((rank, exc))
                self.abort(f"rank {rank} raised {type(exc).__name__}: {exc}", cause=exc)
            finally:
                # However this rank leaves, its thread is exiting on
                # purpose — the watchdog must not read the exit (or the
                # ensuing beacon silence) as a crash, in this generation
                # or any survivor generation.  Injected deaths are
                # already in the failure registry and keep priority.
                self.state.mark_done(rank)

        threads = [
            threading.Thread(target=body, args=(r,), name=f"spmd-rank-{r}", daemon=True)
            for r in range(self.nranks)
        ]
        for t in threads:
            t.start()
        for rank, t in enumerate(threads):
            t.join(timeout=self.timeout * 2)
            if t.is_alive():
                # Last resort: declare the laggard dead, revoke (frees
                # hang-parked threads), and give it a beat to unwind.
                self.declare_failed(rank, "timeout", "failed to finish before join deadline")
                t.join(timeout=max(1.0, self.timeout * 0.5))
                if t.is_alive():
                    self.abort("join timeout")
                    report = self.monitor.build_report(detail="join timeout")
                    exc = RankFailureError(
                        f"{t.name} failed to finish (deadlock?)", report=report
                    )
                    exc.blackbox = emit_blackbox(  # type: ignore[attr-defined]
                        f"thread-world join timeout: {t.name}", failure_report=report
                    )
                    raise exc
        if errors:
            # An aborting rank makes its peers unwind with RuntimeAbort /
            # revocation / broken-barrier errors; surface the *root
            # cause* instead of whichever echo happened to come from the
            # lowest rank.
            def is_echo(exc: BaseException) -> bool:
                return isinstance(exc, (RuntimeAbort, RevokedError)) or (
                    isinstance(exc, CommunicatorError) and "barrier broken" in str(exc)
                )

            originals = [(r, e) for r, e in errors if not is_echo(e)]
            if not originals and self.monitor.failures():
                # Every error is an echo of an injected rank death that
                # nobody recovered from: report the failure structurally.
                report = self.monitor.build_report(detail="no recovery attempted")
                exc = RankFailureError(report.summary(), report=report)
                exc.blackbox = emit_blackbox(  # type: ignore[attr-defined]
                    f"thread-world rank failure: {report.summary()}",
                    failure_report=report,
                )
                raise exc
            rank, exc = sorted(originals or errors, key=lambda e: e[0])[0]
            emit_blackbox(f"thread-world abort: rank {rank} raised {type(exc).__name__}")
            raise exc
        return results


class ThreadComm(UlfmComm, Comm):
    """Per-thread communicator handle (a world's or a survivor's)."""

    def __init__(self, world: Any, rank: int) -> None:
        super().__init__(world, rank)
        self._mailboxes = world.root.mailboxes
        self._inbox = self._mailboxes[self._me]

    def _kill_self(self, op: str) -> None:
        """Injected ``kill``: record the death, revoke, unwind this thread."""
        self._monitor.declare_failed(
            self.rank, "kill", f"injected kill at {op}", classification="dead"
        )
        self.world.revoke(f"rank {self._me} killed at {op}")
        raise RankKilledError(
            f"rank {self._me} killed by fault injection at {op}",
            report=self._monitor.build_report(),
        )

    # -- point to point -------------------------------------------------------------

    def send(self, data: np.ndarray, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._pre("send", dest)
        payload = np.ascontiguousarray(data).copy()  # buffered semantics
        mailbox = self._mailboxes[self.parent_ranks[dest]]
        injector = self.world.injector
        if injector is not None:
            delay = injector.straggle_delay(self.rank)
            if delay > 0.0:
                time.sleep(delay)
            action = injector.p2p_action(self.rank, dest, tag)
            if action == "drop":
                return
            if action == "duplicate":
                mailbox.post(Envelope(self._me, tag, payload.copy(), self.gen))
        mailbox.post(Envelope(self._me, tag, payload, self.gen))

    def _matched_recv(
        self, source: int, tag: int, timeout: float | None
    ) -> np.ndarray:
        """Shared blocking-receive core for recv and irecv completion.

        ``timeout=None`` means the world default (a caller-supplied
        ``0`` is honoured as an immediate deadline, not swallowed).  A
        deadline miss is re-raised as a :class:`StallError` carrying the
        watchdog's classification of the awaited peer and the current
        :class:`FailureReport`.
        """
        limit = self.world.timeout if timeout is None else timeout
        src = ANY_SOURCE if source == ANY_SOURCE else self.parent_ranks[source]
        self._state.set_blocked(self._me, True)
        try:
            return self._inbox.match(src, tag, limit, poll=self._progress, gen=self.gen).payload
        except StallError as exc:
            raise self._stalled(exc, source)
        finally:
            self._state.set_blocked(self._me, False)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> np.ndarray:
        if source != ANY_SOURCE:
            self._check_rank(source)
        self._pre("recv", None if source == ANY_SOURCE else source)
        return self._matched_recv(source, tag, timeout)

    def isend(self, data: np.ndarray, dest: int, tag: int = 0) -> Request:
        self.send(data, dest, tag)  # eager buffered: completes on post
        return Request.completed()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        if source != ANY_SOURCE:
            self._check_rank(source)
        self._pre("irecv", None if source == ANY_SOURCE else source)

        def complete(timeout: float | None) -> np.ndarray:
            # The caller's wait(timeout) is honoured verbatim — 0 is a
            # valid immediate deadline, only None falls back to the
            # world default.
            return self._matched_recv(source, tag, timeout)

        src = ANY_SOURCE if source == ANY_SOURCE else self.parent_ranks[source]
        return Request(complete, probe=lambda: self._inbox.peek(src, tag, self.gen))

    # -- one sided ---------------------------------------------------------------------

    def win_create(self, nbytes: int) -> Window:
        self._pre("win_create")
        return self.world.create_window(self, nbytes)


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    faults: FaultPlan | FaultInjector | None = None,
    **kwargs: Any,
) -> list[Any]:
    """One-shot helper: build a :class:`ThreadWorld` and run ``fn`` on it."""
    return ThreadWorld(nranks, timeout=timeout, faults=faults).run(fn, *args, **kwargs)

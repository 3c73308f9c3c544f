"""The ULFM control state: one layout, two backings.

Everything the recovery protocol needs to share between ranks lives in
one fixed-layout byte buffer, so it survives the death of any rank and
reads the same from every observer:

* the world-wide abort flag (with its reason) and one sense-reversing
  barrier per shrink generation, sized to that generation's members;
* per-rank liveness rows: beacon timestamp (machine-wide monotonic ns),
  pid, a *done* flag exempting cleanly-finished ranks from suspicion, a
  *blocked-since* stamp (non-zero while the rank waits in a recv,
  barrier or agreement — what tells a straggler from a wait cycle) and
  the rank's agreement-round cursor;
* the failure registry: one record per rank at most (first declaration
  wins), mirroring :class:`repro.resilience.monitor.RankFailure`;
* generational revocation: unlike the world-fatal abort, a revoked
  world stays usable for recovery, and a revocation is scoped to a
  shrink *generation* — survivors that shrank past it keep working;
* the agreement arena: per-(generation, round) contribution bitmaps
  decided by a pessimistic AND (the ``MPIX_Comm_agree`` analogue), with
  the expected contributor set re-read every quantum so mid-round
  deaths cannot wedge a decision;
* the recovery timeline: detect/agree/shrink/restart phase spans,
  appended by whichever rank observed them.

The two backings differ only in where the bytes and the lock live:
``ControlState(n)`` uses a process-local ``bytearray`` and ``threading``
locks (the thread runtime — no ``/dev/shm`` segment), while
``ControlState(n, name=..., ctx=mp_context)`` maps a named shared-memory
segment guarded by a fork-shared condition (the process runtime).  All
mutation happens under that one condition; beacons and blocked stamps
are single-writer i64 stores and go lockless.

This module imports nothing from the runtime layer: the runtimes import
*it*.
"""

from __future__ import annotations

import struct
import threading
import time
from multiprocessing.shared_memory import SharedMemory
from typing import Callable

from repro.errors import CommunicatorError, RuntimeAbort

__all__ = ["WAIT_QUANTUM", "ROUNDS_PER_GEN", "ControlState"]

#: How often a blocked wait re-checks state and runs its poll callback.
WAIT_QUANTUM = 0.02

#: Agreement rounds available to each shrink generation.
ROUNDS_PER_GEN = 16
#: Shrink generations the agreement arena has room for.
MAX_GENS = 8

_MAX_SPANS = 512

#: One recorded rank failure: rank, detected_at s, last_beat_age s,
#: kind, classification, detail.
_FAIL_REC = struct.Struct("<qdd16s16s96s")
#: One recovery-phase span: rank, t0 s, t1 s, phase name.
_SPAN_REC = struct.Struct("<qdd16s")

# Header words.
(
    _ABORT,
    _ABORT_LEN,
    _REVOKED,
    _REVOKE_LEN,
    _REVOKE_GEN,
    _CUR_GEN,
    _N_FAIL,
    _N_SPAN,
    _T0,
    _STARTED,
) = range(10)
_HDR_WORDS = 16
_ABORT_CAP = 2048
_REVOKE_CAP = 1024

# Barrier words, one triple per shrink generation.
_BAR_COUNT, _BAR_ROUND, _BAR_BROKEN = range(3)

# Rank-row words.
_BEACON, _PID, _FLAGS, _BLOCKED, _AGREE_GEN, _AGREE_ROUND = range(6)
_ROW_WORDS = 6


def _text(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8", "replace")


class _LocalSeg:
    """In-process stand-in for a shared-memory segment: a byte buffer."""

    def __init__(self, buf: bytearray) -> None:
        self.buf = buf


class ControlState:
    """Shared ULFM control plane of one world (see the module docstring).

    Ranks are the world's *original* ranks throughout; shrunk
    communicators translate through their member map (see
    :class:`~repro.resilience.monitor.HeartbeatMonitor`).  Agreement
    bitmaps are arbitrary-width: each is stored in ``8 * ceil(n / 64)``
    bytes, so every world size gets a full-width bitmap.
    """

    def __init__(self, nranks: int, *, name: str | None = None, ctx=None) -> None:
        self.nranks = int(nranks)
        self._bm = 8 * ((self.nranks + 63) // 64)  # bytes per bitmap
        self._bar_off = _HDR_WORDS * 8
        self._abort_off = self._bar_off + MAX_GENS * 3 * 8
        self._revoke_off = self._abort_off + _ABORT_CAP
        self._rank_off = self._revoke_off + _REVOKE_CAP
        self._fail_off = self._rank_off + _ROW_WORDS * 8 * self.nranks
        self._span_off = self._fail_off + self.nranks * _FAIL_REC.size
        self._agree_off = self._span_off + _MAX_SPANS * _SPAN_REC.size
        # Agreement row: decided byte (padded to 8), value, mask, contributions.
        self._slot_size = 8 + (2 + self.nranks) * self._bm
        size = self._agree_off + ROUNDS_PER_GEN * MAX_GENS * self._slot_size
        if name is None:
            self.shm: SharedMemory | _LocalSeg = _LocalSeg(bytearray(size))
            ctx = threading
        else:
            self.shm = SharedMemory(name=name, create=True, size=size)
        self.cond = ctx.Condition(ctx.Lock())
        self._map_views()
        self._words[_T0] = time.perf_counter_ns()

    def _map_views(self) -> None:
        # i64 memoryviews: scalar reads and writes on the transport hot
        # path (beacons, abort/revoke checks) cost a fraction of NumPy's.
        buf = memoryview(self.shm.buf)
        self._words = buf[: _HDR_WORDS * 8].cast("q")
        self._bar = buf[self._bar_off : self._abort_off].cast("q")
        self._rows = buf[self._rank_off : self._fail_off].cast("q")

    def _reason(self, off: int, n: int) -> str:
        return bytes(self.shm.buf[off : off + n]).decode("utf-8", "replace")

    def _set_reason(self, off: int, cap: int, len_word: int, reason: str) -> None:
        encoded = reason.encode("utf-8", "replace")[:cap]
        self.shm.buf[off : off + len(encoded)] = encoded
        self._words[len_word] = len(encoded)

    # -- clock --------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since creation, on a clock shared by every process."""
        return (time.perf_counter_ns() - self._words[_T0]) / 1e9

    # -- abort --------------------------------------------------------------------

    def abort(self, reason: str) -> None:
        """Raise the world-wide abort flag (first reason wins) and wake waiters."""
        with self.cond:
            if not self._words[_ABORT]:
                self._set_reason(self._abort_off, _ABORT_CAP, _ABORT_LEN, reason)
                self._words[_ABORT] = 1
            self.cond.notify_all()

    def abort_reason(self) -> str | None:
        if not self._words[_ABORT]:
            return None
        return self._reason(self._abort_off, self._words[_ABORT_LEN])

    def check_abort(self) -> None:
        reason = self.abort_reason()
        if reason is not None:
            raise RuntimeAbort(reason)

    # -- barrier --------------------------------------------------------------------

    def barrier(
        self,
        gen: int,
        parties: int,
        timeout: float | None,
        *,
        poll: Callable[[], None] | None = None,
        quantum: float = WAIT_QUANTUM,
    ) -> None:
        """Sense-reversing barrier of the ``parties`` members of generation ``gen``.

        Waits in quanta, running ``poll`` outside the lock each quantum
        (it beacons, runs the watchdog, and raises to revoke).  A waiter
        that unwinds abnormally — timeout or a raising poll — marks the
        generation's barrier *broken*, so no peer is left counting on a
        departed participant; later waiters raise
        :class:`CommunicatorError`.  Survivors shrink to a fresh
        generation, whose barrier is intact.  Aborts win over broken.
        """
        if gen >= MAX_GENS:
            raise CommunicatorError(f"no barrier for generation {gen} (max {MAX_GENS})")
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        words = self._bar[gen * 3 : gen * 3 + 3]
        with self.cond:
            self.check_abort()
            if words[_BAR_BROKEN]:
                raise CommunicatorError("barrier broken (timeout or aborted peer)")
            round_no = words[_BAR_ROUND]
            words[_BAR_COUNT] += 1
            if words[_BAR_COUNT] == parties:
                words[_BAR_COUNT] = 0
                words[_BAR_ROUND] = round_no + 1
                self.cond.notify_all()
                return
        try:
            while True:
                with self.cond:
                    if words[_BAR_ROUND] != round_no:
                        return
                    self.check_abort()
                    if words[_BAR_BROKEN]:
                        raise CommunicatorError("barrier broken (timeout or aborted peer)")
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        raise CommunicatorError(
                            f"barrier broken (rank timed out after {now - start:.3f}s)"
                        )
                    wait_t = quantum if deadline is None else min(quantum, deadline - now)
                    self.cond.wait(timeout=wait_t)
                    if words[_BAR_ROUND] != round_no:
                        return  # woken by the last arrival: no poll on the way out
                if poll is not None:
                    poll()
        except BaseException:
            with self.cond:
                words[_BAR_BROKEN] = 1
                self.cond.notify_all()
            raise

    # -- liveness -------------------------------------------------------------------

    def start(self) -> None:
        """Arm the watchdog: reset every beacon to *now*."""
        now = time.perf_counter_ns()
        with self.cond:
            for rank in range(self.nranks):
                self._rows[rank * _ROW_WORDS + _BEACON] = now
            self._words[_STARTED] = 1

    @property
    def started(self) -> bool:
        return bool(self._words[_STARTED])

    def beacon(self, rank: int) -> None:
        self._rows[rank * _ROW_WORDS + _BEACON] = time.perf_counter_ns()

    def beacon_age(self, rank: int) -> float:
        return (time.perf_counter_ns() - self._rows[rank * _ROW_WORDS + _BEACON]) / 1e9

    def set_pid(self, rank: int, pid: int) -> None:
        self._rows[rank * _ROW_WORDS + _PID] = int(pid)

    def pid(self, rank: int) -> int:
        return self._rows[rank * _ROW_WORDS + _PID]

    def mark_done(self, rank: int) -> None:
        with self.cond:
            self._rows[rank * _ROW_WORDS + _FLAGS] |= 1

    def is_done(self, rank: int) -> bool:
        return bool(self._rows[rank * _ROW_WORDS + _FLAGS] & 1)

    def set_blocked(self, rank: int, blocked: bool) -> None:
        """Stamp (or clear) the moment ``rank`` started waiting."""
        self._rows[rank * _ROW_WORDS + _BLOCKED] = time.perf_counter_ns() if blocked else 0

    def blocked_for(self, rank: int) -> float | None:
        """Seconds ``rank`` has been waiting, or None when it is not blocked."""
        since = self._rows[rank * _ROW_WORDS + _BLOCKED]
        return None if since == 0 else (time.perf_counter_ns() - since) / 1e9

    # -- failure registry -------------------------------------------------------------

    def record_failure(
        self,
        rank: int,
        kind: str,
        classification: str,
        detail: str,
        detected_at: float,
        last_beat_age: float,
    ) -> bool:
        """Record a failure; idempotent per rank.  True when this call was first."""
        rec = _FAIL_REC.pack(
            rank,
            detected_at,
            last_beat_age,
            kind.encode("utf-8", "replace")[:16],
            classification.encode("utf-8", "replace")[:16],
            detail.encode("utf-8", "replace")[:96],
        )
        with self.cond:
            n = self._words[_N_FAIL]
            for i in range(n):
                if _FAIL_REC.unpack_from(self.shm.buf, self._fail_off + i * _FAIL_REC.size)[0] == rank:
                    return False
            off = self._fail_off + n * _FAIL_REC.size
            self.shm.buf[off : off + _FAIL_REC.size] = rec
            self._words[_N_FAIL] = n + 1
            self.cond.notify_all()
            return True

    def failures(self) -> list[tuple[int, str, str, str, float, float]]:
        """Recorded failures as (rank, kind, classification, detail, at, age)."""
        out = []
        with self.cond:
            for i in range(self._words[_N_FAIL]):
                rank, at, age, kind, cls, detail = _FAIL_REC.unpack_from(
                    self.shm.buf, self._fail_off + i * _FAIL_REC.size
                )
                out.append((int(rank), _text(kind), _text(cls), _text(detail), at, age))
        return sorted(out)

    def failed_ranks(self) -> frozenset[int]:
        with self.cond:
            return frozenset(
                int(_FAIL_REC.unpack_from(self.shm.buf, self._fail_off + i * _FAIL_REC.size)[0])
                for i in range(self._words[_N_FAIL])
            )

    # -- generational revocation --------------------------------------------------------

    def revoke(self, reason: str, gen: int) -> None:
        """Revoke every communicator at generation ``<= gen``.

        A revocation at a *higher* generation (a second failure after a
        shrink) replaces the reason; same-generation revocations keep
        the first one.
        """
        with self.cond:
            if not self._words[_REVOKED] or gen > self._words[_REVOKE_GEN]:
                self._set_reason(self._revoke_off, _REVOKE_CAP, _REVOKE_LEN, reason)
            self._words[_REVOKE_GEN] = max(self._words[_REVOKE_GEN], gen)
            self._words[_REVOKED] = 1
            self.cond.notify_all()

    def revoked_reason(self, gen: int = 0) -> str | None:
        """The revocation reason applying to generation ``gen`` (or None)."""
        if not self._words[_REVOKED] or self._words[_REVOKE_GEN] < gen:
            return None
        return self._reason(self._revoke_off, self._words[_REVOKE_LEN])

    def bump_gen(self, gen: int) -> None:
        with self.cond:
            self._words[_CUR_GEN] = max(self._words[_CUR_GEN], gen)

    def cur_gen(self) -> int:
        return self._words[_CUR_GEN]

    # -- recovery timeline ----------------------------------------------------------------

    def add_span(self, name: str, rank: int, t0: float, t1: float) -> None:
        rec = _SPAN_REC.pack(rank, t0, t1, name.encode("utf-8", "replace")[:16])
        with self.cond:
            n = self._words[_N_SPAN]
            if n >= _MAX_SPANS:  # pragma: no cover - timeline overflow
                return
            off = self._span_off + n * _SPAN_REC.size
            self.shm.buf[off : off + _SPAN_REC.size] = rec
            self._words[_N_SPAN] = n + 1

    def spans(self) -> list[tuple[str, int, float, float]]:
        out = []
        with self.cond:
            for i in range(self._words[_N_SPAN]):
                rank, t0, t1, name = _SPAN_REC.unpack_from(
                    self.shm.buf, self._span_off + i * _SPAN_REC.size
                )
                out.append((_text(name), int(rank), t0, t1))
        return out

    # -- agreement (MPIX_Comm_agree analogue) --------------------------------------------

    def next_slot(self, rank: int, gen: int) -> int:
        """Allocate ``rank``'s next agreement slot within generation ``gen``.

        Every rank of a generation walks the same slot sequence, so the
        k-th ``agree`` of each survivor meets in one slot.
        """
        at = rank * _ROW_WORDS
        if self._rows[at + _AGREE_GEN] != gen:
            self._rows[at + _AGREE_GEN] = gen
            self._rows[at + _AGREE_ROUND] = 0
        round_no = self._rows[at + _AGREE_ROUND]
        if round_no >= ROUNDS_PER_GEN or gen >= MAX_GENS:
            raise CommunicatorError(
                f"rank {rank}: agreement arena exhausted at generation {gen} round "
                f"{round_no} ({ROUNDS_PER_GEN} rounds x {MAX_GENS} generations)"
            )
        self._rows[at + _AGREE_ROUND] = round_no + 1
        return gen * ROUNDS_PER_GEN + round_no

    def _bits(self, off: int) -> int:
        return int.from_bytes(self.shm.buf[off : off + self._bm], "little")

    def _set_bits(self, off: int, value: int) -> None:
        self.shm.buf[off : off + self._bm] = value.to_bytes(self._bm, "little")

    def agree_wait(
        self,
        slot: int,
        rank: int,
        bitmap: int,
        *,
        nranks: int,
        absent: Callable[[], frozenset[int]],
        poll: Callable[[], None] | None = None,
        timeout: float | None = None,
        quantum: float = WAIT_QUANTUM,
    ) -> int:
        """Contribute ``bitmap`` to ``slot`` and block for the decision.

        ``nranks`` is the calling communicator's size (ranks and bitmap
        bits use its dense numbering); ``absent`` returns the ranks that
        will never contribute (dead or cleanly done) and is re-read every
        quantum, so deaths mid-round shrink the expected set.  The first
        rank to observe a complete round freezes the decision — the AND
        of the expected contributions with absent ranks masked out — and
        every other rank, late contributors included, returns that same
        frozen value.  ``poll`` runs outside the lock each quantum and
        must not raise on revoke (agreement is the recovery path).
        """
        base = self._agree_off + slot * self._slot_size
        value_off, mask_off = base + 8, base + 8 + self._bm
        contrib_off = base + 8 + 2 * self._bm
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        with self.cond:
            self._set_bits(contrib_off + rank * self._bm, int(bitmap))
            self._set_bits(mask_off, self._bits(mask_off) | 1 << rank)
            self.cond.notify_all()
        while True:
            gone = frozenset(absent())
            expected = [r for r in range(nranks) if r not in gone]
            with self.cond:
                if self.shm.buf[base]:
                    return self._bits(value_off)
                mask = self._bits(mask_off)
                if expected and all(mask >> r & 1 for r in expected):
                    value = (1 << nranks) - 1
                    for r in expected:
                        value &= self._bits(contrib_off + r * self._bm)
                    for r in gone:
                        value &= ~(1 << r)
                    self._set_bits(value_off, value)
                    self.shm.buf[base] = 1
                    self.cond.notify_all()
                    return value
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    have = [r for r in range(nranks) if mask >> r & 1]
                    raise CommunicatorError(
                        f"rank {rank}: agreement round {slot} timed out after "
                        f"{now - start:.3f}s (have {have}, waiting on "
                        f"{[r for r in expected if r not in have]}, dead {sorted(gone)})"
                    )
                wait_t = quantum if deadline is None else min(quantum, deadline - now)
                self.cond.wait(timeout=wait_t)
                if self.shm.buf[base]:
                    return self._bits(value_off)  # woken by the deciding rank
            # Outside the lock: beacon + watchdog scan, so a contributor
            # dying mid-round is declared and drops out of the expected set.
            if poll is not None:
                poll()

    # -- lifecycle ------------------------------------------------------------------------

    def destroy(self) -> None:
        """Unlink a shared segment, keeping a local snapshot readable.

        The parent interprets a run (failure registry, recovery
        timeline) *after* the world's segments are unlinked; swapping
        the mapping for a byte copy keeps every read method working
        post-mortem.  A no-op for the in-process backing.
        """
        if isinstance(self.shm, _LocalSeg):
            return
        from repro.runtime.shm import quiet_close  # runtime imports this module

        old = self.shm
        self.shm = _LocalSeg(bytearray(old.buf))
        self._map_views()
        quiet_close(old)
        try:
            old.unlink()
        except FileNotFoundError:
            pass

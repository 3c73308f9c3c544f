"""Thread-runtime-specific tests.

The backend-agnostic ``Comm`` semantics (point-to-point, tag matching,
collectives, windows, abort propagation) moved to
``test_runtime_contract.py``, where they run against *every* runtime.
What stays here is behaviour only the thread substrate promises: ranks
share one address space, so closures over Python objects are visible
across ranks, and a world object can be driven directly — and reused,
with every run starting from fresh liveness state.
"""

from __future__ import annotations

import glob
import time

import numpy as np
import pytest

from repro.errors import CommunicatorError, RevokedError, StallError
from repro.faults import FaultPlan, FaultRule
from repro.runtime import ThreadWorld, run_spmd
from repro.runtime.shm import SEG_PREFIX


class TestSharedAddressSpace:
    """Threads (unlike processes) share Python objects across ranks."""

    def test_closure_mutation_visible_across_ranks(self):
        order = []

        def kernel(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                order.append("slow")
            comm.barrier()
            if comm.rank == 1:
                order.append("after")

        run_spmd(2, kernel)
        assert order == ["slow", "after"]

    def test_send_does_not_alias_sender_buffer(self):
        """Even in one address space, send() must deep-copy (buffered
        semantics) — the receiver must never see the sender's later
        mutation through an aliased array."""

        def kernel(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.send(buf, dest=1)
                buf[:] = -1.0
                return None
            time.sleep(0.05)  # mutate-before-recv only works with threads
            return comm.recv(source=0)

        res = run_spmd(2, kernel)
        assert np.array_equal(res[1], np.ones(4))


class TestWorldLifecycle:
    def test_world_rejects_zero_ranks(self):
        with pytest.raises(CommunicatorError):
            ThreadWorld(0)

    def test_world_is_reusable(self):
        """A ThreadWorld (unlike a ProcessWorld) supports repeated runs."""
        world = ThreadWorld(2, timeout=10.0)
        first = world.run(lambda comm: comm.allgather(comm.rank))
        second = world.run(lambda comm: comm.allgather(comm.rank + 10))
        assert first == [[0, 1]] * 2
        assert second == [[10, 11]] * 2

    def test_run_creates_no_shm_segment(self):
        """The thread world's control state is an in-process buffer."""
        pattern = f"/dev/shm/{SEG_PREFIX}*"
        before = set(glob.glob(pattern))

        def kernel(comm):
            comm.barrier()  # every rank's state is live while we look
            live = set(glob.glob(pattern)) - before
            comm.barrier()
            return sorted(live), comm.agree()

        assert ThreadWorld(3).run(kernel) == [([], 0b111)] * 3


def _ring_then_shrink(tag):
    """Ring traffic until a failure revokes the world, then shrink and
    move data over the survivors.  Returns (recv'd, alltoallv rows,
    seconds from kernel start to the revocation)."""

    def kernel(comm):
        t0 = time.monotonic()
        try:
            for i in range(400):
                req = comm.isend(
                    np.full(8, comm.rank, dtype=np.float64),
                    (comm.rank + 1) % comm.size,
                    tag=tag,
                )
                comm.recv((comm.rank - 1) % comm.size, tag=tag)
                req.wait()
        except (RevokedError, StallError):
            detected = time.monotonic() - t0
            sub = comm.shrink()
            peer = (sub.rank + 1) % sub.size
            req = sub.isend(np.arange(4) + sub.rank, peer, tag=tag + 1)
            got = sub.recv((sub.rank - 1) % sub.size, tag=tag + 1)
            req.wait()
            sub.barrier()
            rows = sub.alltoallv([np.array([sub.rank * 10 + d]) for d in range(sub.size)])
            return int(got[0]), [int(r[0]) for r in rows], detected
        return "victim-finished"

    return kernel


class TestMultiRun:
    """A reused world starts every run from fresh liveness state."""

    def test_hang_after_clean_run_is_detected_and_recovered(self):
        plan = FaultPlan(rules=[FaultRule(kind="hang", rank=2, after=8)])
        world = ThreadWorld(3, timeout=8.0, faults=plan, suspect_after=0.25)
        assert world.run(lambda comm: comm.rank) == [0, 1, 2]  # clean run: no ops
        res = world.run(_ring_then_shrink(tag=6))
        assert res[2] is None
        assert [r[:2] for r in res[:2]] == [(1, [0, 10]), (0, [1, 11])]
        # Detected by the watchdog, far under the 8 s world timeout.
        assert max(r[2] for r in res[:2]) < 4.0
        (failure,) = world.monitor.failures()
        assert failure.rank == 2 and failure.classification == "deadlock"

    def test_agree_after_kill_episode_does_not_block(self):
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=2, after=8)])
        world = ThreadWorld(3, timeout=8.0, faults=plan, suspect_after=0.5)
        res = world.run(_ring_then_shrink(tag=6))
        assert [r[:2] for r in res[:2]] == [(1, [0, 10]), (0, [1, 11])]
        t0 = time.monotonic()
        assert world.run(lambda comm: comm.agree()) == [0b111] * 3
        assert time.monotonic() - t0 < 4.0
        assert world.monitor.failures() == []

    def test_two_failure_episodes_both_shrink_and_move_data(self):
        """Survivor communicators never outlive their run: a second kill
        episode on the same world shrinks afresh and moves data."""
        plan = FaultPlan(rules=[FaultRule(kind="kill", rank=2, after=8, max_triggers=2)])
        world = ThreadWorld(3, timeout=8.0, faults=plan, suspect_after=0.5)
        for _ in range(2):
            res = world.run(_ring_then_shrink(tag=6))
            assert res[2] is None
            assert [r[:2] for r in res[:2]] == [(1, [0, 10]), (0, [1, 11])]
        assert world.injector.injected("kill") == 2

"""The three workloads and the closed loop of forward+inverse FFT pairs.

A *pair* is one ``Fft3d`` forward transform followed by the inverse of
its result (the spectral solver's pattern).  Every rank runs the same
closed loop with one caller: barrier, pair, barrier, so a pair's time
is the slowest rank's time, and the next pair starts as soon as the
last one ended.  Between pairs, outside the timed interval, each rank
reduces its outputs against the NumPy reference to squared L2 norms.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import resource
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench.tracing import PAIR

#: Warm-up ends once a pair leaves every rank's buffer pool miss count
#: unchanged (the pool then allocates nothing), but not before
#: ``MIN_WARM`` pairs and never after ``MAX_WARM``.
MIN_WARM, MAX_WARM = 2, 8
#: A timed loop runs at least this many pairs, however long they take.
MIN_PAIRS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    runtime: str  # "thread", "proc" or "virtual"
    n: int  # grid edge: the grid is n^3
    nranks: int
    e_tol: float | None = None
    fixed_cast: str | None = None  # CastCodec format, e.g. "fp32"

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    def make_plan(self):
        from repro.compression import CastCodec
        from repro.fft.plan import Fft3d

        codec = CastCodec(self.fixed_cast) if self.fixed_cast else None
        return Fft3d(self.shape, self.nranks, e_tol=self.e_tol, codec=codec)

    def make_world(self):
        from repro.runtime import ProcessWorld, ThreadWorld

        if self.runtime == "thread":
            return ThreadWorld(self.nranks)
        if self.runtime == "proc":
            return ProcessWorld(self.nranks)
        return None  # virtual: Fft3d.forward builds its own VirtualWorld


# Why each workload is here is recorded in BENCHMARK.json.  In short:
# thread-64-etol exercises codec encode, e_tol verification, wire framing
# and per-exchange windows; proc-128-exact runs none of those (the
# no-change workload for codec work) but moves big messages through shm
# windows; virtual-64-p256 sends 11264 tiny messages per forward, so
# per-message plan geometry and pack/unpack dominate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("thread-64-etol", "thread", 64, 2, e_tol=1e-6),
        Workload("proc-128-exact", "proc", 128, 2),
        Workload("virtual-64-p256", "virtual", 64, 256, fixed_cast="fp32"),
    )
}


@dataclass
class Inputs:
    """What one seed generates: the input grid and its forward reference."""

    x: np.ndarray
    ref: np.ndarray
    x_blocks: list[np.ndarray]  # per-rank brick blocks of x
    ref_blocks: list[np.ndarray]  # per-rank brick blocks of the reference


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Uniform random real data from ``seed`` and ``numpy.fft.fftn`` of it (fp64).

    The data is uniform on [-1, 1): with zero mean no single DC term
    dominates the spectrum, so the relative L2 error averages over many
    roundings instead of hinging on a few, and repeats closely across seeds.
    """
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, workload.shape)
    ref = np.fft.fftn(x)
    if workload.runtime == "virtual":
        return Inputs(x, ref, [], [])
    plan = workload.make_plan()
    return Inputs(x, ref, plan.scatter(x), plan.scatter(ref))


@dataclass
class Loop:
    """What one world run measured (merged over ranks where it applies)."""

    setup_s: float
    pair_s: list[float] = field(default_factory=list)
    fwd_err: list[float] = field(default_factory=list)
    rt_err: list[float] = field(default_factory=list)
    logs: list[Any] = field(default_factory=list)
    pool_counters: list[dict[str, int]] = field(default_factory=list)
    child_rss_kb: int = 0


def _pool_delta(pool, before: dict[str, int]) -> dict[str, int]:
    now = pool.counters()
    return {k: now[k] - before[k] for k in ("hits", "misses")}


def spmd_kernel(comm, plan, inputs: Inputs, t_start: float, seconds: float,
                max_pairs: int, tracer) -> dict[str, Any]:
    """One rank's warm-up and timed loop on a thread or process world."""
    from repro.tuning.pool import BufferPool

    rank = comm.rank
    pool = BufferPool(name=f"bench-rank{rank}")
    x, ref = inputs.x_blocks[rank], inputs.ref_blocks[rank]

    def pair():
        y = plan.forward_spmd(comm, x, pool=pool)
        return y, plan.forward_spmd(comm, y, inverse=True, pool=pool)

    for k in range(MAX_WARM):
        misses = pool.misses
        pair()
        if all(comm.allgather(pool.misses == misses)) and k + 1 >= MIN_WARM:
            break
    comm.barrier()
    out: dict[str, Any] = {"setup_s": time.perf_counter() - t_start}
    if max_pairs == 0:
        return out

    log = tracer.bind(rank) if tracer is not None else None
    before = pool.counters()
    pair_s, sq = [], []
    t_loop = time.perf_counter()
    while True:
        comm.barrier()
        t0 = time.perf_counter()
        idx = log.open(PAIR) if log is not None else -1
        y, z = pair()
        comm.barrier()
        if log is not None:
            log.close(idx)
        t1 = time.perf_counter()
        pair_s.append(t1 - t0)
        sq.append((_sq_error(y, ref), _sq_error(z, x)))
        done = len(pair_s) >= max_pairs or (t1 - t_loop >= seconds and len(pair_s) >= MIN_PAIRS)
        if comm.bcast(done, root=0):
            break
    if tracer is not None:
        tracer.unbind()
    out.update(
        pair_s=pair_s,
        sq=sq,
        norms=(_sq(ref), _sq(x)),
        log=log,
        pool=_pool_delta(pool, before),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


def _sq(a: np.ndarray) -> float:
    a = a.reshape(-1)
    return float(np.vdot(a, a).real)


def _sq_error(out: np.ndarray, ref: np.ndarray) -> float:
    """``||out - ref||^2``, computed in place: the pair's output is not used again."""
    np.subtract(out, ref, out=out)
    return _sq(out)


def run_spmd(workload: Workload, inputs: Inputs, *, seconds: float, max_pairs: int,
             tracer=None) -> Loop:
    """Build a world and a plan, warm up, then (if ``max_pairs``) run the loop.

    ``setup_s`` covers world construction, plan build, thread start or
    fork, and the warm-up pairs.  A process world is checked for leaked
    shared-memory segments and unreaped children afterwards.
    """
    t_start = time.perf_counter()
    world = workload.make_world()
    plan = workload.make_plan()
    results = world.run(spmd_kernel, plan, inputs, t_start, seconds, max_pairs, tracer)
    if workload.runtime == "proc":
        check_proc_hygiene(world.uid)
    loop = Loop(setup_s=results[0]["setup_s"])
    if max_pairs == 0:
        return loop
    loop.pair_s = results[0]["pair_s"]
    ref_sq = sum(r["norms"][0] for r in results)
    x_sq = sum(r["norms"][1] for r in results)
    for i in range(len(loop.pair_s)):
        loop.fwd_err.append(float(np.sqrt(sum(r["sq"][i][0] for r in results) / ref_sq)))
        loop.rt_err.append(float(np.sqrt(sum(r["sq"][i][1] for r in results) / x_sq)))
    loop.logs = [r["log"] for r in results if r["log"] is not None]
    loop.pool_counters = [r["pool"] for r in results]
    if workload.runtime == "proc":
        loop.child_rss_kb = sum(r["rss_kb"] for r in results)
    return loop


def run_virtual(workload: Workload, inputs: Inputs, *, seconds: float, max_pairs: int,
                tracer=None) -> Loop:
    """The virtual-world loop: ``Fft3d.forward`` then ``backward`` on global arrays.

    ``forward``/``backward`` are called without a world, so each builds
    its own ``VirtualWorld``; a reused world would keep every message's
    size in its traffic log and grow for the whole run.
    """
    t_start = time.perf_counter()
    plan = workload.make_plan()
    x, ref = inputs.x, inputs.ref
    plan.backward(plan.forward(x))  # warm-up: no pool, nothing else to warm
    loop = Loop(setup_s=time.perf_counter() - t_start)
    if max_pairs == 0:
        return loop
    log = tracer.bind(0) if tracer is not None else None
    ref_norm, x_norm = np.sqrt(_sq(ref)), np.sqrt(_sq(x))
    t_loop = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        idx = log.open(PAIR) if log is not None else -1
        y = plan.forward(x)
        z = plan.backward(y)
        if log is not None:
            log.close(idx)
        t1 = time.perf_counter()
        loop.pair_s.append(t1 - t0)
        loop.fwd_err.append(float(np.sqrt(_sq_error(y, ref)) / ref_norm))
        loop.rt_err.append(float(np.sqrt(_sq_error(z, x)) / x_norm))
        n = len(loop.pair_s)
        if n >= max_pairs or (t1 - t_loop >= seconds and n >= MIN_PAIRS):
            break
    if tracer is not None:
        tracer.unbind()
        loop.logs = [log]
    return loop


def run_loop(workload: Workload, inputs: Inputs, *, seconds: float, max_pairs: int,
             tracer=None) -> Loop:
    runner = run_virtual if workload.runtime == "virtual" else run_spmd
    return runner(workload, inputs, seconds=seconds, max_pairs=max_pairs, tracer=tracer)


def allowed_error(workload: Workload) -> float:
    """``Fft3d.guaranteed_tolerance`` plus the fp64 FFT round-off bound of the grid."""
    from repro.accuracy.bounds import fft_roundoff_bound

    plan = workload.make_plan()
    return plan.guaranteed_tolerance + fft_roundoff_bound(int(np.prod(workload.shape)))


class LeakError(RuntimeError):
    """A process world left a shared-memory segment or a child behind."""


def check_proc_hygiene(uid: str) -> None:
    """No ``/dev/shm`` segment of world ``uid`` and no unreaped child may remain."""
    leaked = sorted(glob.glob(f"/dev/shm/{uid}*"))
    children = mp.active_children()  # also reaps finished children
    if leaked or children:
        raise LeakError(f"world {uid} left segments {leaked} and children {children}")

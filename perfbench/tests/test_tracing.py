"""Tests of the benchmark's tracing: self-time arithmetic, restore, repeatable counts."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.tracing import (
    CODE,
    PAIR,
    RankLog,
    Tracer,
    entry_points,
    layer_metrics,
    rank_breakdown,
    self_times,
)
from perfbench.workloads import WORKLOADS, Workload, make_inputs, run_loop

BOX = {"box.memcpy_gbps": 1.0, "box.fftn_pair_ms": 1.0}


def synthetic_log() -> RankLog:
    """pair [0, 10] ms > run [1, 4] > pack [2, 3];  pair > fft.plan [5, 9]."""
    log = RankLog(0)
    ms = 1e-3
    pair = log.add_span(PAIR, 0 * ms, 10 * ms)
    run = log.add_span(CODE["reshape.run"], 1 * ms, 4 * ms, parent=pair)
    log.add_span(CODE["reshape.pack"], 2 * ms, 3 * ms, parent=run)
    log.add_span(CODE["fft.plan"], 5 * ms, 9 * ms, parent=pair)
    return log


def test_children_subtract_from_self_time():
    got = self_times(synthetic_log().table()) * 1e3
    # pair: 10 - (3 + 4); run: 3 - 1; pack: 1; fft.plan: 4 (no children)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 4.0], atol=1e-9)


def test_unattributed_is_total_minus_layer_self_times():
    log = synthetic_log()
    b = rank_breakdown(log)
    layer_self = 2.0 + 1.0  # reshape.run + reshape.pack; pair and fft.plan are no layer
    assert b["pair_ms"] == pytest.approx(10.0)
    assert b["layer_self_ms"] == pytest.approx(layer_self)
    assert b["unattributed_ms"] == pytest.approx(10.0 - layer_self)
    # ... which is the self time of the spans that belong to no layer.
    selft = self_times(log.table()) * 1e3
    assert b["unattributed_ms"] == pytest.approx(selft[0] + selft[3])


def test_spans_outside_pairs_are_ignored():
    log = synthetic_log()
    log.add_span(CODE["runtime.allgather"], 11e-3, 12e-3)  # harness stop vote
    b = rank_breakdown(log)
    assert b["runtime.allgather.calls"] == 0
    assert b["unattributed_ms"] == pytest.approx(7.0)


def _class_state() -> dict:
    return {(id(owner), attr): owner.__dict__.get(attr, "<missing>") for owner, attr, _ in entry_points()}


def test_wrappers_are_fully_restored_after_a_traced_run():
    from repro.runtime.thread_rt import ThreadComm

    before = _class_state()
    assert "allgather" not in ThreadComm.__dict__  # inherited from Comm
    workload = Workload("t", "thread", 16, 2, e_tol=1e-6)
    inputs = make_inputs(workload, seed=3)
    with Tracer() as tracer:
        assert "allgather" in ThreadComm.__dict__
        assert all(before[key] is not now for key, now in _class_state().items())
        loop = run_loop(workload, inputs, seconds=1e9, max_pairs=2, tracer=tracer)
    assert _class_state() == before
    assert "allgather" not in ThreadComm.__dict__
    assert len(loop.logs) == 2 and all(len(log) for log in loop.logs)


def test_wrappers_are_restored_when_a_rank_raises():
    before = _class_state()
    workload = Workload("t", "thread", 16, 2)
    inputs = make_inputs(workload, seed=1)
    inputs.x_blocks.clear()  # every rank fails to find its block
    with pytest.raises(IndexError):
        with Tracer() as tracer:
            run_loop(workload, inputs, seconds=1, max_pairs=1, tracer=tracer)
    assert _class_state() == before


COUNT_METRICS = (
    "reshape.messages_per_pair",
    "decomposition.geometry_calls_per_pair",
    "compression.ratio",
    "accuracy.verify_calls_per_pair",
    "runtime.win_create_per_pair",
    "runtime.allgather_per_pair",
)


def traced_counts(workload: Workload, seed: int) -> dict[str, float]:
    inputs = make_inputs(workload, seed)
    with Tracer() as tracer:
        loop = run_loop(workload, inputs, seconds=1e9, max_pairs=2, tracer=tracer)
    metrics = layer_metrics(loop.logs, pool_counters=loop.pool_counters,
                            traced_p50_ms=1.0, untraced_p50_ms=1.0, box=BOX)
    assert not loop.fwd_err or max(loop.fwd_err) < 1e-6
    return {k: metrics[k] for k in COUNT_METRICS}


@pytest.mark.parametrize(
    "workload",
    [
        WORKLOADS["thread-64-etol"],
        Workload("proc-small", "proc", 24, 2),
        Workload("virtual-small", "virtual", 16, 16, fixed_cast="fp32"),
    ],
    ids=lambda w: w.name,
)
def test_count_metrics_repeat_exactly(workload):
    first = traced_counts(workload, seed=7)
    assert traced_counts(workload, seed=7) == first
    assert first["reshape.messages_per_pair"] > 0


def test_thread_64_etol_counts_match_the_program():
    counts = traced_counts(WORKLOADS["thread-64-etol"], seed=1)
    assert counts["runtime.win_create_per_pair"] == 8
    assert counts["accuracy.verify_calls_per_pair"] == 12
    assert counts["runtime.allgather_per_pair"] == 16
    assert counts["compression.ratio"] == 2.0

"""repro.trace — per-rank tracing, metrics and exporters.

The opt-in observability layer: nestable spans with the paper's
time-decomposition taxonomy (pack / compress / put / fence /
decompress / unpack / local_fft / retry), typed counters (logical and
wire bytes, messages, retries, degradations) — the vocabulary is
:data:`repro.obs.KINDS`, and instrumented code emits through
:mod:`repro.obs` — Chrome ``trace_event``
export with one lane per rank, aggregated text summaries and the
``BENCH_*.json`` emitter.  See DESIGN.md §7.
"""

from repro.trace.bench import BENCH_SCHEMA, bench_payload, write_bench_json
from repro.trace.core import (
    InstantEvent,
    SpanEvent,
    Tracer,
    bind_rank,
    get_tracer,
    incr,
    install,
    instant,
    span,
    tracing,
    uninstall,
)
from repro.trace.export import (
    chrome_trace,
    span_aggregates,
    summarize,
    write_chrome_trace,
)

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
    "chrome_trace",
    "write_chrome_trace",
    "summarize",
    "span_aggregates",
    "BENCH_SCHEMA",
    "bench_payload",
    "write_bench_json",
]

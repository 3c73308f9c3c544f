"""Metrics registry: named counters, gauges and histograms.

Fed by :mod:`repro.obs` from the same emit calls as the tracer but
independent of it — the registry is process-global and always on, so an
operator can scrape wire vs logical bytes, compression ratios,
error-budget headroom, pool hit rates and recovery phases from a run
that never installed a :class:`~repro.trace.core.Tracer`.

Exports:

* :meth:`MetricsRegistry.prometheus` — Prometheus text exposition
  format (``# TYPE`` lines, ``{label="..."}`` series, histogram
  ``_bucket``/``_sum``/``_count`` triples);
* :meth:`MetricsRegistry.snapshot` — a JSON-able dict, written
  by :func:`write_snapshot` and embedded into black-box
  crash dumps.

Metric names follow Prometheus conventions (``repro_wire_bytes_total``,
``repro_error_headroom``); labels are passed as keyword arguments and
are part of the series identity.  All mutators are no-ops while the
telemetry layer is disarmed (see :func:`repro.telemetry.configure`).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from bisect import bisect_left
from itertools import accumulate
from typing import Any

from repro.telemetry import recorder as _recorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "write_snapshot",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets (seconds-ish scale; callers override for
#: byte-scale observations).
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class _Metric:
    """Shared identity: name + sorted label pairs."""

    kind = "untyped"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    def label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in self.labels)
        return "{" + inner + "}"


class Counter(_Metric):
    """Monotonically increasing count (negative increments are rejected)."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _recorder._enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Metric):
    """A value that goes up and down (headroom, ratio, liveness)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _recorder._enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _recorder._enabled:
            return
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)  # per bucket, +Inf last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _recorder._enabled:
            return
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            self._counts[bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(accumulate(self._counts))
        return list(zip((*self.buckets, float("inf")), counts))


class MetricsRegistry:
    """Process-global store of metric series, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], _Metric] = {}
        self._handles: dict[tuple[str, tuple], _Metric] = {}

    # -- get-or-create ----------------------------------------------------------------

    def _series(self, cls, name: str, labels: dict[str, Any], **kwargs) -> _Metric:
        key = (_check_name(name), tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(key[0], key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
        return metric

    def handle(self, cls, name: str, labels: tuple = ()) -> _Metric:
        """Series by ``(name, labels)`` as given — the emit path's lookup:
        resolved through :meth:`_series` once, then one dict probe."""
        metric = self._handles.get((name, labels))
        if metric is None:
            metric = self._handles[(name, labels)] = self._series(cls, name, dict(labels))
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._series(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._series(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        kwargs = {} if buckets is None else {"buckets": tuple(buckets)}
        return self._series(Histogram, name, labels, **kwargs)  # type: ignore[return-value]

    # -- export ----------------------------------------------------------------------

    def _sorted_metrics(self) -> list[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: (m.name, m.labels))

    def prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        typed: set[str] = set()
        for metric in self._sorted_metrics():
            if metric.name not in typed:
                typed.add(metric.name)
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                base_labels = list(metric.labels)
                for bound, count in metric.cumulative():
                    pairs = base_labels + [("le", _format_value(bound))]
                    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
                    lines.append(f"{metric.name}_bucket{{{inner}}} {count}")
                lines.append(f"{metric.name}_sum{metric.label_str()} {_format_value(metric.sum)}")
                lines.append(f"{metric.name}_count{metric.label_str()} {metric.count}")
            else:
                lines.append(
                    f"{metric.name}{metric.label_str()} {_format_value(metric.value)}"  # type: ignore[attr-defined]
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """JSON-able snapshot of every series (embedded in crash dumps)."""
        series = []
        for metric in self._sorted_metrics():
            entry: dict[str, Any] = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry["count"] = metric.count
                entry["sum"] = metric.sum
                entry["buckets"] = [
                    {"le": b if b != float("inf") else "+Inf", "count": c}
                    for b, c in metric.cumulative()
                ]
            else:
                entry["value"] = metric.value  # type: ignore[attr-defined]
            series.append(entry)
        return {"schema": "repro-metrics-v1", "series": series}

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._handles.clear()


# -- module-global registry ------------------------------------------------------------

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def counter(name: str, **labels: Any) -> Counter:
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return _registry.gauge(name, **labels)


def histogram(name: str, buckets: tuple[float, ...] | None = None, **labels: Any) -> Histogram:
    return _registry.histogram(name, buckets=buckets, **labels)


def write_snapshot(path: str, *, registry: MetricsRegistry | None = None) -> str:
    """Write one JSON snapshot of the (default) registry to ``path``,
    atomically (tmp + rename) so a scraper never reads a torn file."""
    payload = (registry if registry is not None else _registry).snapshot()
    payload["written_at"] = time.time()
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return path

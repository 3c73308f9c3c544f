"""Always-on observability: flight recorder, metrics, black-box dumps.

The tracer (:mod:`repro.trace`) answers "why was this run slow" when
you *planned* to ask; :mod:`repro.telemetry` answers "what just
happened" when you didn't.  Three always-available pieces, fed by the
same :mod:`repro.obs` emit calls as the tracer (DESIGN.md §13):

* **flight recorder** (:mod:`~repro.telemetry.recorder`) — bounded
  per-rank rings of recent events, always armed, dumped as a black-box
  crash report on failure (:mod:`~repro.telemetry.blackbox`);
* **metrics registry** (:mod:`~repro.telemetry.metrics`) — counters,
  gauges and histograms with Prometheus text export and JSON
  snapshots, plus JSON-lines structured logging
  (:mod:`~repro.telemetry.jsonlog`);
* **live monitor** (:mod:`~repro.telemetry.monitor_cli`) — ``python -m
  repro monitor`` tails a running proc-world through its shared
  telemetry segment (:mod:`~repro.telemetry.shmseg`).
"""

from repro.telemetry.blackbox import (
    BLACKBOX_SCHEMA,
    arm_signal_dump,
    build_blackbox,
    disarm_signal_dump,
    emit_blackbox,
    format_blackbox,
    last_blackbox,
    read_blackbox,
    set_last_blackbox,
    write_blackbox,
)
from repro.telemetry.jsonlog import JsonLinesLogger, new_correlation_id
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    write_snapshot,
)
from repro.telemetry.recorder import (
    DEFAULT_CAPACITY,
    FlightEvent,
    FlightRecorder,
    configure,
    flight,
    get_recorder,
    install_sink,
    is_enabled,
    live_add_many,
    live_update,
    reset,
)

#: :mod:`~repro.telemetry.shmseg` names resolved lazily — that module
#: imports the runtime layer (for ``quiet_close``), and the runtime
#: imports telemetry leaves back, so an eager import here would cycle.
_SHMSEG_NAMES = (
    "ShmTelemetry",
    "DEFAULT_SHM_CAPACITY",
    "monitor_dir",
    "write_runfile",
    "remove_runfile",
    "list_runfiles",
)


def __getattr__(name: str):
    if name in _SHMSEG_NAMES:
        from repro.telemetry import shmseg

        return getattr(shmseg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # recorder
    "DEFAULT_CAPACITY",
    "FlightEvent",
    "FlightRecorder",
    "flight",
    "live_update",
    "live_add_many",
    "get_recorder",
    "install_sink",
    "reset",
    "configure",
    "is_enabled",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "write_snapshot",
    # jsonlog
    "JsonLinesLogger",
    "new_correlation_id",
    # shm segment
    "ShmTelemetry",
    "DEFAULT_SHM_CAPACITY",
    "monitor_dir",
    "write_runfile",
    "remove_runfile",
    "list_runfiles",
    # blackbox
    "BLACKBOX_SCHEMA",
    "build_blackbox",
    "write_blackbox",
    "read_blackbox",
    "format_blackbox",
    "emit_blackbox",
    "last_blackbox",
    "set_last_blackbox",
    "arm_signal_dump",
    "disarm_signal_dump",
]

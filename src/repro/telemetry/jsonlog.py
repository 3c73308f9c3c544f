"""Structured JSON-lines logging with rank/span correlation ids.

One line per event, machine-parseable, correlated: every line carries a
wall-clock timestamp, a monotonic ``t_ns`` (the same clock as flight
events and trace spans, so log lines interleave with both), the rank
that emitted it and an optional correlation id tying the line to a
logical operation (an exchange round, a recovery episode, one FFT).

The logger is *opt-in* (unlike the flight recorder): an application
writes through a :class:`JsonLinesLogger` it owns.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Any, TextIO

__all__ = [
    "JsonLinesLogger",
    "new_correlation_id",
]

_corr_lock = threading.Lock()
_corr_counter = 0


def new_correlation_id(prefix: str = "op") -> str:
    """A short process-unique correlation id (``op-<pid>-<n>``)."""
    global _corr_counter
    with _corr_lock:
        _corr_counter += 1
        return f"{prefix}-{os.getpid():x}-{_corr_counter:x}"


class JsonLinesLogger:
    """Append-only JSON-lines sink (file path or open text stream).

    Lines are single ``json.dumps`` objects terminated by ``\\n`` and
    flushed per event — a crash loses at most the event being written.
    """

    def __init__(
        self,
        target: str | TextIO,
        *,
        rank: int | None = None,
        run_id: str | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._own = isinstance(target, str)
        self._stream: TextIO = (
            open(target, "a", encoding="utf-8") if isinstance(target, str) else target
        )
        self.rank = rank
        self.run_id = run_id or new_correlation_id("run")
        self.lines = 0

    def log(
        self,
        event: str,
        *,
        level: str = "info",
        rank: int | None = None,
        corr: str | None = None,
        **fields: Any,
    ) -> dict[str, Any]:
        """Emit one structured line; returns the object written."""
        obj: dict[str, Any] = {
            "ts": time.time(),
            "t_ns": time.perf_counter_ns(),
            "level": level,
            "event": event,
            "run": self.run_id,
        }
        effective_rank = self.rank if rank is None else rank
        if effective_rank is not None:
            obj["rank"] = int(effective_rank)
        if corr is not None:
            obj["corr"] = corr
        obj.update(fields)
        line = json.dumps(obj, sort_keys=True, default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()
            self.lines += 1
        return obj

    def bind_rank(self, rank: int) -> None:
        self.rank = int(rank)

    def close(self) -> None:
        with self._lock:
            if self._own and not isinstance(self._stream, io.StringIO):
                try:
                    self._stream.close()
                except OSError:  # pragma: no cover
                    pass

    def __enter__(self) -> "JsonLinesLogger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

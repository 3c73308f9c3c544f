"""Rank-failure tolerance (``repro.resilience``).

The fault layer (``repro.faults``) recovers *messages* — a dropped
fragment, a flipped bit, a codec hiccup.  This package recovers from a
whole rank dying or wedging mid-FFT, the ULFM-style story:

* :mod:`~repro.resilience.control` — :class:`ControlState`, the one
  ULFM control state both real runtimes share: abort flag and barrier,
  per-rank beacons / pids / done flags / blocked-since stamps, the
  failure registry, generational revocation, agreement slots and the
  recovery timeline, in one fixed layout over an in-process buffer
  (threads) or a named shared-memory segment (processes);
* :mod:`~repro.resilience.monitor` — :class:`HeartbeatMonitor`, the one
  watchdog: a view of the control state in a communicator's rank
  numbering that classifies ranks (alive / straggler / deadlock / dead)
  from beacons, blocked stamps and the world's liveness probe, and
  builds the structured :class:`FailureReport`;
* :mod:`~repro.resilience.agreement` — the one revoke / agree / shrink
  implementation (:class:`UlfmComm`, :class:`SurvivorWorld`): survivors
  agree on a liveness bitmap (the ``MPIX_Comm_agree`` analogue) and
  shrink to the *same* communicator, one generation up;
* :mod:`~repro.resilience.abft` — algorithm-based per-reshape checksums
  validated against the codec error budget;
* :mod:`~repro.resilience.checkpoint` — CRC-framed pencil checkpoints in
  a world-shared store ("burst buffer") plus the shrink-and-restart
  driver for :class:`~repro.fft.plan.Fft3d`.

Import discipline: the runtimes import :mod:`control`, :mod:`monitor`
and :mod:`agreement`, which import nothing from the runtime layer;
:mod:`checkpoint` imports the runtime and the FFT layer back, so it is
exposed lazily to keep the package cycle-free.
"""

from repro.resilience.abft import AbftChecksums, reshape_checksums, verify_checksums
from repro.resilience.agreement import (
    SurvivorWorld,
    UlfmComm,
    UlfmWorld,
    bitmap_ranks,
    ranks_bitmap,
)
from repro.resilience.control import ControlState
from repro.resilience.monitor import (
    STALL_CLASSIFICATIONS,
    FailureReport,
    HeartbeatMonitor,
    PhaseSpan,
    RankFailure,
)

__all__ = [
    "STALL_CLASSIFICATIONS",
    "AbftChecksums",
    "CheckpointStore",
    "ControlState",
    "FailureReport",
    "HeartbeatMonitor",
    "PhaseSpan",
    "RankFailure",
    "ResilientFft3d",
    "ShmCheckpointStore",
    "SpmdResult",
    "SurvivorWorld",
    "UlfmComm",
    "UlfmWorld",
    "bitmap_ranks",
    "ranks_bitmap",
    "reshape_checksums",
    "verify_checksums",
]

_LAZY = {
    "CheckpointStore": "repro.resilience.checkpoint",
    "ResilientFft3d": "repro.resilience.checkpoint",
    "ShmCheckpointStore": "repro.resilience.checkpoint",
    "SpmdResult": "repro.resilience.checkpoint",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)

"""Layer tracing from outside the program: spans around public entry points.

The benchmark never edits ``src/``.  Instead :class:`Tracer` replaces a
fixed list of public functions and methods (:func:`entry_points`) with thin
wrappers that record one span per call — name, start, end, parent —
into the calling thread's :class:`RankLog`.  Only threads that called
:meth:`Tracer.bind` record; every other call passes straight through.

Wrappers are installed before a process world forks, so rank processes
inherit them; each rank returns its log through the SPMD kernel's
return value.  :meth:`Tracer.restore` puts every original back, exactly
as it was (attributes a class only inherited are deleted again rather
than pinned), before any untraced measurement.

A span's *self time* is its duration minus the time covered by its
direct children; the layers' self times plus the unattributed rest add
up to the traced pair (see :func:`self_times`, :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from typing import Any, Callable

import numpy as np

#: Span names, each with the repo layer it belongs to.  ``None`` marks
#: spans that are not a layer: the harness's pair span and the Fft3d
#: entry points, whose self time is reported as unattributed.
SPAN_LAYER: dict[str, str | None] = {
    "pair": None,
    "fft.plan": None,
    "reshape.run": "fft.reshape",
    "reshape.pack": "fft.reshape",
    "reshape.unpack": "fft.reshape",
    "local_fft": "fft.local_fft",
    "codec.compress": "compression",
    "codec.decompress": "compression",
    "accuracy.verify": "accuracy",
    "wire.frame": "collectives",
    "exchange": "collectives",
    "runtime.allgather": "runtime",
    "runtime.win_create": "runtime",
    "window.put": "runtime",
    "window.fence": "runtime",
    "window.free": "runtime",
}
SPAN_NAMES = tuple(SPAN_LAYER)
CODE = {name: i for i, name in enumerate(SPAN_NAMES)}
PAIR = CODE["pair"]

#: Calls counted but not timed (too frequent and too short to time).
COUNT_NAMES = ("geometry", "verify.kept")

_MISSING = object()


#: Fields of one span record, stored flat (``RankLog.rec``) as doubles.
FIELDS = ("name", "parent", "t0", "t1", "bytes_in", "bytes_out")
NF = len(FIELDS)


class RankLog:
    """Spans and counts of one rank, in one flat array (cheap to append and pickle).

    Span ``i`` occupies ``rec[i*NF:(i+1)*NF]`` (see ``FIELDS``); ``parent``
    is a span number or -1.  Spans are stored in open order, so a parent
    always precedes its children.  ``bytes_in``/``bytes_out`` hold the
    payload sizes of the calls that move data (0 elsewhere).
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.rec = array("d")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.rec) // NF

    def open(self, code: int) -> int:
        at = len(self.rec)
        self.rec.extend((code, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0.0, 0.0))
        self._stack.append(at // NF)
        self.rec[at + 2] = time.perf_counter()
        return at // NF

    def close(self, span: int) -> None:
        self.rec[span * NF + 3] = time.perf_counter()
        self._stack.pop()

    def add_span(self, code: int, t0: float, t1: float, parent: int = -1) -> int:
        """Append a finished span (for tests and synthetic logs)."""
        self.rec.extend((code, parent, t0, t1, 0.0, 0.0))
        return len(self) - 1

    def count(self, name: str) -> None:
        # Only inside a span: the harness's own work between pairs
        # (output checks, stop votes) must not count against the program.
        if self._stack:
            self.counts[name] += 1

    def table(self) -> dict[str, np.ndarray]:
        """The spans as named columns (a copy)."""
        flat = np.array(self.rec, dtype=np.float64).reshape(-1, NF)
        cols = {f: flat[:, i] for i, f in enumerate(FIELDS)}
        for f in ("name", "parent", "bytes_in", "bytes_out"):
            cols[f] = cols[f].astype(np.int64)
        return cols


def _nbytes(a: Any) -> int:
    return int(getattr(a, "nbytes", 0))


#: Payload sizes recorded per span name: ``(args, kwargs, result) -> (in, out)``.
_MEASURE: dict[str, Callable[[tuple, dict, Any], tuple[int, int]]] = {
    "reshape.pack": lambda a, k, r: (0, _nbytes(r)),
    "reshape.unpack": lambda a, k, r: (_nbytes(a[5] if len(a) > 5 else k.get("chunk")), 0),
    "codec.compress": lambda a, k, r: (_nbytes(a[1] if len(a) > 1 else k.get("data")), _nbytes(r)),
    "codec.decompress": lambda a, k, r: (_nbytes(a[1] if len(a) > 1 else k.get("msg")), _nbytes(r)),
    "window.put": lambda a, k, r: (_nbytes(a[1] if len(a) > 1 else k.get("data")), 0),
}


def entry_points() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span or count name)`` for every wrapped call.

    Module-level functions are patched in the namespace their callers
    look them up in (``plan.py`` binds ``batched_fft`` at import time,
    ``compressed.py`` binds ``encode_wire``/``decode_wire``).
    """
    import repro.accuracy.bounds as bounds
    import repro.collectives.compressed as compressed
    import repro.compression as compression
    import repro.fft.local_fft as local_fft
    import repro.fft.plan as plan
    from repro.collectives.osc import OscAlltoallv
    from repro.compression.base import Codec
    from repro.fft.box import Box3d
    from repro.fft.decomposition import CartesianDecomp
    from repro.fft.reshape import ReshapePlan
    from repro.runtime.proc import ProcComm
    from repro.runtime.thread_rt import ThreadComm
    from repro.runtime.window import Window

    points: list[tuple[Any, str, str]] = [
        (plan.Fft3d, "forward_spmd", "fft.plan"),
        (plan.Fft3d, "forward", "fft.plan"),
        (plan.Fft3d, "backward", "fft.plan"),
        (ReshapePlan, "run_spmd", "reshape.run"),
        (ReshapePlan, "run_virtual", "reshape.run"),
        (ReshapePlan, "pack", "reshape.pack"),
        (ReshapePlan, "unpack", "reshape.unpack"),
        (CartesianDecomp, "box_of", "geometry"),
        (Box3d, "slices_within", "geometry"),
    ]
    for module in (local_fft, plan):
        points += [(module, "batched_fft", "local_fft"), (module, "batched_ifft", "local_fft")]
    for cls in _concrete_codecs(Codec, compression.__name__):
        points += [(cls, "compress", "codec.compress"), (cls, "decompress", "codec.decompress")]
    points += [
        (bounds, "achieved_relative_error", "accuracy.verify"),
        (bounds, "tolerance_exceeded", "verify.kept"),
        (compressed, "encode_wire", "wire.frame"),
        (compressed, "decode_wire", "wire.frame"),
        (compressed.CompressedOscAlltoallv, "__call__", "exchange"),
        (OscAlltoallv, "__call__", "exchange"),
    ]
    for comm_cls in (ThreadComm, ProcComm):
        points += [
            (comm_cls, "allgather", "runtime.allgather"),
            (comm_cls, "win_create", "runtime.win_create"),
        ]
    points += [
        (Window, "put", "window.put"),
        (Window, "fence", "window.fence"),
        (Window, "free", "window.free"),
    ]
    return points


def _concrete_codecs(base: type, package: str) -> list[type]:
    """Codec classes of ``package`` that define their own compress/decompress."""
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith(package) and "compress" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


class Tracer:
    """Installs the entry-point wrappers and owns the per-thread logs."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- logs ----------------------------------------------------------------

    def bind(self, rank: int) -> RankLog:
        """Start recording this thread's calls into a fresh log."""
        log = RankLog(rank)
        self._local.log = log
        return log

    def unbind(self) -> None:
        self._local.log = None

    # -- wrappers --------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer wrappers already installed")
        try:
            for owner, attr, name in entry_points():
                original = getattr(owner, attr)
                self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                if name in COUNT_NAMES:
                    wrapper = self._counting(original, name)
                else:
                    wrapper = self._timing(original, CODE[name], _MEASURE.get(name))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back; inherited attributes are deleted again."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _timing(self, fn: Callable, code: int, measure) -> Callable:
        local = self._local
        clock = time.perf_counter

        # RankLog.open/close, inlined: this runs once per wrapped call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = getattr(local, "log", None)
            if log is None:
                return fn(*args, **kwargs)
            rec, stack = log.rec, log._stack
            at = len(rec)
            rec.extend((code, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0.0))
            stack.append(at // NF)
            rec[at + 2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[at + 3] = clock()
                stack.pop()
            if measure is not None:
                rec[at + 4], rec[at + 5] = measure(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, fn: Callable, name: str) -> Callable:
        local = self._local
        # tolerance_exceeded counts the verified messages kept lossy
        # (result False); the geometry helpers count every call.
        kept_only = name == "verify.kept"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            log = getattr(local, "log", None)
            if log is not None and (not kept_only or result is False):
                log.count(name)
            return result

        return wrapper


# -- arithmetic -------------------------------------------------------------------


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span duration minus the time covered by its direct children.

    Spans of one thread nest strictly, so the direct children of a span
    never overlap and their durations simply add up.
    """
    dur = cols["t1"] - cols["t0"]
    parent = cols["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def pair_roots(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Span number of each span's enclosing pair span (-1 outside every pair)."""
    code, parent = cols["name"].tolist(), cols["parent"].tolist()
    root = [-1] * len(code)
    for i, (c, p) in enumerate(zip(code, parent)):
        if c == PAIR:
            root[i] = i
        elif p >= 0:
            root[i] = root[p]
    return np.asarray(root, dtype=np.int64)


def has_ancestor(cols: dict[str, np.ndarray], span: int, code: int) -> bool:
    p = cols["parent"][span]
    while p >= 0:
        if cols["name"][p] == code:
            return True
        p = cols["parent"][p]
    return False


def rank_breakdown(log: RankLog) -> dict[str, float]:
    """Per-pair totals of one rank: self/inclusive ms, counts, bytes.

    Only spans inside a pair span count.  ``unattributed_ms`` is the pair
    time not covered by any layer's self time (harness barriers, Fft3d
    bookkeeping, telemetry calls between wrapped functions).
    """
    cols = log.table()
    code = cols["name"]
    dur = cols["t1"] - cols["t0"]
    selft = self_times(cols)
    inside = pair_roots(cols) >= 0
    pairs = int(np.count_nonzero(code == PAIR))
    if pairs == 0:
        raise ValueError(f"rank {log.rank}: log holds no pair span")

    def sel(name: str) -> np.ndarray:
        return inside & (code == CODE[name])

    def ms(mask: np.ndarray, values: np.ndarray = selft) -> float:
        return float(values[mask].sum()) * 1e3 / pairs

    layer_mask = inside & np.isin(
        code, [CODE[s] for s, layer in SPAN_LAYER.items() if layer is not None]
    )
    pair_ms = ms(sel("pair"), dur)
    # An allgather inside win_create (ProcComm sizes its arena with one)
    # is part of window creation, not a call the layers above made.
    top_allgather = sel("runtime.allgather")
    for span in np.flatnonzero(top_allgather):
        top_allgather[span] = not has_ancestor(cols, int(span), CODE["runtime.win_create"])
    out = {
        "pair_ms": pair_ms,
        "layer_self_ms": ms(layer_mask),
        "unattributed_ms": pair_ms - ms(layer_mask),
        "geometry_calls": log.counts["geometry"] / pairs,
        "verify_kept": log.counts["verify.kept"] / pairs,
        "top_allgather_calls": float(np.count_nonzero(top_allgather)) / pairs,
        "top_allgather_ms": ms(top_allgather, dur),
    }
    for name in SPAN_NAMES:
        mask = sel(name)
        out[f"{name}.calls"] = float(np.count_nonzero(mask)) / pairs
        out[f"{name}.self_ms"] = ms(mask)
        out[f"{name}.incl_ms"] = ms(mask, dur)
        out[f"{name}.bytes_in"] = float(cols["bytes_in"][mask].sum()) / pairs
        out[f"{name}.bytes_out"] = float(cols["bytes_out"][mask].sum()) / pairs
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    logs: list[RankLog],
    *,
    pool_counters: list[dict[str, int]] | None,
    traced_p50_ms: float,
    untraced_p50_ms: float,
    box: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics: per pair, mean over ranks.

    Byte rates divide summed bytes by summed busy time over all ranks;
    ``local_fft.fftn_ratio`` sums the ranks' busy time (the serial
    ``fftn`` pair does all ranks' work).  A layer that never runs on a
    workload reports 0.
    """
    per = [rank_breakdown(log) for log in logs]

    def mean(key: str) -> float:
        return float(np.mean([p[key] for p in per]))

    def total(key: str) -> float:
        return float(np.sum([p[key] for p in per]))

    encode_in, encode_out = total("codec.compress.bytes_in"), total("codec.compress.bytes_out")
    verify_calls = mean("accuracy.verify.calls")
    hits = sum(c["hits"] for c in pool_counters) if pool_counters else 0
    misses = sum(c["misses"] for c in pool_counters) if pool_counters else 0
    return {
        "local_fft.busy_ms": mean("local_fft.self_ms"),
        "local_fft.fftn_ratio": _ratio(total("local_fft.self_ms"), box["box.fftn_pair_ms"]),
        "reshape.pack_ms": mean("reshape.pack.self_ms"),
        "reshape.unpack_ms": mean("reshape.unpack.self_ms"),
        "reshape.pack_gbps": _ratio(
            total("reshape.pack.bytes_out"), total("reshape.pack.self_ms") * 1e6
        ),
        "reshape.messages_per_pair": mean("reshape.pack.calls"),
        "decomposition.geometry_calls_per_pair": mean("geometry_calls"),
        "compression.encode_ms": mean("codec.compress.self_ms"),
        "compression.decode_ms": mean("codec.decompress.self_ms"),
        "compression.ratio": _ratio(encode_in, encode_out),
        "compression.wire_mb_per_pair": mean("codec.compress.bytes_out") / 1e6,
        "accuracy.verify_ms": mean("accuracy.verify.self_ms"),
        "accuracy.verify_calls_per_pair": verify_calls,
        "accuracy.lossy_kept_ratio": _ratio(mean("verify_kept"), verify_calls),
        "collectives.exchange_ms": mean("exchange.incl_ms"),
        "collectives.exchange_self_ms": mean("exchange.self_ms"),
        "collectives.wire_frame_ms": mean("wire.frame.self_ms"),
        "runtime.win_create_per_pair": mean("runtime.win_create.calls"),
        "runtime.win_create_ms": mean("runtime.win_create.incl_ms") + mean("window.free.incl_ms"),
        "runtime.allgather_per_pair": mean("top_allgather_calls"),
        "runtime.allgather_ms": mean("top_allgather_ms"),
        "runtime.put_ms": mean("window.put.self_ms"),
        "runtime.put_gbps": _ratio(total("window.put.bytes_in"), total("window.put.self_ms") * 1e6),
        "runtime.fence_wait_ms": mean("window.fence.incl_ms"),
        "pool.hit_ratio": _ratio(hits, hits + misses),
        "trace.unattributed_frac": _ratio(total("unattributed_ms"), total("pair_ms")),
        "trace.overhead_frac": traced_p50_ms / untraced_p50_ms - 1.0,
        "box.memcpy_gbps": box["box.memcpy_gbps"],
        "box.fftn_pair_ms": box["box.fftn_pair_ms"],
    }


def spans_table(logs: list[RankLog]) -> dict[str, np.ndarray]:
    """All ranks' spans as columns, for writing out with ``np.savez``."""
    tables = [log.table() for log in logs]
    out = {f: np.concatenate([t[f] for t in tables]) for f in FIELDS}
    out["rank"] = np.concatenate([np.full(len(log), log.rank) for log in logs])
    out["names"] = np.array(SPAN_NAMES)
    return out

"""Steady-state benchmark of the distributed 3-D FFT, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload thread-64-etol --seed 1 --seconds 30 --trace 0

Workloads are listed in ``perfbench/workloads.py`` (``WORKLOADS``).  The
seed drives its own NumPy generator, so different seeds give independent
inputs; a claim tuned on one seed can be checked on another.  With
``--trace 0`` the run reports the end-to-end metrics of a closed loop of
forward+inverse pairs on a warm world; with ``--trace 1`` it spends half
the time untraced and half traced, and reports the per-layer split.
Every pair's output is checked against ``numpy.fft.fftn``; the run exits
non-zero if any pair is out of tolerance or a process world leaks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(seed, machine, references, tail percentile) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Worlds built per run to take the median set-up time from.
SETUP_REPS = 5
#: A timed loop's pair cap (the clock, not this, normally ends a loop).
MAX_PAIRS = 100_000


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def tail(values: list[float], beyond: int = 10) -> tuple[float, int, int]:
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples above)``; with too few samples
    for any percentile to qualify, the minimum and percentile 0.
    """
    data = np.asarray(values)
    for q in range(99, 0, -1):
        v = float(np.percentile(data, q))
        above = int(np.count_nonzero(data > v))
        if above >= beyond:
            return v, q, above
    v = float(data.min())
    return v, 0, int(np.count_nonzero(data > v))


def peak_rss_mb(child_rss_kb: int) -> float:
    """Peak resident set of this process plus its rank processes' peaks."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + child_rss_kb) / 1024.0


def failures(loop, tol: float) -> int:
    return sum(
        not (f <= tol and r <= tol) for f, r in zip(loop.fwd_err, loop.rt_err)
    )


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import box
    from perfbench.tracing import Tracer, layer_metrics, spans_table
    from perfbench.workloads import allowed_error, make_inputs, run_loop

    inputs = make_inputs(workload, seed)
    tol = allowed_error(workload)
    record: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "allowed_error": tol, "env": box.environment()}
    if not trace:
        setups = [run_loop(workload, inputs, seconds=0, max_pairs=0).setup_s
                  for _ in range(SETUP_REPS - 1)]
        loop = run_loop(workload, inputs, seconds=seconds, max_pairs=MAX_PAIRS)
        setups.append(loop.setup_s)
        rss = peak_rss_mb(loop.child_rss_kb)  # before the references allocate
        loops = [loop]
    else:
        untraced = run_loop(workload, inputs, seconds=seconds / 2, max_pairs=MAX_PAIRS)
        with Tracer() as tracer:
            traced = run_loop(workload, inputs, seconds=seconds / 2, max_pairs=MAX_PAIRS,
                              tracer=tracer)
        loops = [untraced, traced]
    memcpy = box.memcpy_gbps()
    refs = {"box.memcpy_gbps": memcpy["gbps"], "box.fftn_pair_ms": box.fftn_pair_ms(inputs.x)}
    record["memcpy"] = memcpy
    record["attempted"] = sum(len(lp.pair_s) for lp in loops)
    record["failed"] = sum(failures(lp, tol) for lp in loops)

    pair_ms = [t * 1e3 for t in loops[0].pair_s]
    p50 = statistics.median(pair_ms)
    if not trace:
        tail_ms, q, above = tail(pair_ms)
        record["tail"] = {"percentile": q, "samples": len(pair_ms), "above": above}
        record["metrics"] = {
            "pair_ms_p50": p50,
            "pair_ms_tail": tail_ms,
            "pairs_per_s": len(pair_ms) / sum(loop.pair_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "fwd_rel_err": max(loop.fwd_err),
            "roundtrip_rel_err": max(loop.rt_err),
        }
        record["setup_s_all"] = setups
        record["pair_ms"] = pair_ms
    else:
        traced_p50 = statistics.median(t * 1e3 for t in traced.pair_s)
        values = layer_metrics(traced.logs, pool_counters=traced.pool_counters,
                               traced_p50_ms=traced_p50, untraced_p50_ms=p50, box=refs)
        record["metrics"] = values
        record["untraced_p50_ms"], record["traced_p50_ms"] = p50, traced_p50
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}.npz"
        np.savez_compressed(spans, **spans_table(traced.logs))
        record["spans_file"] = str(spans.relative_to(ROOT))
    record["refs"] = refs
    return record


def report(record: dict, units: dict[str, str]) -> None:
    """Print every metric by name with its unit; the context goes alongside."""
    env, mc, t = record["env"], record["memcpy"], record.get("tail")
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"seconds {record['seconds']:g}")
    print(f"machine nproc={env['nproc']} cpu={env['cpu']!r} l3={env['l3_bytes'] >> 20} MiB "
          f"python={env['python']} numpy={env['numpy']}")
    notes = {
        "box.memcpy_gbps": f"({mc['array_bytes'] >> 20} MiB array vs {mc['l3_bytes'] >> 20} MiB "
                           f"L3: {'in-cache' if mc['in_cache'] else 'out-of-cache'})",
        "pair_ms_tail": t and f"(p{t['percentile']}, {t['samples']} pairs, {t['above']} above)",
    }
    shown = dict(record["metrics"])
    for name, value in record["refs"].items():
        shown.setdefault(name, value)
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units[name]}  {notes.get(name) or ''}".rstrip())
    attempted, failed = record["attempted"], record["failed"]
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed}/{attempted} pairs, "
          f"allowed error {record['allowed_error']:.3g})")


def declared(trace: bool) -> tuple[dict[str, str], set[str]]:
    """Every metric's unit, and the names this mode must report, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    units, names = declared(bool(args.trace))
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if set(record["metrics"]) != names:
        raise SystemExit(f"perfbench: metrics {sorted(record['metrics'])} differ from "
                         f"BENCHMARK.json {sorted(names)}")
    report(record, units)
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0 if correct else 1


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if one started, and wait for it.

    The first ``SharedMemory`` a process world creates starts the tracker
    as a separate process.  Left alone it outlives this one until it reads
    end-of-file on its pipe; stopping it here reaps it before the exit.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)

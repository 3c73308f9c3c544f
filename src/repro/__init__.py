"""repro — reproduction of *Lossy all-to-all exchange for accelerating
parallel 3-D FFTs on hybrid architectures with GPUs* (CLUSTER 2022).

Quick start::

    import numpy as np
    from repro import Fft3d, CastCodec

    x = np.random.default_rng(0).random((64, 64, 64))
    fft = Fft3d((64, 64, 64), nranks=12, codec=CastCodec("fp32"))
    X = fft.forward(x)                       # approximate 3-D FFT
    err = fft.roundtrip_error(x)             # ~6e-8: FP32-cast wire, FP64 math
    rate = fft.last_stats.achieved_rate      # 2.0x less communication

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.precision` — FP formats, mantissa truncation (Table I, Fig. 2)
* :mod:`repro.compression` — cast / trim / ZFP-like / lossless codecs
* :mod:`repro.runtime` — MPI-like thread & virtual runtimes (RMA windows)
* :mod:`repro.collectives` — pairwise ring, OSC ring, compressed OSC
* :mod:`repro.faults` — fault injection, retry policies, resilience reports
* :mod:`repro.obs` — the one emit path (kind table → tracer, flight ring, live gauges, metrics)
* :mod:`repro.trace` — per-rank spans/counters, Chrome + ``BENCH_*.json`` export
* :mod:`repro.machine` / :mod:`repro.netsim` — Summit model + cost models
* :mod:`repro.fft` — heFFTe-style distributed FFT (the core, Algorithm 1)
* :mod:`repro.solvers` — spectral PDE solver (Algorithm 2)
* :mod:`repro.experiments` — drivers for every table/figure
"""

from repro.compression import (
    CastCodec,
    Codec,
    IdentityCodec,
    MantissaTrimCodec,
    ShuffleZlibCodec,
    ZfpLikeCodec,
    codec_for_tolerance,
)
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultRule, ResilienceReport, RetryPolicy
from repro.fft import Fft2d, Fft3d, Rfft3d
from repro.machine import SUMMIT, MachineSpec, Topology
from repro.precision import BF16, FP16, FP32, FP64, trim_mantissa
from repro.runtime import ThreadWorld, VirtualWorld, run_spmd
from repro.solvers import SpectralPoissonSolver

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # precision
    "FP64",
    "FP32",
    "FP16",
    "BF16",
    "trim_mantissa",
    # compression
    "Codec",
    "IdentityCodec",
    "CastCodec",
    "MantissaTrimCodec",
    "ZfpLikeCodec",
    "ShuffleZlibCodec",
    "codec_for_tolerance",
    # machine / runtime
    "SUMMIT",
    "MachineSpec",
    "Topology",
    "ThreadWorld",
    "VirtualWorld",
    "run_spmd",
    # faults / resilience
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "ResilienceReport",
    # core
    "Fft3d",
    "Fft2d",
    "Rfft3d",
    "SpectralPoissonSolver",
]

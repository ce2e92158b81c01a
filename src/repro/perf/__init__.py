"""Trace-driven performance models standing in for the paper's hardware.

The paper evaluates on real processors (SNB, Nehalem, Xeon Phi, and the
Fermi/Kepler/Tahiti GPUs of the motivation study).  We do not have that
silicon; instead, the interpreter's memory traces drive architectural
models that reproduce the *mechanisms* behind the paper's observations:

* cache-only CPUs (:mod:`repro.perf.cpumodel`): work-groups map to
  hardware threads that execute work-items serially between barriers
  (the Intel/Twin-Peaks execution scheme the paper cites); ``__local``
  memory is ordinary cached memory, so staging costs real instructions
  and cache traffic; set-associative caches expose the conflict misses
  that make column-major access patterns expensive — the reason local
  memory *helps* NVD-MM-B/AMD-MM on CPUs and removing it hurts;
* GPUs (:mod:`repro.perf.gpumodel`): per-warp coalescing (transactions =
  distinct segments), banked scratch-pad memory, and latency hiding —
  the reason removing local memory destroys Matrix Transpose on GPUs;
* devices (:mod:`repro.perf.devices`): parameter sets for the six
  platforms of the paper;
* one pricing path (:mod:`repro.perf.pricing`, :func:`price`): a trace
  is priced on several devices at once, each step the devices share
  done once per work-group.

Absolute cycle counts are model estimates, not the authors' wall-clock
times; the reproduction targets the *shape* of the results (who wins,
roughly by what factor, where behaviour flips).
"""

from repro.perf.cache import CacheStats, SetAssocCache
from repro.perf.fastcache import (
    FastCacheHierarchy,
    FastSetAssocCache,
    cache_backend,
    make_hierarchy,
)
from repro.perf.devices import (
    CPUSpec,
    GPUSpec,
    DEVICES,
    CPU_DEVICES,
    GPU_DEVICES,
    device,
)
from repro.perf.cpumodel import CPUModel
from repro.perf.gpumodel import GPUModel
from repro.perf.timing import KernelCost, estimate_cost, normalized_performance, price

__all__ = [
    "CacheStats",
    "SetAssocCache",
    "FastCacheHierarchy",
    "FastSetAssocCache",
    "cache_backend",
    "make_hierarchy",
    "CPUSpec",
    "GPUSpec",
    "DEVICES",
    "CPU_DEVICES",
    "GPU_DEVICES",
    "device",
    "CPUModel",
    "GPUModel",
    "KernelCost",
    "estimate_cost",
    "normalized_performance",
    "price",
]

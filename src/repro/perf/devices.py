"""Device descriptions for the paper's six platforms (Table II).

Cache geometries are the published ones for the respective
microarchitectures.  Latency/throughput parameters are model
calibration values in cycles — they set the *relative* weight of
compute, cache hits and memory traffic the way the paper's measured
behaviour implies (e.g. MIC's in-order cores and distributed L2 make it
latency-tolerant and compute-bound, flattening the local-memory effect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union


@dataclass(frozen=True)
class CPUSpec:
    """A cache-only processor (no programmable scratch-pad)."""

    name: str
    cores: int
    #: (size_kb, assoc) per private level, closest first
    l1: Tuple[float, int]
    l2: Tuple[float, int]
    #: shared last-level cache; None for a distributed LLC (MIC)
    l3: Union[Tuple[float, int], None]
    line_size: int = 64
    #: load-to-use latencies per level + memory, in cycles
    lat_l1: float = 1.0
    lat_l2: float = 10.0
    lat_l3: float = 30.0
    lat_mem: float = 200.0
    #: fraction of memory latency paid by a prefetched access
    prefetch_factor: float = 0.25
    #: average dynamic instructions retired per cycle (per thread)
    ipc: float = 2.0
    #: memory-level parallelism: outstanding-miss overlap divisor
    mlp: float = 2.0
    #: cycles per barrier per work-item (work-item loop restart cost)
    barrier_cost: float = 4.0

    @property
    def is_gpu(self) -> bool:
        return False


@dataclass(frozen=True)
class GPUSpec:
    """A GPU with programmable local memory (scratch-pad)."""

    name: str
    compute_units: int
    warp_size: int
    #: per-warp global memory transaction segment size (bytes)
    segment: int = 128
    #: does the L1 cache global loads? (Fermi yes, Kepler no, GCN yes)
    global_l1: bool = True
    l1_kb: float = 16.0
    l1_assoc: int = 4
    l2_kb: float = 768.0
    l2_assoc: int = 16
    line_size: int = 128
    #: cycles per transaction at each level
    cost_l1: float = 4.0
    cost_l2: float = 30.0
    cost_mem: float = 180.0
    #: cycles per (conflict-free) scratch-pad access per warp
    cost_spm: float = 2.0
    spm_banks: int = 32
    #: instruction issue throughput: work-item instructions per cycle
    issue_width: float = 32.0
    #: fraction of memory time hidden by multithreading (0..1)
    latency_hiding: float = 0.6

    @property
    def is_gpu(self) -> bool:
        return True


# -- the paper's platforms ----------------------------------------------------

SNB = CPUSpec(
    name="SNB",          # dual Intel Xeon E5-2650 (Sandy Bridge)
    cores=16,
    l1=(32, 8),
    l2=(256, 8),
    l3=(20 * 1024, 20),
    lat_l1=1.0,
    lat_l2=8.0,
    lat_l3=12.0,
    lat_mem=200.0,
    ipc=2.2,
    mlp=2.5,
    barrier_cost=12.0,
)

NEHALEM = CPUSpec(
    name="Nehalem",      # dual Intel Xeon X5550 (Nehalem)
    cores=8,
    l1=(32, 8),
    l2=(256, 8),
    l3=(8 * 1024, 16),
    lat_l1=1.0,
    lat_l2=9.0,
    lat_l3=16.0,
    lat_mem=220.0,
    ipc=1.8,
    mlp=2.0,
    barrier_cost=14.0,
)

MIC = CPUSpec(
    name="MIC",          # Intel Xeon Phi 5110P (Knights Corner)
    cores=60,
    l1=(32, 8),
    l2=(512, 8),
    l3=None,             # distributed tag directory — no unified LLC
    lat_l1=3.0,
    lat_l2=24.0,
    lat_l3=0.0,
    lat_mem=300.0,
    ipc=0.6,             # in-order, low scalar ILP: kernels are compute-bound
    mlp=5.0,             # 4 hardware threads/core hide memory latency
    barrier_cost=7.0,
    prefetch_factor=0.4,
)

FERMI = GPUSpec(
    name="Fermi",        # NVIDIA GTX580 (GF110)
    compute_units=16,
    warp_size=32,
    global_l1=True,
    l1_kb=16.0,
    l1_assoc=4,
    l2_kb=768.0,
    cost_l1=6.0,
    cost_l2=35.0,
    cost_mem=200.0,
    cost_spm=2.0,
    issue_width=32.0,
    latency_hiding=0.6,
)

KEPLER = GPUSpec(
    name="Kepler",       # NVIDIA K20 (GK110) — global loads bypass L1
    compute_units=13,
    warp_size=32,
    global_l1=False,
    l1_kb=16.0,
    l1_assoc=4,
    l2_kb=1536.0,
    cost_l1=6.0,
    cost_l2=30.0,
    cost_mem=190.0,
    cost_spm=1.5,
    issue_width=64.0,
    latency_hiding=0.65,
)

TAHITI = GPUSpec(
    name="Tahiti",       # AMD HD7970 (GCN) — 16 KiB vector L1 per CU
    compute_units=32,
    warp_size=64,
    global_l1=True,
    l1_kb=16.0,
    l1_assoc=4,
    l2_kb=768.0,
    cost_l1=4.0,
    cost_l2=28.0,
    cost_mem=180.0,
    cost_spm=2.5,        # LDS access on GCN is comparatively expensive
    issue_width=64.0,
    latency_hiding=0.65,
)

CPU_DEVICES: Dict[str, CPUSpec] = {d.name: d for d in (SNB, NEHALEM, MIC)}
GPU_DEVICES: Dict[str, GPUSpec] = {d.name: d for d in (FERMI, KEPLER, TAHITI)}
DEVICES: Dict[str, Union[CPUSpec, GPUSpec]] = {**CPU_DEVICES, **GPU_DEVICES}


def device(name: str) -> Union[CPUSpec, GPUSpec]:
    try:
        return DEVICES[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(DEVICES)}"
        ) from None

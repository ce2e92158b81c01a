"""One pricing path for every device model.

Much of what a work-group costs is the same on several devices: every
CPU model re-serialises the group the same way, SNB, Nehalem and MIC
share one L1 geometry, and Fermi and Kepler cut the group into the same
warps.  :func:`group_costs` prices one group on a list of models and
does each shared step once (see ``CPUModel.price_group`` and
``GPUModel.price_group``); :func:`kernel_cycles` sums it over a trace.
A model's own ``time_group``/``time_kernel`` is the same call on a
one-model list, and :func:`repro.perf.timing.price` the call on one
fresh model per device, so there is one implementation however many
devices a trace is priced on.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.fastcache import FastCacheHierarchy
from repro.runtime.trace import GroupTrace, KernelTrace
from repro.session import events


def _price(gt: GroupTrace, models: Sequence) -> Tuple[list, List[int]]:
    """The cost of ``gt`` on each model, and the indices of the models
    that took it from their memo (see ``GroupTrace.fingerprint``)."""
    costs: list = [None] * len(models)
    hits: List[int] = []
    todo: Dict[type, List[int]] = {}
    key: Optional[bytes] = None
    for i, m in enumerate(models):
        if m.memoize:
            key = gt.fingerprint()
            costs[i] = m._group_costs.get(key)
            if costs[i] is not None:
                hits.append(i)
                continue
        todo.setdefault(type(m), []).append(i)
    for family, idx in todo.items():
        fresh = family.price_group(gt, [models[i] for i in idx])
        for i, cost in zip(idx, fresh):
            costs[i] = cost
            if models[i].memoize:
                models[i]._group_costs[key] = cost
    return costs, hits


def _memo_hit(model, key: bytes) -> None:
    events.emit(
        "model_memo_hit",
        device=model.spec.name,
        fingerprint_sha1=hashlib.sha1(key).hexdigest()[:12],
    )


def group_costs(gt: GroupTrace, models: Sequence) -> list:
    """The cost of group ``gt`` on each of ``models``."""
    costs, hits = _price(gt, models)
    if hits and events.bus_active():
        for i in hits:
            _memo_hit(models[i], gt.fingerprint())
    return costs


def kernel_cycles(trace: KernelTrace, models: Sequence) -> List[float]:
    """Total cycle estimate of the launch on each of ``models``
    (single-thread-equivalent; the core count cancels in normalised
    comparisons).

    Each model's events come out in the order a lone ``time_kernel``
    emits them: its memo hits, then one ``model_kernel_timed``.
    """
    totals = [0] * len(models)
    log: Optional[List[List[bytes]]] = (
        [[] for _ in models] if events.bus_active() else None
    )
    for g in trace.groups:
        costs, hits = _price(g, models)
        for i, cost in enumerate(costs):
            totals[i] += cost.cycles
        if log is not None:
            for i in hits:
                log[i].append(g.fingerprint())
    cycles = [trace.scale * total for total in totals]
    for i, m in enumerate(models):
        for key in log[i] if log is not None else ():
            _memo_hit(m, key)
        events.emit(
            "model_kernel_timed",
            device=m.spec.name,
            cycles=float(cycles[i]),
            groups=len(trace.groups),
        )
    return cycles


def run_levels(hier, lines, shared: dict):
    """``hier.run(lines)``, reusing the level prefixes in ``shared`` on
    the fast backend; the reference oracle simulates every level."""
    if isinstance(hier, FastCacheHierarchy):
        return hier.run(lines, shared)
    return hier.run(lines)

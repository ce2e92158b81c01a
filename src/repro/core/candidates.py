"""Selecting the reversing candidates (paper Section IV-A).

For every ``__local`` data structure we look for the software-cache
pattern:

* **GL** — a load from ``__global`` memory,
* **LS** — a store of that (possibly cast) value into the local array,
* **LL** — loads from the local array that feed computation.

A local array qualifies only if *every* store into it is fed by a global
load (this is the empirical "detect the usage pattern" step: arrays used
as read/write scratch — reductions, prefix sums — are rejected, matching
the limitation discussed in Section VI-D).  When several (GL, LS) pairs
exist (multi-pass staging such as image convolution halos), any pair
determines the same correspondence; we prefer a pair whose store
dominates all the local loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.cfg import dominators, inst_dominates
from repro.ir.function import Function
from repro.ir.instructions import Cast, GEP, Load, Store
from repro.ir.types import AddressSpace, PointerType
from repro.ir.values import Argument, LocalArray, Value

LocalObject = Union[LocalArray, Argument]


class UnknownArrayError(KeyError):
    """An ``arrays=`` name the kernel does not declare in local memory;
    the message lists the kernel's local arrays."""

    def __str__(self) -> str:
        return str(self.args[0])


def base_object(ptr: Value) -> Optional[Value]:
    """Walk a pointer value to its root object (through GEPs/casts)."""
    seen = 0
    while seen < 64:
        seen += 1
        if isinstance(ptr, GEP):
            ptr = ptr.base
        elif isinstance(ptr, Cast):
            ptr = ptr.value
        else:
            return ptr
    return None


def strip_casts(v: Value) -> Value:
    while isinstance(v, Cast):
        v = v.value
    return v


@dataclass
class Candidate:
    """One reversible local data structure with its GL/LS/LL operations."""

    array: LocalObject
    gl: Load
    ls: Store
    pairs: List[Tuple[Load, Store]]
    lls: List[Load]
    #: local stores that are *not* part of the chosen pair (other passes)
    all_stores: List[Store] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.array.name


@dataclass
class Rejection:
    """A local array that does not fit the software-cache pattern."""

    array: LocalObject
    reason: str

    @property
    def name(self) -> str:
        return self.array.name


def find_candidates(
    fn: Function, arrays: Optional[List[str]] = None
) -> Tuple[List[Candidate], List[Rejection]]:
    """Detect GL/LS/LL triples for every local array in ``fn``.

    ``arrays`` optionally restricts the search to named local data
    structures (the NVD-MM "-A"/"-B" selective-removal cases).
    """
    stores_by_obj: Dict[Value, List[Store]] = {}
    loads_by_obj: Dict[Value, List[Load]] = {}

    for inst in fn.instructions():
        if isinstance(inst, Store) and inst.addrspace == AddressSpace.LOCAL:
            obj = base_object(inst.ptr)
            if obj is not None:
                stores_by_obj.setdefault(obj, []).append(inst)
        elif isinstance(inst, Load) and inst.addrspace == AddressSpace.LOCAL:
            obj = base_object(inst.ptr)
            if obj is not None:
                loads_by_obj.setdefault(obj, []).append(inst)

    objects: List[Value] = list(fn.local_arrays)
    for a in fn.args:
        if isinstance(a.type, PointerType) and a.type.addrspace == AddressSpace.LOCAL:
            objects.append(a)
    if arrays is not None:
        names = [o.name for o in objects]
        missing = sorted(set(arrays) - set(names))
        if missing:
            raise UnknownArrayError(
                f"no such local data structure(s) in kernel {fn.name!r}: "
                f"{', '.join(missing)} (local arrays: {', '.join(names) or 'none'})"
            )
        objects = [o for o in objects if o.name in arrays]

    doms = dominators(fn)
    candidates: List[Candidate] = []
    rejections: List[Rejection] = []

    for obj in objects:
        stores = stores_by_obj.get(obj, [])
        loads = loads_by_obj.get(obj, [])
        if not stores and not loads:
            rejections.append(Rejection(obj, "local array is never accessed"))
            continue
        if not stores:
            rejections.append(Rejection(obj, "local array is never written"))
            continue
        if not loads:
            rejections.append(Rejection(obj, "local array is never read"))
            continue

        pairs: List[Tuple[Load, Store]] = []
        bad_reason: Optional[str] = None
        for st in stores:
            src = strip_casts(st.value)
            if (
                isinstance(src, Load)
                and src.addrspace in (AddressSpace.GLOBAL, AddressSpace.CONSTANT)
            ):
                pairs.append((src, st))
                continue
            if isinstance(src, Load) and base_object(src.ptr) is obj:
                bad_reason = (
                    "read-modify-write: the array is updated from its own "
                    "contents (temporal-scratch use-case, not a software cache)"
                )
                break
            bad_reason = (
                "a store into the array is not fed by a global load "
                "(computed values are cached — not the software-cache pattern)"
            )
            break
        if bad_reason is not None:
            rejections.append(Rejection(obj, bad_reason))
            continue

        # prefer a (GL, LS) pair whose store dominates every local load:
        # the unconditional "main" pass, not a halo/boundary pass.
        chosen: Optional[Tuple[Load, Store]] = None
        for gl, ls in pairs:
            if all(inst_dominates(doms, ls, ll) for ll in loads):
                chosen = (gl, ls)
                break
        if chosen is None:
            chosen = pairs[0]

        candidates.append(
            Candidate(
                array=obj,
                gl=chosen[0],
                ls=chosen[1],
                pairs=pairs,
                lls=list(loads),
                all_stores=list(stores),
            )
        )

    return candidates, rejections

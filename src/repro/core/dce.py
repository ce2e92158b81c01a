"""Dead code elimination used after the Grover rewrite (Section IV-F).

After every local load is replaced by a new global load, the local
stores, the staging loads, their index chains, the local array itself,
and the synchronising barriers all become dead; this module removes them,
producing the clean "local memory disabled" kernel of the paper's
Fig. 1(b).
"""

from __future__ import annotations

from typing import Iterable

from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    Load,
    Store,
    is_barrier,
    is_side_effecting,
)
from repro.ir.types import AddressSpace
from repro.ir.values import LocalArray, Value


def eliminate_dead_code(fn: Function) -> int:
    """Iteratively erase unused pure instructions; returns removal count."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for bb in fn.blocks:
            # iterate backwards so chains die in one sweep
            for inst in list(reversed(bb.instructions)):
                if inst.is_terminator or is_side_effecting(inst):
                    continue
                if inst.uses:
                    continue
                inst.erase_from_parent()
                removed += 1
                changed = True
    return removed


def remove_stores_to(fn: Function, obj: Value) -> int:
    """Erase every store whose base object is ``obj``."""
    from repro.core.candidates import base_object

    removed = 0
    for bb in fn.blocks:
        for inst in list(bb.instructions):
            if isinstance(inst, Store) and base_object(inst.ptr) is obj:
                inst.erase_from_parent()
                removed += 1
    return removed


def remove_dead_slots(fn: Function) -> int:
    """Remove allocas whose only remaining uses are stores into them."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for bb in fn.blocks:
            for inst in list(bb.instructions):
                if not isinstance(inst, Alloca):
                    continue
                users = inst.users
                if users and all(
                    isinstance(u, Store) and u.ptr is inst for u in users
                ):
                    for u in list(users):
                        u.erase_from_parent()
                        removed += 1
                    changed = True
                if not inst.uses:
                    inst.erase_from_parent()
                    removed += 1
                    changed = True
    return removed


def has_local_accesses(fn: Function) -> bool:
    for inst in fn.instructions():
        if isinstance(inst, (Load, Store)) and inst.addrspace == AddressSpace.LOCAL:
            return True
    return False


def strip_local_barriers(fn: Function) -> int:
    """Remove barrier calls once no local-memory accesses remain.

    The paper removes the barriers together with the staging code
    (Fig. 1(b) line 8); this is only legal when the kernel no longer
    touches local memory at all, which we verify first.
    """
    if has_local_accesses(fn):
        return 0
    removed = 0
    for bb in fn.blocks:
        for inst in list(bb.instructions):
            if is_barrier(inst):
                inst.erase_from_parent()
                removed += 1
    return removed


def cleanup_after_rewrite(
    fn: Function,
    removed_arrays: Iterable[LocalArray],
    strip_barriers: bool = True,
) -> dict:
    """The full post-rewrite cleanup; returns removal statistics."""
    stats = {"stores": 0, "pure": 0, "slots": 0, "barriers": 0}
    for arr in removed_arrays:
        stats["stores"] += remove_stores_to(fn, arr)
    stats["pure"] += eliminate_dead_code(fn)
    stats["slots"] += remove_dead_slots(fn)
    stats["pure"] += eliminate_dead_code(fn)
    for arr in list(removed_arrays):
        if isinstance(arr, LocalArray) and not arr.uses:
            fn.remove_local_array(arr)
    if strip_barriers:
        stats["barriers"] += strip_local_barriers(fn)
    return stats

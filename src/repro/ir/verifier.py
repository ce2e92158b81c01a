"""Structural well-formedness checks for the IR.

Run by the frontend after lowering and by the Grover pass after rewriting
(a transformed kernel must still be a valid kernel).
"""

from __future__ import annotations

from typing import Set

from repro.ir.cfg import dominators, inst_dominates, reverse_postorder
from repro.ir.function import Function, Module
from repro.ir.instructions import Br, CondBr, Instruction
from repro.ir.values import Argument, Constant, LocalArray, Value


class VerificationError(Exception):
    pass


def verify_function(fn: Function) -> None:
    if not fn.blocks:
        raise VerificationError(f"{fn.name}: function has no blocks")

    blocks = set(fn.blocks)
    defined: Set[Value] = set(fn.args) | set(fn.local_arrays)

    for bb in fn.blocks:
        if bb.parent is not fn:
            raise VerificationError(f"{fn.name}/{bb.name}: wrong parent link")
        if bb.terminator is None:
            raise VerificationError(f"{fn.name}/{bb.name}: missing terminator")
        for i, inst in enumerate(bb.instructions):
            if inst.parent is not bb:
                raise VerificationError(
                    f"{fn.name}/{bb.name}: instruction parent link broken"
                )
            if inst.is_terminator and i != len(bb.instructions) - 1:
                raise VerificationError(
                    f"{fn.name}/{bb.name}: terminator in the middle of a block"
                )
            defined.add(inst)
            if isinstance(inst, (Br, CondBr)):
                for succ in inst.successors():
                    if succ not in blocks:
                        raise VerificationError(
                            f"{fn.name}/{bb.name}: branch to a foreign block"
                        )

    # operand legality + use-list symmetry
    for bb in fn.blocks:
        for inst in bb.instructions:
            for idx, op in enumerate(inst.operands):
                if isinstance(op, Constant):
                    continue
                if op not in defined:
                    raise VerificationError(
                        f"{fn.name}: {type(inst).__name__} uses a value defined "
                        f"in another function or never defined: {op!r}"
                    )
                if (inst, idx) not in op.uses:
                    raise VerificationError(
                        f"{fn.name}: use-list of {op!r} is missing ({inst!r}, {idx})"
                    )

    # dominance: every non-constant operand must dominate its use
    doms = dominators(fn)
    reachable = set(reverse_postorder(fn))
    for bb in fn.blocks:
        if bb not in reachable:
            continue
        for inst in bb.instructions:
            for op in inst.operands:
                if isinstance(op, (Constant, Argument, LocalArray)):
                    continue
                assert isinstance(op, Instruction)
                if op.parent is None or op.parent not in reachable:
                    raise VerificationError(
                        f"{fn.name}: operand {op!r} of {inst!r} is not placed "
                        "in a reachable block"
                    )
                if not inst_dominates(doms, op, inst):
                    raise VerificationError(
                        f"{fn.name}: operand {op!r} does not dominate its use "
                        f"in {inst!r}"
                    )


def verify_module(mod: Module) -> None:
    for fn in mod:
        verify_function(fn)

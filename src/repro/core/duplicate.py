"""Algorithm 1: duplicating the index-computation instructions.

Post-order DFS over the (state-marked) expression tree.  Nodes whose
``state`` flag is clear are **reused** — their original SSA value becomes
an operand of the cloned parents, which is the paper's "we reuse the
sub-expressions that are shared by the GL instruction and the nGL
instruction when it is not required to update the node".  Marked nodes
are cloned and inserted at the requested position (immediately before the
``LL`` instruction).

The ``reuse`` switch exists for the ablation benchmark: with it off,
*every* node is cloned, measuring the instruction-count cost of not
sharing sub-expressions.
"""

from __future__ import annotations

from typing import Dict

from repro.core.exprtree import ExprNode
from repro.ir.builder import IRBuilder
from repro.ir.cfg import inst_dominates
from repro.ir.instructions import Instruction
from repro.ir.values import Value


class DuplicationError(Exception):
    pass


def mark_tree(
    root: ExprNode,
    substitutions: Dict[ExprNode, Value],
    anchor: Instruction,
    doms,
    force_all: bool = False,
) -> None:
    """Set the ``state`` flags: a node needs re-creation iff

    * it is a substituted leaf (a thread-index call being replaced), or
    * any of its children needs re-creation, or
    * its value is an instruction that does not dominate the insertion
      point (its SSA value cannot legally be reused there), or
    * ``force_all`` (the no-reuse ablation).
    """

    def visit(node: ExprNode) -> bool:
        needs = force_all
        for c in node.children:
            if visit(c):
                needs = True
        if node in substitutions:
            needs = True
        v = node.value
        if (
            not needs
            and isinstance(v, Instruction)
            and not inst_dominates(doms, v, anchor)
        ):
            needs = True
        node.state = needs
        return needs

    visit(root)


def duplicate_instructions(
    node: ExprNode,
    builder: IRBuilder,
    substitutions: Dict[ExprNode, Value],
) -> Value:
    """The paper's Algorithm 1 (duplicateInst).

    Returns the IR value representing ``node`` at the insertion point:
    the original value when the node is unmarked, the substitute for
    substituted leaves, or a freshly cloned instruction otherwise.
    """
    if node in substitutions:
        return substitutions[node]
    if not node.state:
        return node.value

    v = node.value
    if node.is_leaf:
        if not isinstance(v, Instruction):
            return v  # constants/arguments are position-independent
        new = v.clone()
        builder.emit(new)
        return new

    child_values = [
        duplicate_instructions(c, builder, substitutions) for c in node.children
    ]
    if not isinstance(v, Instruction):
        raise DuplicationError(f"internal node without an instruction: {v!r}")
    new = v.clone()
    for i, cv in enumerate(child_values):
        new.set_operand(i, cv)
    builder.emit(new)
    return new

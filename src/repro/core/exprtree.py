"""Index expression trees (paper Section IV-B, Fig. 6).

An :class:`ExprNode` mirrors the paper's tree node structure exactly:

* a **value** field — the IR value this node stands for (an instruction,
  a builtin call, a constant, or an argument);
* a **state** field — marks whether this node must be re-created when the
  new global load's index is built (Algorithm 1 reuses the unmarked
  sub-expressions);
* child pointers and a parent pointer for traversal.

Tree construction recurses through the operands of pure instructions and
stops at the same leaf kinds as the paper: (1) a call instruction, (2) a
constant, (3) a function argument, or (4) a phi node — which in our
alloca-based IR is "a load from a mutable stack slot".
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    GEP,
    Instruction,
    Load,
    Select,
)
from repro.ir.values import Argument, Constant, LocalArray, Value


class ExprNode:
    """One node of an index expression tree (paper Fig. 6)."""

    __slots__ = ("value", "state", "children", "parent")

    def __init__(self, value: Value, children: Optional[List["ExprNode"]] = None) -> None:
        self.value = value
        self.state = False  # "needs update" mark used by Algorithm 1
        self.children: List[ExprNode] = children or []
        self.parent: Optional[ExprNode] = None
        for c in self.children:
            c.parent = self

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["ExprNode"]:
        """Pre-order traversal."""
        yield self
        for c in self.children:
            yield from c.walk()

    def leaves(self) -> Iterator["ExprNode"]:
        for n in self.walk():
            if n.is_leaf:
                yield n

    def mark_upward(self) -> None:
        """Set the state flag on this node and every ancestor."""
        node: Optional[ExprNode] = self
        while node is not None and not node.state:
            node.state = True
            node = node.parent

    def render(self) -> str:
        """Debug rendering of the tree as an expression string."""
        v = self.value
        if isinstance(v, Constant):
            return str(v.value)
        if isinstance(v, Argument):
            return v.name
        if isinstance(v, LocalArray):
            return v.name
        if isinstance(v, Call):
            args = ", ".join(str(a.value) if isinstance(a, Constant) else "?" for a in v.args)
            return f"{v.callee}({args})"
        if isinstance(v, Load):
            src = v.ptr
            if isinstance(src, Alloca):
                return src.name or f"%t{src.id}"
            return f"load({self.children[0].render() if self.children else '?'})"
        if isinstance(v, BinOp):
            op = {
                "add": "+", "sub": "-", "mul": "*", "shl": "<<",
                "sdiv": "/", "udiv": "/", "srem": "%", "urem": "%",
                "and": "&", "or": "|", "xor": "^",
            }.get(v.opcode.value, v.opcode.value)
            return f"({self.children[0].render()} {op} {self.children[1].render()})"
        if isinstance(v, Cast):
            return self.children[0].render()
        if isinstance(v, GEP):
            idx = ", ".join(c.render() for c in self.children[1:])
            return f"{self.children[0].render()}[{idx}]"
        return f"%t{getattr(v, 'id', '?')}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ExprNode {self.render()}>"


def is_slot_load(v: Value) -> bool:
    """A load from a private stack slot — the paper's phi-node leaf."""
    return isinstance(v, Load) and isinstance(v.ptr, Alloca)


def build_tree(value: Value, _depth: int = 0) -> ExprNode:
    """Recursively build the index expression tree rooted at ``value``.

    Recursion stops at call instructions, constants, arguments, local
    arrays, and loads from mutable stack slots (the phi analogue).
    """
    if _depth > 256:
        raise RecursionError("index expression tree too deep")
    if isinstance(value, (Constant, Argument, LocalArray)):
        return ExprNode(value)
    if isinstance(value, Call):
        return ExprNode(value)
    if is_slot_load(value):
        return ExprNode(value)
    if isinstance(value, Alloca):
        return ExprNode(value)
    if isinstance(value, (BinOp, Cast, Select, GEP, Load)):
        children = [build_tree(op, _depth + 1) for op in value.operands]
        return ExprNode(value, children)
    if isinstance(value, Instruction):
        children = [build_tree(op, _depth + 1) for op in value.operands]
        return ExprNode(value, children)
    return ExprNode(value)


def find_leaves(root: ExprNode, pred: Callable[[Value], bool]) -> List[ExprNode]:
    return [n for n in root.walk() if pred(n.value)]


def local_id_dim(v: Value) -> Optional[int]:
    """If ``v`` is a ``get_local_id(d)`` call with constant d, return d."""
    if isinstance(v, Call) and v.callee == "get_local_id":
        arg = v.args[0]
        if isinstance(arg, Constant):
            return int(arg.value)
    return None


def global_id_dim(v: Value) -> Optional[int]:
    if isinstance(v, Call) and v.callee == "get_global_id":
        arg = v.args[0]
        if isinstance(arg, Constant):
            return int(arg.value)
    return None

"""Functions, basic blocks and modules.

``copy.deepcopy`` of a :class:`Module` or :class:`Function` is a linear
structural clone (:func:`_clone_ir`), not the generic recursion: every
variant copy, compile-cache copy and rule trial goes through it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence

from repro.ir.instructions import Instruction
from repro.ir.types import ArrayType, Type, VOID
from repro.ir.values import Argument, LocalArray, Value

_block_ids = itertools.count()


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str = "") -> None:
        self.name = name or f"bb{next(_block_ids)}"
        self.instructions: List[Instruction] = []
        self.parent: Optional["Function"] = None

    # -- insertion -----------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        """Insert ``inst`` immediately before ``anchor`` (must be in this block)."""
        idx = self.instructions.index(anchor)
        return self.insert(idx, inst)

    # -- structure -----------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """A kernel or helper function."""

    def __init__(
        self,
        name: str,
        arg_types: Sequence[Type],
        arg_names: Sequence[str],
        ret_type: Type = VOID,
        is_kernel: bool = False,
    ) -> None:
        if len(arg_types) != len(arg_names):
            raise ValueError("arg_types/arg_names length mismatch")
        self.name = name
        self.ret_type = ret_type
        self.is_kernel = is_kernel
        self.args: List[Argument] = [
            Argument(ty, nm, i) for i, (ty, nm) in enumerate(zip(arg_types, arg_names))
        ]
        self.blocks: List[BasicBlock] = []
        #: __local arrays declared in the kernel body
        self.local_arrays: List[LocalArray] = []
        #: required work-group size if declared (reqd_work_group_size)
        self.reqd_work_group_size: Optional[tuple] = None

    # -- construction --------------------------------------------------------
    def add_block(self, name: str = "", after: Optional[BasicBlock] = None) -> BasicBlock:
        bb = BasicBlock(name)
        bb.parent = self
        if after is None:
            self.blocks.append(bb)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, bb)
        return bb

    def add_local_array(self, array_type: ArrayType, name: str) -> LocalArray:
        la = LocalArray(array_type, name)
        self.local_arrays.append(la)
        return la

    def remove_local_array(self, la: LocalArray) -> None:
        self.local_arrays.remove(la)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def arg(self, name: str) -> Argument:
        for a in self.args:
            if a.name == name:
                return a
        raise KeyError(f"no argument named {name!r} in {self.name}")

    def instructions(self) -> Iterator[Instruction]:
        for bb in self.blocks:
            yield from bb.instructions

    def local_array(self, name: str) -> LocalArray:
        for la in self.local_arrays:
            if la.name == name:
                return la
        raise KeyError(f"no local array named {name!r} in {self.name}")

    def __deepcopy__(self, memo: dict) -> "Function":
        return _clone_ir(self, memo)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "kernel" if self.is_kernel else "func"
        return f"<{kind} {self.name} ({len(self.blocks)} blocks)>"


class UnknownKernelError(KeyError):
    """A kernel name a module does not define, or no name where the
    module has several kernels; the message lists the kernels."""

    def __str__(self) -> str:
        return str(self.args[0])


class Module:
    """A translation unit: a set of functions plus named constants."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name}")
        self.functions[fn.name] = fn
        return fn

    def kernels(self) -> List[Function]:
        return [f for f in self.functions.values() if f.is_kernel]

    def kernel(self, name: Optional[str] = None) -> Function:
        """Fetch a kernel by name, or the sole kernel if unambiguous.

        Raises :class:`UnknownKernelError` naming the module's kernels
        when ``name`` is not one of them, or is omitted and the module
        does not have exactly one.
        """
        fn = self.functions.get(name) if name is not None else None
        if fn is not None and fn.is_kernel:
            return fn
        ks = self.kernels()
        if name is None and len(ks) == 1:
            return ks[0]
        names = ", ".join(k.name for k in ks) or "none"
        if name is not None:
            raise UnknownKernelError(f"no kernel {name!r} (kernels: {names})")
        raise UnknownKernelError(
            f"module has {len(ks)} kernels; specify one of: {names}"
        )

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __deepcopy__(self, memo: dict) -> "Module":
        return _clone_ir(self, memo)


#: Value slots _clone_ir remaps to the copy's objects; of the rest,
#: branch targets point at blocks and all others hold immutables
#: (Types, names, ids, enums, scalars, callee names) that are shared
_REMAPPED_SLOTS = frozenset({"uses", "operands", "parent"})
_BLOCK_SLOTS = frozenset({"target", "if_true", "if_false"})
_SLOT_PLANS: Dict[type, tuple] = {}


def _slot_plan(cls: type) -> tuple:
    """``(shared slots, block slots)`` of a Value subclass."""
    slots = [s for k in cls.__mro__ for s in k.__dict__.get("__slots__", ())]
    plan = _SLOT_PLANS[cls] = (
        tuple(s for s in slots if s not in _REMAPPED_SLOTS | _BLOCK_SLOTS),
        tuple(s for s in slots if s in _BLOCK_SLOTS),
    )
    return plan


def _clone_ir(root, memo: dict):
    """Copy the IR graph reachable from ``root`` in one linear pass.

    Every Module, Function, BasicBlock and Value reached — through the
    containers' lists, operands, use lists, parents and branch targets —
    gets exactly one fresh object, keyed by ``id()`` in ``memo``: equal
    but distinct Constants stay distinct, and a deepcopy of ``(module,
    module.kernel())`` returns the copy's own kernel.  Ids, names and
    list orders are kept; frozen Types, names and scalars are shared.
    An instruction a use list still names after it left its block is
    copied too, as the generic deepcopy would.
    """
    todo = []
    lookup = memo.get

    def get(old):
        new = lookup(id(old))
        if new is None:
            new = memo[id(old)] = object.__new__(type(old))
            todo.append(old)
        return new

    new_root = get(root)
    done = []
    while todo:
        old = todo.pop()
        done.append(old)
        new = memo[id(old)]
        # Values define no __bool__/__len__, so ``lookup(...) or get(...)``
        # is a hit test; BasicBlock defines __len__ and always goes via get
        if isinstance(old, Value):
            shared, blocks = _SLOT_PLANS.get(type(old)) or _slot_plan(type(old))
            for s in shared:
                setattr(new, s, getattr(old, s))
            new.uses = [(lookup(id(u)) or get(u), i) for u, i in old.uses]
            if isinstance(old, Instruction):
                new.parent = None if old.parent is None else get(old.parent)
                new.operands = [lookup(id(op)) or get(op) for op in old.operands]
                for s in blocks:
                    setattr(new, s, get(getattr(old, s)))
        else:
            # attributes not remapped here (names, ret_type, is_kernel,
            # reqd_work_group_size) are immutable and shared
            fields = dict(old.__dict__)
            if isinstance(old, BasicBlock):
                fields["instructions"] = [get(i) for i in old.instructions]
                fields["parent"] = None if old.parent is None else get(old.parent)
            elif isinstance(old, Function):
                fields["args"] = [get(a) for a in old.args]
                fields["blocks"] = [get(b) for b in old.blocks]
                fields["local_arrays"] = [get(la) for la in old.local_arrays]
            else:
                fields["functions"] = {k: get(f) for k, f in old.functions.items()}
            new.__dict__.update(fields)
    # as copy.deepcopy does: keep the originals alive while memo names their ids
    memo.setdefault(id(memo), []).extend(done)
    return new_root

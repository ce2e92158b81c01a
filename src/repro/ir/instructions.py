"""IR instructions.

The instruction set mirrors the slice of LLVM IR that OpenCL C kernels
lower to at ``-O0``: arithmetic, comparisons, select, casts, ``alloca`` +
``load``/``store`` for mutable locals, ``getelementptr`` for array
addressing, calls to OpenCL builtins, and (conditional) branches.

All instructions are :class:`~repro.ir.values.Value` subclasses; operand
lists maintain the use-def chains automatically through
:meth:`Instruction.set_operand`.  Instructions can be cloned
(:meth:`Instruction.clone`) — that is the primitive Algorithm 1 of the
paper builds on when duplicating the ``GL`` index computation in front of
the ``LL``.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.ir.types import (
    AddressSpace,
    ArrayType,
    BOOL,
    BoolType,
    PointerType,
    Type,
    VectorType,
    VOID,
)
from repro.ir.values import Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import BasicBlock

_id_counter = itertools.count()


class Opcode(str, enum.Enum):
    # integer arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    # float arithmetic
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"

    @property
    def is_float(self) -> bool:
        return self.value.startswith("f")


class CmpPred(str, enum.Enum):
    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"
    # float predicates (ordered)
    OEQ = "oeq"
    ONE = "one"
    OLT = "olt"
    OLE = "ole"
    OGT = "ogt"
    OGE = "oge"


class CastKind(str, enum.Enum):
    TRUNC = "trunc"
    ZEXT = "zext"
    SEXT = "sext"
    FPTOSI = "fptosi"
    FPTOUI = "fptoui"
    SITOFP = "sitofp"
    UITOFP = "uitofp"
    FPEXT = "fpext"
    FPTRUNC = "fptrunc"
    BITCAST = "bitcast"
    BOOL_TO_INT = "booltoint"
    INT_TO_BOOL = "inttobool"


class Instruction(Value):
    """Base class for all instructions."""

    __slots__ = ("operands", "parent", "id")

    #: True for br/condbr/ret
    is_terminator = False

    def __init__(self, ty: Type, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(ty, name)
        self.parent: Optional["BasicBlock"] = None
        self.id = next(_id_counter)
        self.operands: List[Value] = []
        for op in operands:
            idx = len(self.operands)
            self.operands.append(op)
            op.add_use(self, idx)

    # -- operand maintenance -------------------------------------------------
    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_use(self, index)
        self.operands[index] = value
        value.add_use(self, index)

    def drop_all_references(self) -> None:
        """Remove this instruction from the use lists of its operands."""
        for idx, op in enumerate(self.operands):
            op.remove_use(self, idx)
        self.operands = []

    # -- placement -----------------------------------------------------------
    def erase_from_parent(self) -> None:
        assert self.parent is not None, "instruction not in a block"
        self.drop_all_references()
        self.parent.instructions.remove(self)
        self.parent = None

    def clone(self) -> "Instruction":
        """Shallow copy referencing the same operands, not yet in a block."""
        new = object.__new__(type(self))
        Instruction.__init__(new, self.type, list(self.operands), self.name)
        for slot in type(self).__slots__:
            if slot not in Instruction.__slots__ and slot not in Value.__slots__:
                setattr(new, slot, getattr(self, slot))
        return new

    @property
    def function(self):  # -> Optional[Function]
        return self.parent.parent if self.parent is not None else None

    def position(self) -> Optional[int]:
        """Index in ``function.instructions()``, or None when not placed.

        Unlike :attr:`id`, a process-global counter, the position is the
        same in every run and in every copy of the function, so rendered
        reports name instructions by it.
        """
        fn = self.function
        if fn is None:
            return None
        return next((i for i, x in enumerate(fn.instructions()) if x is self), None)

    def short(self) -> str:
        return f"%{self.name or ('t%d' % self.id)}"


class BinOp(Instruction):
    __slots__ = ("opcode",)

    def __init__(self, opcode: Opcode, lhs: Value, rhs: Value, name: str = "") -> None:
        if lhs.type != rhs.type:
            raise TypeError(f"binop operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = Opcode(opcode)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ICmp(Instruction):
    __slots__ = ("pred",)

    def __init__(self, pred: CmpPred, lhs: Value, rhs: Value, name: str = "") -> None:
        if lhs.type != rhs.type:
            raise TypeError(f"icmp operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.pred = CmpPred(pred)


class FCmp(Instruction):
    __slots__ = ("pred",)

    def __init__(self, pred: CmpPred, lhs: Value, rhs: Value, name: str = "") -> None:
        if lhs.type != rhs.type:
            raise TypeError(f"fcmp operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(BOOL, [lhs, rhs], name)
        self.pred = CmpPred(pred)


class Select(Instruction):
    __slots__ = ()

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        if if_true.type != if_false.type:
            raise TypeError("select arm type mismatch")
        super().__init__(if_true.type, [cond, if_true, if_false], name)

    @property
    def cond(self) -> Value:
        return self.operands[0]


class Cast(Instruction):
    __slots__ = ("kind",)

    def __init__(self, kind: CastKind, value: Value, to_type: Type, name: str = "") -> None:
        super().__init__(to_type, [value], name)
        self.kind = CastKind(kind)

    @property
    def value(self) -> Value:
        return self.operands[0]


class Alloca(Instruction):
    """A private (per work-item) stack slot of ``allocated_type``."""

    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__(PointerType(allocated_type, AddressSpace.PRIVATE), [], name)
        self.allocated_type = allocated_type


class Load(Instruction):
    __slots__ = ()

    def __init__(self, ptr: Value, name: str = "") -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load needs a pointer operand, got {ptr.type}")
        super().__init__(ptr.type.pointee, [ptr], name)

    @property
    def ptr(self) -> Value:
        return self.operands[0]

    @property
    def addrspace(self) -> AddressSpace:
        return self.ptr.type.addrspace  # type: ignore[union-attr]


class Store(Instruction):
    __slots__ = ()

    def __init__(self, value: Value, ptr: Value) -> None:
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store needs a pointer operand, got {ptr.type}")
        if ptr.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: storing {value.type} through {ptr.type}"
            )
        super().__init__(VOID, [value, ptr], "")

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def ptr(self) -> Value:
        return self.operands[1]

    @property
    def addrspace(self) -> AddressSpace:
        return self.ptr.type.addrspace  # type: ignore[union-attr]


class GEP(Instruction):
    """getelementptr: pointer + index list -> element pointer.

    Semantics (numpy-style, outermost index first):

    * base of type ``T addrspace(A)*`` where ``T`` is scalar/vector:
      one index ``i`` -> offset ``i * sizeof(T)``; result points at ``T``.
    * base pointing at a (nested) :class:`ArrayType`: each index peels one
      array level; the result points at the addressed element.
    """

    __slots__ = ()

    def __init__(self, base: Value, indices: Sequence[Value], name: str = "") -> None:
        if not isinstance(base.type, PointerType):
            raise TypeError(f"gep base must be a pointer, got {base.type}")
        result_pointee = self._result_pointee(base.type.pointee, len(indices))
        super().__init__(
            PointerType(result_pointee, base.type.addrspace),
            [base, *indices],
            name,
        )

    @staticmethod
    def _result_pointee(pointee: Type, n_indices: int) -> Type:
        ty: Type = pointee
        if isinstance(ty, ArrayType):
            for _ in range(n_indices):
                if not isinstance(ty, ArrayType):
                    raise TypeError(f"too many gep indices for type {pointee}")
                ty = ty.element
            return ty
        if n_indices != 1:
            raise TypeError(f"scalar-pointer gep takes one index, got {n_indices}")
        return ty

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    @property
    def addrspace(self) -> AddressSpace:
        return self.base.type.addrspace  # type: ignore[union-attr]

    def strides(self) -> List[int]:
        """Byte stride contributed by each index (outermost first)."""
        ty = self.base.type.pointee  # type: ignore[union-attr]
        if not isinstance(ty, ArrayType):
            return [ty.size]
        out: List[int] = []
        for _ in self.indices:
            assert isinstance(ty, ArrayType)
            ty = ty.element
            out.append(ty.size)
        return out


class Call(Instruction):
    """Call to a named builtin (``get_local_id``, ``barrier``, ``sqrt``, ...)."""

    __slots__ = ("callee",)

    def __init__(self, callee: str, args: Sequence[Value], ret_type: Type, name: str = "") -> None:
        super().__init__(ret_type, list(args), name)
        self.callee = callee

    @property
    def args(self) -> List[Value]:
        return self.operands


class ExtractElement(Instruction):
    __slots__ = ()

    def __init__(self, vec: Value, index: Value, name: str = "") -> None:
        if not isinstance(vec.type, VectorType):
            raise TypeError(f"extractelement needs a vector, got {vec.type}")
        super().__init__(vec.type.element, [vec, index], name)

    @property
    def vec(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]


class InsertElement(Instruction):
    __slots__ = ()

    def __init__(self, vec: Value, value: Value, index: Value, name: str = "") -> None:
        if not isinstance(vec.type, VectorType):
            raise TypeError(f"insertelement needs a vector, got {vec.type}")
        if vec.type.element != value.type:
            raise TypeError("insertelement element type mismatch")
        super().__init__(vec.type, [vec, value, index], name)

    @property
    def vec(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    @property
    def index(self) -> Value:
        return self.operands[2]


class Br(Instruction):
    __slots__ = ("target",)
    is_terminator = True

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(VOID, [], "")
        self.target = target

    def successors(self) -> List["BasicBlock"]:
        return [self.target]


class CondBr(Instruction):
    __slots__ = ("if_true", "if_false")
    is_terminator = True

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock") -> None:
        if not isinstance(cond.type, BoolType):
            raise TypeError("condbr condition must be i1")
        super().__init__(VOID, [cond], "")
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]


class Ret(Instruction):
    __slots__ = ()
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID, [value] if value is not None else [], "")

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


def is_barrier(inst: Instruction) -> bool:
    return isinstance(inst, Call) and inst.callee == "barrier"


def is_side_effecting(inst: Instruction) -> bool:
    """Instructions DCE must never remove even when unused."""
    if isinstance(inst, (Store, Br, CondBr, Ret)):
        return True
    if isinstance(inst, Call):
        return inst.callee in SIDE_EFFECT_BUILTINS
    return False


#: builtins with side effects (everything else is a pure function)
SIDE_EFFECT_BUILTINS = frozenset({"barrier", "mem_fence", "printf"})

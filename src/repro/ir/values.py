"""IR values: the SSA-ish value graph with use-def chains.

Every :class:`Value` knows who uses it (``value.uses`` is a list of
``(instruction, operand_index)`` pairs).  The Grover pass leans on this:

* candidate detection walks from a global ``Load`` to its "paired store"
  through the use list (Section IV-A of the paper);
* the final rewrite replaces *all* uses of the local load ``LL`` with the
  new global load ``nGL`` (Section IV-F) via :meth:`Value.replace_all_uses_with`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple, Union

from repro.ir.types import (
    AddressSpace,
    ArrayType,
    BoolType,
    FloatType,
    IntType,
    PointerType,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.instructions import Instruction


PyScalar = Union[int, float, bool]


class Value:
    """Base class of everything that can be an instruction operand."""

    __slots__ = ("type", "name", "uses")

    def __init__(self, ty: Type, name: str = "") -> None:
        self.type = ty
        self.name = name
        #: list of (user instruction, operand index) pairs
        self.uses: List[Tuple["Instruction", int]] = []

    # -- use-def maintenance -------------------------------------------------
    def add_use(self, user: "Instruction", index: int) -> None:
        self.uses.append((user, index))

    def remove_use(self, user: "Instruction", index: int) -> None:
        self.uses.remove((user, index))

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every user to reference ``new`` instead of ``self``."""
        if new is self:
            return
        for user, idx in list(self.uses):
            user.set_operand(idx, new)

    @property
    def users(self) -> List["Instruction"]:
        return [u for u, _ in self.uses]

    def short(self) -> str:
        """Compact printable handle, e.g. ``%x`` or a literal."""
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.short()} : {self.type}>"


class Constant(Value):
    """A compile-time scalar constant."""

    __slots__ = ("value",)

    def __init__(self, ty: Type, value: PyScalar) -> None:
        super().__init__(ty, "")
        if isinstance(ty, IntType):
            value = int(value)
            # wrap to the representable range (two's complement semantics)
            mask = (1 << ty.bits) - 1
            v = int(value) & mask
            if ty.signed and v >= (1 << (ty.bits - 1)):
                v -= 1 << ty.bits
            value = v
        elif isinstance(ty, FloatType):
            value = float(value)
        elif isinstance(ty, BoolType):
            value = bool(value)
        else:
            raise TypeError(f"constants must be scalar, got {ty}")
        self.value = value

    def short(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("index",)

    def __init__(self, ty: Type, name: str, index: int) -> None:
        super().__init__(ty, name)
        self.index = index

    @property
    def addrspace(self) -> AddressSpace:
        if isinstance(self.type, PointerType):
            return self.type.addrspace
        return AddressSpace.PRIVATE


class LocalArray(Value):
    """A ``__local`` array declared inside a kernel.

    One instance exists per work-group at run time; the declaration is a
    function-scope value of pointer-to-array type in the LOCAL address
    space.  These are the "candidate data structures" Grover removes.
    """

    __slots__ = ("array_type",)

    def __init__(self, array_type: ArrayType, name: str) -> None:
        super().__init__(PointerType(array_type, AddressSpace.LOCAL), name)
        self.array_type = array_type

    @property
    def nbytes(self) -> int:
        return self.array_type.size


def const_int(value: int, ty: IntType | None = None) -> Constant:
    from repro.ir.types import I32

    return Constant(ty or I32, value)


def const_float(value: float, ty: FloatType | None = None) -> Constant:
    from repro.ir.types import FLOAT

    return Constant(ty or FLOAT, value)

"""Exact linear expressions over symbolic thread-index bases.

The paper abstracts each local data index as a linear function of the
local thread index with constant coefficients (Equation 2).  We represent
such functions as mappings ``symbol -> Fraction`` with an implicit
constant term; coefficients stay exact rationals so that the uniqueness
and integrality checks of the solver are precise.

Symbols are small tuples:

* ``("lid", d)`` / ``("wid", d)`` / ``("gid", d)`` — local / group /
  global thread index in dimension ``d``;
* ``("lsize", d)`` — work-group size in dimension ``d``;
* ``("arg", Argument)`` — a scalar kernel argument;
* ``("slot", Alloca)`` — a mutable variable (e.g. a loop counter): the
  analogue of the paper's phi-node leaves;
* ``("opaque", Value)`` — any other value participating additively.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple, Union

Symbol = Tuple[object, ...]

#: the constant-term key
ONE: Symbol = ("const",)

_DIM_NAMES = "xyz"


class LinExpr:
    """An immutable linear expression ``sum(coeff_i * sym_i) + c``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Symbol, Fraction]] = None) -> None:
        t = {}
        for k, v in (terms or {}).items():
            f = Fraction(v)
            if f != 0:
                t[k] = f
        self.terms: Dict[Symbol, Fraction] = t

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def constant(value: Union[int, Fraction]) -> "LinExpr":
        return LinExpr({ONE: Fraction(value)})

    @staticmethod
    def symbol(sym: Symbol, coeff: Union[int, Fraction] = 1) -> "LinExpr":
        return LinExpr({sym: Fraction(coeff)})

    @staticmethod
    def zero() -> "LinExpr":
        return LinExpr()

    # -- algebra -----------------------------------------------------------------
    def __add__(self, other: "LinExpr") -> "LinExpr":
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, Fraction(0)) + v
        return LinExpr(t)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, Fraction(0)) - v
        return LinExpr(t)

    def __neg__(self) -> "LinExpr":
        return LinExpr({k: -v for k, v in self.terms.items()})

    def scale(self, factor: Union[int, Fraction]) -> "LinExpr":
        f = Fraction(factor)
        return LinExpr({k: v * f for k, v in self.terms.items()})

    def __mul__(self, other: "LinExpr") -> Optional["LinExpr"]:
        """Product; ``None`` when the result would be non-linear."""
        if self.is_constant():
            return other.scale(self.const())
        if other.is_constant():
            return self.scale(other.const())
        return None

    # -- queries -------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == ONE for k in self.terms)

    def const(self) -> Fraction:
        return self.terms.get(ONE, Fraction(0))

    def coeff(self, sym: Symbol) -> Fraction:
        return self.terms.get(sym, Fraction(0))

    def symbols(self) -> Iterable[Symbol]:
        return (k for k in self.terms if k != ONE)

    def drop(self, syms: Iterable[Symbol]) -> "LinExpr":
        drop = set(syms)
        return LinExpr({k: v for k, v in self.terms.items() if k not in drop})

    def restrict(self, syms: Iterable[Symbol]) -> "LinExpr":
        keep = set(syms)
        return LinExpr({k: v for k, v in self.terms.items() if k in keep})

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.terms.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- rendering -------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable form using the paper's symbol names."""
        if not self.terms:
            return "0"
        parts = []
        for sym in sorted(self.terms, key=_sym_sort_key):
            c = self.terms[sym]
            name = render_symbol(sym)
            if sym == ONE:
                term = _frac_str(c)
            elif c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{_frac_str(c)}*{name}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"LinExpr({self.render()})"


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def stable_value_key(v: object) -> tuple:
    """Deterministic ordering key for IR values (no memory addresses)."""
    vid = getattr(v, "id", None)          # instructions have a counter id
    if vid is not None:
        return (0, vid)
    idx = getattr(v, "index", None)       # arguments have an index
    if idx is not None:
        return (1, idx)
    return (2, getattr(v, "name", "") or str(v))


def _sym_sort_key(sym: Symbol):
    kind = sym[0]
    order = {"lid": 0, "gid": 1, "wid": 2, "lsize": 3, "slot": 4, "arg": 5, "opaque": 6, "const": 9}
    if sym == ONE:
        return (9, (0,))
    if kind == "prod":
        return (order.get(kind, 7), tuple(_sym_sort_key(s) for s in sym[1:]))
    tail = (0, sym[1]) if isinstance(sym[1], int) else stable_value_key(sym[1])
    return (order.get(kind, 7), tail)


def render_symbol(sym: Symbol) -> str:
    kind = sym[0]
    if sym == ONE:
        return "1"
    if kind == "lid":
        return "l" + _DIM_NAMES[sym[1]]
    if kind == "wid":
        return "w" + _DIM_NAMES[sym[1]]
    if kind == "gid":
        return "g" + _DIM_NAMES[sym[1]]
    if kind == "lsize":
        return "L" + _DIM_NAMES[sym[1]]
    if kind in ("arg", "slot"):
        return getattr(sym[1], "name", None) or f"{kind}{id(sym[1]) & 0xFFF}"
    if kind == "opaque":
        v = sym[1]
        if getattr(v, "name", ""):
            return v.name
        # an instruction's position in its function, not its run-dependent id
        pos = v.position() if hasattr(v, "position") else None
        return f"op{pos if pos is not None else getattr(v, 'id', id(v) & 0xFFF)}"
    if kind == "prod":
        return "*".join(render_symbol(s) for s in sym[1:])
    return str(sym)


def prod_symbol(a: Symbol, b: Symbol) -> Symbol:
    """Canonical product symbol for symbolic-stride terms like ``W*gy``.

    The factor order is normalised so that ``W*gy`` and ``gy*W`` are the
    same symbol (which lets CSE share the multiply).  Nested products
    flatten into one n-ary symbol.
    """
    factors = []
    for s in (a, b):
        if s[0] == "prod":
            factors.extend(s[1:])
        else:
            factors.append(s)
    factors.sort(key=_sym_sort_key)
    return ("prod", *factors)


def symbol_mentions_lid(sym: Symbol) -> bool:
    """Does the symbol (transitively) involve a local thread index?"""
    if sym[0] == "lid":
        return True
    if sym[0] == "prod":
        return any(symbol_mentions_lid(s) for s in sym[1:])
    return False


def lid(d: int) -> Symbol:
    return ("lid", d)


def wid(d: int) -> Symbol:
    return ("wid", d)


def gid(d: int) -> Symbol:
    return ("gid", d)


def lsize(d: int) -> Symbol:
    return ("lsize", d)

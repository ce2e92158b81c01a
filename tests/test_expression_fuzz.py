"""Differential fuzzing: random C expressions vs a reference evaluator.

Hypothesis generates random integer arithmetic expressions over the
work-item id and constants; each is compiled through the full pipeline
(preprocessor -> pycparser -> lowering -> optimisation passes) and
executed on the SIMT interpreter, then compared against a direct Python
evaluation with C semantics.  This exercises operator lowering, type
promotion, constant folding, CSE and LICM against an independent oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.conftest import run_scalar_kernel

N = 16


# -- expression AST ------------------------------------------------------------

class E:
    pass


def wrap32(v):
    """Two's-complement wrap to i32 (C overflow semantics)."""
    v &= 0xFFFFFFFF
    return v - 2**32 if v >= 2**31 else v


class Lit(E):
    def __init__(self, v):
        self.v = v

    def c(self):
        return str(self.v)

    def eval(self, g):
        return self.v


class Gid(E):
    def c(self):
        return "gid"

    def eval(self, g):
        return g


class Bin(E):
    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b

    def c(self):
        return f"({self.a.c()} {self.op} {self.b.c()})"

    def eval(self, g):
        a = self.a.eval(g)
        b = self.b.eval(g)
        if a is None or b is None:
            return None
        if self.op == "+":
            return wrap32(a + b)
        if self.op == "-":
            return wrap32(a - b)
        if self.op == "*":
            return wrap32(a * b)
        if self.op == "/":
            if b == 0:
                return None  # UB: case skipped by the test
            return wrap32(int(a / b))
        if self.op == "%":
            if b == 0:
                return None
            return wrap32(a - int(a / b) * b)
        if self.op == "&":
            return wrap32(a & b)
        if self.op == "|":
            return wrap32(a | b)
        if self.op == "^":
            return wrap32(a ^ b)
        raise AssertionError(self.op)


class Tern(E):
    def __init__(self, cond_op, a, b, t, f):
        self.cond_op, self.a, self.b, self.t, self.f = cond_op, a, b, t, f

    def c(self):
        return (
            f"(({self.a.c()} {self.cond_op} {self.b.c()}) ? {self.t.c()} : {self.f.c()})"
        )

    def eval(self, g):
        a, b = self.a.eval(g), self.b.eval(g)
        if a is None or b is None:
            return None
        table = {
            "<": a < b, "<=": a <= b, ">": a > b,
            ">=": a >= b, "==": a == b, "!=": a != b,
        }
        t, f = self.t.eval(g), self.f.eval(g)
        if t is None or f is None:
            return None  # C evaluates one arm, but skip to stay conservative
        return t if table[self.cond_op] else f


@st.composite
def exprs(draw, depth=0):
    if depth >= 3:
        return draw(
            st.one_of(
                st.builds(Lit, st.integers(-20, 20)),
                st.just(Gid()),
            )
        )
    kind = draw(st.integers(0, 8))
    if kind <= 1:
        return draw(st.builds(Lit, st.integers(-20, 20)))
    if kind == 2:
        return Gid()
    if kind == 3:
        return Tern(
            draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="])),
            draw(exprs(depth=depth + 1)),
            draw(exprs(depth=depth + 1)),
            draw(exprs(depth=depth + 1)),
            draw(exprs(depth=depth + 1)),
        )
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^"]))
    return Bin(op, draw(exprs(depth=depth + 1)), draw(exprs(depth=depth + 1)))


@settings(max_examples=60, deadline=None)
@given(e=exprs())
def test_expression_matches_reference(e):
    expected = []
    for g in range(N):
        v = e.eval(g)
        if v is None:
            return  # division by zero somewhere: C UB, skip the case
        expected.append(int(v))

    src = f"""
__kernel void t(__global int* out)
{{
    int gid = get_global_id(0);
    out[gid] = {e.c()};
}}
"""
    _, outs = run_scalar_kernel(src, {}, (N,), (N,), {"out": (np.int32, (N,))})
    np.testing.assert_array_equal(
        outs["out"], np.array(expected, np.int32), err_msg=f"expr: {e.c()}"
    )


@settings(max_examples=30, deadline=None)
@given(e=exprs(), f=exprs())
def test_loop_accumulation_matches_reference(e, f):
    """The same expressions inside a loop (exercises LICM correctness)."""
    trip = 3
    vals_e = [e.eval(g) for g in range(N)]
    vals_f = [f.eval(g) for g in range(N)]
    if any(v is None for v in vals_e + vals_f):
        return
    expected = []
    for g in range(N):
        acc = 0
        for i in range(trip):
            acc = wrap32(acc + wrap32(vals_e[g] * i) + vals_f[g])
        expected.append(acc)

    src = f"""
__kernel void t(__global int* out)
{{
    int gid = get_global_id(0);
    int acc = 0;
    for (int i = 0; i < {trip}; ++i)
        acc += ({e.c()}) * i + ({f.c()});
    out[gid] = acc;
}}
"""
    _, outs = run_scalar_kernel(src, {}, (N,), (N,), {"out": (np.int32, (N,))})
    np.testing.assert_array_equal(outs["out"], np.array(expected, np.int32))

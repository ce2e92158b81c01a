"""Unit tests for the IR clean-up passes (mem2reg-lite, folding, CSE, LICM)."""

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import Alloca, BinOp, Load, Opcode, Store
from repro.ir.passes import (
    common_subexpression_elimination,
    fold_constants,
    loop_invariant_code_motion,
    promote_single_store_slots,
)
from repro.ir.types import FLOAT, I32, I64
from repro.ir.values import Constant
from repro.ir.verifier import verify_function

from tests.conftest import execute_kernel


def count_insts(fn, kind=None):
    return sum(
        1
        for i in fn.instructions()
        if kind is None or isinstance(i, kind)
    )


class TestPromoteSlots:
    def test_single_store_slot_promoted(self):
        fn = Function("f", [I32], ["n"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32, "x")
        b.store(fn.arg("n"), slot)
        v = b.load(slot)
        b.add(v, Constant(I32, 1))
        b.ret()
        assert promote_single_store_slots(fn) == 1
        assert count_insts(fn, Alloca) == 0
        assert count_insts(fn, Load) == 0
        verify_function(fn)

    def test_multi_store_slot_kept(self):
        fn = Function("f", [I32], ["n"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32, "x")
        b.store(Constant(I32, 0), slot)
        b.store(fn.arg("n"), slot)
        b.load(slot)
        b.ret()
        assert promote_single_store_slots(fn) == 0
        assert count_insts(fn, Alloca) == 1

    def test_store_outside_entry_not_promoted(self):
        fn = Function("f", [I32], ["n"])
        entry = fn.add_block("entry")
        nxt = fn.add_block("next")
        b = IRBuilder(entry)
        slot = b.alloca(I32, "x")
        b.br(nxt)
        b.position_at_end(nxt)
        b.store(fn.arg("n"), slot)
        b.load(slot)
        b.ret()
        assert promote_single_store_slots(fn) == 0

    def test_load_before_store_not_promoted(self):
        fn = Function("f", [I32], ["n"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32, "x")
        b.load(slot)  # reads uninitialised value
        b.store(fn.arg("n"), slot)
        b.ret()
        assert promote_single_store_slots(fn) == 0


class TestFoldConstants:
    def test_arithmetic_folds(self):
        fn = Function("f", [], [])
        b = IRBuilder(fn.add_block("entry"))
        v = b.mul(Constant(I32, 6), Constant(I32, 7))
        w = b.add(v, Constant(I32, 0))
        slot = b.alloca(I32)
        b.store(w, slot)
        b.ret()
        fold_constants(fn)
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        assert isinstance(stores[0].value, Constant)
        assert stores[0].value.value == 42

    def test_division_by_zero_not_folded(self):
        fn = Function("f", [], [])
        b = IRBuilder(fn.add_block("entry"))
        v = b.sdiv(Constant(I32, 1), Constant(I32, 0))
        slot = b.alloca(I32)
        b.store(v, slot)
        b.ret()
        fold_constants(fn)  # must not crash
        assert count_insts(fn, BinOp) == 1

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_float_division_by_zero_not_folded(self, zero):
        fn = Function("f", [], [])
        b = IRBuilder(fn.add_block("entry"))
        v = b.binop(Opcode.FDIV, Constant(FLOAT, 1.0), Constant(FLOAT, zero))
        slot = b.alloca(FLOAT)
        b.store(v, slot)
        b.ret()
        fold_constants(fn)
        assert count_insts(fn, BinOp) == 1

    def test_float_fold_rounds_as_the_runtime_does(self):
        """``0.3f * 0.7f`` folds to the float32 product, so it reads
        equal to ``x * y`` computed at run time from the same float32
        values (a double-precision fold reads 0.21, the runtime
        0.21000001)."""
        kernel = compile_kernel("""
        __kernel void k(__global float *out, float x, float y) {
            out[0] = 0.3f * 0.7f;
            out[1] = x * y;
        }
        """)
        assert count_insts(kernel, BinOp) == 1  # only x * y is left
        _, res = execute_kernel(
            kernel, {"x": np.float32(0.3), "y": np.float32(0.7)},
            (1,), (1,), {"out": (np.float32, (2,))},
        )
        assert res["out"][0] == res["out"][1] == np.float32(0.3) * np.float32(0.7)

    def test_shift_folds(self):
        fn = Function("f", [], [])
        b = IRBuilder(fn.add_block("entry"))
        v = b.binop(Opcode.SHL, Constant(I32, 1), Constant(I32, 4))
        slot = b.alloca(I32)
        b.store(v, slot)
        b.ret()
        fold_constants(fn)
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        assert stores[0].value.value == 16

    @staticmethod
    def _stored_after_fold(opcode, lhs, rhs, ty=I32):
        """Fold ``lhs opcode rhs`` (``None`` names the argument ``x``);
        returns (stored value, argument, folds)."""
        fn = Function("f", [ty], ["x"])
        x = fn.arg("x")
        b = IRBuilder(fn.add_block("entry"))
        v = b.binop(opcode, x if lhs is None else lhs, x if rhs is None else rhs)
        slot = b.alloca(ty)
        b.store(v, slot)
        b.ret()
        folds = fold_constants(fn)
        verify_function(fn)
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        return stores[0].value, x, folds

    @pytest.mark.parametrize("opcode", [
        Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.LSHR, Opcode.ASHR,
    ])
    def test_zero_on_the_right_is_an_identity(self, opcode):
        value, x, folds = self._stored_after_fold(opcode, None, Constant(I32, 0))
        assert value is x and folds == 1

    @pytest.mark.parametrize("opcode", [Opcode.MUL, Opcode.SDIV, Opcode.UDIV])
    def test_one_on_the_right_is_an_identity(self, opcode):
        value, x, folds = self._stored_after_fold(opcode, None, Constant(I32, 1))
        assert value is x and folds == 1

    @pytest.mark.parametrize("opcode, unit", [
        (Opcode.ADD, 0), (Opcode.OR, 0), (Opcode.XOR, 0), (Opcode.MUL, 1),
    ])
    def test_commutative_identity_on_the_left(self, opcode, unit):
        value, x, folds = self._stored_after_fold(opcode, Constant(I32, unit), None)
        assert value is x and folds == 1

    @pytest.mark.parametrize("opcode, lhs, rhs", [
        # not identities: the constant on the left of a non-commutative op
        (Opcode.SUB, Constant(I32, 0), None),
        (Opcode.SHL, Constant(I32, 0), None),
        (Opcode.SDIV, Constant(I32, 1), None),
        # not the identity constant
        (Opcode.ADD, None, Constant(I32, 1)),
        (Opcode.MUL, None, Constant(I32, 0)),
        (Opcode.SREM, None, Constant(I32, 1)),
        (Opcode.AND, None, Constant(I32, 0)),
        # float ops never fold: -0.0 + 0.0 is +0.0
        (Opcode.FADD, None, Constant(FLOAT, 0.0)),
        (Opcode.FSUB, None, Constant(FLOAT, 0.0)),
        (Opcode.FMUL, None, Constant(FLOAT, 1.0)),
        (Opcode.FDIV, None, Constant(FLOAT, 1.0)),
    ])
    def test_non_identities_stay(self, opcode, lhs, rhs):
        ty = FLOAT if opcode.is_float else I32
        value, x, folds = self._stored_after_fold(opcode, lhs, rhs, ty)
        assert isinstance(value, BinOp) and folds == 0

    def test_pool_kernel_identity_folds_without_changing_outputs(self):
        """Fuzz pool kernel ``generate_case(3, 384)`` lowers
        ``lm1[(3 * li + 0)]`` to ``add i32 %x, 0``: the compile pipeline
        folds it away, and the kernel computes the same outputs."""
        from repro.frontend import compile_source
        from repro.fuzz.generate import generate_case
        from repro.fuzz.oracle import input_data
        from repro.ir.passes import _identity_operand

        case = generate_case(3, 384)

        def identities(fn):
            return [
                i for i in fn.instructions()
                if isinstance(i, BinOp) and _identity_operand(i) is not None
            ]

        outputs = {}
        for optimize in (False, True):
            kernel = compile_source(
                case.source(), optimize=optimize, cache=False
            ).kernel(case.kernel_name)
            assert bool(identities(kernel)) is not optimize
            total = int(np.prod(case.global_size))
            _, res = execute_kernel(
                kernel,
                {"in": input_data(case.in_elems), "P": case.p_value},
                case.global_size, case.local_size,
                {"out": (np.float32, (total,))},
            )
            outputs[optimize] = res["out"]
        assert outputs[True].tobytes() == outputs[False].tobytes()


class TestCSE:
    def test_duplicate_binops_merged(self):
        fn = Function("f", [I32, I32], ["a", "b"])
        b = IRBuilder(fn.add_block("entry"))
        x = b.add(fn.arg("a"), fn.arg("b"))
        y = b.add(fn.arg("a"), fn.arg("b"))
        slot = b.alloca(I32)
        b.store(x, slot)
        b.store(y, slot)
        b.ret()
        assert common_subexpression_elimination(fn) == 1
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        assert stores[0].value is stores[1].value
        verify_function(fn)

    def test_pure_calls_merged(self):
        fn = Function("f", [], [])
        b = IRBuilder(fn.add_block("entry"))
        c1 = b.call("get_local_id", [Constant(I32, 0)], I64)
        c2 = b.call("get_local_id", [Constant(I32, 0)], I64)
        x = b.add(c1, c2)
        slot = b.alloca(I64)
        b.store(x, slot)
        b.ret()
        assert common_subexpression_elimination(fn) == 1

    def test_different_dims_not_merged(self):
        fn = Function("f", [], [])
        b = IRBuilder(fn.add_block("entry"))
        c1 = b.call("get_local_id", [Constant(I32, 0)], I64)
        c2 = b.call("get_local_id", [Constant(I32, 1)], I64)
        x = b.add(c1, c2)
        slot = b.alloca(I64)
        b.store(x, slot)
        b.ret()
        assert common_subexpression_elimination(fn) == 0

    def test_loads_never_merged(self):
        fn = Function("f", [], [])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32, "x")
        b.store(Constant(I32, 1), slot)
        l1 = b.load(slot)
        l2 = b.load(slot)
        out = b.alloca(I32)
        b.store(b.add(l1, l2), out)
        b.ret()
        assert common_subexpression_elimination(fn) == 0

    def test_only_dominating_values_reused(self):
        fn = Function("f", [I32, I32], ["a", "b"])
        entry = fn.add_block("entry")
        t = fn.add_block("t")
        e = fn.add_block("e")
        m = fn.add_block("m")
        b = IRBuilder(entry)
        cond = b.icmp("eq", fn.arg("a"), fn.arg("b"))
        b.cond_br(cond, t, e)
        bt = IRBuilder(t)
        x = bt.add(fn.arg("a"), fn.arg("b"))
        st1 = bt.alloca(I32)
        bt.store(x, st1)
        bt.br(m)
        be = IRBuilder(e)
        y = be.add(fn.arg("a"), fn.arg("b"))  # same expr, sibling branch
        st2 = be.alloca(I32)
        be.store(y, st2)
        be.br(m)
        IRBuilder(m).ret()
        # neither branch dominates the other: no merge allowed
        assert common_subexpression_elimination(fn) == 0
        verify_function(fn)


class TestLICM:
    SRC = r"""
__kernel void k(__global float* out, __global const float* in, int n) {
    int gid = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i < n; ++i) {
        acc += in[gid*4 + (i & 3)];
    }
    out[gid] = acc;
}
"""

    def cleaned_kernel(self):
        """The lowered kernel after the clean-ups that precede LICM in
        the compile pipeline, but not LICM itself."""
        kernel = compile_kernel(self.SRC, optimize=False)
        promote_single_store_slots(kernel)
        fold_constants(kernel)
        common_subexpression_elimination(kernel)
        return kernel

    def test_hoists_loop_invariant_mul(self):
        from repro.ir.cfg import natural_loops

        kernel = self.cleaned_kernel()
        body = natural_loops(kernel)[0].body
        muls = [
            i
            for i in kernel.instructions()
            if isinstance(i, BinOp) and i.opcode == Opcode.MUL
        ]
        assert muls and all(m.parent in body for m in muls)
        assert loop_invariant_code_motion(kernel) > 0
        verify_function(kernel)
        # gid*4 must now be outside the loop
        body = natural_loops(kernel)[0].body
        assert all(m.parent not in body for m in muls)

    def test_semantics_preserved(self):
        n = 8
        rng = np.random.default_rng(3)
        data = rng.random(64 * 4, dtype=np.float32)

        k1 = self.cleaned_kernel()
        _, out1 = execute_kernel(
            k1, {"in": data, "n": n}, (64,), (16,), {"out": (np.float32, (64,))}
        )
        k2 = self.cleaned_kernel()
        assert loop_invariant_code_motion(k2) > 0
        _, out2 = execute_kernel(
            k2, {"in": data, "n": n}, (64,), (16,), {"out": (np.float32, (64,))}
        )
        np.testing.assert_allclose(out1["out"], out2["out"])

    def test_loop_varying_load_not_hoisted(self):
        kernel = self.cleaned_kernel()
        from repro.ir.cfg import natural_loops

        loop_invariant_code_motion(kernel)
        loops = natural_loops(kernel)
        body_insts = [i for bb in loops[0].body for i in bb.instructions]
        # the i-slot load must stay inside the loop
        slot_loads = [
            i
            for i in body_insts
            if isinstance(i, Load) and isinstance(i.ptr, Alloca) and i.ptr.name == "i"
        ]
        assert slot_loads


class TestFullPipelineEquivalence:
    """Optimised and unoptimised compiles must agree on every app."""

    @pytest.mark.parametrize("app_id", ["NVD-MT", "NVD-MM-AB", "PAB-ST"])
    def test_optimize_preserves_semantics(self, app_id):
        from repro.apps.registry import get_app
        from repro.apps.harness import run_app

        app = get_app(app_id)
        out_opt = run_app(app, "with", "test").outputs
        # recompile as lowered, without the pass pipeline
        from repro.frontend import compile_kernel as ck

        kernel = ck(app.source, app.kernel_name, defines=app.defines, optimize=False)
        problem = app.make_problem("test")
        _, outs = execute_kernel(
            kernel,
            problem.inputs,
            problem.global_size,
            problem.local_size,
            {k: (v.dtype, v.shape) for k, v in problem.expected.items()},
        )
        for name in out_opt:
            np.testing.assert_allclose(
                outs[name], out_opt[name], rtol=1e-5, atol=1e-5
            )

"""Tests for the rewrite machinery (Algorithm 1) and the DCE cleanup."""

import pytest

from repro.core.candidates import find_candidates
from repro.core.dce import (
    eliminate_dead_code,
    has_local_accesses,
    remove_dead_slots,
    remove_stores_to,
    strip_local_barriers,
)
from repro.core.duplicate import duplicate_instructions, mark_tree
from repro.core.exprtree import build_tree
from repro.core.linexpr import LinExpr, lid
from repro.core.rewrite import Materializer, RewriteError
from repro.frontend import compile_kernel
from repro.ir.builder import IRBuilder
from repro.ir.cfg import dominators
from repro.ir.instructions import BinOp, Call, Instruction, Store, is_barrier
from repro.ir.types import AddressSpace, I64
from repro.ir.values import Constant

from tests.conftest import MT_SOURCE


def mt_with_candidate():
    fn = compile_kernel(MT_SOURCE)
    (cand,), _ = find_candidates(fn)
    return fn, cand


class TestMaterializer:
    def _mat(self, fn, anchor):
        b = IRBuilder()
        b.position_before(anchor)
        return Materializer(b, fn, dominators(fn), anchor)

    def test_constant(self):
        fn, cand = mt_with_candidate()
        mat = self._mat(fn, cand.lls[0])
        v = mat.materialize(LinExpr.constant(7))
        assert isinstance(v, Constant) and v.value == 7

    def test_zero(self):
        fn, cand = mt_with_candidate()
        mat = self._mat(fn, cand.lls[0])
        v = mat.materialize(LinExpr.zero())
        assert isinstance(v, Constant) and v.value == 0

    def test_thread_index_symbol_emits_call(self):
        fn, cand = mt_with_candidate()
        ll = cand.lls[0]
        mat = self._mat(fn, ll)
        v = mat.materialize(LinExpr.symbol(lid(1)))
        assert isinstance(v, Call) and v.callee == "get_local_id"
        assert v.type == I64
        # emitted right before the LL
        idx = ll.parent.instructions.index(ll)
        assert ll.parent.instructions.index(v) < idx

    def test_symbol_caching(self):
        fn, cand = mt_with_candidate()
        mat = self._mat(fn, cand.lls[0])
        v1 = mat.symbol_value(lid(0))
        v2 = mat.symbol_value(lid(0))
        assert v1 is v2

    def test_linear_combination(self):
        fn, cand = mt_with_candidate()
        mat = self._mat(fn, cand.lls[0])
        expr = LinExpr.symbol(lid(0), 3) + LinExpr.constant(5)
        v = mat.materialize(expr)
        assert isinstance(v, BinOp)  # an add at the top

    def test_fractional_coefficient_rejected(self):
        from fractions import Fraction

        fn, cand = mt_with_candidate()
        mat = self._mat(fn, cand.lls[0])
        with pytest.raises(RewriteError, match="non-integral"):
            mat.materialize(LinExpr.symbol(lid(0), Fraction(1, 2)))


class TestAlgorithm1:
    def test_unmarked_tree_fully_reused(self):
        fn, cand = mt_with_candidate()
        ll = cand.lls[0]
        tree = build_tree(cand.gl.ptr)
        mark_tree(tree, {}, anchor=ll, doms=dominators(fn))
        b = IRBuilder()
        b.position_before(ll)
        before = sum(len(bb.instructions) for bb in fn.blocks)
        v = duplicate_instructions(tree, b, {})
        after = sum(len(bb.instructions) for bb in fn.blocks)
        assert v is cand.gl.ptr  # nothing cloned: original value reused
        assert after == before

    def test_substituted_leaf_forces_clone_path(self):
        fn, cand = mt_with_candidate()
        ll = cand.lls[0]
        tree = build_tree(cand.gl.ptr)
        # substitute one get_local_id leaf with a constant
        from repro.core.exprtree import local_id_dim

        leaf = next(n for n in tree.walk() if local_id_dim(n.value) == 0)
        subst = {leaf: Constant(I64, 0)}
        mark_tree(tree, subst, anchor=ll, doms=dominators(fn))
        assert tree.state  # root marked through the leaf's ancestors
        b = IRBuilder()
        b.position_before(ll)
        v = duplicate_instructions(tree, b, subst)
        assert v is not cand.gl.ptr
        assert isinstance(v, Instruction)

    def test_force_all_clones_everything(self):
        fn, cand = mt_with_candidate()
        ll = cand.lls[0]
        tree = build_tree(cand.gl.ptr)
        mark_tree(tree, {}, anchor=ll, doms=dominators(fn), force_all=True)
        b = IRBuilder()
        b.position_before(ll)
        before = sum(len(bb.instructions) for bb in fn.blocks)
        duplicate_instructions(tree, b, {})
        after = sum(len(bb.instructions) for bb in fn.blocks)
        internal_nodes = sum(
            1 for n in tree.walk() if isinstance(n.value, Instruction)
        )
        assert after - before == internal_nodes


class TestDCE:
    def test_remove_stores_to(self):
        fn, cand = mt_with_candidate()
        n = remove_stores_to(fn, cand.array)
        assert n == 1
        stores = [
            i
            for i in fn.instructions()
            if isinstance(i, Store) and i.addrspace == AddressSpace.LOCAL
        ]
        assert not stores

    def test_dead_chain_collapses(self):
        fn, cand = mt_with_candidate()
        remove_stores_to(fn, cand.array)
        # LL still reads the array, so local accesses remain
        assert has_local_accesses(fn)
        removed = eliminate_dead_code(fn)
        assert removed > 0  # the GL and its index chain died

    def test_barriers_stripped_only_when_no_local_left(self):
        fn, cand = mt_with_candidate()
        assert strip_local_barriers(fn) == 0  # local accesses still present
        # erase the load too (simulating the rewrite)
        for ll in cand.lls:
            ll.replace_all_uses_with(Constant(ll.type, 0))
            ll.erase_from_parent()
        remove_stores_to(fn, cand.array)
        assert strip_local_barriers(fn) == 1
        assert not any(is_barrier(i) for i in fn.instructions())

    def test_remove_dead_slots(self):
        """A slot whose only remaining uses are stores disappears (the
        shape left behind after the Grover rewrite kills a variable's
        readers, e.g. the `val` temp of Fig. 1)."""
        from repro.ir.function import Function
        from repro.ir.instructions import Alloca
        from repro.ir.types import I32 as I32t

        fn = Function("f", [I32t], ["n"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I32t, "dead")
        b.store(fn.arg("n"), slot)
        b.store(Constant(I32t, 2), slot)  # two stores: mem2reg won't touch it
        b.ret()
        removed = remove_dead_slots(fn)
        assert removed == 3  # two stores + the alloca
        assert not any(isinstance(i, Alloca) for i in fn.instructions())

"""Unit tests for Function/BasicBlock/Module and the IRBuilder."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import Opcode
from repro.ir.types import ArrayType, FLOAT, I32, PointerType, AddressSpace
from repro.ir.values import Constant


def make_fn():
    return Function("f", [I32, PointerType(FLOAT, AddressSpace.GLOBAL)], ["n", "p"])


class TestFunction:
    def test_arg_lookup(self):
        fn = make_fn()
        assert fn.arg("n").type == I32
        with pytest.raises(KeyError):
            fn.arg("missing")

    def test_arg_count_mismatch(self):
        with pytest.raises(ValueError):
            Function("f", [I32], ["a", "b"])

    def test_blocks_and_entry(self):
        fn = make_fn()
        b1 = fn.add_block("entry")
        b2 = fn.add_block("next")
        assert fn.entry is b1
        assert fn.blocks == [b1, b2]

    def test_add_block_after(self):
        fn = make_fn()
        b1 = fn.add_block("a")
        b3 = fn.add_block("c")
        b2 = fn.add_block("b", after=b1)
        assert fn.blocks == [b1, b2, b3]

    def test_local_arrays(self):
        fn = make_fn()
        la = fn.add_local_array(ArrayType(FLOAT, 8), "lm")
        assert fn.local_array("lm") is la
        fn.remove_local_array(la)
        with pytest.raises(KeyError):
            fn.local_array("lm")

    def test_instructions_iterates_all_blocks(self):
        fn = make_fn()
        b = IRBuilder(fn.add_block())
        b.add(Constant(I32, 1), Constant(I32, 2))
        b2 = fn.add_block()
        b.position_at_end(b2)
        b.ret()
        assert len(list(fn.instructions())) == 2


class TestBasicBlock:
    def test_insert_before(self):
        fn = make_fn()
        bb = fn.add_block()
        b = IRBuilder(bb)
        first = b.add(Constant(I32, 1), Constant(I32, 1))
        third = b.add(Constant(I32, 3), Constant(I32, 3))
        b.position_before(third)
        second = b.add(Constant(I32, 2), Constant(I32, 2))
        assert bb.instructions == [first, second, third]

    def test_terminator_detection(self):
        fn = make_fn()
        bb = fn.add_block()
        assert bb.terminator is None
        IRBuilder(bb).ret()
        assert bb.terminator is not None

    def test_auto_names_unique(self):
        assert BasicBlock().name != BasicBlock().name


class TestModule:
    def test_kernel_selection(self):
        mod = Module("m")
        k = Function("k", [], [], is_kernel=True)
        h = Function("h", [], [])
        mod.add_function(k)
        mod.add_function(h)
        assert mod.kernels() == [k]
        assert mod.kernel() is k
        assert mod.kernel("k") is k
        with pytest.raises(KeyError):
            mod.kernel("h")

    def test_duplicate_function_rejected(self):
        mod = Module("m")
        mod.add_function(Function("f", [], []))
        with pytest.raises(ValueError):
            mod.add_function(Function("f", [], []))

    def test_ambiguous_kernel(self):
        mod = Module("m")
        mod.add_function(Function("a", [], [], is_kernel=True))
        mod.add_function(Function("b", [], [], is_kernel=True))
        with pytest.raises(KeyError):
            mod.kernel()


class TestBuilder:
    def test_arithmetic_helpers(self):
        fn = make_fn()
        b = IRBuilder(fn.add_block())
        one, two = Constant(I32, 1), Constant(I32, 2)
        assert b.add(one, two).opcode == Opcode.ADD
        assert b.sub(one, two).opcode == Opcode.SUB
        assert b.mul(one, two).opcode == Opcode.MUL
        assert b.sdiv(one, two).opcode == Opcode.SDIV
        f1, f2 = Constant(FLOAT, 1.0), Constant(FLOAT, 2.0)
        assert b.fadd(f1, f2).opcode == Opcode.FADD
        assert b.fmul(f1, f2).opcode == Opcode.FMUL

    def test_memory_helpers(self):
        fn = make_fn()
        b = IRBuilder(fn.add_block())
        slot = b.alloca(I32, "x")
        b.store(Constant(I32, 5), slot)
        v = b.load(slot)
        assert v.type == I32

    def test_control_flow_helpers(self):
        fn = make_fn()
        e = fn.add_block("entry")
        t = fn.add_block("t")
        b = IRBuilder(e)
        cond = b.icmp("eq", Constant(I32, 0), Constant(I32, 0))
        b.cond_br(cond, t, t)
        assert e.terminator is not None

    def test_emit_without_position_fails(self):
        b = IRBuilder()
        with pytest.raises(AssertionError):
            b.add(Constant(I32, 1), Constant(I32, 1))

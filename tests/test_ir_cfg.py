"""Unit tests for CFG analyses: orders, dominators, loops."""

from repro.ir.builder import IRBuilder
from repro.ir.cfg import (
    back_edges,
    dominators,
    immediate_dominators,
    inst_dominates,
    loop_headers,
    natural_loops,
    predecessors,
    reverse_postorder,
)
from repro.ir.function import Function
from repro.ir.types import I32
from repro.ir.values import Constant


def diamond():
    """entry -> (then | else) -> merge"""
    fn = Function("d", [], [])
    entry = fn.add_block("entry")
    then = fn.add_block("then")
    other = fn.add_block("else")
    merge = fn.add_block("merge")
    b = IRBuilder(entry)
    cond = b.icmp("eq", Constant(I32, 0), Constant(I32, 0))
    b.cond_br(cond, then, other)
    IRBuilder(then).br(merge)
    IRBuilder(other).br(merge)
    IRBuilder(merge).ret()
    return fn, (entry, then, other, merge)


def loop_fn():
    """entry -> header -> (body -> header) | exit"""
    fn = Function("l", [], [])
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")
    IRBuilder(entry).br(header)
    b = IRBuilder(header)
    cond = b.icmp("slt", Constant(I32, 0), Constant(I32, 1))
    b.cond_br(cond, body, exit_)
    IRBuilder(body).br(header)
    IRBuilder(exit_).ret()
    return fn, (entry, header, body, exit_)


class TestOrdersAndPreds:
    def test_rpo_starts_at_entry(self):
        fn, (entry, *_rest) = diamond()
        assert reverse_postorder(fn)[0] is entry

    def test_rpo_merge_last(self):
        fn, (entry, then, other, merge) = diamond()
        assert reverse_postorder(fn)[-1] is merge

    def test_predecessors(self):
        fn, (entry, then, other, merge) = diamond()
        preds = predecessors(fn)
        assert set(preds[merge]) == {then, other}
        assert preds[entry] == []

    def test_unreachable_blocks_excluded(self):
        fn, _ = diamond()
        dead = fn.add_block("dead")
        IRBuilder(dead).ret()
        assert dead not in reverse_postorder(fn)


class TestDominators:
    def test_diamond_idoms(self):
        fn, (entry, then, other, merge) = diamond()
        idom = immediate_dominators(fn)
        assert idom[entry] is None
        assert idom[then] is entry
        assert idom[other] is entry
        assert idom[merge] is entry  # neither branch dominates merge

    def test_dominator_sets(self):
        fn, (entry, then, other, merge) = diamond()
        doms = dominators(fn)
        assert doms[merge] == {entry, merge}
        assert doms[then] == {entry, then}

    def test_loop_idoms(self):
        fn, (entry, header, body, exit_) = loop_fn()
        idom = immediate_dominators(fn)
        assert idom[header] is entry
        assert idom[body] is header
        assert idom[exit_] is header

    def test_inst_dominates_same_block(self):
        fn, (entry, *_r) = diamond()
        doms = dominators(fn)
        first, second = entry.instructions[0], entry.instructions[1]
        assert inst_dominates(doms, first, second)
        assert not inst_dominates(doms, second, first)

    def test_inst_dominates_across_blocks(self):
        fn, (entry, then, other, merge) = diamond()
        doms = dominators(fn)
        cond = entry.instructions[0]
        ret = merge.instructions[0]
        assert inst_dominates(doms, cond, ret)
        assert not inst_dominates(doms, then.instructions[0], ret)


class TestLoops:
    def test_back_edges(self):
        fn, (entry, header, body, exit_) = loop_fn()
        assert back_edges(fn) == [(body, header)]
        assert loop_headers(fn) == {header}

    def test_diamond_has_no_loops(self):
        fn, _ = diamond()
        assert back_edges(fn) == []
        assert natural_loops(fn) == []

    def test_natural_loop_body_and_preheader(self):
        fn, (entry, header, body, exit_) = loop_fn()
        loops = natural_loops(fn)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header is header
        assert loop.body == {header, body}
        assert loop.preheader is entry
        assert loop.contains(body) and not loop.contains(exit_)

    def test_nested_loops_sorted_innermost_first(self):
        fn = Function("n", [], [])
        entry = fn.add_block("entry")
        oh = fn.add_block("outer_h")
        ih = fn.add_block("inner_h")
        ib = fn.add_block("inner_b")
        ol = fn.add_block("outer_latch")
        ex = fn.add_block("exit")
        IRBuilder(entry).br(oh)
        b = IRBuilder(oh)
        c1 = b.icmp("eq", Constant(I32, 0), Constant(I32, 0))
        b.cond_br(c1, ih, ex)
        b = IRBuilder(ih)
        c2 = b.icmp("eq", Constant(I32, 0), Constant(I32, 0))
        b.cond_br(c2, ib, ol)
        IRBuilder(ib).br(ih)
        IRBuilder(ol).br(oh)
        IRBuilder(ex).ret()
        loops = natural_loops(fn)
        assert len(loops) == 2
        assert loops[0].header is ih  # innermost first (smaller body)
        assert loops[1].header is oh
        assert loops[0].body < loops[1].body

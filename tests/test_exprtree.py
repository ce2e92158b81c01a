"""Tests for index expression trees (Fig. 6, Section IV-B)."""

from repro.core.exprtree import (
    build_tree,
    find_leaves,
    global_id_dim,
    is_slot_load,
    local_id_dim,
)
from repro.frontend import compile_kernel
from repro.ir.instructions import Call, GEP, Load
from repro.ir.types import AddressSpace
from repro.ir.values import Argument, Constant


def gl_pointer(src):
    fn = compile_kernel(src)
    for inst in fn.instructions():
        if isinstance(inst, Load) and inst.addrspace == AddressSpace.GLOBAL:
            return fn, inst.ptr
    raise AssertionError("no global load")


MT_LIKE = """
#define S 16
__kernel void t(__global float* out, __global const float* in, int W)
{
    __local float lm[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    lm[ly][lx] = in[(wx*S + ly)*W + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx][ly];
}
"""


class TestTreeConstruction:
    def test_leaves_are_paper_kinds(self):
        fn, ptr = gl_pointer(MT_LIKE)
        tree = build_tree(ptr)
        for leaf in tree.leaves():
            v = leaf.value
            assert (
                isinstance(v, (Call, Constant, Argument))
                or is_slot_load(v)
            ), f"unexpected leaf {v!r}"

    def test_parent_pointers(self):
        fn, ptr = gl_pointer(MT_LIKE)
        tree = build_tree(ptr)
        for node in tree.walk():
            for c in node.children:
                assert c.parent is node

    def test_root_is_gep(self):
        fn, ptr = gl_pointer(MT_LIKE)
        tree = build_tree(ptr)
        assert isinstance(tree.value, GEP)

    def test_internal_nodes_have_instruction_values(self):
        fn, ptr = gl_pointer(MT_LIKE)
        tree = build_tree(ptr)
        from repro.ir.instructions import Instruction

        for node in tree.walk():
            if not node.is_leaf:
                assert isinstance(node.value, Instruction)

    def test_loop_var_is_leaf(self):
        src = """
__kernel void t(__global float* out, __global const float* in, int n)
{
    __local float lm[64];
    int lx = get_local_id(0);
    for (int i = 0; i < n; ++i) {
        lm[lx] = in[i*64 + lx];
        barrier(CLK_LOCAL_MEM_FENCE);
        out[i] = lm[0];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
}
"""
        fn, ptr = gl_pointer(src)
        tree = build_tree(ptr)
        slot_leaves = [n for n in tree.leaves() if is_slot_load(n.value)]
        assert slot_leaves, "the loop counter load must be a leaf"
        assert all(leaf.is_leaf for leaf in slot_leaves)


class TestMarkAndFind:
    def test_mark_upward(self):
        fn, ptr = gl_pointer(MT_LIKE)
        tree = build_tree(ptr)
        leaf = next(iter(tree.leaves()))
        leaf.mark_upward()
        node = leaf
        while node is not None:
            assert node.state
            node = node.parent

    def test_find_local_id_leaves(self):
        fn, ptr = gl_pointer(MT_LIKE)
        tree = build_tree(ptr)
        lids = find_leaves(tree, lambda v: local_id_dim(v) is not None)
        dims = {local_id_dim(n.value) for n in lids}
        assert dims == {0, 1}

    def test_local_and_global_id_helpers(self):
        fn = compile_kernel(MT_LIKE)
        calls = [i for i in fn.instructions() if isinstance(i, Call)]
        by_name = {}
        for c in calls:
            by_name.setdefault(c.callee, c)
        assert local_id_dim(by_name["get_local_id"]) in (0, 1)
        assert global_id_dim(by_name["get_global_id"]) == 0
        assert local_id_dim(by_name["get_group_id"]) is None


class TestRendering:
    def test_render_shows_structure(self):
        fn, ptr = gl_pointer(MT_LIKE)
        text = build_tree(ptr).render()
        assert "in[" in text
        assert "get_group_id(0)" in text
        assert "* 16" in text or "16 *" in text or "* W" in text

    def test_render_constants(self):
        fn, ptr = gl_pointer(MT_LIKE)
        text = build_tree(ptr).render()
        assert "W" in text

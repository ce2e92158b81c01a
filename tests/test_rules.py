"""The rewrite-rule framework: registry, protocol, per-rule legality.

The load-bearing assertion is the Grover port: the ``grover`` pass is
now backed by :class:`repro.rules.DisableLocalMemoryRule`, and its
transformed IR must be bit-identical to the historical pass body on
every Table III app — the golden-report suite pins end-to-end behaviour,
this file pins the IR text itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import table_apps
from repro.core.grover import GroverPass
from repro.ir.instructions import is_barrier
from repro.ir.printer import print_function
from repro.ir.types import ArrayType
from repro.rules import RULE_REGISTRY, RewriteRule, RuleContext, get_rule, register_rule, rule_names
from repro.runtime import Memory
from repro.session import Session
from repro.session.passes import PASS_REGISTRY

NEW_RULES = ("pad-local-arrays", "eliminate-barriers", "hoist-global-loads")


def _compile(source: str, name: str | None = None):
    return Session(env={}, workers=1).compile_kernel(source, name)


def _execute(kernel, global_size, local_size, in_elems: int, p: int):
    """Launch with the fuzz-oracle argument convention; returns outputs."""
    s = Session(env={}, workers=1)
    mem = Memory()
    total = int(np.prod(global_size))
    out = mem.alloc(total * 4, "out")
    data = ((np.arange(in_elems) % 13) + 1).astype(np.float32)
    inb = mem.from_array(data, "in")
    s.launch(
        kernel,
        tuple(global_size),
        tuple(local_size),
        {"out": out, "in": inb, "P": p},
        memory=mem,
    )
    return out.read(np.float32, total).copy()


def _apply_and_compare(source, name, rule_name, geometry, global_size,
                       in_elems=256, p=3, expect_rewrites=None):
    """Apply one rule; assert outputs byte-identical to the baseline."""
    baseline = _compile(source, name)
    transformed = _compile(source, name)
    rewrites = get_rule(rule_name).apply(
        transformed, RuleContext(local_size=geometry)
    )
    if expect_rewrites is not None:
        assert rewrites == expect_rewrites
    out_base = _execute(baseline, global_size, geometry, in_elems, p)
    out_new = _execute(transformed, global_size, geometry, in_elems, p)
    np.testing.assert_array_equal(
        out_base.view(np.uint8), out_new.view(np.uint8)
    )
    return transformed, rewrites


# ---------------------------------------------------------------------------
# registry and protocol
# ---------------------------------------------------------------------------


def test_all_rules_registered_with_metadata():
    assert "grover" in RULE_REGISTRY
    for name in NEW_RULES:
        assert name in RULE_REGISTRY
    for name, rule in RULE_REGISTRY.items():
        assert rule.name == name
        assert rule.description
        assert rule.legality_arbiter
        assert rule.legality
    assert len(rule_names()) >= 4


def test_every_rule_is_a_registered_pass():
    for name in rule_names():
        info = PASS_REGISTRY[name]
        assert info.rule is RULE_REGISTRY[name]
        assert info.description == RULE_REGISTRY[name].description
        assert info.legality_arbiter == RULE_REGISTRY[name].legality_arbiter
        assert info.legality == RULE_REGISTRY[name].legality


def test_non_rule_passes_carry_no_rule_metadata():
    assert PASS_REGISTRY["cse"].rule is None
    assert PASS_REGISTRY["cse"].legality_arbiter == ""


def test_register_rule_rejects_duplicates_and_anonymous():
    class Dupe(RewriteRule):
        name = "grover"

    with pytest.raises(ValueError, match="already registered"):
        register_rule(Dupe())

    class Anon(RewriteRule):
        name = ""

    with pytest.raises(ValueError, match="non-empty name"):
        register_rule(Anon())


def test_get_rule_unknown_name():
    with pytest.raises(KeyError, match="unknown rule"):
        get_rule("no-such-rule")


def test_veto_raises_on_decided_race():
    from repro.analysis import RaceDetected, analyzer_veto

    src = """
    __kernel void racy(__global float *out, __global float *in, int P) {
        out[0] = (float)get_local_id(0);
    }
    """
    kernel = _compile(src)
    with pytest.raises(RaceDetected, match=r"analyzer veto \(test\)"):
        analyzer_veto(kernel, (64,), "test")


# ---------------------------------------------------------------------------
# the Grover port: bit-identical IR on every app
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", table_apps(), ids=lambda a: a.id)
def test_grover_rule_port_bit_identical(app):
    from repro.apps.harness import compile_app

    with Session(env={}, workers=1).activate():
        via_rule, _ = compile_app(app, "with")
        legacy, _ = compile_app(app, "with")
    n_rule = int(PASS_REGISTRY["grover"].run(via_rule))
    # the historical registered pass body, verbatim
    report = GroverPass(allow_partial=True).run(legacy)
    n_legacy = sum(len(r.lls) for r in report.transformed)
    assert n_rule == n_legacy
    assert print_function(via_rule) == print_function(legacy)


def test_grover_rule_idempotent_on_kernel_without_local():
    src = """
    __kernel void plain(__global float *out, __global float *in, int P) {
        out[get_global_id(0)] = in[get_global_id(0)] * (float)P;
    }
    """
    kernel = _compile(src)
    ctx = RuleContext()
    assert not get_rule("grover").probe(kernel, ctx)
    assert get_rule("grover").apply(kernel, ctx) == 0


# ---------------------------------------------------------------------------
# local-array padding
# ---------------------------------------------------------------------------

PAD_SRC = """
__kernel void pad(__global float *out, __global float *in, int P) {
    __local float tile[16][16];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    tile[ly][lx] = in[ly * 16 + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(1) * 16 + get_global_id(0)] = tile[lx][ly] * (float)P;
}
"""


def test_padding_pads_bank_aliasing_array():
    kernel, rewrites = _apply_and_compare(
        PAD_SRC, "pad", "pad-local-arrays", (16, 16), (16, 16),
        expect_rewrites=1,
    )
    (la,) = kernel.local_arrays
    assert la.array_type.dims() == (16, 17)
    inner = la.array_type.element
    assert isinstance(inner, ArrayType) and inner.count == 17


def test_padding_is_idempotent():
    kernel = _compile(PAD_SRC, "pad")
    ctx = RuleContext(local_size=(16, 16))
    assert get_rule("pad-local-arrays").apply(kernel, ctx) == 1
    # 17 floats/row no longer alias the bank line: nothing left to pad
    assert get_rule("pad-local-arrays").apply(kernel, ctx) == 0


def test_padding_skips_non_aliasing_rows():
    src = PAD_SRC.replace("tile[16][16]", "tile[16][15]").replace(
        "ly * 16 + lx", "ly * 15 + lx"
    )
    kernel = _compile(src, "pad")
    assert get_rule("pad-local-arrays").apply(
        kernel, RuleContext(local_size=(15, 16))
    ) == 0


def test_padding_rejects_unprovable_indices():
    # (lx + P) % 16 is in bounds at runtime but opaque to the affine
    # arbiter — padding would re-map addresses it cannot bound, so the
    # array must be left alone
    src = PAD_SRC.replace("tile[lx][ly]", "tile[(lx + P) % 16][ly]")
    kernel = _compile(src, "pad")
    assert get_rule("pad-local-arrays").apply(
        kernel, RuleContext(local_size=(16, 16))
    ) == 0


def test_padding_needs_geometry():
    kernel = _compile(PAD_SRC, "pad")
    # no launch geometry, no reqd_work_group_size: bounds are unprovable
    assert get_rule("pad-local-arrays").apply(kernel, RuleContext()) == 0


# ---------------------------------------------------------------------------
# barrier elimination
# ---------------------------------------------------------------------------

SELF_STAGE_SRC = """
__kernel void selfstage(__global float *out, __global float *in, int P) {
    __local float tmp[64];
    int lid = get_local_id(0);
    tmp[lid] = in[lid] * 2.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tmp[lid] + (float)P;
}
"""


def _barrier_count(fn) -> int:
    return sum(1 for inst in fn.instructions() if is_barrier(inst))


def test_barrier_elimination_removes_single_phase_barrier():
    kernel, _ = _apply_and_compare(
        SELF_STAGE_SRC, "selfstage", "eliminate-barriers", (64,), (64,),
        in_elems=64, expect_rewrites=1,
    )
    assert _barrier_count(kernel) == 0


def test_barrier_elimination_keeps_cross_item_barrier():
    src = SELF_STAGE_SRC.replace("tmp[lid] + ", "tmp[63 - lid] + ")
    kernel = _compile(src, "selfstage")
    assert get_rule("eliminate-barriers").apply(
        kernel, RuleContext(local_size=(64,))
    ) == 0
    assert _barrier_count(kernel) == 1


def test_barrier_elimination_requires_decided_analysis():
    # without geometry the cross-item pairs stay undecided, and an
    # undecided pair means the barrier cannot be proven redundant
    src = SELF_STAGE_SRC.replace("tmp[lid] + ", "tmp[63 - lid] + ")
    kernel = _compile(src, "selfstage")
    assert get_rule("eliminate-barriers").apply(kernel, RuleContext()) == 0


# ---------------------------------------------------------------------------
# loop-invariant global-load hoisting
# ---------------------------------------------------------------------------

HOIST_SRC = """
__kernel void hoisty(__global float *out, __global float *in, int P) {
    float s = 0.0f;
    for (int i = 0; i < P; i++) {
        s += in[get_local_id(0)];
    }
    out[get_global_id(0)] = s;
}
"""


def _in_loop_global_loads(fn) -> int:
    from repro.ir.cfg import natural_loops
    from repro.ir.instructions import Load
    from repro.ir.types import AddressSpace

    return sum(
        1
        for loop in natural_loops(fn)
        for bb in loop.body
        for inst in bb.instructions
        if isinstance(inst, Load) and inst.addrspace == AddressSpace.GLOBAL
    )


def test_hoist_moves_invariant_load_out_of_loop():
    kernel, _ = _apply_and_compare(
        HOIST_SRC, "hoisty", "hoist-global-loads", (64,), (64,),
        in_elems=64, p=5, expect_rewrites=1,
    )
    assert _in_loop_global_loads(kernel) == 0
    # idempotent: nothing left in the loop
    assert get_rule("hoist-global-loads").apply(kernel, RuleContext()) == 0


def test_hoist_skips_buffers_that_are_stored_to():
    src = HOIST_SRC.replace(
        "out[get_global_id(0)] = s;",
        "in[get_global_id(0)] = s;\n    out[get_global_id(0)] = s;",
    )
    kernel = _compile(src, "hoisty")
    assert _in_loop_global_loads(kernel) == 1
    assert get_rule("hoist-global-loads").apply(kernel, RuleContext()) == 0


def test_hoist_skips_loop_varying_addresses():
    src = HOIST_SRC.replace("in[get_local_id(0)]", "in[i]")
    kernel = _compile(src, "hoisty")
    assert get_rule("hoist-global-loads").apply(kernel, RuleContext()) == 0
    assert _in_loop_global_loads(kernel) == 1

"""``copy.deepcopy`` of IR is a linear structural clone.

Grover rewrites IR in place, so every with/without pair starts from a
private copy: the compile cache's insert and hit, the analyzer-gated
variant of a fuzz kernel, the barrier rule's trial kernel.
``Module.__deepcopy__``/``Function.__deepcopy__`` must hand back the
original's graph object for object: the same printed IR, instruction
ids, names, operand graph, use lists in order, parents and branch
targets, with no mutable object shared between original and copy.
"""

from __future__ import annotations

import copy
import warnings

import pytest

from repro.analysis import AnalysisUndecidedWarning
from repro.apps.registry import all_apps, get_app
from repro.core import GroverPass
from repro.core.grover import GroverError
from repro.frontend import FrontendError, compile_source
from repro.fuzz.generate import generate_case
from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction, is_barrier
from repro.ir.printer import print_function, print_module
from repro.ir.types import I32
from repro.ir.values import Constant
from repro.ir.verifier import verify_function

APP_IDS = [app.id for app in all_apps()]
#: a fixed slice of the kernel-ingest pool (root seed 3)
FUZZ_INDICES = range(0, 120, 3)


def _pairs(orig: Function, dup: Function) -> dict:
    """``id(original) -> copy`` for every value and block, by position."""
    pairs = {id(orig): dup}
    assert len(dup.args) == len(orig.args)
    assert len(dup.local_arrays) == len(orig.local_arrays)
    assert len(dup.blocks) == len(orig.blocks)
    for a, b in zip(orig.args, dup.args):
        pairs[id(a)] = b
    for a, b in zip(orig.local_arrays, dup.local_arrays):
        pairs[id(a)] = b
    for ob, nb in zip(orig.blocks, dup.blocks):
        pairs[id(ob)] = nb
        assert len(nb.instructions) == len(ob.instructions)
        for a, b in zip(ob.instructions, nb.instructions):
            pairs[id(a)] = b
    return pairs


def assert_function_clone(orig: Function, dup: Function) -> None:
    assert dup is not orig
    assert print_function(dup) == print_function(orig)
    assert (dup.name, dup.is_kernel, dup.ret_type, dup.reqd_work_group_size) == (
        orig.name,
        orig.is_kernel,
        orig.ret_type,
        orig.reqd_work_group_size,
    )
    pairs = _pairs(orig, dup)
    # each original Constant object has one copy, equal to it but its own
    # object, wherever it is used; equal Constants are not merged
    consts = {}
    for ob, nb in zip(orig.blocks, dup.blocks):
        for oi, ni in zip(ob.instructions, nb.instructions):
            for op, nop in zip(oi.operands, ni.operands):
                if isinstance(op, Constant):
                    assert consts.setdefault(id(op), (op, nop))[1] is nop
                    assert nop is not op and type(nop) is Constant
                    assert nop.type is op.type and nop.value == op.value
    pairs.update((key, nop) for key, (_, nop) in consts.items())

    for ob, nb in zip(orig.blocks, dup.blocks):
        assert nb is not ob
        assert nb.name == ob.name
        assert nb.parent is dup
        for oi, ni in zip(ob.instructions, nb.instructions):
            assert ni is not oi and type(ni) is type(oi)
            assert (ni.id, ni.name) == (oi.id, oi.name)
            assert ni.type is oi.type  # frozen Types are shared
            assert ni.parent is nb
            assert len(ni.operands) == len(oi.operands)
            for op, nop in zip(oi.operands, ni.operands):
                assert nop is pairs[id(op)]
            for slot in ("target", "if_true", "if_false"):
                if hasattr(oi, slot):
                    assert getattr(ni, slot) is pairs[id(getattr(oi, slot))]
            for slot in ("opcode", "pred", "kind", "callee", "allocated_type"):
                if hasattr(oi, slot):
                    assert getattr(ni, slot) == getattr(oi, slot)

    values = [*orig.args, *orig.local_arrays, *(op for op, _ in consts.values())]
    values += orig.instructions()
    for old in values:
        new = pairs[id(old)]
        assert new is not old and new.name == old.name and new.type is old.type
        assert new.uses is not old.uses
        # use lists in the original's order, naming only copied users
        assert [(id(u), i) for u, i in new.uses] == [
            (id(pairs[id(u)]), i) for u, i in old.uses
        ]
    # distinct originals have distinct copies, none of them an original
    assert len({id(v) for v in pairs.values()}) == len(pairs)
    assert not {id(v) for v in pairs.values()} & set(pairs)


def assert_module_clone(orig: Module, dup: Module) -> None:
    assert dup is not orig and dup.name == orig.name
    assert print_module(dup) == print_module(orig)
    assert list(dup.functions) == list(orig.functions)
    for name, fn in orig.functions.items():
        assert_function_clone(fn, dup.functions[name])


def _grover(kernel: Function, arrays=None) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalysisUndecidedWarning)
        try:
            GroverPass(arrays=arrays, allow_partial=True).run(kernel)
        except GroverError:
            pass


def _copy_then_grover(module: Module, kernel_name: str, arrays=None) -> Module:
    """Grover on a deepcopy; the original must not move."""
    before = print_module(module)
    variant = copy.deepcopy(module)
    assert_module_clone(module, variant)
    _grover(variant.kernel(kernel_name), arrays)
    assert print_module(module) == before
    verify_function(module.kernel(kernel_name))
    verify_function(variant.kernel(kernel_name))
    return variant


@pytest.mark.parametrize("app_id", APP_IDS)
def test_app_modules_copy_exactly(app_id):
    app = get_app(app_id)
    with_ = compile_source(app.source, app.defines, cache=False)
    without = _copy_then_grover(with_, app.kernel_name, app.arrays)
    assert_module_clone(without, copy.deepcopy(without))


@pytest.mark.parametrize("index", FUZZ_INDICES)
def test_fuzz_pool_modules_copy_exactly(index):
    case = generate_case(3, index)
    try:
        module = compile_source(case.source(), cache=False)
    except FrontendError:
        pytest.skip("kernel does not compile")
    variant = _copy_then_grover(module, case.kernel_name)
    assert_module_clone(variant, copy.deepcopy(variant))


def test_module_and_its_kernel_copy_together():
    app = get_app("NVD-MT")
    module = compile_source(app.source, app.defines, cache=False)
    dup, kernel = copy.deepcopy((module, module.kernel(app.kernel_name)))
    assert kernel is dup.kernel(app.kernel_name)
    assert kernel is not module.kernel(app.kernel_name)
    assert_module_clone(module, dup)


def test_bare_function_copy_is_independent():
    """The barrier rule's trial: deepcopy a kernel, erase a barrier."""
    app = get_app("NVD-MT")
    fn = compile_source(app.source, app.defines, cache=False).kernel(app.kernel_name)
    before = print_function(fn)
    trial = copy.deepcopy(fn)
    assert_function_clone(fn, trial)
    barriers = [i for i in trial.instructions() if is_barrier(i)]
    assert barriers
    for inst in barriers:
        inst.erase_from_parent()
    _grover(trial)
    assert print_function(fn) == before
    verify_function(fn)
    verify_function(trial)
    trial_ids = {id(i) for i in trial.instructions()}
    for inst in fn.instructions():
        assert not {id(u) for u, _ in inst.uses} & trial_ids


def _fn_with_constants():
    fn = Function("f", [I32], ["n"], is_kernel=True)
    b = IRBuilder(fn.add_block("entry"))
    one_a, one_b = Constant(I32, 1), Constant(I32, 1)
    x = b.add(fn.args[0], one_a, "x")
    y = b.add(x, one_b, "y")
    b.mul(y, one_a, "z")
    b.ret()
    return fn


def test_equal_constants_stay_distinct_objects():
    fn = _fn_with_constants()
    dup = copy.deepcopy(fn)
    assert_function_clone(fn, dup)
    x, y, z = dup.blocks[0].instructions[:3]
    assert x.operands[1] == y.operands[1]
    assert x.operands[1] is not y.operands[1]
    assert x.operands[1] is z.operands[1]
    assert [u.name for u, _ in x.operands[1].uses] == ["x", "z"]


def test_stale_use_is_copied_like_any_user():
    fn = _fn_with_constants()
    bb = fn.blocks[0]
    z = bb.instructions[2]
    bb.instructions.remove(z)  # out of the block, still in its operands' uses
    dup = copy.deepcopy(fn)
    stale = [u for u, _ in dup.blocks[0].instructions[1].uses]
    assert len(stale) == 1 and isinstance(stale[0], Instruction)
    assert stale[0] is not z and stale[0].id == z.id
    assert stale[0].operands[0] is dup.blocks[0].instructions[1]
    assert stale[0].parent is dup.blocks[0]

"""The promoted fuzz corpus: every committed kernel replays through all
three arbiters on every tier-1 run.

``tests/corpus/*.cl`` plus ``manifest.json`` are the survivors promoted
by ``repro fuzz --promote`` — each carries a distinct *verdict shape*
(execution outcome x analyzer verdict x Grover summary x eviction
behaviour x feature set), so together they pin the decision boundaries
of the whole stack: the backends' bit-identity, the analyzer's
deferral/replay behaviour, the veto gate and the Eq. 3 verdicts.  A
mismatch here means an arbiter moved; regenerate deliberately with
``repro fuzz --promote`` only when the new verdict is understood.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import GroverPass
from repro.frontend import compile_kernel
from repro.fuzz import expectation_mismatches, load_manifest, replay_entry
from repro.fuzz.oracle import BACKENDS, input_data
from repro.ir.instructions import GEP, Load
from repro.ir.printer import print_function
from repro.ir.values import LocalArray
from repro.runtime import Memory, launch
from repro.session import Session

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
MANIFEST = load_manifest(CORPUS_DIR)


def test_corpus_is_committed_and_sized():
    assert len(MANIFEST) == 28
    for entry in MANIFEST:
        assert os.path.exists(os.path.join(CORPUS_DIR, str(entry["file"])))
    # promotion is shape-deduplicated: every committed case pins a
    # distinct verdict shape
    shapes = [e["shape"] for e in MANIFEST]
    assert len(set(shapes)) == len(shapes)


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[str(e["file"])[:21] for e in MANIFEST]
)
def test_corpus_case_replays(entry):
    outcome = replay_entry(CORPUS_DIR, entry)
    assert not outcome.mismatches, [m.render() for m in outcome.mismatches]
    assert expectation_mismatches(entry, outcome) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_corpus_backends_bit_identical(backend):
    """Each committed kernel produces reference-identical outputs when
    the backend is pinned through the session config (the same override
    path ``$REPRO_EXEC_BACKEND`` takes)."""
    ran = 0
    for entry in MANIFEST:
        if str(entry["expected"]["exec"]) != "ok":
            continue
        path = os.path.join(CORPUS_DIR, str(entry["file"]))
        with open(path) as fh:
            source = fh.read()
        outs = {}
        for b in ("reference", backend):
            s = Session(env={}, exec_backend=b, workers=1)
            kernel = s.compile_kernel(source, str(entry["kernel"]))
            mem = Memory()
            total = int(np.prod(entry["global_size"]))
            out = mem.alloc(total * 4, "out")
            inb = mem.from_array(input_data(int(entry["in_elems"])), "in")
            with s.activate():
                launch(
                    kernel,
                    tuple(entry["global_size"]),
                    tuple(entry["local_size"]),
                    {"out": out, "in": inb, "P": int(entry["p_value"])},
                    memory=mem,
                )
            outs[b] = out.read(np.float32, total)
        np.testing.assert_array_equal(
            outs["reference"].view(np.uint8), outs[backend].view(np.uint8)
        )
        ran += 1
        if ran >= 8:  # a spread is plenty; the oracle test covers all 28
            break
    assert ran > 0


#: kernels whose candidates are all rejected after the pass used to
#: rewrite some of their local loads: a candidate failing on its second
#: load (``fuzz_b5d7...``) or on re-creating an index term whose
#: operand is unavailable at the load (the other two)
ALL_REJECTED = (
    "fuzz_b5d75f9e2fe98327.cl",
    "fuzz_c71a6290df50ba2b.cl",
    "fuzz_eff7becf7cfdaa33.cl",
)


def _local_loads(kernel):
    """Local array name -> number of loads reading it."""
    counts = {}
    for inst in kernel.instructions():
        if isinstance(inst, Load):
            base = inst.ptr.base if isinstance(inst.ptr, GEP) else inst.ptr
            if isinstance(base, LocalArray):
                counts[base.name] = counts.get(base.name, 0) + 1
    return counts


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[str(e["file"])[:21] for e in MANIFEST]
)
def test_corpus_rejected_candidates_leave_ir_untouched(entry):
    """Grover leaves the loads of every rejected array in place, and a
    pass that transforms nothing leaves the IR exactly as it was."""
    with open(os.path.join(CORPUS_DIR, str(entry["file"]))) as fh:
        kernel = compile_kernel(fh.read(), str(entry["kernel"]))
    before, loads = print_function(kernel), _local_loads(kernel)
    report = GroverPass(allow_partial=True).run(kernel)
    after = _local_loads(kernel)
    for rec in report.rejected:
        assert after.get(rec.name) == loads.get(rec.name), rec.name
    if not report.transformed:
        assert print_function(kernel) == before
    if entry["file"] in ALL_REJECTED:
        assert report.records and not report.transformed

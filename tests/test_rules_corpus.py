"""Corpus × rewrite rules: the three-way differential oracle per rule.

Every promoted corpus kernel is replayed through each new rewrite rule;
after any legal application the transformed kernel must be judged
equivalent three ways — the reference and tape backends must produce
bit-identical traces and outputs for it, and its outputs must be
byte-identical to the *untransformed* kernel's.  The new rules are
self-gating (each proves its own legality before rewriting), so no case
is excluded: where the gate refuses, the rule is a no-op and the check
degenerates to the backends' standing bit-identity contract.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.fuzz import load_manifest
from repro.fuzz.oracle import input_data
from repro.parallel.diff import assert_traces_equal
from repro.rules import RuleContext, get_rule
from repro.runtime import Memory, launch
from repro.session import Session

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
MANIFEST = load_manifest(CORPUS_DIR)

#: the rules added by the rewrite-rule framework (grover's behaviour on
#: the corpus is already pinned by the oracle replay in test_corpus.py)
NEW_RULES = ("pad-local-arrays", "eliminate-barriers", "hoist-global-loads")

BACKENDS = ("reference", "tape")


def _launch(kernel, entry, backend: str):
    """One full-grid traced launch; returns (trace, output bytes)."""
    s = Session(env={}, exec_backend=backend, workers=1, tape_batch=256)
    mem = Memory()
    total = int(np.prod(entry["global_size"]))
    out = mem.alloc(total * 4, "out")
    inb = mem.from_array(input_data(int(entry["in_elems"])), "in")
    with s.activate():
        res = launch(
            kernel,
            tuple(entry["global_size"]),
            tuple(entry["local_size"]),
            {"out": out, "in": inb, "P": int(entry["p_value"])},
            memory=mem,
            collect_trace=True,
        )
    return res.trace, out.read(np.float32, total).copy()


@pytest.mark.parametrize("rule_name", NEW_RULES)
def test_corpus_replays_through_rule(rule_name):
    rule = get_rule(rule_name)
    applied = 0
    for entry in MANIFEST:
        if str(entry["expected"]["exec"]) != "ok":
            continue  # kernels that fault do so identically either way
        path = os.path.join(CORPUS_DIR, str(entry["file"]))
        with open(path) as fh:
            source = fh.read()
        name = str(entry["kernel"])
        session = Session(env={}, workers=1)
        baseline = session.compile_kernel(source, name)
        transformed = session.compile_kernel(source, name)
        ctx = RuleContext(local_size=tuple(entry["local_size"]))
        rewrites = rule.apply(transformed, ctx)
        case = f"{entry['file']}×{rule_name} (rewrites={rewrites})"

        _, out_base = _launch(baseline, entry, "reference")
        ref_trace, out_ref = _launch(transformed, entry, "reference")
        for backend in BACKENDS[1:]:
            trace, out = _launch(transformed, entry, backend)
            assert_traces_equal(ref_trace, trace, f"{case} [{backend}]")
            np.testing.assert_array_equal(
                out_ref.view(np.uint8), out.view(np.uint8),
                err_msg=f"{case} [{backend}] outputs",
            )
        # the third way: the rule must not have changed computed values
        np.testing.assert_array_equal(
            out_base.view(np.uint8), out_ref.view(np.uint8),
            err_msg=f"{case} vs untransformed",
        )
        applied += int(rewrites > 0)
    # the sweep must exercise the rule somewhere, or it proves nothing
    if rule_name == "eliminate-barriers":
        assert applied > 0

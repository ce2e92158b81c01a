"""The codegen'd compiled-tape tier: bit-identity, eviction, disk cache.

The codegen backend (``REPRO_EXEC_BACKEND=codegen``) emits the recorded
pilot tape as one generated Python module of straight-line fused numpy
statements, ``compile()``/``exec()``'d once and cached per (kernel IR
fingerprint, tape schedule hash, batch size) key.  Its contract is the
tape backend's contract: bit-identity with the reference per-group
scheduler — identical ``KernelTrace`` streams and output buffer bytes —
for any worker count, with or without out-of-core trace spill, and for
kernels whose groups diverge from the pilot schedule (diverted to the
tape/scalar path mid-replay).

Also covered here: the on-disk artifact cache (``codegen_cache_dir``) —
a second process-lifetime hits the ``disk`` tier, and a corrupted
artifact is detected by its content hash and silently recompiled.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_kernel
from repro.parallel.diff import assert_outputs_equal, assert_traces_equal
from repro.runtime import Memory, launch
from repro.runtime.codegen import clear_codegen_cache
from repro.session import Session, events

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _traced_launch(
    kernel,
    args_spec,
    gsize,
    lsize,
    outs,
    *,
    backend,
    tape_batch=256,
    sample_groups=None,
    trace_spill_mb=None,
    codegen_cache_dir=None,
):
    """Launch under ``backend`` and return (trace, outputs dict)."""
    mem = Memory()
    args = {}
    bufs = {}
    for name, v in args_spec.items():
        if isinstance(v, np.ndarray):
            bufs[name] = mem.from_array(v, name)
            args[name] = bufs[name]
        else:
            args[name] = v
    for name, (dtype, shape) in outs.items():
        if name not in bufs:
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            bufs[name] = mem.alloc(nbytes, name)
            args[name] = bufs[name]
    overrides = {"exec_backend": backend, "tape_batch": tape_batch}
    if trace_spill_mb is not None:
        overrides["trace_spill_mb"] = trace_spill_mb
    if codegen_cache_dir is not None:
        overrides["codegen_cache_dir"] = codegen_cache_dir
    with Session(**overrides).activate():
        res = launch(
            kernel, gsize, lsize, args, memory=mem,
            collect_trace=True, sample_groups=sample_groups,
        )
    outputs = {
        name: bufs[name].read(np.dtype(dtype), int(np.prod(shape))).reshape(shape)
        for name, (dtype, shape) in outs.items()
    }
    return res.trace, outputs


# ---------------------------------------------------------------------------
# randomized affine kernels: codegen == tape == reference, bit for bit,
# across worker counts and with the trace spilled out of core
# ---------------------------------------------------------------------------

_AFFINE_SOURCE = r"""
__kernel void aff(__global float* out, __global const float* in)
{
    __local float lm[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    lm[(CA*li + CB) % 64] = in[(CC*gi + CD*li + CE) % 128];
    barrier(CLK_LOCAL_MEM_FENCE);
    float v = lm[(CF*li + CG) % 64];
    out[gi] = v + lm[li];
}
"""


@settings(max_examples=8, deadline=None)
@given(coeffs=st.tuples(*[st.integers(0, 7) for _ in range(7)]))
def test_codegen_matches_reference_on_random_affine_kernels(coeffs):
    """Random affine access patterns, spill {off,on}."""
    defines = dict(zip(("CA", "CB", "CC", "CD", "CE", "CF", "CG"), coeffs))
    kernel = compile_kernel(_AFFINE_SOURCE, defines=defines)
    rng = np.random.default_rng(1234)
    data = rng.standard_normal(128).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (128,))}

    ref_trace, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )
    tape_trace, tape_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="tape"
    )
    assert_traces_equal(ref_trace, tape_trace, f"tape coeffs={coeffs}")
    assert_outputs_equal(ref_out, tape_out, f"tape coeffs={coeffs}")

    for spill_mb in (None, 1):
        ctx = f"coeffs={coeffs} spill={spill_mb}"
        trace, out = _traced_launch(
            kernel, spec, (128,), (16,), outs,
            backend="codegen", trace_spill_mb=spill_mb,
        )
        assert_traces_equal(ref_trace, trace, ctx)
        assert_outputs_equal(ref_out, out, ctx)


# ---------------------------------------------------------------------------
# divergence: groups off the pilot schedule divert to the tape/scalar path
# ---------------------------------------------------------------------------

_EVICT_SOURCE = r"""
__kernel void ev(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    int wg = get_group_id(0);
    float acc = in[gi];
    if (wg % 2 == 1) {           /* group-uniform, differs from pilot */
        acc = acc * 2.0f + 1.0f;
    }
    if ((gi / (wg + 1)) % 2 == 0) {   /* mask shape varies per group */
        acc += 3.0f;
    }
    out[gi] = acc;
}
"""


@pytest.mark.parametrize("tape_batch", (1, 4, 256))
def test_divergent_groups_divert_from_generated_module(tape_batch):
    kernel = compile_kernel(_EVICT_SOURCE)
    rng = np.random.default_rng(7)
    data = rng.standard_normal(128).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (128,))}

    ref_trace, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )
    with events.collect() as sink:
        trace, out = _traced_launch(
            kernel, spec, (128,), (16,), outs,
            backend="codegen", tape_batch=tape_batch,
        )
    ctx = f"codegen eviction batch={tape_batch}"
    assert_traces_equal(ref_trace, trace, ctx)
    assert_outputs_equal(ref_out, out, ctx)
    evicts = sink.of_kind("tape_evict")
    assert evicts, "divergent kernel must actually evict groups"
    replays = sink.of_kind("codegen_replay")
    assert replays, "codegen backend must report its replay"
    assert sum(e.payload["evicted"] for e in replays) == len(evicts)


def test_divergence_composes_with_sampling():
    kernel = compile_kernel(_EVICT_SOURCE)
    rng = np.random.default_rng(11)
    data = rng.standard_normal(256).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (256,))}
    ref_trace, _ = _traced_launch(
        kernel, spec, (256,), (16,), outs,
        backend="reference", sample_groups=9,
    )
    trace, _ = _traced_launch(
        kernel, spec, (256,), (16,), outs,
        backend="codegen", sample_groups=9,
    )
    assert_traces_equal(ref_trace, trace, "codegen evict sampled")


# ---------------------------------------------------------------------------
# on-disk artifact cache: disk-tier hits, corruption detected and healed
# ---------------------------------------------------------------------------


def _launch_with_cache(kernel, spec, outs, cache_dir):
    with events.collect() as sink:
        _, out = _traced_launch(
            kernel, spec, (128,), (16,), outs,
            backend="codegen", codegen_cache_dir=cache_dir,
        )
    return sink, out


def test_disk_cache_round_trip_and_corruption_recovery(tmp_path):
    kernel = compile_kernel(_EVICT_SOURCE)
    rng = np.random.default_rng(21)
    data = rng.standard_normal(128).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (128,))}
    cache_dir = str(tmp_path / "cg")
    _, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )

    # cold: a fresh compile writes the sealed artifact
    clear_codegen_cache()
    sink, out = _launch_with_cache(kernel, spec, outs, cache_dir)
    assert sink.of_kind("codegen_compile")
    assert not [
        e for e in sink.of_kind("codegen_cache_hit")
        if e.payload["tier"] in ("memory", "disk")
    ]
    assert_outputs_equal(ref_out, out, "cold compile")
    artifacts = glob.glob(os.path.join(cache_dir, "cg_*.py"))
    assert len(artifacts) == 1
    with open(artifacts[0], encoding="utf-8") as fh:
        assert fh.readline().startswith("# repro-codegen sha256:")

    # simulated new process: the module loads from the disk tier
    clear_codegen_cache()
    sink, out = _launch_with_cache(kernel, spec, outs, cache_dir)
    hits = [
        e for e in sink.of_kind("codegen_cache_hit")
        if e.payload["tier"] == "disk"
    ]
    assert hits and not sink.of_kind("codegen_compile")
    assert_outputs_equal(ref_out, out, "disk hit")

    # same process: the in-memory tier wins over the disk tier
    sink, out = _launch_with_cache(kernel, spec, outs, cache_dir)
    assert [
        e for e in sink.of_kind("codegen_cache_hit")
        if e.payload["tier"] == "memory"
    ]
    assert_outputs_equal(ref_out, out, "memory hit")

    # corrupt the artifact body: the content hash no longer matches, so
    # the loader must silently recompile (and re-seal) instead of
    # executing the damaged module
    with open(artifacts[0], "r+", encoding="utf-8") as fh:
        sealed = fh.read()
        fh.seek(0)
        fh.write(sealed.replace("_replay", "_rep1ay"))
        fh.truncate()
    clear_codegen_cache()
    sink, out = _launch_with_cache(kernel, spec, outs, cache_dir)
    assert sink.of_kind("codegen_compile")
    assert not [
        e for e in sink.of_kind("codegen_cache_hit")
        if e.payload["tier"] == "disk"
    ]
    assert_outputs_equal(ref_out, out, "post-corruption recompile")

    # the recompile rewrote a valid artifact: next cold load hits disk
    clear_codegen_cache()
    sink, out = _launch_with_cache(kernel, spec, outs, cache_dir)
    assert [
        e for e in sink.of_kind("codegen_cache_hit")
        if e.payload["tier"] == "disk"
    ]
    assert_outputs_equal(ref_out, out, "healed disk hit")


def test_publish_failure_leaves_no_temp_file_or_fd(tmp_path, monkeypatch):
    """An interrupted artifact publish (rename fails) must clean up
    after itself: no stray ``.cg_*`` temp file for later runs to trip
    over, no leaked descriptor, and the launch itself still succeeds —
    the disk tier is best-effort."""
    from repro.runtime import codegen as cg

    cache_dir = str(tmp_path / "cg")

    # unit level: the failed publish raises, but the temp file and the
    # fd it was written through are both gone
    fds_before = len(os.listdir("/proc/self/fd"))
    real_replace = os.replace

    def broken_replace(src, dst, *a, **kw):
        if ".cg_" in os.path.basename(src):
            raise OSError("disk full")
        return real_replace(src, dst, *a, **kw)

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        cg._publish_artifact(cache_dir, "deadbeef" * 8, "x = 1\n")
    assert os.listdir(cache_dir) == []
    assert len(os.listdir("/proc/self/fd")) == fds_before

    # launch level: the compile succeeds despite the failed publish
    kernel = compile_kernel(_EVICT_SOURCE)
    rng = np.random.default_rng(23)
    data = rng.standard_normal(128).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (128,))}
    _, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )
    clear_codegen_cache()
    sink, out = _launch_with_cache(kernel, spec, outs, cache_dir)
    assert sink.of_kind("codegen_compile")
    assert_outputs_equal(ref_out, out, "publish-failure compile")
    assert os.listdir(cache_dir) == []  # nothing published, nothing leaked

    # once the disk recovers, the next cold compile publishes normally
    monkeypatch.setattr(os, "replace", real_replace)
    clear_codegen_cache()
    _launch_with_cache(kernel, spec, outs, cache_dir)
    assert len(glob.glob(os.path.join(cache_dir, "cg_*.py"))) == 1
    assert not glob.glob(os.path.join(cache_dir, ".cg_*"))


def test_cache_key_separates_trace_and_traceless_modules(tmp_path):
    """collect_trace changes the generated module, so it must change
    the key — a traceless launch must not reuse a tracing artifact."""
    kernel = compile_kernel(_EVICT_SOURCE)
    mem = Memory()
    inb = mem.from_array(np.ones(128, dtype=np.float32), "in")
    outb = mem.alloc(128 * 4, "out")
    cache_dir = str(tmp_path / "cg")
    clear_codegen_cache()
    with Session(
        exec_backend="codegen", codegen_cache_dir=cache_dir
    ).activate():
        launch(kernel, (128,), (16,), {"in": inb, "out": outb},
               memory=mem, collect_trace=True)
        launch(kernel, (128,), (16,), {"in": inb, "out": outb},
               memory=mem, collect_trace=False)
    artifacts = glob.glob(os.path.join(cache_dir, "cg_*.py"))
    assert len(artifacts) == 2

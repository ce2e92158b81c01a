"""Unit tests for device buffers and the encoded-pointer scheme."""

import gc
import weakref

import numpy as np
import pytest

from repro.runtime.buffers import Memory, OFFSET_BITS
from repro.runtime.errors import MemoryFault, RuntimeLaunchError


class TestBuffer:
    def test_write_read_roundtrip(self):
        mem = Memory()
        buf = mem.alloc(64, "b")
        data = np.arange(16, dtype=np.float32)
        buf.write(data)
        np.testing.assert_array_equal(buf.read(np.float32, 16), data)

    def test_write_at_offset(self):
        mem = Memory()
        buf = mem.alloc(64)
        buf.write(np.array([7], dtype=np.int32), byte_offset=8)
        assert buf.read(np.int32, 1, byte_offset=8)[0] == 7

    def test_overflow_write_rejected(self):
        mem = Memory()
        buf = mem.alloc(8)
        with pytest.raises(MemoryFault):
            buf.write(np.zeros(4, dtype=np.float32))

    def test_from_array(self):
        mem = Memory()
        a = np.random.default_rng(0).random((4, 4)).astype(np.float64)
        buf = mem.from_array(a)
        np.testing.assert_array_equal(buf.read(np.float64, 16).reshape(4, 4), a)

    def test_views_cached_and_consistent(self):
        mem = Memory()
        buf = mem.alloc(32)
        v1 = buf.view(np.float32)
        v2 = buf.view(np.float32)
        assert v1 is v2
        v1[0] = 2.5
        assert buf.read(np.float32, 1)[0] == 2.5

    def test_read_whole_buffer_default(self):
        mem = Memory()
        buf = mem.alloc(16)
        assert len(buf.read(np.int32)) == 4


class TestMemoryRegistry:
    def test_unique_ids_and_base_addrs(self):
        mem = Memory()
        b1 = mem.alloc(8)
        b2 = mem.alloc(8)
        assert b1.id != b2.id
        assert b1.base_addr != b2.base_addr
        assert b1.base_addr == b1.id << OFFSET_BITS

    def test_decode(self):
        mem = Memory()
        b = mem.alloc(8)
        assert mem.decode(b.base_addr + 4) is b

    def test_decode_dangling(self):
        mem = Memory()
        b = mem.alloc(8)
        mem.free(b)
        with pytest.raises(MemoryFault):
            mem.decode(b.base_addr)

    def test_split_uniform(self):
        mem = Memory()
        b = mem.alloc(64)
        addrs = b.base_addr + np.array([0, 4, 8], dtype=np.int64)
        buf_id, offs = Memory.split(addrs)
        assert buf_id == b.id
        np.testing.assert_array_equal(offs, [0, 4, 8])

    def test_split_mixed_buffers_rejected(self):
        mem = Memory()
        b1, b2 = mem.alloc(8), mem.alloc(8)
        addrs = np.array([b1.base_addr, b2.base_addr], dtype=np.int64)
        with pytest.raises(MemoryFault):
            Memory.split(addrs)

    def test_separate_memories_independent(self):
        m1, m2 = Memory(), Memory()
        b1 = m1.alloc(8)
        b2 = m2.alloc(8)
        assert b1.id == b2.id  # ids are per-registry


class TestLifetime:
    """A buffer holds its ``Memory`` weakly, so a launch's buffers are
    freed by reference counting, not left to the cycle collector."""

    def test_dropped_app_run_frees_its_buffers(self, monkeypatch):
        from repro.apps import harness
        from repro.apps.registry import get_app

        made = []

        class Tracked(Memory):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

            def alloc(self, nbytes, name=""):
                buf = super().alloc(nbytes, name)
                made.append(weakref.ref(buf))
                return buf

        monkeypatch.setattr(harness, "Memory", Tracked)
        app = get_app("NVD-MT")
        kernel, _ = harness.compile_app(app)
        gc.collect()
        gc.disable()
        try:
            run = harness.execute_app(app, kernel, scale="test", collect_trace=True)
            assert run.trace is not None and len(made) > 2
            del run
            assert [r() for r in made if r() is not None] == []
        finally:
            gc.enable()

    def test_launch_needs_a_live_memory(self):
        from repro.frontend import compile_kernel
        from repro.runtime import launch

        kernel = compile_kernel(
            "__kernel void k(__global float* o) { o[get_global_id(0)] = 1.0f; }"
        )
        buf = Memory().alloc(64, "o")
        assert buf.mem is None
        with pytest.raises(RuntimeLaunchError, match="outlived the Memory"):
            launch(kernel, (16,), (4,), {"o": buf})

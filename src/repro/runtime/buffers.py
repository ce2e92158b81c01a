"""Device memory: buffers and the encoded-pointer scheme.

A runtime pointer is a 64-bit integer ``(buffer_id << OFFSET_BITS) | byte_offset``.
All lanes of a vectorised access share one buffer (bases are uniform within
a work-group), so gathers/scatters decode the buffer once and index its
numpy backing store directly.

A buffer is smaller than :data:`MAX_BUFFER_BYTES` (2 GiB), so the byte
offset of every in-bounds access fits an int32: that is the width the
traces record offsets at (:class:`repro.runtime.trace.MemEvent`).  Offsets
are decoded and used for indexing as int64, so an out-of-bounds address
still faults instead of wrapping into the buffer.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

import numpy as np

from repro.runtime.errors import MemoryFault, RuntimeLaunchError

OFFSET_BITS = 40
OFFSET_MASK = (1 << OFFSET_BITS) - 1

#: exclusive upper bound of a buffer's size: every byte offset into a
#: buffer fits an int32
MAX_BUFFER_BYTES = 1 << 31

#: pad allocations so any element-size view of the backing store is legal
_PAD = 16


class Buffer:
    """A contiguous allocation in one of the OpenCL memory spaces."""

    def __init__(self, mem: "Memory", buf_id: int, nbytes: int, name: str = "") -> None:
        # weak, so a dropped Memory and its buffers are freed by
        # reference counting rather than left to the cycle collector
        self._mem = weakref.ref(mem)
        self.id = buf_id
        self.nbytes = nbytes
        self.name = name
        padded = (nbytes + _PAD - 1) // _PAD * _PAD
        self.data = np.zeros(padded, dtype=np.uint8)
        #: cached dtype views of the backing store
        self._views: Dict[np.dtype, np.ndarray] = {}

    @property
    def mem(self) -> Optional["Memory"]:
        """The registry this buffer was allocated in; ``None`` once it
        has been dropped."""
        return self._mem()

    @property
    def base_addr(self) -> int:
        return self.id << OFFSET_BITS

    def view(self, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        v = self._views.get(dtype)
        if v is None:
            v = self.data.view(dtype)
            self._views[dtype] = v
        return v

    def write(self, arr: np.ndarray, byte_offset: int = 0) -> None:
        raw = np.ascontiguousarray(arr).view(np.uint8).ravel()
        if byte_offset + raw.nbytes > self.nbytes:
            raise MemoryFault(
                f"write of {raw.nbytes} B at offset {byte_offset} exceeds "
                f"buffer {self.name or self.id} ({self.nbytes} B)"
            )
        self.data[byte_offset : byte_offset + raw.nbytes] = raw

    def read(self, dtype: np.dtype, count: Optional[int] = None, byte_offset: int = 0) -> np.ndarray:
        dtype = np.dtype(dtype)
        if count is None:
            count = (self.nbytes - byte_offset) // dtype.itemsize
        start = byte_offset // dtype.itemsize
        return self.view(dtype)[start : start + count].copy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Buffer #{self.id} {self.name!r} {self.nbytes}B>"


class Memory:
    """Registry of all live buffers; decodes encoded pointers."""

    def __init__(self) -> None:
        self.buffers: Dict[int, Buffer] = {}
        self._next_id = 1

    def alloc(self, nbytes: int, name: str = "") -> Buffer:
        if nbytes >= MAX_BUFFER_BYTES:
            raise RuntimeLaunchError(
                f"buffer {name or self._next_id} of {nbytes} B is not below "
                f"the {MAX_BUFFER_BYTES} B limit"
            )
        buf = Buffer(self, self._next_id, nbytes, name)
        self.buffers[self._next_id] = buf
        self._next_id += 1
        return buf

    def from_array(self, arr: np.ndarray, name: str = "") -> Buffer:
        arr = np.ascontiguousarray(arr)
        buf = self.alloc(arr.nbytes, name)
        buf.write(arr)
        return buf

    def free(self, buf: Buffer) -> None:
        self.buffers.pop(buf.id, None)

    def decode(self, addr: int) -> Buffer:
        buf = self.buffers.get(int(addr) >> OFFSET_BITS)
        if buf is None:
            raise MemoryFault(f"dangling pointer {addr:#x}")
        return buf

    @staticmethod
    def split(addrs: np.ndarray) -> tuple:
        """Vector decode: (uniform buffer id, int64 byte offsets)."""
        ids = addrs >> OFFSET_BITS
        first = int(ids[0]) if len(ids) else 0
        if len(ids) and not (ids == first).all():
            raise MemoryFault("access spans multiple buffers")
        return first, addrs & OFFSET_MASK

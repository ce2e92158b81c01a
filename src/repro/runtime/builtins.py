"""Evaluation of OpenCL builtin functions inside the interpreter.

Work-item query builtins are resolved against the executing group's
geometry; math builtins map onto numpy ufuncs (vectorised across the
work-group, per the HPC guidance of computing on whole arrays).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.ir.instructions import Call
from repro.ir.types import FloatType, IntType, VectorType


_UNARY_NUMPY: Dict[str, Callable] = {
    "sqrt": np.sqrt,
    "native_sqrt": np.sqrt,
    "rsqrt": lambda x: 1.0 / np.sqrt(x),
    "native_rsqrt": lambda x: 1.0 / np.sqrt(x),
    "fabs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "exp": np.exp,
    "native_exp": np.exp,
    "exp2": np.exp2,
    "log": np.log,
    "native_log": np.log,
    "log2": np.log2,
    "sin": np.sin,
    "native_sin": np.sin,
    "cos": np.cos,
    "native_cos": np.cos,
    "tan": np.tan,
    "trunc": np.trunc,
    "round": np.round,
    "sign": np.sign,
    "abs": np.abs,
}

_BINARY_NUMPY: Dict[str, Callable] = {
    "fmin": np.minimum,
    "fmax": np.maximum,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
    "native_powr": np.power,
    "fmod": np.fmod,
    "atan2": np.arctan2,
    "hypot": np.hypot,
    "mul24": lambda a, b: a * b,
}


class WorkItemContext:
    """Geometry of the group being executed; lane arrays are precomputed."""

    def __init__(
        self,
        group_id: tuple,
        local_size: tuple,
        global_size: tuple,
    ) -> None:
        ndim = len(local_size)
        self.ndim = ndim
        self.local_size = local_size
        self.global_size = global_size
        self.group_id = group_id
        self.num_groups = tuple(
            global_size[d] // local_size[d] for d in range(ndim)
        )
        n = int(np.prod(local_size))
        self.n_lanes = n
        flat = np.arange(n, dtype=np.int64)
        self.local_ids: List[np.ndarray] = []
        stride = 1
        for d in range(ndim):
            self.local_ids.append((flat // stride) % local_size[d])
            stride *= local_size[d]
        self.global_ids = [
            self.local_ids[d] + group_id[d] * local_size[d] for d in range(ndim)
        ]

    def _dim(self, args: List[np.ndarray]) -> int:
        d = int(np.asarray(args[0]).ravel()[0])
        return d

    def query(self, name: str, args: List[np.ndarray], n: int) -> np.ndarray:
        ones = np.ones(n, dtype=np.int64)
        if name == "get_global_id":
            d = self._dim(args)
            return self.global_ids[d] if d < self.ndim else 0 * ones
        if name == "get_local_id":
            d = self._dim(args)
            return self.local_ids[d] if d < self.ndim else 0 * ones
        if name == "get_group_id":
            d = self._dim(args)
            return (self.group_id[d] if d < self.ndim else 0) * ones
        if name == "get_local_size":
            d = self._dim(args)
            return (self.local_size[d] if d < self.ndim else 1) * ones
        if name == "get_global_size":
            d = self._dim(args)
            return (self.global_size[d] if d < self.ndim else 1) * ones
        if name == "get_num_groups":
            d = self._dim(args)
            return (self.num_groups[d] if d < self.ndim else 1) * ones
        if name == "get_global_offset":
            return 0 * ones
        if name == "get_work_dim":
            return np.full(n, self.ndim, dtype=np.uint32)
        raise KeyError(name)


WORK_ITEM_QUERIES = frozenset(
    {
        "get_global_id",
        "get_local_id",
        "get_group_id",
        "get_local_size",
        "get_global_size",
        "get_num_groups",
        "get_global_offset",
        "get_work_dim",
    }
)


def eval_builtin(inst: Call, args: List[np.ndarray], ctx: WorkItemContext) -> np.ndarray:
    """Evaluate a pure builtin call over the whole work-group."""
    name = inst.callee
    if name in WORK_ITEM_QUERIES:
        return ctx.query(name, args, ctx.n_lanes)

    # vector builtins address the component axis as ``-1`` so the same
    # code serves the serial (lanes, k) and tape-batched (groups, lanes,
    # k) layouts — identical results for the 2-D case
    if name == "splat":
        vty = inst.type
        assert isinstance(vty, VectorType)
        return np.repeat(args[0][..., None], vty.count, axis=-1)
    if name == "convert":
        vty = inst.type
        assert isinstance(vty, VectorType)
        return args[0].astype(vty.element.numpy_dtype)
    if name.startswith("make_"):
        # tape batches mix per-group (G, n) and group-uniform (n,) args
        return np.stack(np.broadcast_arrays(*args), axis=-1)
    if name == "dot":
        a, b = args
        with np.errstate(all="ignore"):
            return (a * b).sum(axis=-1)

    with np.errstate(all="ignore"):
        if name in _UNARY_NUMPY:
            out = _UNARY_NUMPY[name](args[0])
        elif name in _BINARY_NUMPY:
            out = _BINARY_NUMPY[name](args[0], args[1])
        elif name in ("mad", "fma", "mad24"):
            out = args[0] * args[1] + args[2]
        elif name == "clamp":
            out = np.clip(args[0], args[1], args[2])
        elif name == "mix":
            out = args[0] + (args[1] - args[0]) * args[2]
        else:
            raise KeyError(f"unknown builtin {name!r}")

    # keep the lane dtype dictated by the instruction's result type
    ty = inst.type
    if isinstance(ty, (IntType, FloatType)):
        out = np.asarray(out).astype(ty.numpy_dtype, copy=False)
    elif isinstance(ty, VectorType):
        out = np.asarray(out).astype(ty.element.numpy_dtype, copy=False)
    return out

"""Seeded generative grammar over OpenCL kernels (the fuzzer frontend).

Each case is a small typed AST — a list of phases separated by work-group
barriers, each phase a list of statements drawn from a weighted grammar —
rendered to OpenCL C by :meth:`FuzzCase.source`.  The grammar deliberately
spans the whole decidability spectrum of the analysis stack:

* affine injective local indexing (statically provably race-free),
* affine colliding indexing (statically provably racy),
* non-affine indexing — ``%``, ``^``, ``li*li`` — that the static
  analyzer must *defer* and the dynamic replay decides,
* argument-shifted indexing (``li + P``: group-uniform delta deferrals),
* divergent guards, group-varying guards (tape-eviction triggers),
  uniform guards and dead branches,
* legal Grover software-cache staging (``lm[li] = in[wi*L+li]`` …
  ``lm[L-1-li]``), computed (non-global) staging and unstaged reads,
* multi-barrier phases and barriers under divergent guards.

Two invariants hold **by construction** so the differential oracle is
sound:

1. every generated index is in bounds for its buffer (no
   :class:`~repro.runtime.errors.MemoryFault` can occur), and
2. each work-item writes global memory only at ``out[gi]`` — work-groups
   are independent, which is exactly the precondition of the batched
   backends' bit-identity contract.

Generation is a pure function of ``(root_seed, index)``: the same seed
reproduces byte-identical sources in any process (asserted by
``tests/test_fuzz_determinism.py``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple, Union

__all__ = [
    "Stmt",
    "Raw",
    "BarrierStmt",
    "Block",
    "FuzzCase",
    "derive_case_seed",
    "generate_case",
    "render_body",
]

#: scalar argument value every case is launched with (see ``oracle.py``)
P_VALUE = 2


# ---------------------------------------------------------------------------
# the statement AST (what the shrinker operates on)
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of the three statement shapes."""

    __slots__ = ()


@dataclass
class Raw(Stmt):
    """A single flat statement, already rendered (``lm0[li] = in[gi];``)."""

    text: str


@dataclass
class BarrierStmt(Stmt):
    """``barrier(CLK_LOCAL_MEM_FENCE);``"""


@dataclass
class Block(Stmt):
    """A guarded or looped region: ``header { body }``."""

    header: str  # e.g. "if (li < 4)" or "for (int k0 = 0; k0 < 3; ++k0)"
    body: List[Stmt] = field(default_factory=list)


def render_body(stmts: Sequence[Stmt], indent: int = 1) -> List[str]:
    pad = "    " * indent
    lines: List[str] = []
    for s in stmts:
        if isinstance(s, Raw):
            lines.append(pad + s.text)
        elif isinstance(s, BarrierStmt):
            lines.append(pad + "barrier(CLK_LOCAL_MEM_FENCE);")
        elif isinstance(s, Block):
            lines.append(pad + s.header + " {")
            lines.extend(render_body(s.body, indent + 1))
            lines.append(pad + "}")
        else:  # pragma: no cover - the AST is closed
            raise TypeError(f"unknown Stmt {s!r}")
    return lines


# ---------------------------------------------------------------------------
# the case
# ---------------------------------------------------------------------------


@dataclass
class FuzzCase:
    """One generated kernel plus everything needed to launch and judge it."""

    index: int
    case_seed: int
    kernel_name: str
    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]
    in_elems: int
    p_value: int
    locals_: List[Tuple[str, int]]  # (array name, element count)
    body: List[Stmt]
    features: Tuple[str, ...]

    def source(self) -> str:
        lines = [
            f"__kernel void {self.kernel_name}(__global float* out, "
            "__global const float* in, int P)",
            "{",
        ]
        for name, elems in self.locals_:
            lines.append(f"    __local float {name}[{elems}];")
        lines += [
            "    int li = get_local_id(0);",
            "    int gi = get_global_id(0);",
            "    int wi = get_group_id(0);",
            "    float acc = 0.0f;",
        ]
        lines.extend(render_body(self.body))
        lines += ["    out[gi] = acc;", "}"]
        return "\n".join(lines) + "\n"

    def replace_body(
        self,
        body: List[Stmt],
        locals_: Union[List[Tuple[str, int]], None] = None,
    ) -> "FuzzCase":
        """A structural copy with a different body (shrinker primitive)."""
        return FuzzCase(
            index=self.index,
            case_seed=self.case_seed,
            kernel_name=self.kernel_name,
            global_size=self.global_size,
            local_size=self.local_size,
            in_elems=self.in_elems,
            p_value=self.p_value,
            locals_=list(self.locals_ if locals_ is None else locals_),
            body=body,
            features=self.features,
        )


def derive_case_seed(root_seed: int, index: int) -> int:
    """A stable, well-mixed per-case seed (identical across processes)."""
    h = hashlib.sha256(f"repro-fuzz:{root_seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "big")


# ---------------------------------------------------------------------------
# index and value sub-grammars
# ---------------------------------------------------------------------------


class _Gen:
    """Grammar state for one case."""

    def __init__(self, rng: random.Random, L: int, groups: int, in_elems: int):
        self.rng = rng
        self.L = L
        self.groups = groups
        self.G = L * groups
        self.in_elems = in_elems
        self.features: set = set()
        self.loop_depth = 0
        self.n_loops = 0

    # -- local indices (array of S elements, lanes 0..L-1) ------------------
    def local_index(self, S: int) -> str:
        rng, L = self.rng, self.L
        mode = rng.choices(
            ["affine-inj", "affine-mirror", "const", "nonaffine-inj",
             "nonaffine-collide", "square", "arg-shift"],
            weights=[30, 12, 6, 14, 10, 8, 6],
        )[0]
        if mode == "affine-inj":
            a = rng.choice((1, 1, 2, 3))
            b = rng.randint(0, S - 1 - a * (L - 1))
            self.features.add("idx-affine")
            if a == 1 and b == 0:
                return "li"
            if a == 1:
                return f"(li + {b})"
            return f"({a} * li + {b})"
        if mode == "affine-mirror":
            b = rng.randint(0, S - L)
            self.features.add("idx-affine")
            return f"({L - 1 + b} - li)"
        if mode == "const":
            self.features.add("idx-const")
            return str(rng.randint(0, S - 1))
        if mode == "nonaffine-inj":
            self.features.add("idx-nonaffine")
            return rng.choice([f"((li * 17) % {S})", "(li ^ 1)"])
        if mode == "nonaffine-collide":
            self.features.add("idx-nonaffine")
            return f"(li % {max(2, L // 2)})"
        if mode == "square":
            # injective for L=8 under %64; collides for L=16 — the replay
            # decides, the static analyzer can only defer
            self.features.add("idx-nonaffine")
            return f"((li * li) % {S})"
        self.features.add("idx-arg-shift")  # arg-shift; in bounds: P==2
        return "(li + P)"

    # -- global load indices (always < in_elems by construction) ------------
    def global_index(self, loop_var: str = "") -> str:
        rng, L, G, N = self.rng, self.L, self.G, self.in_elems
        choices = ["gi", f"(wi * {L} + li)",
                   f"((gi * 2 + {rng.randint(0, 7)}) % {N})",
                   f"(gi ^ {rng.randint(1, 7)})"]
        weights = [40, 25, 15, 10]
        if loop_var:
            choices.append(f"(gi + {loop_var} * {G})")
            weights.append(45)
        idx = rng.choices(choices, weights=weights)[0]
        if "%" in idx or "^" in idx:
            self.features.add("idx-nonaffine-load")
        return idx

    def global_value(self, loop_var: str = "") -> str:
        rng = self.rng
        idx = self.global_index(loop_var)
        if rng.random() < 0.3:
            return f"(in[{idx}] * {rng.randint(2, 5)}.0f + 1.0f)"
        return f"in[{idx}]"


# ---------------------------------------------------------------------------
# statement productions
# ---------------------------------------------------------------------------


def _simple_stmt(g: _Gen, arrays: List[Tuple[str, int]], loop_var: str = "") -> Stmt:
    """One flat statement (usable at top level and inside guards/loops)."""
    rng = g.rng
    kinds = ["read_global"]
    weights = [30]
    if arrays:
        kinds += ["stage", "read_local", "compute_store"]
        weights += [30, 35, 8]
    kind = rng.choices(kinds, weights=weights)[0]
    if kind == "read_global":
        return Raw(f"acc = (acc + in[{g.global_index(loop_var)}]);")
    name, S = rng.choice(arrays)
    if kind == "stage":
        g.features.add("stage")
        return Raw(f"{name}[{g.local_index(S)}] = {g.global_value(loop_var)};")
    if kind == "read_local":
        return Raw(f"acc = (acc + {name}[{g.local_index(S)}]);")
    g.features.add("staging-computed")
    return Raw(f"{name}[{g.local_index(S)}] = (acc + {rng.randint(1, 9)}.0f);")


def _phase_stmt(g: _Gen, arrays: List[Tuple[str, int]]) -> Stmt:
    rng = g.rng
    kind = rng.choices(
        ["simple", "guard_div", "guard_group", "guard_uniform", "loop",
         "div_barrier"],
        weights=[55, 12, 10, 8, 12, 3],
    )[0]
    if kind == "simple":
        return _simple_stmt(g, arrays)
    if kind == "guard_div":
        g.features.add("guard-divergent")
        c = rng.randint(1, g.L - 1)
        return Block(f"if (li < {c})", [_simple_stmt(g, arrays)])
    if kind == "guard_group":
        # uniform within a group, varies across groups: the canonical
        # eviction trigger for the tape backend (a group that
        # leaves the recorded schedule)
        g.features.add("guard-group-varying")
        b = rng.randint(0, 1)
        return Block(f"if ((wi & 1) == {b})", [_simple_stmt(g, arrays)])
    if kind == "guard_uniform":
        g.features.add("guard-uniform")
        c = rng.choice((0, 1, 2, 3))  # 2,3: a dead branch (P == 2)
        return Block(f"if (P > {c})", [_simple_stmt(g, arrays)])
    if kind == "loop":
        g.features.add("loop")
        var = f"k{g.n_loops}"
        g.n_loops += 1
        trip = rng.randint(2, 3)
        body = [_simple_stmt(g, arrays, loop_var=var)
                for _ in range(rng.randint(1, 2))]
        return Block(f"for (int {var} = 0; {var} < {trip}; ++{var})", body)
    g.features.add("barrier-divergent")
    return Block(f"if (li < {g.L // 2})", [BarrierStmt()])


def _grover_cache_phases(g: _Gen, name: str, S: int) -> List[List[Stmt]]:
    """The paper's legal software-cache idiom on a dedicated array:
    stage from global, barrier, read back through an invertible index."""
    g.features.add("grover-cache")
    L = g.L
    read_idx = g.rng.choice(["li", f"({L - 1} - li)"])
    return [
        [Raw(f"{name}[li] = in[(wi * {L} + li)];")],
        [Raw(f"acc = (acc + {name}[{read_idx}]);")],
    ]


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


def generate_case(root_seed: int, index: int) -> FuzzCase:
    """Generate case ``index`` of the run seeded with ``root_seed``."""
    case_seed = derive_case_seed(root_seed, index)
    rng = random.Random(case_seed)
    L = rng.choice((8, 16))
    groups = rng.choice((2, 4))
    in_elems = 8 * L * groups
    g = _Gen(rng, L, groups, in_elems)

    locals_: List[Tuple[str, int]] = []
    phases: List[List[Stmt]] = []

    # ~1/3 of cases lead with the canonical transformable staging pattern
    # on a reserved array, so the Grover-positive path is well covered
    if rng.random() < 0.35:
        name, S = "lm0", rng.choice((64, 128))
        locals_.append((name, S))
        phases.extend(_grover_cache_phases(g, name, S))

    n_extra = rng.randint(0 if locals_ else 1, 2)
    for i in range(n_extra):
        locals_.append((f"lm{len(locals_)}", rng.choice((64, 128))))
    free_arrays = locals_[1:] if "grover-cache" in g.features else locals_

    for _ in range(rng.randint(1, 3)):
        phases.append(
            [_phase_stmt(g, free_arrays) for _ in range(rng.randint(1, 3))]
        )

    body: List[Stmt] = []
    for i, phase in enumerate(phases):
        if i:
            body.append(BarrierStmt())
        body.extend(phase)

    return FuzzCase(
        index=index,
        case_seed=case_seed,
        kernel_name="fz",
        global_size=(g.G,),
        local_size=(L,),
        in_elems=in_elems,
        p_value=P_VALUE,
        locals_=locals_,
        body=body,
        features=tuple(sorted(g.features)),
    )


def generate_cases(root_seed: int, count: int) -> Iterator[FuzzCase]:
    for i in range(count):
        yield generate_case(root_seed, i)

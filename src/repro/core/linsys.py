"""Creating and solving the linear system of Equation 3 (Section IV-D).

The unknowns are the *writer's* local thread index components
``(lx, ly, lz)`` appearing in the local-store data index; the right-hand
sides are the local-load data index components — symbolic linear
expressions over the *reader's* thread index, loop counters and kernel
arguments.  Gaussian elimination runs over exact rationals on the
unknown side, with :class:`LinExpr` arithmetic on the right-hand side.

The paper's reversibility condition — "the global data index is
reversible if the system has a single unique solution" — corresponds to
the eliminated matrix having a pivot in every unknown column; we also
require the solution to be integral (a fractional solution would index
between data elements, i.e. the store pattern is strided and not
invertible over the integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Set

from repro.core.linexpr import Coeff, LinExpr, Symbol, symbol_mentions_lid


class SolveError(Exception):
    """The system has no unique integral solution — not reversible."""


@dataclass
class Solution:
    """Writer thread index expressed in reader-side symbols."""

    by_symbol: Dict[Symbol, LinExpr]

    def __getitem__(self, sym: Symbol) -> LinExpr:
        return self.by_symbol[sym]

    def __contains__(self, sym: Symbol) -> bool:
        return sym in self.by_symbol

    def render(self) -> str:
        from repro.core.linexpr import render_symbol

        return ", ".join(
            f"{render_symbol(s)} = {e.render()}"
            for s, e in sorted(self.by_symbol.items(), key=lambda kv: str(kv[0]))
        )


def _is_lid(sym: Symbol) -> bool:
    return sym[0] == "lid"


def solve_correspondence(
    ls_dims: Sequence[LinExpr],
    ll_dims: Sequence[LinExpr],
    required: Set[Symbol] = frozenset(),
) -> Solution:
    """Solve ``LS(lx,ly,lz) = LL`` for the writer's local ids.

    ``ls_dims`` / ``ll_dims`` are the per-dimension data indices of the
    local store and local load (x first).  ``required`` lists the lid
    symbols the caller actually needs (those appearing in the GL index);
    free unknowns outside that set are tolerated.
    """
    if len(ls_dims) != len(ll_dims):
        raise SolveError(
            f"dimensionality mismatch: store is {len(ls_dims)}-D, "
            f"load is {len(ll_dims)}-D"
        )

    # thread indices hiding inside non-linear product terms (lx*W etc.)
    # cannot be inverted by a linear solve
    for d in list(ls_dims):
        for s in d.symbols():
            if not _is_lid(s) and symbol_mentions_lid(s):
                raise SolveError(
                    f"store index term {s} is non-linear in the thread index"
                )

    unknowns: List[Symbol] = sorted(
        {s for d in ls_dims for s in d.symbols() if _is_lid(s)},
        key=lambda s: s[1],
    )
    n_eq = len(ls_dims)
    n_un = len(unknowns)

    # rows: coefficients of the unknowns; rhs: LinExpr
    rows: List[List[Coeff]] = []
    rhs: List[LinExpr] = []
    for d in range(n_eq):
        ls = ls_dims[d]
        coeffs = [ls.coeff(u) for u in unknowns]
        rest = ls.drop(unknowns)  # constants/args/loop terms move right
        rows.append(coeffs)
        rhs.append(ll_dims[d] - rest)

    # Gaussian elimination with partial (first non-zero) pivoting
    pivot_of_col: Dict[int, int] = {}
    r = 0
    for c in range(n_un):
        pivot = next((i for i in range(r, n_eq) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        pv = rows[r][c]
        rows[r] = [Fraction(x, pv) for x in rows[r]]
        rhs[r] = rhs[r].scale(Fraction(1) / pv)
        for i in range(n_eq):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - rhs[r].scale(f)
        pivot_of_col[c] = r
        r += 1

    # rows eliminated to all-zero coefficients assert identities between
    # reader-side expressions: 0 = RHS.  A residual RHS that is not
    # syntactically zero means the store pattern cannot cover the loaded
    # element (e.g. a strided store read densely) — reject.
    for i in range(n_eq):
        if all(x == 0 for x in rows[i]) and not rhs[i].is_zero():
            raise SolveError(
                "inconsistent correspondence: the store never writes the "
                f"loaded element (residual constraint 0 = {rhs[i].render()})"
            )

    solution: Dict[Symbol, LinExpr] = {}
    for c, sym in enumerate(unknowns):
        if c not in pivot_of_col:
            continue  # free unknown
        row = pivot_of_col[c]
        # pivot row may still involve other (free) unknowns
        expr = rhs[row]
        for c2 in range(n_un):
            if c2 != c and rows[row][c2] != 0:
                raise SolveError(
                    "system is under-determined: "
                    f"{sym} is coupled to {unknowns[c2]} with no unique solution"
                )
        if not expr.is_integral():
            raise SolveError(
                f"solution for {sym} is not integral: {expr.render()} — "
                "the store pattern is strided and not reversible"
            )
        solution[sym] = expr

    missing = {s for s in required if _is_lid(s)} - set(solution)
    if missing:
        raise SolveError(
            "no unique solution for thread-index component(s) "
            f"{sorted(str(m) for m in missing)} needed by the global load index"
        )
    return Solution(solution)

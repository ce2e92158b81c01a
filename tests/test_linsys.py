"""Tests for the linear system solver (Equation 3, Section IV-D)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.linexpr import LinExpr, lid, wid
from repro.core.linsys import SolveError, solve_correspondence


def sym(s, c=1):
    return LinExpr.symbol(s, c)


def const(c):
    return LinExpr.constant(c)


LX, LY, LZ = lid(0), lid(1), lid(2)
#: distinct reader-side symbols (loop counters etc.)
K = ("slot", "k")
J = ("slot", "j")


class TestBasicSolves:
    def test_identity(self):
        # LS (lx, ly) = LL (lx, ly) -> writer == reader
        sol = solve_correspondence([sym(LX), sym(LY)], [sym(LX), sym(LY)])
        assert sol[LX] == sym(LX)
        assert sol[LY] == sym(LY)

    def test_transpose_swap(self):
        # the paper's MT: LS (lx, ly), LL (ly, lx) -> lx=ly, ly=lx
        sol = solve_correspondence([sym(LX), sym(LY)], [sym(LY), sym(LX)])
        assert sol[LX] == sym(LY)
        assert sol[LY] == sym(LX)

    def test_constant_offset(self):
        # halo: LS (lx+1), LL (lx) -> writer lx = lx - 1
        sol = solve_correspondence([sym(LX) + const(1)], [sym(LX)])
        assert sol[LX] == sym(LX) - const(1)

    def test_loop_counter_rhs(self):
        # MM inner loop: LS (lx), LL (k) -> lx = k
        sol = solve_correspondence([sym(LX)], [sym(K)])
        assert sol[LX] == sym(K)

    def test_scaled_unknown(self):
        # LS (2*lx), LL (ll) -> lx = ll/2: non-integral -> reject
        with pytest.raises(SolveError, match="integral"):
            solve_correspondence([sym(LX, 2)], [sym(K)])

    def test_scaled_but_divisible(self):
        # LS (2*lx), LL (2*k) -> lx = k is integral
        sol = solve_correspondence([sym(LX, 2)], [sym(K, 2)])
        assert sol[LX] == sym(K)

    def test_pivot_of_two_divides_exactly(self):
        # LS (2*lx + ly, ly), LL (wx, wy): the pivot row halves, so
        # lx = wx/2 - wy/2 — exact halves, not integral
        with pytest.raises(SolveError, match=r"1/2\*wx - 1/2\*wy"):
            solve_correspondence(
                [sym(LX, 2) + sym(LY), sym(LY)], [sym(wid(0)), sym(wid(1))]
            )

    @pytest.mark.parametrize("pivot", [2, 3])
    def test_divided_pivot_row_stays_exact(self, pivot):
        # LS (p*lx + ly, ly), LL (p*wx + wy, wy): lx = wx, ly = wy only
        # if the 1/p left in the pivot row cancels exactly
        sol = solve_correspondence(
            [sym(LX, pivot) + sym(LY), sym(LY)],
            [sym(wid(0), pivot) + sym(wid(1)), sym(wid(1))],
        )
        assert sol[LX] == sym(wid(0)) and sol[LY] == sym(wid(1))
        assert all(
            type(c) is int for e in sol.by_symbol.values() for c in e.terms.values()
        )

    def test_mixed_dims(self):
        # LS (lx + ly, ly), LL (a, b) -> ly = b, lx = a - b
        A = ("slot", "a")
        B = ("slot", "b")
        sol = solve_correspondence(
            [sym(LX) + sym(LY), sym(LY)], [sym(A), sym(B)]
        )
        assert sol[LY] == sym(B)
        assert sol[LX] == sym(A) - sym(B)

    def test_three_dims(self):
        sol = solve_correspondence(
            [sym(LX), sym(LY), sym(LZ)], [sym(LZ), sym(LX), sym(LY)]
        )
        assert sol[LX] == sym(LZ)
        assert sol[LY] == sym(LX)
        assert sol[LZ] == sym(LY)

    def test_group_symbols_pass_through(self):
        # LS (lx + wx), LL (k) -> lx = k - wx
        W = wid(0)
        sol = solve_correspondence([sym(LX) + sym(W)], [sym(K)])
        assert sol[LX] == sym(K) - sym(W)


class TestRejections:
    def test_dim_mismatch(self):
        with pytest.raises(SolveError, match="dimensionality"):
            solve_correspondence([sym(LX)], [sym(LX), sym(LY)])

    def test_singular_coupled(self):
        # LS (lx + ly) alone cannot determine both unknowns
        with pytest.raises(SolveError):
            solve_correspondence(
                [sym(LX) + sym(LY)], [sym(K)], required={LX, LY}
            )

    def test_free_unknown_ok_when_not_required(self):
        # lx+ly with only lx required... still coupled -> error
        with pytest.raises(SolveError, match="under-determined"):
            solve_correspondence([sym(LX) + sym(LY)], [sym(K)], required={LX})

    def test_missing_required_unknown(self):
        # LS uses only lx but GL needs ly
        with pytest.raises(SolveError, match="no unique solution"):
            solve_correspondence([sym(LX)], [sym(K)], required={LX, LY})

    def test_unrequired_free_unknown_tolerated(self):
        sol = solve_correspondence([sym(LX)], [sym(K)], required={LX})
        assert LX in sol

    def test_nonlinear_store_index(self):
        from repro.core.linexpr import prod_symbol

        p = prod_symbol(LX, ("arg", "W"))
        with pytest.raises(SolveError, match="non-linear"):
            solve_correspondence([sym(p)], [sym(K)])

    def test_degenerate_zero_row(self):
        # LS (0) = LL (0): nothing to solve, nothing required
        sol = solve_correspondence([const(0)], [const(0)])
        assert sol.by_symbol == {}


class TestSolutionRendering:
    def test_render(self):
        sol = solve_correspondence([sym(LX), sym(LY)], [sym(LY), sym(LX)])
        text = sol.render()
        assert "lx = ly" in text and "ly = lx" in text


# -- property-based: random unimodular systems round-trip -----------------------


@st.composite
def unimodular_2x2(draw):
    """Random integer 2x2 matrices with determinant ±1 (always solvable
    with an integral solution)."""
    a = draw(st.integers(-3, 3))
    b = draw(st.integers(-3, 3))
    # construct via elementary operations so |det| == 1
    m = [[1, a], [0, 1]]
    n = [[1, 0], [b, 1]]
    res = [
        [
            m[0][0] * n[0][0] + m[0][1] * n[1][0],
            m[0][0] * n[0][1] + m[0][1] * n[1][1],
        ],
        [
            m[1][0] * n[0][0] + m[1][1] * n[1][0],
            m[1][0] * n[0][1] + m[1][1] * n[1][1],
        ],
    ]
    return res


@given(
    unimodular_2x2(),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(0, 15),
    st.integers(0, 15),
)
def test_unimodular_roundtrip(mat, c0, c1, vx, vy):
    """For LS = M*(lx,ly) + c and a concrete reader index, solving and
    substituting back must reproduce the LL index exactly."""
    (a, b), (c, d) = mat
    ls = [
        sym(LX, a) + sym(LY, b) + const(c0),
        sym(LX, c) + sym(LY, d) + const(c1),
    ]
    ll = [const(vx), const(vy)]
    sol = solve_correspondence(ls, ll, required={LX, LY})
    # substitute: both solutions are constants here
    sx = sol[LX].const()
    sy = sol[LY].const()
    assert a * sx + b * sy + c0 == vx
    assert c * sx + d * sy + c1 == vy
    assert sol[LX].is_integral() and sol[LY].is_integral()


@given(st.permutations([0, 1, 2]), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_permutation_systems_roundtrip(perm, o0, o1, o2):
    """Permutation-with-offset stagings (the common kernel idiom) invert."""
    lids = [LX, LY, LZ]
    offs = [o0, o1, o2]
    ls = [sym(lids[perm[d]]) + const(offs[d]) for d in range(3)]
    readers = [("slot", f"r{d}") for d in range(3)]
    ll = [sym(readers[d]) for d in range(3)]
    sol = solve_correspondence(ls, ll, required=set(lids))
    for d in range(3):
        # equation d: lids[perm[d]] + offs[d] == reader_d
        assert sol[lids[perm[d]]] == sym(readers[d]) - const(offs[d])

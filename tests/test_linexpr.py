"""Unit + property tests for LinExpr (exact linear expressions)."""

from fractions import Fraction

from hypothesis import given, strategies as st

from repro.core.linexpr import (
    ONE,
    LinExpr,
    lid,
    prod_symbol,
    render_symbol,
    symbol_mentions_lid,
    wid,
)


def lx():
    return LinExpr.symbol(lid(0))


def ly():
    return LinExpr.symbol(lid(1))


class TestAlgebra:
    def test_construction_drops_zeros(self):
        e = LinExpr({lid(0): Fraction(0), ONE: Fraction(3)})
        assert list(e.terms) == [ONE]

    def test_add_sub(self):
        e = lx() + ly() - lx()
        assert e == ly()

    def test_scale(self):
        e = lx().scale(4)
        assert e.coeff(lid(0)) == 4

    def test_mul_by_constant(self):
        e = lx() * LinExpr.constant(3)
        assert e == lx().scale(3)
        e2 = LinExpr.constant(3) * lx()
        assert e2 == lx().scale(3)

    def test_mul_symbols_is_none(self):
        assert lx() * ly() is None

    def test_neg(self):
        assert (-lx()).coeff(lid(0)) == -1

    def test_queries(self):
        e = lx() + LinExpr.constant(5)
        assert not e.is_zero()
        assert not e.is_constant()
        assert e.const() == 5
        assert LinExpr.constant(2).is_constant()
        assert LinExpr.zero().is_zero()

    def test_drop_restrict(self):
        e = lx() + ly() + LinExpr.constant(1)
        assert e.drop([lid(0)]) == ly() + LinExpr.constant(1)
        assert e.restrict([lid(0)]) == lx()

    def test_integrality(self):
        assert lx().is_integral()
        assert not lx().scale(Fraction(1, 2)).is_integral()


class TestRendering:
    def test_simple(self):
        assert lx().render() == "lx"
        assert (lx() + ly()).render() == "lx + ly"
        assert LinExpr.zero().render() == "0"

    def test_coefficients(self):
        assert lx().scale(16).render() == "16*lx"
        assert (-lx()).render() == "-lx"
        assert (ly() - lx()).render() == "-lx + ly" or "ly" in (ly() - lx()).render()

    def test_constant_and_fraction(self):
        e = lx().scale(Fraction(1, 2)) + LinExpr.constant(3)
        assert "1/2*lx" in e.render()
        assert "+ 3" in e.render()

    def test_symbol_names(self):
        assert render_symbol(lid(2)) == "lz"
        assert render_symbol(wid(1)) == "wy"
        assert render_symbol(ONE) == "1"


class TestProductSymbols:
    def test_order_canonical(self):
        a, b = lid(0), wid(1)
        assert prod_symbol(a, b) == prod_symbol(b, a)

    def test_flattening(self):
        p1 = prod_symbol(lid(0), wid(0))
        p2 = prod_symbol(p1, lid(1))
        assert p2[0] == "prod"
        assert len(p2) == 4  # three flattened factors

    def test_mentions_lid(self):
        assert symbol_mentions_lid(lid(1))
        assert symbol_mentions_lid(prod_symbol(lid(0), wid(0)))
        assert not symbol_mentions_lid(wid(0))
        assert not symbol_mentions_lid(prod_symbol(wid(0), wid(1)))


# -- property-based tests ------------------------------------------------------

syms = st.sampled_from([lid(0), lid(1), lid(2), wid(0), wid(1), ONE])
coeffs = st.integers(min_value=-100, max_value=100)


@st.composite
def linexprs(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        s = draw(syms)
        c = draw(coeffs)
        terms[s] = Fraction(terms.get(s, 0)) + c
    return LinExpr(terms)


@given(linexprs(), linexprs())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(linexprs(), linexprs(), linexprs())
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(linexprs())
def test_sub_self_is_zero(a):
    assert (a - a).is_zero()


@given(linexprs(), coeffs)
def test_scale_distributes(a, c):
    assert a.scale(c) + a.scale(-c) == LinExpr.zero()


@given(linexprs(), linexprs(), coeffs)
def test_scale_over_sum(a, b, c):
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)


@given(linexprs())
def test_neg_is_scale_minus_one(a):
    assert -a == a.scale(-1)


@given(linexprs())
def test_equality_hash_consistent(a):
    b = LinExpr(dict(a.terms))
    assert a == b and hash(a) == hash(b)


# -- integer coefficients against an all-Fraction reference --------------------

exact_coeffs = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=8),
)
term_dicts = st.dictionaries(syms, exact_coeffs, max_size=5)


def _reference(terms):
    return {k: Fraction(v) for k, v in terms.items() if v != 0}


def _combine(a, b, sign):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * v
    return {k: v for k, v in out.items() if v != 0}


def _scaled(a, factor):
    return {k: v * factor for k, v in a.items() if v * factor != 0}


def _assert_canonical(e):
    for v in e.terms.values():
        assert v != 0
        if v.denominator == 1:
            assert type(v) is int
        else:
            assert type(v) is Fraction


@given(term_dicts, term_dicts, exact_coeffs,
       st.sampled_from(["add", "sub", "scale", "mul"]))
def test_arithmetic_matches_fraction_reference(ta, tb, factor, op):
    """add/sub/scale/mul agree with all-``Fraction`` arithmetic, and every
    coefficient is an ``int`` when integral, a ``Fraction`` otherwise,
    never a ``float``."""
    a, b = LinExpr(ta), LinExpr(tb)
    ra, rb = _reference(ta), _reference(tb)
    _assert_canonical(a)
    if op == "add":
        got, want = a + b, _combine(ra, rb, 1)
    elif op == "sub":
        got, want = a - b, _combine(ra, rb, -1)
    elif op == "scale":
        got, want = a.scale(factor), _scaled(ra, Fraction(factor))
    else:
        got = a * b
        if set(ra) <= {ONE}:
            want = _scaled(rb, ra.get(ONE, Fraction(0)))
        elif set(rb) <= {ONE}:
            want = _scaled(ra, rb.get(ONE, Fraction(0)))
        else:
            assert got is None
            return
    assert got.terms == want
    _assert_canonical(got)


def test_float_inputs_convert_exactly():
    assert LinExpr.constant(0.5).terms[ONE] == Fraction(1, 2)
    two = LinExpr.constant(2.0).terms[ONE]
    assert two == 2 and type(two) is int
    assert type(LinExpr.symbol(lid(0), Fraction(6, 3)).coeff(lid(0))) is int
    assert type(lx().scale(Fraction(1, 2)).scale(2).coeff(lid(0))) is int
    assert LinExpr.zero().const() == 0 and LinExpr.zero().coeff(lid(0)) == 0

"""Exact Laurent series: parsing, ring laws, Frobenius, the report form, and
the canonical form against the dict algorithms of tests/series_dicts.py."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import InvalidInputError, LaurentSeries, make_field, parse_series
from fcrystal.series import level_json
import series_dicts

CTX = make_field(5, 1)


def S(text):
    return parse_series(CTX, text)


def test_parse_monomial_sums():
    f = S("3t^-2+t")
    assert f.coeffs == {-2: (3,), 1: (1,)}
    assert S("0").is_zero()
    assert S("2t^3-t+1").coeffs == {0: (1,), 1: (4,), 3: (2,)}
    assert S("-t^2").coeffs == {2: (4,)}


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInputError):
        S("t^")
    with pytest.raises(InvalidInputError):
        S("3x+1")


def test_valuation():
    assert S("3t^-2+t").valuation() == -2
    assert S("t^4").valuation() == 4
    assert S("0").valuation() is None


def test_frobenius_spreads_exponents():
    assert S("2t").frob().coeffs == {5: (2,)}
    assert S("t^-1+1").frob().coeffs == {-5: (1,), 0: (1,)}


def test_same_values_ignores_representation():
    a = LaurentSeries(CTX, {1: CTX.one, 7: CTX.zero})
    b = S("t")
    assert a.same_values(b)


def test_level_json():
    assert level_json(Fraction(-1, 5)) == {"num": -1, "den": 5}
    assert level_json(None) == {"num": None, "den": None}


coeff = st.integers(min_value=0, max_value=4)
exps = st.dictionaries(st.integers(min_value=-6, max_value=6), coeff, max_size=5)


def _mk(d):
    return LaurentSeries(CTX, {e: (c,) for e, c in d.items()})


@given(exps, exps, exps)
@settings(max_examples=60, deadline=None)
def test_ring_laws_on_exact_series(da, db, dc):
    a, b, c = _mk(da), _mk(db), _mk(dc)
    assert a.add(b).same_values(b.add(a))
    assert a.mul(b).same_values(b.mul(a))
    assert a.mul(b.add(c)).same_values(a.mul(b).add(a.mul(c)))
    assert a.sub(a).is_zero()


@given(exps, exps)
@settings(max_examples=60, deadline=None)
def test_valuations_add_under_multiplication(da, db):
    a, b = _mk(da), _mk(db)
    va, vb = a.valuation(), b.valuation()
    if va is None or vb is None:
        assert a.mul(b).valuation() is None
    else:
        # exact series over a field: no zero divisors
        assert a.mul(b).valuation() == va + vb


F25 = make_field(5, 2)


@given(exps)
@settings(max_examples=40, deadline=None)
def test_frobenius_is_multiplicative(da):
    a = _mk(da)
    assert a.mul(a).frob().same_values(a.frob().mul(a.frob()))
    # coefficientwise c -> c^p, also off the prime field: c + c*x over F_25
    b = LaurentSeries(F25, {e: F25.decode(6 * c) for e, c in da.items()})
    for s in (a, b):
        ctx = s.ctx
        assert s.frob().coeffs == {5 * e: ctx.pow(c, 5) for e, c in s.coeffs.items()}


@given(exps, st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_shift_matches_monomial_multiplication(da, k):
    a = _mk(da)
    tk = LaurentSeries.monomial(CTX, k)
    assert a.shift(k).same_values(a.mul(tk))


@given(exps, exps)
@settings(max_examples=60, deadline=None)
def test_equality_is_coefficient_equality(da, db):
    # the report's "lo" is read off the coefficients, so cancelled
    # terms leave no trace; == and same_values agree
    a, b = _mk(da), _mk(db)
    assert a.to_json()["lo"] == (a.valuation() or 0)
    assert a.to_json()["hi"] is None
    assert (a == b) == a.same_values(b)
    assert a == a.add(b).sub(b)


def test_pole_part_of_a_shift_drops_exponent_zero():
    # t^k f has no pole at exponent 0; neither does 1 + t^-1
    assert S("t").pole_part(-1).coeffs == {}
    assert S("t^2+3t").pole_part(-2).coeffs == {-1: (3,)}
    assert S("1+t^-1").pole_part().coeffs == {-1: (1,)}
    assert S("t^-1+2").pole_part(1).coeffs == {}


def test_a_cancelled_sum_stores_no_term():
    assert S("t+2").add(S("-t")).coeffs == {0: (2,)}
    assert S("3t^-2+t").sub(S("3t^-2+t")).coeffs == {}


# -- the canonical form against the dict algorithms ---------------------------

# F_5, F_7, F_4, F_9, F_25 and F_64: prime fields, p = 2 and table
# fields; and F_{5^6} above TABLE_BOUND, where elements multiply as
# polynomials
ORACLE_FIELDS = [make_field(p, m) for p, m in ((5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 6), (5, 6))]


@st.composite
def oracle_cases(draw):
    """(ctx, a, b, scalar, k): a and b dicts that may hold zeros, b
    cancelling a at some exponents (the leading one among them), a
    scalar that may be zero and a shift."""
    ctx = draw(st.sampled_from(ORACLE_FIELDS))
    elements = st.integers(0, ctx.order - 1).map(ctx.decode)
    terms = st.dictionaries(st.integers(-10, 10), elements, max_size=6)
    a = draw(terms)
    b = draw(terms)
    live = sorted(e for e, c in a.items() if not ctx.is_zero(c))
    for e in draw(st.sets(st.sampled_from(live))) if live else ():
        b[e] = ctx.neg(a[e])
    return ctx, a, b, draw(elements), draw(st.integers(-12, 12))


def _clean(ctx, a):
    return {e: c for e, c in a.items() if not ctx.is_zero(c)}


def assert_is(result, ref):
    """result is canonical and holds the dict ref."""
    assert series_dicts.is_canonical(result), (result.v, result.terms)
    assert series_dicts.as_dict(result) == ref


@given(oracle_cases())
@settings(max_examples=300, deadline=None)
def test_every_operation_is_canonical_and_matches_the_dicts(case):
    ctx, a, b, scalar, k = case
    A, B = LaurentSeries(ctx, a), LaurentSeries(ctx, b)
    a, b = _clean(ctx, a), _clean(ctx, b)
    assert_is(A, a)
    assert A.coeffs == a and A.valuation() == series_dicts.valuation(a) and A.is_zero() == (not a)
    for result, ref in [
        (A.add(B), series_dicts.add(ctx, a, b)),
        (B.add(A), series_dicts.add(ctx, b, a)),
        (A.add(A.neg()), {}),
        (A.sub(B), series_dicts.sub(ctx, a, b)),
        (A.neg(), series_dicts.neg(ctx, a)),
        (A.smul(scalar), series_dicts.smul(ctx, scalar, a)),
        (A.mul(B), series_dicts.mul(ctx, a, b)),
        (A.shift(k), series_dicts.shift(a, k)),
        (A.pole_part(), series_dicts.pole_part(a)),
        (A.frob(), series_dicts.frob(ctx, a)),
        (LaurentSeries.zero(ctx), {}),
        (LaurentSeries.one(ctx), {0: ctx.one}),
        (LaurentSeries.monomial(ctx, k, scalar), _clean(ctx, {k: scalar})),
    ]:
        assert result.ctx is ctx
        assert_is(result, ref)
    # equality and hashing are those of the dicts
    assert (A == B) == (a == b) == A.same_values(B)
    twin = LaurentSeries(ctx, dict(reversed(list(a.items()))))
    assert A == twin and hash(A) == hash(twin)
    assert A.to_json() == {
        "lo": series_dicts.valuation(a) or 0,
        "hi": None,
        "terms": [[e, list(ctx.coeffs(a[e]))] for e in sorted(a)],
    }


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_pole_part_cuts_at_every_offset(case):
    # k runs from keeping every term (k < -v - span) to keeping none
    # (k >= -v), so both sides of -v and every prefix are met
    ctx, a, _, _, k = case
    A = LaurentSeries(ctx, a)
    a = _clean(ctx, a)
    if not a:
        assert all(A.pole_part(j).is_zero() for j in range(k - 3, k + 3))
        return
    v, top = min(a), max(a)
    for j in range(-top - 2, -v + 3):
        got = A.pole_part(j)
        assert_is(got, series_dicts.pole_part(a, j))
        assert got.is_zero() == (j >= -v)


@given(oracle_cases(), st.integers(-6, 6))
@settings(max_examples=150, deadline=None)
def test_monomial_products_match_the_general_product(case, e):
    ctx, a, _, scalar, k = case
    A = LaurentSeries(ctx, a)
    a = _clean(ctx, a)
    other = ctx.one if ctx.is_zero(scalar) else scalar
    for c in (ctx.one, other, ctx.add(ctx.one, ctx.one)):
        m = LaurentSeries.monomial(ctx, e, c)
        ref = series_dicts.mul(ctx, {e: c}, a)
        assert_is(m.mul(A), ref)
        assert_is(A.mul(m), ref)
        # the same product through the general path: (m + t^j) A - t^j A
        tj = LaurentSeries.monomial(ctx, e + 20 + k)
        assert m.add(tj).mul(A).sub(tj.mul(A)) == m.mul(A)
    assert LaurentSeries.monomial(ctx, e, ctx.zero).mul(A).is_zero()

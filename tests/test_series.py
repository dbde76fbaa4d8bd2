"""Exact Laurent series: parsing, ring laws, Frobenius and the report form."""

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import InvalidInputError, LaurentSeries, make_field, parse_series
from fcrystal.series import level_json

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


# Table fields, p = 2 among them, and F_{5^6} above TABLE_BOUND, where
# elements multiply as polynomials.  Every series below is zero-free.
TRUSTED_FIELDS = [make_field(5, 1), make_field(5, 2), make_field(2, 6), make_field(5, 6)]


@st.composite
def series_pairs(draw):
    """(a, b, k): b cancels some terms of a, where it draws them."""
    ctx = draw(st.sampled_from(TRUSTED_FIELDS))
    terms = st.dictionaries(st.integers(-8, 8), st.integers(0, ctx.order - 1), max_size=6)
    a = LaurentSeries(ctx, {e: ctx.decode(n) for e, n in draw(terms).items()})
    cancel = draw(st.sets(st.sampled_from(sorted(a.coeffs)))) if a.coeffs else set()
    b = {e: ctx.decode(n) for e, n in draw(terms).items()}
    b.update((e, ctx.neg(a.coeffs[e])) for e in cancel)
    return a, LaurentSeries(ctx, b), draw(st.integers(-8, 8))


def filtered_sum(a, b):
    """a + b as the filtering constructor builds it."""
    ctx = a.ctx
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        out[e] = ctx.add(out.get(e, ctx.zero), c)
    return LaurentSeries(ctx, out)


@given(series_pairs())
@settings(max_examples=200, deadline=None)
def test_zero_free_results_match_the_filtering_constructor(case):
    a, b, k = case
    ctx = a.ctx
    cases = [
        (a.shift(k), {e + k: c for e, c in a.coeffs.items()}),
        (a.pole_part(), {e: c for e, c in a.coeffs.items() if e < 0}),
        (a.pole_part(k), {e + k: c for e, c in a.coeffs.items() if e + k < 0}),
        (a.frob(), {ctx.p * e: ctx.frob(c) for e, c in a.coeffs.items()}),
        (a.neg(), {e: ctx.neg(c) for e, c in a.coeffs.items()}),
        (a.add(b), filtered_sum(a, b).coeffs),
        (a.add(a.neg()), {}),
        (a.sub(b), filtered_sum(a, b.neg()).coeffs),
    ]
    for result, coeffs in cases:
        assert result.ctx is ctx and result.coeffs == LaurentSeries(ctx, coeffs).coeffs
        assert not any(ctx.is_zero(c) for c in result.coeffs.values())


def test_pole_part_of_a_shift_drops_exponent_zero():
    # t^k f has no pole at exponent 0; neither does 1 + t^-1
    assert S("t").pole_part(-1).coeffs == {}
    assert S("t^2+3t").pole_part(-2).coeffs == {-1: (3,)}
    assert S("1+t^-1").pole_part().coeffs == {-1: (1,)}
    assert S("t^-1+2").pole_part(1).coeffs == {}


def test_a_cancelled_sum_stores_no_term():
    assert S("t+2").add(S("-t")).coeffs == {0: (2,)}
    assert S("3t^-2+t").sub(S("3t^-2+t")).coeffs == {}

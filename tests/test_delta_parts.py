"""The delta part of an extension section is a polar part.

The delta module at the origin is k((t))/k[[t]], with e_m the class of
t^(-m), so the second component g of a section (f, g) is a Laurent
series whose exponents are all <= -1.  Over the pole families of the
extension jobs (split, mc, depth-grading; p in {5, 7}) these properties
check that every section operation keeps g a pure polar part, and that
each one agrees with a reference written on the m-indexed coefficients
{m: g_m} of g = sum g_m e_m.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    CapExceededError,
    LaurentSeries,
    build_extension,
    make_field,
    mc_depth_grading,
    mc_vfilt,
    split_vfilt,
)

F5, F7 = make_field(5, 1), make_field(7, 1)


def _families():
    """(ctx, rule, pole order of the twist): 0 for the split extension."""
    out = []
    for ctx in (F5, F7):
        p = ctx.p
        out.append((ctx, "split", 0))
        out += [(ctx, "mc", k) for k in (2, 3, p, p + 2)]
        out += [(ctx, "depth", l * p + 1) for l in (1, 2)]
    return out


FAMILIES = _families()
BUILD = {"split": split_vfilt, "mc": mc_vfilt, "depth": mc_depth_grading}


def _coeff(ctx):
    return st.integers(1, ctx.order - 1).map(ctx.decode)


def _series(draw, ctx, lo, hi):
    return LaurentSeries(ctx, draw(st.dictionaries(st.integers(lo, hi), _coeff(ctx), max_size=4)))


@st.composite
def extension_specs(draw):
    """A filtration on an extension whose twist has the family's exact
    pole order plus up to two tail terms in (-pole, 3), as in the jobs."""
    ctx, rule, pole = draw(st.sampled_from(FAMILIES))
    c = {}
    if pole:
        c = draw(st.dictionaries(st.integers(-pole + 1, 2), _coeff(ctx), max_size=2))
        c[-pole] = draw(_coeff(ctx))
    return BUILD[rule](build_extension(ctx, LaurentSeries(ctx, c)))


@st.composite
def spec_sections(draw):
    spec = draw(extension_specs())
    ctx = spec.module.ctx
    x = (_series(draw, ctx, -8, 8), _series(draw, ctx, -8, -1))
    y = (_series(draw, ctx, -8, 8), _series(draw, ctx, -8, -1))
    return spec, x, y


def _polar(g) -> bool:
    return isinstance(g, LaurentSeries) and all(e <= -1 for e in g.coeffs)


# references on the m-indexed coefficients {m: g_m}, m >= 1


def _ms(g):
    return {-e: c for e, c in g.coeffs.items()}


def _from_ms(ctx, ms):
    assert all(m >= 1 for m in ms)
    return LaurentSeries(ctx, {-m: c for m, c in ms.items()})


def _ref_add(ctx, g, h):
    out = _ms(g)
    for m, c in _ms(h).items():
        out[m] = ctx.add(out.get(m, ctx.zero), c)
    return _from_ms(ctx, out)


def _ref_apply_F(mod, x):
    """(f^p, [t f^p c] + g^p): e_m goes to e_(p*m)."""
    ctx, (f, g) = mod.ctx, x
    fp = f.frob()
    tail = {-e: c for e, c in fp.mul(mod.c).shift(1).coeffs.items() if e <= -1}
    frob = {ctx.p * m: ctx.pow(c, ctx.p) for m, c in _ms(g).items()}
    return fp, _ref_add(ctx, _from_ms(ctx, tail), _from_ms(ctx, frob))


def _ref_mul_t_pow(mod, x, k):
    """t^k sends e_m to e_(m-k) and kills e_m for m <= k."""
    f, g = x
    return f.shift(k), _from_ms(mod.ctx, {m - k: c for m, c in _ms(g).items() if m > k})


def _ref_rewrite(spec, x):
    """g' = g + sum_(i<l) f_i e_(l-i), term by term; g itself without a
    depth l."""
    if spec.l is None:
        return x
    ctx, (f, g) = spec.module.ctx, x
    extra = {}
    for i, c in f.coeffs.items():
        if i < spec.l:
            m = spec.l - i
            extra[m] = ctx.add(extra.get(m, ctx.zero), c)
    return f, _ref_add(ctx, g, _from_ms(ctx, extra))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec_sections(), st.integers(-3, 3))
def test_delta_parts_stay_polar(case, k):
    spec, x, y = case
    mod = spec.module
    images = {
        "apply_F": (mod.apply_F(x), _ref_apply_F(mod, x)),
        "mul_t": (mod.mul_t(x), _ref_mul_t_pow(mod, x, 1)),
        "mul_t_pow": (mod.mul_t_pow(x, k), _ref_mul_t_pow(mod, x, k)),
        "add": (mod.add(x, y), (x[0].add(y[0]), _ref_add(mod.ctx, x[1], y[1]))),
        "t_preimage": (spec.t_preimage(x), _ref_mul_t_pow(mod, x, -1)),
        "rewrite": (spec._rewrite(x), _ref_rewrite(spec, x)),
    }
    for name, (got, want) in images.items():
        assert _polar(got[1]), (name, spec.rule, got)
        assert got == want, (name, spec.rule, x)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(extension_specs())
def test_series_generators_have_polar_delta_parts(spec):
    ctx = spec.module.ctx
    for i in range(-8, 9):
        f, g = spec.x_section(i)
        assert f == LaurentSeries.monomial(ctx, i) and _polar(g)
        if spec.l is not None and i < spec.l:
            # x_i = (t^i, -e_(l-i)), which the rewrite reads as (t^i, 0)
            assert _ms(g) == {spec.l - i: ctx.neg(ctx.one)}
            assert spec._rewrite((f, g))[1].is_zero()
        else:
            assert g.is_zero()


def test_delta_cap_reports_the_support():
    mod = build_extension(F5, LaurentSeries.monomial(F5, -2), delta_cap=3)
    with pytest.raises(CapExceededError) as err:
        mod.apply_F(mod.delta_monomial(1))  # e_1 maps to e_5, above the cap
    assert err.value.profile == [("delta_support", 5)]

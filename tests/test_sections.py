"""Section modules: Frobenius and t-multiplication satisfy F(t x) = t^p F(x),
and sparse Kummer sections agree with a tuple-of-series reference."""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    LaurentSeries,
    build_extension,
    build_kummer_crystal,
    make_field,
    parse_series,
    standard_vfilt,
)
from fcrystal.samples import random_rep
from kummer_dicts import as_dict, from_dict, is_canonical

F25 = make_field(5, 2)
F49 = make_field(7, 2)


def _kummer_specs():
    out = []
    for ctx, ds in ((F25, (3, 4, 6, 8, 12, 24)), (F49, (3, 4, 6, 8, 16, 48))):
        rng = Random(7000 + ctx.order)
        for d in ds:
            kc = build_kummer_crystal(random_rep(ctx, d, rng, max_rank=3), ctx)
            out.append(standard_vfilt(kc))
    return out


KUMMER_SPECS = _kummer_specs()
KUMMER_MODULES = [spec.module for spec in KUMMER_SPECS]


def _nonzero(ctx):
    return st.integers(1, ctx.order - 1).map(ctx.decode)


@st.composite
def kummer_sections(draw, module=None):
    """A Kummer module and a combination of its weight monomials: a sum
    over several weights and exponents, built as a dict and converted,
    which may cancel to the zero section."""
    if module is None:
        module = draw(st.sampled_from(KUMMER_MODULES))
    kc, ctx = module.kc, module.ctx
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(kc.dims)), st.integers(-4, 4), _nonzero(ctx), st.data()),
            max_size=6,
        )
    )
    x = {}
    for a, k, c, data in terms:
        i = data.draw(st.integers(0, kc.dims[a] - 1))
        ((e, v),) = as_dict(module.monomial(a, i, kc.shifts[a] + k * kc.d)).items()
        x[e] = tuple(ctx.add(u, ctx.mul(c, b)) for u, b in zip(x.get(e, (ctx.zero,) * kc.rank), v))
    return module, from_dict(ctx, x)


@settings(max_examples=150, deadline=None)
@given(kummer_sections())
def test_kummer_frobenius_intertwines_t(case):
    module, x = case
    p = module.ctx.p
    assert module.apply_F(module.mul_t(x)) == module.mul_t_pow(module.apply_F(x), p)


def _to_series(module, x):
    """The reference form of a Kummer section: r Laurent polynomials in s."""
    x = as_dict(x)
    return tuple(
        LaurentSeries(module.ctx, {e: v[i] for e, v in x.items()}) for i in range(module.rank)
    )


def _from_series(module, fs):
    out = {}
    for i, f in enumerate(fs):
        for e, c in f.coeffs.items():
            out.setdefault(e, [module.ctx.zero] * module.rank)[i] = c
    return from_dict(module.ctx, out)


@settings(max_examples=200, deadline=None)
@given(kummer_sections(), st.integers(-30, 30))
def test_kummer_sections_match_the_series_reference(case, e):
    module, x = case
    spec = KUMMER_SPECS[KUMMER_MODULES.index(module)]
    ctx, d = module.ctx, module.d
    assert is_canonical(ctx, x), x
    ref = _to_series(module, x)
    assert _from_series(module, ref) == x
    cases = [
        (module.apply_F(x), tuple(f.frob() for f in ref)),
        (module.mul_t(x), tuple(f.shift(d) for f in ref)),
        (spec.t_preimage(x), tuple(f.shift(-d) for f in ref)),
    ]
    cases += [(module.mul_t_pow(x, k), tuple(f.shift(d * k) for f in ref)) for k in (-3, -1, 0, 1, 2)]
    for got, want in cases:
        assert is_canonical(ctx, got), got
        assert got == _from_series(module, want)
    vals = [f.valuation() for f in ref if f.valuation() is not None]
    assert spec.ilevel(x) == (min(vals) if vals else None)
    if x:
        # the slice at the valuation is the leading vector
        assert x[1][0] == (0, tuple(f.coeffs.get(x[0], ctx.zero) for f in ref))
    dx = as_dict(x)
    for s in (e, *dx):
        assert dx.get(s, (ctx.zero,) * module.rank) == tuple(f.coeffs.get(s, ctx.zero) for f in ref)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kummer_equality_is_section_equality(data):
    module, x = data.draw(kummer_sections())
    _, y = data.draw(kummer_sections(module))
    assert (x == y) == (_to_series(module, x) == _to_series(module, y))
    # a rebuilt copy, and a t-shift undone, are equal to the original
    assert from_dict(module.ctx, as_dict(x)) == x
    assert module.mul_t_pow(module.mul_t_pow(x, 3), -3) == x
    z = module.mul_t(y)
    assert (x == z) == (_to_series(module, x) == _to_series(module, z))


def test_zero_kummer_section():
    module = KUMMER_MODULES[0]
    zero = module.zero()
    assert zero == () and KUMMER_SPECS[0].ilevel(zero) is None and as_dict(zero) == {}
    assert module.apply_F(zero) == module.mul_t(zero) == ()
    assert all(module.mul_t_pow(zero, k) == () for k in (-2, 0, 3))
    assert KUMMER_SPECS[0].t_preimage(zero) == ()
    assert from_dict(module.ctx, {0: (module.ctx.zero,) * module.rank}) == zero


def _extension_modules():
    out = []
    for ctx in (F25, F49):
        p = ctx.p
        for c in ("0", "t^-2", f"t^-{p + 1}"):
            out.append(build_extension(ctx, parse_series(ctx, c)))
    return out


EXTENSION_MODULES = _extension_modules()


@st.composite
def extension_sections(draw):
    mod = draw(st.sampled_from(EXTENSION_MODULES))
    coeff = _nonzero(mod.ctx)
    f = draw(st.dictionaries(st.integers(-6, 6), coeff, max_size=4))
    g = draw(st.dictionaries(st.integers(1, 8), coeff, max_size=4))
    return mod, (LaurentSeries(mod.ctx, f), LaurentSeries(mod.ctx, {-m: c for m, c in g.items()}))


@settings(max_examples=150, deadline=None)
@given(extension_sections())
def test_extension_frobenius_intertwines_t(case):
    mod, x = case
    p = mod.ctx.p
    assert mod.apply_F(mod.mul_t(x)) == mod.mul_t_pow(mod.apply_F(x), p)

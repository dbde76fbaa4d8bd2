"""Section modules: Frobenius and t-multiplication satisfy F(t x) = t^p F(x)."""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    DeltaElement,
    LaurentSeries,
    build_extension,
    build_kummer_crystal,
    make_field,
    parse_series,
    standard_vfilt,
)
from fcrystal.samples import random_rep

F25 = make_field(5, 2)
F49 = make_field(7, 2)


def _kummer_modules():
    out = []
    for ctx, ds in ((F25, (3, 4, 6, 8, 12, 24)), (F49, (3, 4, 6, 8, 16, 48))):
        rng = Random(7000 + ctx.order)
        for d in ds:
            kc = build_kummer_crystal(random_rep(ctx, d, rng, max_rank=3), ctx)
            out.append(standard_vfilt(kc).module)
    return out


KUMMER_MODULES = _kummer_modules()


def _nonzero(ctx):
    return st.integers(1, ctx.order - 1).map(ctx.decode)


@st.composite
def kummer_sections(draw):
    """A Kummer module and a combination of its weight monomials."""
    module = draw(st.sampled_from(KUMMER_MODULES))
    kc = module.kc
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(kc.dims)), st.integers(-4, 4), _nonzero(kc.ctx), st.data()),
            min_size=1,
            max_size=4,
        )
    )
    x = module.zero()
    for a, k, c, data in terms:
        i = data.draw(st.integers(0, kc.dims[a] - 1))
        mono = module.monomial(a, i, kc.shifts[a] + k * kc.d)
        x = tuple(u.add(v.smul(c)) for u, v in zip(x, mono))
    return module, x


@settings(max_examples=150, deadline=None)
@given(kummer_sections())
def test_kummer_frobenius_intertwines_t(case):
    module, x = case
    p = module.ctx.p
    assert module.eq(module.apply_F(module.mul_t(x)), module.mul_t_pow(module.apply_F(x), p))


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
    return mod, (LaurentSeries.exact(mod.ctx, f), DeltaElement(mod.ctx, g))


@settings(max_examples=150, deadline=None)
@given(extension_sections())
def test_extension_frobenius_intertwines_t(case):
    mod, x = case
    p = mod.ctx.p
    assert mod.eq(mod.apply_F(mod.mul_t(x)), mod.mul_t_pow(mod.apply_F(x), p))

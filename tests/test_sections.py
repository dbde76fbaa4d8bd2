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
    ctx = kc.ctx
    x = module.zero()
    for a, k, c, data in terms:
        i = data.draw(st.integers(0, kc.dims[a] - 1))
        ((e, v),) = module.monomial(a, i, kc.shifts[a] + k * kc.d).items()
        w = tuple(ctx.add(u, ctx.mul(c, b)) for u, b in zip(x.get(e, module.zero_vector), v))
        if all(ctx.is_zero(u) for u in w):
            x.pop(e, None)
        else:
            x[e] = w
    return module, x


@settings(max_examples=150, deadline=None)
@given(kummer_sections())
def test_kummer_frobenius_intertwines_t(case):
    module, x = case
    p = module.ctx.p
    assert module.apply_F(module.mul_t(x)) == module.mul_t_pow(module.apply_F(x), p)


def _to_series(module, x):
    """The reference form of a Kummer section: r Laurent polynomials in s."""
    return tuple(
        LaurentSeries(module.ctx, {e: v[i] for e, v in x.items()}) for i in range(module.rank)
    )


def _from_series(module, fs):
    out = {}
    for i, f in enumerate(fs):
        for e, c in f.coeffs.items():
            out.setdefault(e, list(module.zero_vector))[i] = c
    return {e: tuple(v) for e, v in out.items()}


@settings(max_examples=150, deadline=None)
@given(kummer_sections(), st.integers(-3, 3), st.integers(-30, 30))
def test_kummer_sections_match_the_series_reference(case, k, e):
    module, x = case
    spec = KUMMER_SPECS[KUMMER_MODULES.index(module)]
    ctx, d = module.ctx, module.d
    ref = _to_series(module, x)
    assert _from_series(module, ref) == x
    for got, want in (
        (module.apply_F(x), tuple(f.frob() for f in ref)),
        (module.mul_t(x), tuple(f.shift(d) for f in ref)),
        (module.mul_t_pow(x, k), tuple(f.shift(d * k) for f in ref)),
        (spec.t_preimage(x), tuple(f.shift(-d) for f in ref)),
    ):
        assert not any(all(ctx.is_zero(c) for c in v) for v in got.values()), got
        assert got == _from_series(module, want)
    vals = [f.valuation() for f in ref if f.valuation() is not None]
    assert spec.ilevel(x) == (min(vals) if vals else None)
    for s in (e, *x):
        assert x.get(s, module.zero_vector) == tuple(f.coeffs.get(s, ctx.zero) for f in ref)


def test_zero_kummer_section():
    module = KUMMER_MODULES[0]
    zero = module.zero()
    assert zero == {} and KUMMER_SPECS[0].ilevel(zero) is None
    assert module.apply_F(zero) == module.mul_t_pow(zero, 3) == KUMMER_SPECS[0].t_preimage(zero) == {}
    assert zero.get(0, module.zero_vector) == module.zero_vector


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

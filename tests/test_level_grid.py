"""Rational levels are a view of the integer level core, on every spec kind.

Each spec keeps levels as integer numerators over one grid denominator
den; jumps, graded_labels and graded_coords convert at the edge, and
_num reads a rational's numerator.  These properties tie the two sides
together, check shifted and pullback specs against their base in
Fraction arithmetic, and probe rationals off the grid, where every
graded piece is zero.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    KummerVFilt,
    LaurentSeries,
    build_extension,
    build_kummer_crystal,
    compare,
    delta_vfilt,
    make_field,
    mc_depth_grading,
    mc_vfilt,
    parse_series,
    pullback_filtration,
    shifted_filtration,
    split_vfilt,
    standard_vfilt,
)
from fcrystal.cli import resolve_m
from fcrystal.samples import random_rep
from kummer_dicts import as_dict, from_dict

PAIRS = tuple((p, d) for p in (5, 7) for d in (2, 3, 4, 6))


def _kummer_specs():
    out = []
    for p, d in PAIRS:
        ctx = make_field(p, resolve_m(p, d, None))
        rng = Random(9100 + 100 * p + d)
        out.append(standard_vfilt(build_kummer_crystal(random_rep(ctx, d, rng, max_rank=4), ctx)))
    return out


def _extension_specs():
    out = []
    for ctx in (make_field(5, 1), make_field(7, 1)):
        p = ctx.p
        out += [
            mc_vfilt(build_extension(ctx, parse_series(ctx, "t^-2"))),
            split_vfilt(build_extension(ctx, LaurentSeries.zero(ctx))),
            mc_depth_grading(build_extension(ctx, parse_series(ctx, f"t^-{p + 1}"))),
            delta_vfilt(ctx),
        ]
    return out


KUMMER_SPECS = _kummer_specs()
EXTENSION_SPECS = _extension_specs()
# bases: Kummer at (5, 3) and (7, 4); extension p = 5, depth-grading p = 7
_BASES = (KUMMER_SPECS[1], KUMMER_SPECS[6], EXTENSION_SPECS[0], EXTENSION_SPECS[6])
DERIVED_SPECS = (
    [shifted_filtration(b, k) for b in _BASES for k in (-1, 1, 2)]
    + [pullback_filtration(b, dp) for b in _BASES for dp in (2, 3)]
    + [pullback_filtration(shifted_filtration(KUMMER_SPECS[3], 1), 2)]
)
SPECS = KUMMER_SPECS + EXTENSION_SPECS + DERIVED_SPECS


def _root(spec):
    while hasattr(spec, "base"):
        spec = spec.base
    return spec


def _offset(spec):
    """How many levels deeper spec reads its base."""
    return spec.offset if spec.rule == "shifted" else 0


def _nonzero(ctx):
    return st.integers(1, ctx.order - 1).map(ctx.decode)


def _kummer_add(ctx, x, y):
    """x + y for Kummer sections as {exponent: vector} dicts."""
    out = dict(x)
    for e, v in y.items():
        w = tuple(map(ctx.add, out[e], v)) if e in out else v
        if all(ctx.is_zero(c) for c in w):
            out.pop(e, None)
        else:
            out[e] = w
    return out


@st.composite
def spec_sections(draw):
    """A spec and a section of its module, the zero section included:
    weight monomials plus, sometimes, an arbitrary vector on the cover;
    or a series part (none for the delta rule) and a delta part."""
    spec = draw(st.sampled_from(SPECS))
    root = _root(spec)
    ctx = spec.module.ctx
    if isinstance(root, KummerVFilt):
        kc = root.kc
        x = {}
        for _ in range(draw(st.integers(0, 3))):
            a = draw(st.sampled_from(sorted(kc.dims)))
            i = draw(st.integers(0, kc.dims[a] - 1))
            e = kc.shifts[a] + draw(st.integers(-5, 5)) * kc.d
            c = draw(_nonzero(ctx))
            ((e, v),) = as_dict(spec.module.monomial(a, i, e)).items()
            x = _kummer_add(ctx, x, {e: tuple(ctx.mul(c, u) for u in v)})
        if draw(st.booleans()):
            e = draw(st.integers(-5 * kc.d, 5 * kc.d))
            v = tuple(draw(st.integers(0, ctx.order - 1).map(ctx.decode)) for _ in range(kc.rank))
            x = _kummer_add(ctx, x, {e: v})
        return spec, from_dict(ctx, x)
    coeff = _nonzero(ctx)
    f = {} if root.rule == "delta" else draw(st.dictionaries(st.integers(-6, 6), coeff, max_size=3))
    g = draw(st.dictionaries(st.integers(1, 8), coeff, max_size=3))
    return spec, (LaurentSeries(ctx, f), LaurentSeries(ctx, {-m: c for m, c in g.items()}))


@settings(max_examples=300, deadline=None)
@given(spec_sections())
def test_level_is_the_numerator_over_den(case):
    spec, x = case
    n = spec.ilevel(x)
    assert n is None or type(n) is int
    if hasattr(spec, "base"):
        base = spec.base.ilevel(x)
        assert (n is None) == (base is None)
        if n is not None:
            assert Fraction(n, spec.den) == Fraction(base, spec.base.den) - _offset(spec)


def _level_column(spec, x, n):
    """x's column from _level_coords at n as a list, None for no class."""
    cols = spec._level_coords([x], n)[1]
    return None if type(cols) is int else list(cols[0])


@settings(max_examples=300, deadline=None)
@given(spec_sections())
def test_graded_coords_read_the_integer_core(case):
    spec, x = case
    ctx, den = spec.module.ctx, spec.den
    n = spec.ilevel(x)
    if n is None:
        for r, dim in ((Fraction(0), spec.idim(0)), (Fraction(-1, den), spec.idim(-1)), (Fraction(5, 2 * den), 0)):
            assert spec.graded_coords(x, r) == [ctx.zero] * dim
        return
    r = Fraction(n, den)
    step = Fraction(1, den)
    assert spec.graded_coords(x, r) == _level_column(spec, x, n)
    assert spec.graded_coords(x, r + step) is None
    assert spec.graded_coords(x, r - step) == [ctx.zero] * spec.idim(n - 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SPECS), st.integers(-6, 5), st.integers(1, 6))
def test_jumps_are_the_nonzero_pieces_of_the_window(spec, lo, width):
    den = spec.den
    window = (lo, lo + width)
    nums = spec.ijumps(window)
    jumps = spec.jumps(window)
    assert jumps == [Fraction(n, den) for n in nums]
    assert nums == [n for n in range(lo * den, (lo + width) * den) if spec.idim(n)]
    for n, r in zip(nums, jumps):
        basis = spec.ipiece(n)
        assert spec._num(r) == n
        assert spec.graded_labels(r) == spec.ilabels(n)
        assert spec.idim(n) == len(basis) == len(spec.ilabels(n))
        assert all(spec.ilevel(b) == n for b in basis)


@settings(max_examples=300, deadline=None)
@given(spec_sections(), st.integers(-30, 30))
def test_off_grid_rationals_carry_no_graded_piece(case, k):
    spec, x = case
    den = spec.den
    n = spec.ilevel(x)
    # k/den + 1/(2 den), e.g. 1/(2d) on the Kummer grid; k + 1/(den + 1),
    # e.g. 1/(p + 1) on the extension grid
    for r in (Fraction(2 * k + 1, 2 * den), k + Fraction(1, den + 1)):
        assert (r * den).denominator != 1
        assert spec._num(r) is None
        assert spec.graded_labels(r) == []
        want = [] if n is None or Fraction(n, den) > r else None
        assert spec.graded_coords(x, r) == want


class DoubledGrid(KummerVFilt):
    """The standard filtration with its level numerators written over 2d."""

    def __init__(self, kc):
        super().__init__(kc)
        self.den = 2 * kc.d

    def ilevel(self, x):
        n = super().ilevel(x)
        return None if n is None else 2 * n


def test_compare_reads_each_spec_on_its_own_grid():
    # one module, two grids: the section path must cross-multiply
    spec = KUMMER_SPECS[1]
    doubled = DoubledGrid(spec.kc)
    window = (-2, 2)
    sections = 2 * len(list(spec.spanning(window)))
    assert compare(spec, doubled, window) == {"verdict": "equal", "sections": sections}
    assert compare(doubled, shifted_filtration(spec, 1), window)["verdict"] == "reverse-contained"
    assert compare(shifted_filtration(doubled, -1), spec, window)["verdict"] == "reverse-contained"

"""Slice-exact graded coordinates against the full remainder computation.

Each spec's _level_coords sorts a map's images by level (deeper than n:
a zero column; shallower: no class) and reads the coordinates of an
image at n off the one slice where y - sum(c_i * b_i) can sit at n.
The oracle here is the full computation: a fresh slice solve gives the
candidate coordinates, and the remainder is rebuilt over whole sections
and must lie strictly deeper than r.  graded_coords must agree with it
on every input, None included, and _level_coords on every batch of
images: the same columns, or the same first image with no class.
"""

from fractions import Fraction
from random import Random

import pytest

from fcrystal import (
    LaurentSeries,
    build_extension,
    build_kummer_crystal,
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
from test_graded_memo import _acceptance_crystals, oracle_slice_coords

PAIRS = tuple((p, d) for p in (5, 7) for d in (2, 3, 4, 6))
SEED = 4041
WINDOW = (-8, 8)


def _is_kummer(x):
    """A canonical Kummer section, () or (valuation, terms), and not a
    pair of series and delta parts."""
    return not x or type(x[0]) is int


def _axpy(ctx, x, c, b):
    """x - c*b for Kummer sections (summed as {exponent: vector} dicts)
    or for tuples of series and delta parts."""
    if _is_kummer(x):
        neg = {e: tuple(ctx.neg(ctx.mul(c, u)) for u in v) for e, v in as_dict(b).items()}
        return from_dict(ctx, _kummer_sum(ctx, as_dict(x), neg))
    return tuple(u.sub(v.smul(c)) for u, v in zip(x, b))


def _add(ctx, x, y):
    if _is_kummer(x):
        return from_dict(ctx, _kummer_sum(ctx, as_dict(x), as_dict(y)))
    return tuple(u.add(v) for u, v in zip(x, y))


def _kummer_sum(ctx, x, y):
    """x + y for Kummer sections, dropping the vectors that cancel."""
    out = dict(x)
    for e, v in y.items():
        w = tuple(map(ctx.add, out[e], v)) if e in out else v
        if all(ctx.is_zero(c) for c in w):
            out.pop(e, None)
        else:
            out[e] = w
    return out


def remainder_graded_coords(spec, x, r):
    """graded_coords by the full computation: the remainder is rebuilt."""
    ctx = spec.module.ctx
    n = spec._num(r)  # None off the grid, where the piece is 0
    lvl = spec.ilevel(x)
    if lvl is None or Fraction(lvl, spec.den) > r:
        return [ctx.zero] * (0 if n is None else spec.idim(n))
    if Fraction(lvl, spec.den) < r:
        return None
    coords = oracle_slice_coords(spec, x, n)
    if coords is None:
        return None
    rem = x
    for c, b in zip(coords, spec.ipiece(n)):
        if not ctx.is_zero(c):
            rem = _axpy(ctx, rem, c, b)
    rlvl = spec.ilevel(rem)
    return coords if rlvl is None or rlvl > n else None


def _agree(spec, x, r, seen):
    got = spec.graded_coords(x, r)
    assert got == remainder_graded_coords(spec, x, r), (spec.to_json(), x, r)
    seen["none" if got is None else "coords"] += 1


def _agree_batch(spec, images, r, seen):
    """_level_coords of the images at r (on the grid) against the oracle
    image by image."""
    want = []
    for y in images:
        coords = remainder_graded_coords(spec, y, r)
        if coords is None:
            break
        want.append(coords)
    n = int(r * spec.den)
    dim, cols = spec._level_coords(images, n)
    assert dim == spec.idim(n), (spec.to_json(), n)
    if len(want) < len(images):
        assert cols == len(want), (spec.to_json(), images, r)
        seen["stop-first" if cols == 0 else "stop-later"] += 1
    else:
        assert [list(c) for c in cols] == want, (spec.to_json(), images, r)
        seen["columns"] += 1


def _cross_check(spec, extra_sections):
    """Every F- and t-image of every graded basis vector on the window,
    at its own target, one step too deep and one step too shallow, one
    image at a time and as one batch per map; then the extra sections at
    their own level and around it, and as batches: all of them at each
    one's level, with the batch rotated to start there."""
    module = spec.module
    p = module.ctx.p
    seen = dict.fromkeys(("none", "coords", "columns", "stop-first", "stop-later"), 0)
    for r in spec.jumps(WINDOW):
        basis = spec.ipiece(spec._num(r))
        f_images = [module.apply_F(b) for b in basis]
        t_images = [module.mul_t(b) for b in basis]
        sums = [_add(module.ctx, y, z) for y, z in zip(f_images, t_images)]
        for images, target in ((f_images, p * r), (t_images, r + 1), (sums, min(p * r, r + 1))):
            for s in (target, target + 1, target - 1):
                for y in images:
                    _agree(spec, y, s, seen)
                _agree_batch(spec, images, s, seen)
    for k, x in enumerate(extra_sections):
        lvl = Fraction(spec.ilevel(x), spec.den)
        for s in (lvl, lvl + Fraction(1, 2), lvl - 1):
            _agree(spec, x, s, seen)
        _agree_batch(spec, extra_sections[k:] + extra_sections[:k], lvl, seen)
        _agree_batch(spec, extra_sections[k + 1 :] + extra_sections[: k + 1], lvl, seen)
    return seen


def _kummer_extras(spec, rng):
    """Off-class monomials (a class's basis row at another class's
    exponent) and unit vectors, which mostly miss every graded basis."""
    kc = spec.kc
    ctx = kc.ctx
    out = []
    for a in sorted(kc.dims):
        for e in (kc.shifts[a] + 1, kc.shifts[a] - kc.d + 2, rng.randrange(-5 * kc.d, 5 * kc.d)):
            out.append(spec.module.monomial(a, 0, e))
    for j in range(kc.rank):
        e = rng.randrange(-3 * kc.d, 3 * kc.d)
        out.append(from_dict(ctx, {e: tuple(ctx.one if i == j else ctx.zero for i in range(kc.rank))}))
    return out


def _kummer_specs():
    out = []
    for p, d in PAIRS:
        ctx = make_field(p, resolve_m(p, d, None))
        rng = Random(SEED + 100 * p + d)
        for _ in range(3):
            out.append(standard_vfilt(build_kummer_crystal(random_rep(ctx, d, rng, max_rank=4), ctx)))
    return out


KUMMER_SPECS = _kummer_specs()


@pytest.mark.parametrize("idx", range(len(KUMMER_SPECS)))
def test_kummer_coords_match_the_remainder_oracle(idx):
    spec = KUMMER_SPECS[idx]
    seen = _cross_check(spec, _kummer_extras(spec, Random(SEED + idx)))
    assert all(seen.values()), seen


@pytest.mark.parametrize("pair", PAIRS, ids=[f"p{p}-d{d}" for p, d in PAIRS])
def test_acceptance_crystals_match_the_remainder_oracle(pair):
    for i, kc in enumerate(_acceptance_crystals(*pair)[:3]):
        spec = standard_vfilt(kc)
        seen = _cross_check(spec, _kummer_extras(spec, Random(SEED + i)))
        assert all(seen.values()), seen


def test_a_shallower_image_stops_the_batch_where_its_slice_would_fit():
    """A basis vector b at e, asked for at e + d, the same weight class:
    its slice at e + d is zero and its leading slice is a basis row, so a
    hook that skipped the level test, or read the leading slice as if it
    sat at e + d, would return a column for it.  The batch must stop at b."""
    for spec in KUMMER_SPECS:
        d = spec.den
        for e in spec.ijumps((0, 1)):
            b = spec.ipiece(e)[0]
            deeper = spec.module.mul_t_pow(b, 2)
            assert spec._level_coords([deeper, b], e + d) == (spec.idim(e), 1)
            assert spec.graded_coords(b, Fraction(e + d, d)) is None


F25 = make_field(5, 2)
F7 = make_field(7, 1)


def _extension_specs():
    return {
        "extension-p5": mc_vfilt(build_extension(F25, parse_series(F25, "t^-2"))),
        "extension-p7": mc_vfilt(build_extension(F7, parse_series(F7, "2t^-10+t^-1+3t^2"))),
        "split": split_vfilt(build_extension(F25, LaurentSeries.zero(F25))),
        "depth-grading-p5": mc_depth_grading(build_extension(F25, parse_series(F25, "t^-6"))),
        "depth-grading-p7": mc_depth_grading(build_extension(F7, parse_series(F7, "t^-8+t^-3"))),
        "delta": delta_vfilt(F25),
    }


EXTENSION_SPECS = _extension_specs()


def _extension_extras(spec):
    """Mixed sections, including depth-grading series terms below l whose
    delta partner is missing."""
    mod = spec.module
    ctx = mod.ctx
    two = ctx.from_int(2)
    out = [mod.delta_monomial(3), _add(ctx, mod.delta_monomial(1), mod.delta_monomial(4))]
    if spec.rule != "delta":
        out += [
            mod.f_monomial(-3),
            mod.f_monomial(0),
            _add(ctx, mod.f_monomial(1), mod.delta_monomial(2)),
            (LaurentSeries(ctx, {-2: two, 5: ctx.one}), mod.delta_monomial(6)[1]),
        ]
    return out


@pytest.mark.parametrize("name", sorted(EXTENSION_SPECS))
def test_extension_coords_match_the_remainder_oracle(name):
    spec = EXTENSION_SPECS[name]
    seen = _cross_check(spec, _extension_extras(spec))
    assert all(seen.values()), seen


def _derived_cases():
    """Shifted and pullback specs, each with the extra sections of its base."""
    kummer = KUMMER_SPECS[1]
    ext = EXTENSION_SPECS["extension-p5"]
    depth = EXTENSION_SPECS["depth-grading-p7"]
    kummer_extras = _kummer_extras(kummer, Random(SEED))
    return {
        "shifted-kummer+1": (shifted_filtration(kummer, 1), kummer_extras),
        "shifted-kummer-2": (shifted_filtration(kummer, -2), kummer_extras),
        "shifted-extension+1": (shifted_filtration(ext, 1), _extension_extras(ext)),
        "shifted-depth-1": (shifted_filtration(depth, -1), _extension_extras(depth)),
        "pullback-kummer-2": (pullback_filtration(kummer, 2), kummer_extras),
        "pullback-extension-3": (pullback_filtration(ext, 3), _extension_extras(ext)),
        "pullback-shifted-2": (pullback_filtration(shifted_filtration(kummer, 1), 2), kummer_extras),
    }


DERIVED_CASES = _derived_cases()


@pytest.mark.parametrize("name", sorted(DERIVED_CASES))
def test_derived_coords_match_the_remainder_oracle(name):
    spec, extras = DERIVED_CASES[name]
    seen = _cross_check(spec, extras)
    assert all(seen.values()), seen

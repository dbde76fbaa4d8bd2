"""graded() against a cache-free oracle.

graded() shares each exact solve between maps with equal inputs: a
KummerVFilt keeps the coordinates of each (weight class, slice) it has
solved, its KummerSections keeps the Frobenius image of each terms
tuple, and one graded() call keeps one finished GradedMap (matrix,
verdict and note) per (source dim, target dim, columns), the columns as
_level_coords returned them, for every level whose map has them.  The
levels supply the targets.  The oracle below rebuilds the report with
a fresh coefficientwise Frobenius for every Kummer basis vector, a fresh
linalg.express for every coordinate vector and a fresh
linalg.is_invertible for every matrix, and the two reports must be equal
entry for entry: levels, matrices, verdicts and notes.  The serialized
labels must equal those an eager oracle formats from each piece.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from random import Random

import pytest

from test_acceptance import PAIRS, PER_PAIR, SEED, WINDOW

from fcrystal import (
    CyclicRep,
    build_extension,
    build_kummer_crystal,
    check_specializing,
    delta_vfilt,
    extension_vfilt,
    graded,
    linalg,
    make_field,
    parse_series,
    pullback_filtration,
    shifted_filtration,
    standard_vfilt,
)
from fcrystal.cli import resolve_m
from fcrystal.samples import random_rep
from fcrystal.series import level_json
from fcrystal.vfilt import (
    ExtensionVFilt,
    GradedLevel,
    GradedMap,
    GradedReport,
    KummerSections,
    KummerVFilt,
    _graded_map,
)
from kummer_dicts import as_dict, from_dict


def oracle_apply_F(mod, x):
    """Frobenius of the section x with nothing kept between calls:
    coefficientwise on Kummer sections, the module's own otherwise."""
    if isinstance(mod, KummerSections):
        ctx = mod.ctx
        return from_dict(ctx, {ctx.p * e: tuple(map(ctx.frob, v)) for e, v in as_dict(x).items()})
    return mod.apply_F(x)


def weight_of_shift(kc, e):
    """The weight class of sections at the cover exponent e, None if the
    crystal has no such class."""
    a = -e % kc.d
    return a if a in kc.dims else None


def oracle_slice_coords(spec, x, n):
    """The coordinates of x, a section at level n, read off its slice at
    n with every solve done afresh: a Kummer slice is expressed in its
    weight class's basis rows, an extension section's rewritten
    coefficients are read at the series exponent and the delta index of
    n.  None when the piece at n is 0 or the slice leaves its span."""
    if isinstance(spec, KummerVFilt):
        a = weight_of_shift(spec.kc, n)
        if a is None:
            return None
        rows, piv = spec.kc.bases[a]
        ctx = spec.module.ctx
        return linalg.express(ctx, rows, piv, as_dict(x).get(n, (ctx.zero,) * spec.kc.rank))
    if isinstance(spec, ExtensionVFilt):
        series, delta = spec._parts(n)
        if series is None and delta is None:
            return None
        f, g = spec._rewrite(x)
        zero = spec.module.ctx.zero
        out = [] if series is None else [f.coeffs.get(series, zero)]
        if delta is not None:
            out.append(g.coeffs.get(-delta, zero))
        return out
    return oracle_slice_coords(spec.base, x, n + spec._step)  # shifted or pullback


def oracle_map(spec, dim, images, n):
    """The GradedMap of images (of a dim-dimensional basis) into the
    graded piece at numerator n."""
    ctx = spec.module.ctx
    tdim = spec.idim(n)
    cols = []
    for j, y in enumerate(images):
        lvl = spec.ilevel(y)
        if lvl is None or lvl > n:
            coords = [ctx.zero] * tdim
        else:
            coords = None if lvl < n else oracle_slice_coords(spec, y, n)
        if coords is None:
            note = f"image of basis vector {j} has no class in the graded piece at the target"
            return GradedMap(ctx, tdim, None, False, note)
        cols.append(coords)
    matrix = tuple(tuple(col[i] for col in cols) for i in range(tdim))
    if tdim != dim:
        return GradedMap(ctx, tdim, matrix, False, f"graded pieces have dimensions {dim} != {tdim}")
    inv = linalg.is_invertible(ctx, matrix)
    return GradedMap(ctx, tdim, matrix, inv, None if inv else "matrix is singular")


def oracle_graded(spec, window):
    mod, den = spec.module, spec.den
    levels = []
    for n in spec.ijumps(window):
        basis = spec.ipiece(n)
        if not basis:
            continue
        f_map = oracle_map(spec, len(basis), [oracle_apply_F(mod, b) for b in basis], mod.ctx.p * n)
        t_map = oracle_map(spec, len(basis), [mod.mul_t(b) for b in basis], n + den)
        levels.append(GradedLevel(n, den, len(basis), f_map, t_map))
    return GradedReport(tuple(window), levels)


def oracle_labels(spec, n):
    """The labels of the piece at numerator n, formatted eagerly from the
    piece itself, as graded() once did for every level: u{a}.{i}*s^{e}
    for the basis rows of a Kummer weight class, then the series
    generator (t^i, or x_i under the depth rewrite) and e_m for the
    extension family."""
    if isinstance(spec, KummerVFilt):
        a = weight_of_shift(spec.kc, n)
        return [] if a is None else [f"u{a}.{i}*s^{n}" for i in range(len(spec.kc.bases[a][0]))]
    if isinstance(spec, ExtensionVFilt):
        p = spec.den
        out = []
        i, rem = divmod(n + spec.shift_num, p)
        if spec.rule != "delta" and not rem:
            out.append(f"x_{i}" if spec.rule == "depth-grading" else f"t^{i}")
        if n % p == 0 and n <= -p:
            out.append(f"e_{-n // p}")
        return out
    return oracle_labels(spec.base, n + spec._step)  # shifted or pullback


def assert_matches_oracle(spec, window):
    got, want = graded(spec, window), oracle_graded(spec, window)
    assert want.levels
    assert got == want, spec.to_json()
    serialized = got.to_json(spec)
    assert serialized == want.to_json(spec)
    assert [lv["labels"] for lv in serialized["levels"]] == [oracle_labels(spec, gl.n) for gl in want.levels]
    return got


def _acceptance_crystals(p, d):
    """The acceptance corpus's crystals for one (p, d) pair."""
    ctx = make_field(p, resolve_m(p, d, None))
    rng = Random(SEED + 100 * p + d)
    return [build_kummer_crystal(random_rep(ctx, d, rng, max_rank=4), ctx) for _ in range(PER_PAIR)]


@pytest.mark.parametrize("pair", PAIRS, ids=[f"p{p}-d{d}" for p, d in PAIRS])
def test_acceptance_crystals_match_the_oracle(pair):
    for kc in _acceptance_crystals(*pair):
        assert_matches_oracle(standard_vfilt(kc), WINDOW)


def _extension_specs():
    """The extension-family jobs' twists, each with the rule that
    extension_vfilt, as the CLI does, picks for it, plus a twist over
    F_(p^2) and the delta filtration."""
    out = {}
    for p in (5, 7):
        ctx, big = make_field(p, 1), make_field(p, 2)
        twists = [(ctx, c) for c in ("0", "t^-2", "t^-3", f"t^-{p + 1}", f"2t^-{2 * p + 1}+t^-1+3t^2")]
        for F, c in twists + [(big, "t^-2+t^-1"), (big, f"t^-{p + 1}")]:
            spec = extension_vfilt(build_extension(F, parse_series(F, c)))
            out[f"F{F.order}-{spec.rule}-{c}"] = spec
        out[f"F{p}-delta"] = delta_vfilt(ctx)
    return out


EXTENSION_SPECS = _extension_specs()


@pytest.mark.parametrize("name", sorted(EXTENSION_SPECS))
def test_extension_specs_match_the_oracle(name):
    spec = EXTENSION_SPECS[name]
    for window in ((-6, 6), WINDOW):
        assert_matches_oracle(spec, window)
        assert_matches_oracle(shifted_filtration(spec, 1), window)


def _derived_specs():
    """Shifted and pullback specs of acceptance Kummer specs."""
    out = {}
    for p, d in ((5, 3), (7, 6), (5, 4)):
        spec = standard_vfilt(_acceptance_crystals(p, d)[0])
        out[f"p{p}-d{d}-shift+1"] = shifted_filtration(spec, 1)
        out[f"p{p}-d{d}-shift-3"] = shifted_filtration(spec, -3)
        out[f"p{p}-d{d}-pullback-2"] = pullback_filtration(spec, 2)
        out[f"p{p}-d{d}-pullback-shift"] = pullback_filtration(shifted_filtration(spec, 1), 3)
    return out


DERIVED_SPECS = _derived_specs()


@pytest.mark.parametrize("name", sorted(DERIVED_SPECS))
def test_derived_kummer_specs_match_the_oracle(name):
    assert_matches_oracle(DERIVED_SPECS[name], WINDOW)


def test_the_oracle_specs_meet_every_kind_of_map():
    """Extension specs fail A4 off the nonpositive levels and shifted
    Kummer specs fail it everywhere, so the comparisons above cover
    classless, mis-sized and singular maps, not only bijections."""
    kinds = set()
    for spec in list(EXTENSION_SPECS.values()) + list(DERIVED_SPECS.values()):
        for gl in oracle_graded(spec, (-6, 6)).levels:
            for gm in (gl.f_map, gl.t_map):
                kinds.add(gm.note and gm.note.split(" ")[0])
    assert kinds == {None, "image", "graded", "matrix"}, kinds


def test_specs_built_and_dropped_in_a_loop_match_the_oracle():
    """Hundreds of specs live one at a time, so object ids are reused; a
    solve keyed on anything but values would hand one spec's coordinates
    to the next.  Diagonal reps of ranks 2-4 over F_5 put one coordinate
    vector at different positions of different specs' bases, so such a
    stale answer is wrong, not just repeated."""
    ctx = make_field(5, 1)
    rng = Random(SEED)
    for _ in range(300):
        r = rng.choice((2, 3, 4))
        mat = tuple(tuple(rng.choice((1, 4)) if i == j else 0 for j in range(r)) for i in range(r))
        spec = standard_vfilt(build_kummer_crystal(CyclicRep(2, 5, mat), ctx))
        assert_matches_oracle(spec, (-3, 3))
        del spec


def test_mutating_returned_coordinates_leaves_later_answers_unchanged():
    p, d = PAIRS[5]
    spec = standard_vfilt(_acceptance_crystals(p, d)[0])
    ctx = spec.module.ctx
    for view in (spec, shifted_filtration(spec, 2)):
        n = view.ijumps((0, 1))[0]
        r = Fraction(n + view.den, view.den)
        y = spec.module.mul_t(view.ipiece(n)[0])
        first = view.graded_coords(y, r)
        want = list(first)
        assert want and ctx.one in want
        first[:] = [ctx.from_int(2)] * (len(first) + 1)
        assert view.graded_coords(y, r) == want
        dim, raw = view._level_coords([y], n + view.den)
        assert dim == len(want) and list(raw[0]) == want
        raw.clear()
        assert view.graded_coords(y, r) == want
        assert_matches_oracle(view, (-2, 2))


def test_a_long_window_solves_no_more_systems_than_one_period(monkeypatch):
    """t- and Frobenius-periodicity: each (weight class, slice) and each
    matrix repeats in every period, so a fresh spec graded on 128 periods
    runs exactly the solves of one period."""
    calls = {"express": 0, "is_invertible": 0}
    for name in calls:
        fn = getattr(linalg, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(linalg, name, counted)
    for p, d in PAIRS:
        kc = _acceptance_crystals(p, d)[1]
        seen = []
        for window in ((0, 1), WINDOW):
            for name in calls:
                calls[name] = 0
            graded(standard_vfilt(kc), window)
            seen.append(dict(calls))
        assert seen[0] == seen[1], (p, d, seen)
        assert seen[0]["express"] and seen[0]["is_invertible"], (p, d, seen)


def test_a_long_window_tests_no_more_matrices_than_one_period(monkeypatch):
    """A map's verdict is kept under its columns, which repeat in every
    period, so grading a fresh spec on 128 periods calls
    linalg.is_invertible no more often than grading it on one, and the
    long report is still the oracle's."""
    calls = [0]
    is_invertible = linalg.is_invertible

    def counted(*args):
        calls[0] += 1
        return is_invertible(*args)

    for p, d in PAIRS:
        for kc in _acceptance_crystals(p, d)[:8]:
            seen = []
            for window in ((0, 1), WINDOW):
                spec = standard_vfilt(kc)
                monkeypatch.setattr(linalg, "is_invertible", counted)
                calls[0] = 0
                report = graded(spec, window)
                seen.append(calls[0])
                monkeypatch.setattr(linalg, "is_invertible", is_invertible)
            assert 0 < seen[1] <= seen[0], (p, d, seen)
            assert report == oracle_graded(spec, WINDOW), (p, d)


DIMS_NOTE = "graded pieces have dimensions 1 != 0"


@pytest.mark.parametrize("name", ["F5-depth-grading-t^-6", "F5-extension-t^-3", "F7-extension-t^-2"])
def test_positive_extension_levels_fail_a4_on_dimensions(name):
    """Off the nonpositive levels an extension piece is the series
    generator's line, and Frobenius carries it to an integer level with
    a zero piece: every positive A4 row, not only the first witness,
    reads the dimension note, and so does the map behind it, which the
    level serializes with its own target p * level."""
    spec = EXTENSION_SPECS[name]
    p = spec.module.ctx.p
    for window in ((-6, 6), WINDOW):
        report = graded(spec, window)
        a4 = check_specializing(spec, window, graded_report=report).checks["A4"]
        rows = [(n, status, note) for n, status, note in a4.levels if n > 0]
        assert len(rows) == window[1], (name, window)
        assert rows == [(n, "fail", DIMS_NOTE) for n, _, _ in rows], (name, window)
        for gl, serialized in zip(report.levels, report.to_json(spec)["levels"]):
            if gl.n > 0:
                gm = gl.f_map
                assert (gm.target_dim, gm.matrix, gm.invertible, gm.note) == (0, (), False, DIMS_NOTE), gl.n
                assert serialized["frobenius"]["target"] == level_json(p * gl.n, spec.den)


def test_one_verdict_memo_keeps_target_dims_apart():
    """An empty source piece or a map with no class has no column to
    tell the target dims apart, so the memo key carries the target dim
    itself.  From a 0 piece the empty map into a 0 piece is a bijection,
    into a line it is not.  This twist's lines have Frobenius or
    t-images with no class both where the target piece is 0 and where it
    is a line, and each map keeps its own target dim."""
    spec = EXTENSION_SPECS["F5-depth-grading-t^-6"]
    assert (spec.idim(20), spec.idim(4)) == (0, 1)
    for order in ((20, 4), (4, 20)):
        got = {tn: _graded_map(spec, 0, [], tn) for tn in order}
        assert (got[20].matrix, got[20].invertible, got[20].note) == ((), True, None)
        assert (got[4].matrix, got[4].invertible, got[4].note) == (((),), False, "graded pieces have dimensions 0 != 1")
    spec = EXTENSION_SPECS["F5-depth-grading-2t^-11+t^-1+3t^2"]
    p, den = spec.module.ctx.p, spec.den
    classless = set()
    for gl in graded(spec, (-6, 6)).levels:
        for gm, tn in ((gl.f_map, p * gl.n), (gl.t_map, gl.n + den)):
            assert gm.target_dim == spec.idim(tn), (gl.n, tn)
            if gm.matrix is None:
                classless.add((gl.dim, gm.note, gm.target_dim))
    note = "image of basis vector 0 has no class in the graded piece at the target"
    assert {(1, note, 0), (1, note, 1)} <= classless, classless


def _sharing_cases():
    """(spec, a window that meets every shape of its maps): Kummer specs
    and their shifts are t-periodic, so one period (0, 1) does; the
    extension family's pieces change shape at 0 and -1, so (-3, 3)."""
    kummer = [standard_vfilt(kc) for p, d in PAIRS[::3] for kc in _acceptance_crystals(p, d)[:3]]
    return {
        "kummer": [(spec, (0, 1)) for spec in kummer],
        "extension": [(EXTENSION_SPECS[name], (-3, 3)) for name in sorted(EXTENSION_SPECS)],
        "shifted": [(shifted_filtration(spec, k), (0, 1)) for spec in kummer for k in (1, -3)],
    }


SHARING_CASES = _sharing_cases()


@pytest.mark.parametrize("kind", sorted(SHARING_CASES))
def test_a_long_report_shares_one_graded_map_per_verdict(kind):
    """On 128 periods a report holds no more GradedMap objects than one
    period's report, one object per distinct (target dim, matrix,
    verdict, note), and it is still the oracle's.  Each level serializes
    its own targets, p * level and level + 1; a shared map is frozen,
    and it has no target of its own to read or serialize."""
    shared = 0
    for spec, period in SHARING_CASES[kind]:
        report = graded(spec, WINDOW)
        maps = [gm for gl in report.levels for gm in (gl.f_map, gl.t_map)]
        ids = {id(gm) for gm in maps}
        short = {id(gm) for gl in graded(spec, period).levels for gm in (gl.f_map, gl.t_map)}
        assert len(ids) <= len(short), spec.to_json()
        assert len(ids) == len({(gm.target_dim, gm.matrix, gm.invertible, gm.note) for gm in maps})
        shared += len(maps) - len(ids)
        assert report == oracle_graded(spec, WINDOW), spec.to_json()
        p, den = spec.module.ctx.p, spec.den
        for gl, serialized in zip(report.levels, report.to_json(spec)["levels"]):
            assert serialized["frobenius"]["target"] == level_json(p * gl.n, den), gl.n
            assert serialized["t"]["target"] == level_json(gl.n + den, den), gl.n
        with pytest.raises(FrozenInstanceError):
            maps[0].note = "changed"
        with pytest.raises(ValueError):
            maps[0].target
        with pytest.raises(ValueError):
            maps[-1].to_json()
    assert shared >= 100 * len(SHARING_CASES[kind]), (kind, shared)


def _random_vector(ctx, rank, rng):
    return tuple(ctx.from_coeffs([rng.randrange(ctx.p) for _ in range(ctx.m)]) for _ in range(rank))


def test_kummer_frobenius_images_are_coefficientwise():
    """apply_F keeps each terms tuple's image, keyed on its value.
    Random sections put one vector at several exponents and fresh
    vectors at old exponents, on hundreds of modules built and dropped
    over fields of equal and unequal degree, so an image kept under the
    valuation, a vector's id or another module's field comes out wrong
    here."""
    rng = Random(SEED)
    fields = [(make_field(p, m), d) for p, m, d in ((5, 2, 3), (7, 2, 4), (2, 6, 3), (5, 3, 4))]
    for _ in range(60):
        for ctx, d in fields:
            module = KummerSections(build_kummer_crystal(random_rep(ctx, d, rng, max_rank=3), ctx))
            for _ in range(8):
                vecs = [_random_vector(ctx, module.rank, rng) for _ in range(3)]
                # equal vectors, as distinct objects, at several exponents
                x = {e: tuple(list(rng.choice(vecs))) for e in rng.sample(range(-6, 6), 4)}
                x = from_dict(ctx, {e: v for e, v in x.items() if v != (ctx.zero,) * module.rank})
                assert module.apply_F(x) == oracle_apply_F(module, x)

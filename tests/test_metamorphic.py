"""Metamorphic relations: inputs that present the same object, or the
same question, get the same answers.

The filtration is canonical and every graded map and axiom table is
computed level by level, so no relation below needs a reference answer:

  window restriction  the levels of graded() on [lo - k, hi + k) that
                      lie in [lo, hi) are graded() on [lo, hi), and so
                      are the A4 and SS3 rows of check_axioms there;
  conjugation         a representation conjugated by an invertible
                      matrix over F_p keeps its jump levels, dimensions,
                      graded-map verdicts and axiom verdicts;
  direct-sum order    direct_sum(a, b) and direct_sum(b, a) agree the
                      same way.

graded() shares one GradedMap between all maps with equal columns, and
a window's report shares more than its sub-window's; these relations
pin that the sharing never changes a level's answer.  Each relation runs
on a seeded corpus, and floors on the case counts keep it from passing
on too few cases.
"""

from random import Random

from fcrystal import (
    CyclicRep,
    build_extension,
    build_kummer_crystal,
    check_axioms,
    graded,
    linalg,
    make_field,
    mc_depth_grading,
    mc_vfilt,
    parse_series,
    split_vfilt,
    standard_vfilt,
)
from fcrystal.cli import resolve_m
from fcrystal.samples import random_invertible_int, random_rep
from direct_sums import direct_sum

SEED = 20261020
PAIRS = ((5, 2), (5, 3), (5, 4), (5, 6), (7, 2), (7, 3), (7, 4), (7, 6), (2, 3), (3, 4), (2, 5), (3, 8))


def _field(p, d):
    return make_field(p, resolve_m(p, d, None))


def _graded_rows(report, lo, hi):
    """The report's levels n with lo <= n/den < hi."""
    return [gl for gl in report.levels if lo * gl.den <= gl.n < hi * gl.den]


def _table_rows(check, lo, hi):
    """An A4 or SS3 table's rows at levels lo <= n/den < hi."""
    return [row for row in check.levels if lo * check.den <= row[0] < hi * check.den]


def assert_window_restricts(spec, lo, hi, k):
    inner, outer = (lo, hi), (lo - k, hi + k)
    assert _graded_rows(graded(spec, outer), lo, hi) == graded(spec, inner).levels, (inner, k)
    small, big = check_axioms(spec, inner).checks, check_axioms(spec, outer).checks
    for name in ("A4", "SS3"):
        assert _table_rows(big[name], lo, hi) == small[name].levels, (name, inner, k)


def _verdicts(spec, window):
    """What a presentation of the crystal must not change: the jumps, the
    dimensions, each level's map verdicts and every axiom verdict."""
    jumps = spec.ijumps(window)
    maps = [
        (gl.n, gl.dim, [(gm.target_dim, gm.invertible, gm.note) for gm in (gl.f_map, gl.t_map)])
        for gl in graded(spec, window).levels
    ]
    checks = {name: (c.status, c.levels, c.witness) for name, c in check_axioms(spec, window).checks.items()}
    return jumps, [spec.idim(n) for n in jumps], maps, checks


def _kummer_verdicts(rep, ctx, window):
    return _verdicts(standard_vfilt(build_kummer_crystal(rep, ctx)), window)


def test_kummer_windows_restrict():
    rng = Random(SEED)
    cases = 0
    for p, d in PAIRS:
        ctx = _field(p, d)
        for _ in range(3):
            spec = standard_vfilt(build_kummer_crystal(random_rep(ctx, d, rng, max_rank=4), ctx))
            lo = rng.randrange(-6, 5)
            assert_window_restricts(spec, lo, lo + rng.randrange(1, 5), rng.randrange(1, 5))
            cases += 1
    assert cases >= 36


def test_extension_windows_restrict():
    """The extension family's pieces change shape at 0 and -1, so its
    windows straddle both."""
    cases = 0
    for p in (5, 7):
        ctx = make_field(p, 1)
        specs = (
            mc_vfilt(build_extension(ctx, parse_series(ctx, "t^-3"))),
            split_vfilt(build_extension(ctx, parse_series(ctx, "0"))),
            mc_depth_grading(build_extension(ctx, parse_series(ctx, f"t^-{p + 1}"))),
        )
        for spec, (lo, hi, k) in zip(specs, ((-3, 2, 2), (-2, 3, 3), (-4, 1, 1))):
            assert_window_restricts(spec, lo, hi, k)
            cases += 1
    assert cases >= 6


def test_conjugate_reps_keep_every_verdict():
    rng = Random(SEED + 1)
    cases = 0
    for p, d in PAIRS:
        ctx = _field(p, d)
        for _ in range(6):
            rep = random_rep(ctx, d, rng, max_rank=4)
            conj = random_invertible_int(rng, rep.rank, p)
            mat = linalg.mat_mul_int(conj, linalg.mat_mul_int(rep.mat, linalg.invert_int(conj, p), p), p)
            other = CyclicRep(d, p, tuple(map(tuple, mat)))
            window = (-3, 3)
            assert _kummer_verdicts(other, ctx, window) == _kummer_verdicts(rep, ctx, window), (p, d, rep)
            cases += 1
    assert cases >= 66


def test_direct_sum_order_keeps_every_verdict():
    rng = Random(SEED + 2)
    cases = 0
    for p, d in PAIRS[:10]:
        ctx = _field(p, d)
        for _ in range(3):
            a, b = (random_rep(ctx, d, rng, max_rank=2) for _ in range(2))
            window = (-3, 3)
            assert _kummer_verdicts(direct_sum(a, b), ctx, window) == _kummer_verdicts(direct_sum(b, a), ctx, window)
            cases += 1
    assert cases >= 30

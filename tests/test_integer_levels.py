"""Integer levels through graded() and the axiom checkers.

A graded report and the A4/SS3 tables hold level numerators over the
spec's den; Fractions appear only at the public edge.  These tests pin
the integer paths to the rational ones they replace: the JSON of a
numerator, check_axioms' one shared spanning sweep, the number of
coordinate solves graded() asks for, and the SS3 exemption at level -1
on grids finer than Z.
"""

from fractions import Fraction

import pytest

from test_acceptance import PAIRS, WINDOW
from test_functors import graded_t_map
from test_graded_memo import DERIVED_SPECS, EXTENSION_SPECS, _acceptance_crystals

from fcrystal import (
    CyclicRep,
    build_extension,
    build_kummer_crystal,
    check_axioms,
    check_specializing,
    check_super,
    graded,
    graded_frobenius_map,
    make_field,
    mc_vfilt,
    parse_series,
    standard_vfilt,
)
from fcrystal.series import level_json
from fcrystal.vfilt import KummerVFilt


def test_level_json_of_a_numerator_matches_the_fraction():
    for den in range(1, 13):
        for n in range(-300, 301):
            assert level_json(n, den) == level_json(Fraction(n, den)), (n, den)
        assert level_json(None, den) == level_json(None) == {"num": None, "den": None}


def _checked_specs():
    """Acceptance crystals, the extension rules, shifted and pullback specs."""
    specs = [
        (f"p{p}-d{d}-{i}", standard_vfilt(kc), WINDOW)
        for p, d in PAIRS
        for i, kc in enumerate(_acceptance_crystals(p, d))
    ]
    specs += [(name, spec, (-6, 6)) for name, spec in sorted(EXTENSION_SPECS.items())]
    specs += [(name, spec, (-8, 8)) for name, spec in sorted(DERIVED_SPECS.items())]
    return specs


def test_check_axioms_equals_the_two_checkers_run_apart():
    seen = set()
    for name, spec, window in _checked_specs():
        shared = check_axioms(spec, window)
        apart = check_specializing(spec, window).merge(check_super(spec, window))
        assert shared == apart, name
        assert shared.to_json() == apart.to_json(), name
        seen.add(shared.all_pass)
    assert seen == {True, False}


def test_graded_solves_each_image_once(monkeypatch):
    """On the acceptance crystals every graded map is complete, so
    graded() hands _level_coords each basis vector's Frobenius image and
    t-image exactly once: 2 * (sum of the piece dimensions) images, in
    one call per map."""
    calls = [0, 0]  # images, hook calls
    original = KummerVFilt._level_coords

    def counted(self, images, n):
        calls[0] += len(images)
        calls[1] += 1
        return original(self, images, n)

    monkeypatch.setattr(KummerVFilt, "_level_coords", counted)
    for p, d in PAIRS:
        for kc in _acceptance_crystals(p, d)[:4]:
            calls[:] = [0, 0]
            rep = graded(standard_vfilt(kc), WINDOW)
            assert rep.all_frobenius_invertible() and rep.all_t_invertible(skip=())
            assert calls[0] == 2 * sum(gl.dim for gl in rep.levels) > 0, (p, d)
            assert calls[1] == 2 * len(rep.levels), (p, d)


def _ss3(spec, window):
    ss3 = check_super(spec, window).checks["SS3"]
    table = {n: status for n, status, _ in ss3.levels}
    return ss3, table


def test_ss3_exempts_level_minus_one_on_the_extension_grid():
    """den = p: level -1 is the numerator -p, and -1/p is an ordinary level."""
    for p in (5, 7):
        ctx = make_field(p, 1)
        spec = mc_vfilt(build_extension(ctx, parse_series(ctx, "t^-2")))
        assert spec.den == p and spec.idim(-1) and spec.idim(-p)
        ss3, table = _ss3(spec, (-4, 4))
        assert ss3.status == "pass" and ss3.den == p
        assert table[-p] == "exempt" and table[-1] == "pass"
        assert [n for n, st in table.items() if st == "exempt"] == [-p]
        exception = ss3.info["exception_at_minus_one"]
        assert exception["level"] == {"num": -1, "den": 1}
        assert exception["invertible"] is False


def test_ss3_does_not_exempt_minus_one_third_on_a_kummer_grid():
    """d = 3: the jump at -1/3 (numerator -1) is checked, not exempted."""
    ctx = make_field(5, 2)
    spec = standard_vfilt(build_kummer_crystal(CyclicRep.regular(3, 5), ctx))
    assert spec.den == 3 and spec.idim(-1) and spec.idim(-3)
    ss3, table = _ss3(spec, (-2, 2))
    assert ss3.status == "pass" and ss3.den == 3
    assert table[-1] == "pass" and table[-3] == "exempt"
    assert [n for n, st in table.items() if st == "exempt"] == [-3]
    assert ss3.info["exception_at_minus_one"]["level"] == {"num": -1, "den": 1}
    assert {"level": {"num": -1, "den": 3}, "status": "pass", "note": None} in ss3.to_json()["levels"]


def test_graded_frobenius_map_is_the_graded_levels_f_map():
    """At every jump n/den, the standalone map is graded()'s f_map there:
    the same matrix, verdict, note and target dimension, with target
    p*n/den; on the acceptance crystals and the four extension rules."""
    specs = [standard_vfilt(kc) for p, d in PAIRS for kc in _acceptance_crystals(p, d)[:2]]
    specs += [spec for _, spec in sorted(EXTENSION_SPECS.items())]
    rules, verdicts = set(), set()
    for spec in specs:
        p = spec.module.ctx.p
        for gl in graded(spec, (-6, 6)).levels:
            gm, want = graded_frobenius_map(spec, Fraction(gl.n, gl.den)), gl.f_map
            assert (gm.matrix, gm.invertible, gm.note, gm.target_dim) == (
                want.matrix,
                want.invertible,
                want.note,
                want.target_dim,
            ), (spec.to_json(), gl.n)
            assert gm.target == Fraction(p * gl.n, gl.den)
            verdicts.add(gm.note)
        rules.add(spec.rule)
    assert rules == {"standard", "extension", "split", "depth-grading", "delta"}
    assert None in verdicts and len(verdicts) > 1


@pytest.mark.parametrize("r", [Fraction(1, 7), Fraction(2, 9), Fraction(-5, 2), Fraction(1, 15)])
def test_off_grid_maps_keep_their_rational_target(r):
    """graded_frobenius_map and graded_t_map take any rational; off the
    grid the basis is empty and the target stays the rational itself,
    on the grid or off it (1/15 goes to 1/3 under Frobenius at p = 5)."""
    spec = standard_vfilt(build_kummer_crystal(CyclicRep.regular(3, 5), make_field(5, 2)))
    fm, tm = graded_frobenius_map(spec, r), graded_t_map(spec, r)
    assert fm.target == 5 * r and tm.target == r + 1
    for gm, target in ((fm, 5 * r), (tm, r + 1)):
        n = spec._num(target)
        assert gm.target_dim == (0 if n is None else spec.idim(n))
        assert gm.invertible == (gm.target_dim == 0)
    assert fm.to_json()["target"] == level_json(5 * r)
    assert tm.to_json()["target"] == level_json(r + 1)

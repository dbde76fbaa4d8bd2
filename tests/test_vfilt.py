"""Level filtrations: jumps, graded pieces, axiom checks, comparison."""

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrystal import (
    CyclicRep,
    ExtensionVFilt,
    InvalidInputError,
    LaurentSeries,
    build_extension,
    build_kummer_crystal,
    check_axioms,
    check_specializing,
    check_super,
    compare,
    delta_vfilt,
    graded,
    graded_frobenius_map,
    make_field,
    mc_depth_grading,
    mc_vfilt,
    parse_series,
    pullback_filtration,
    shifted_exactness,
    shifted_filtration,
    split_vfilt,
    standard_vfilt,
)

from direct_sums import direct_sum
from test_functors import graded_t_map

F25 = make_field(5, 2)
F5 = make_field(5, 1)


@pytest.fixture(scope="module")
def companion_spec():
    kc = build_kummer_crystal(CyclicRep.companion(3, 5), F25)
    return standard_vfilt(kc)


@pytest.fixture(scope="module")
def ext_spec():
    return mc_vfilt(build_extension(F5, parse_series(F5, "t^-2")))


def test_standard_jumps(companion_spec):
    assert companion_spec.jumps((0, 2)) == [
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(4, 3),
        Fraction(5, 3),
    ]
    assert companion_spec.jumps((-1, 0)) == [Fraction(-2, 3), Fraction(-1, 3)]


def test_standard_levels_are_cover_valuations(companion_spec):
    spec = companion_spec
    x = spec.module.monomial(1, 0, 2)
    assert spec.den == 3
    assert spec.ilevel(x) == spec._num(Fraction(2, 3)) == 2
    assert spec.ilevel(spec.module.monomial(1, 0, 5)) == spec._num(Fraction(5, 3)) == 5
    assert spec.ilevel(()) is None


def test_graded_coordinate_protocol(companion_spec):
    spec = companion_spec
    x = spec.module.monomial(1, 0, 2)  # level 2/3
    assert spec.graded_coords(x, Fraction(2, 3)) == [(1, 0)]
    # anything strictly deeper represents the zero class
    assert spec.graded_coords(x, Fraction(1, 3)) == [(0, 0)]
    # and a section outside the submodule has no class at all
    assert spec.graded_coords(x, Fraction(4, 3)) is None


def test_graded_report_all_invertible(companion_spec):
    rep = graded(companion_spec, (-3, 3))
    assert rep.all_frobenius_invertible()
    assert rep.all_t_invertible()
    dims = {gl.level: gl.dim for gl in rep.levels}
    assert dims[Fraction(1, 3)] == 1 and dims[Fraction(2, 3)] == 1
    assert Fraction(0) not in dims


def test_graded_t_map_raises_level_by_one(companion_spec):
    gm = graded_t_map(companion_spec, Fraction(2, 3))
    assert gm.target == Fraction(5, 3)
    assert gm.invertible


def test_standard_axioms_pass(companion_spec):
    report = check_axioms(companion_spec, (-8, 8))
    assert report.all_pass
    assert set(report.checks) == {"A1", "A2", "A3", "A4", "SS1", "SS2", "SS3"}


def test_axioms_pass_with_mixed_weights():
    rep = direct_sum(CyclicRep.trivial(3, 5), CyclicRep.companion(3, 5))
    spec = standard_vfilt(build_kummer_crystal(rep, F25))
    assert check_axioms(spec, (-4, 4)).all_pass


def test_extension_jumps(ext_spec):
    # series exponents sit at i - n/p, delta generators at -m
    assert ext_spec.jumps((-2, 1)) == [
        Fraction(-2),
        Fraction(-6, 5),
        Fraction(-1),
        Fraction(-1, 5),
        Fraction(4, 5),
    ]


def test_extension_levels(ext_spec):
    mod = ext_spec.module
    one = mod.f_monomial(0)
    den = ext_spec.den
    assert Fraction(ext_spec.ilevel(one), den) == Fraction(-1, 5)
    assert Fraction(ext_spec.ilevel(mod.delta_monomial(1)), den) == Fraction(-1)
    # frobenius scales the level by exactly p here
    assert Fraction(ext_spec.ilevel(mod.apply_F(one)), den) == Fraction(-1)


def test_extension_axioms_fail_only_at_positive_levels(ext_spec):
    report = check_axioms(ext_spec, (-8, 8))
    for name in ("A1", "A2", "A3", "SS1", "SS2"):
        assert report.checks[name].status == "pass", name
    a4 = report.checks["A4"]
    assert a4.status == "fail"
    assert a4.witness == {
        "level": {"num": 4, "den": 5},
        "reason": "graded pieces have dimensions 1 != 0",
    }
    for level, status, _ in a4.levels:
        if level <= 0:
            assert status == "pass"
        else:
            assert status == "fail"
    assert report.checks["SS3"].status == "pass"


def test_extension_ss3_exception_at_minus_one(ext_spec):
    report = check_super(ext_spec, (-4, 4))
    info = report.checks["SS3"].info
    assert info["exception_at_minus_one"]["invertible"] is False


def test_extension_exactness(ext_spec):
    out = shifted_exactness(ext_spec, (-6, 6))
    assert out["exact"]
    assert out["sub_matches_delta"]
    assert out["quotient_matches_shifted_integers"]
    assert out["quotient_shift"] == {"num": -1, "den": 5}


def test_split_extension_is_integrally_filtered():
    mod = build_extension(F5, LaurentSeries.zero(F5))
    spec = split_vfilt(mod)
    assert check_axioms(spec, (-4, 4)).all_pass
    assert Fraction(spec.ilevel(spec.module.f_monomial(2)), spec.den) == Fraction(2)
    assert Fraction(spec.ilevel(spec.module.delta_monomial(3)), spec.den) == Fraction(-3)
    rep = graded(spec, (-3, 2))
    dims = {gl.level: gl.dim for gl in rep.levels}
    assert dims[Fraction(0)] == 1 and dims[Fraction(-2)] == 2
    out = shifted_exactness(spec, (-4, 4))
    assert out["exact"] and out["quotient_shift"] == {"num": 0, "den": 1}


def test_split_vfilt_rejects_nonsplit():
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    with pytest.raises(InvalidInputError):
        split_vfilt(mod)
    with pytest.raises(InvalidInputError):
        mc_vfilt(build_extension(F5, LaurentSeries.zero(F5)))


def test_delta_filtration_axioms():
    spec = delta_vfilt(F25)
    assert check_axioms(spec, (-6, 2)).all_pass
    assert Fraction(spec.ilevel((LaurentSeries.zero(F25), LaurentSeries.monomial(F25, -4))), spec.den) == Fraction(-4)


EXTENSION_RULE_SPECS = {
    "extension": mc_vfilt(build_extension(F25, parse_series(F25, "t^-2"))),
    "split": split_vfilt(build_extension(F25, LaurentSeries.zero(F25))),
    "depth-grading": mc_depth_grading(build_extension(F25, parse_series(F25, "t^-6"))),
    "delta": delta_vfilt(F25),
}
_NONZERO_F25 = st.integers(1, F25.order - 1).map(F25.decode)


@pytest.mark.parametrize("rule", sorted(EXTENSION_RULE_SPECS))
@settings(max_examples=150, deadline=None)
@given(
    f=st.dictionaries(st.integers(-8, 8), _NONZERO_F25, max_size=4),
    g=st.dictionaries(st.integers(1, 8), _NONZERO_F25, max_size=4),
)
def test_extension_sections_have_a_class_at_their_level(rule, f, g):
    spec = EXTENSION_RULE_SPECS[rule]
    assert spec.rule == rule
    if rule == "delta":
        f = {}  # the delta module's sections are (0, g)
    x = (LaurentSeries(F25, f), LaurentSeries(F25, {-m: c for m, c in g.items()}))
    n = spec.ilevel(x)
    assert (n is None) == (not f and not g)
    if n is not None:
        lvl = Fraction(n, spec.den)
        coords = spec.graded_coords(x, lvl)
        assert coords is not None, (x, lvl)
        assert any(not F25.is_zero(c) for c in coords), (x, lvl)


def test_extension_rule_must_be_known():
    with pytest.raises(InvalidInputError, match="unknown extension filtration rule"):
        ExtensionVFilt(build_extension(F5, LaurentSeries.zero(F5)), "standard")


def test_shifted_filtration_moves_levels(companion_spec):
    spec = companion_spec
    x = spec.module.monomial(1, 0, 2)
    sh = shifted_filtration(spec, 1)
    assert sh.den == spec.den
    assert sh.ilevel(x) == spec.ilevel(x) - spec.den
    assert shifted_filtration(spec, -2).ilevel(x) == spec.ilevel(x) + 2 * spec.den
    with pytest.raises(InvalidInputError):
        shifted_filtration(spec, 0)


@pytest.mark.parametrize("offset", [-3, -1, 1, 2])
def test_any_shift_breaks_graded_frobenius(companion_spec, offset):
    sh = shifted_filtration(companion_spec, offset)
    report = check_specializing(sh, (-2, 2))
    a4 = report.checks["A4"]
    assert a4.status == "fail"
    assert a4.witness is not None


def test_shift_breaks_extension_too(ext_spec):
    for offset in (-1, 1):
        report = check_specializing(shifted_filtration(ext_spec, offset), (-2, 2))
        assert report.checks["A4"].status == "fail"


def test_pullback_keeps_levels_and_jumps(companion_spec):
    pb = pullback_filtration(companion_spec, 2)
    x = companion_spec.module.monomial(1, 0, 2)
    assert (pb.ilevel(x), pb.den) == (companion_spec.ilevel(x), companion_spec.den)
    assert pb.jumps((-2, 2)) == companion_spec.jumps((-2, 2))
    assert pb.ideal_name == "s" and pb.dprime == 2


def test_pullback_ideal_powers(companion_spec):
    pb = pullback_filtration(companion_spec, 2)
    x = companion_spec.module.monomial(1, 0, 2)
    y = pb.mul_ideal(x, 2)  # s^2 is the old t
    assert pb.ilevel(y) == pb.ilevel(x) + pb.den
    with pytest.raises(InvalidInputError):
        pb.mul_ideal(x, 3)


def test_pullback_axioms(companion_spec):
    pb = pullback_filtration(companion_spec, 3)
    assert check_specializing(pb, (-3, 3)).all_pass


def test_pullback_degree_constraints(companion_spec):
    with pytest.raises(InvalidInputError):
        pullback_filtration(companion_spec, 5)  # shares a factor with p
    with pytest.raises(InvalidInputError):
        pullback_filtration(companion_spec, 0)


def test_compare_self_and_shifts(companion_spec):
    spec = companion_spec
    assert compare(spec, spec, (-2, 2))["verdict"] == "equal"
    assert compare(spec, shifted_filtration(spec, 1), (-2, 2))["verdict"] == "reverse-contained"
    assert compare(spec, shifted_filtration(spec, -1), (-2, 2))["verdict"] == "contained"


def test_compare_filtration_is_presentation_free(companion_spec):
    # two crystals of one d and rank are two modules: the companion's
    # weights 1 and 2 jump at 1/3 and 2/3, the trivial sum's weight 0 at 0,
    # so their families (reduced level, basis index) differ
    other = direct_sum(CyclicRep.trivial(3, 5), CyclicRep.trivial(3, 5))
    spec2 = standard_vfilt(build_kummer_crystal(other, F25))
    v = compare(companion_spec, spec2, (-2, 2))
    assert v["verdict"] == "incomparable"
    assert v["witness"]["reason"] == "spanning families differ"
    # a crystal rebuilt from an equal representation is the same module
    again = standard_vfilt(build_kummer_crystal(CyclicRep.companion(3, 5), F25))
    assert compare(companion_spec, again, (-2, 2)) == compare(companion_spec, companion_spec, (-2, 2))


def test_compare_tells_kummer_crystals_of_one_shape_apart():
    # one d, one rank, one field: jumps 0 and 2/3 (the twist acts by 1 and 2)
    F7 = make_field(7, 1)
    spec1, spec2 = (standard_vfilt(build_kummer_crystal(CyclicRep(3, 7, ((x,),)), F7)) for x in (1, 2))
    assert spec1.jumps((0, 1)) == [0] and spec2.jumps((0, 1)) == [Fraction(2, 3)]
    v = compare(spec1, spec2, (-2, 2))
    assert v["verdict"] == "incomparable" and v["witness"]["reason"] == "spanning families differ"
    assert compare(spec1, spec1, (-2, 2)) == {"verdict": "equal", "sections": 8}


@pytest.mark.parametrize("c1, c2", [("t^-2", "2t^-2"), ("t^-2", "t^-3"), ("t^-2", "t^-2+t^-1"), ("0", "t^-2")])
def test_compare_tells_twists_over_one_field_apart(c1, c2):
    mod1, mod2 = (build_extension(F5, parse_series(F5, c)) for c in (c1, c2))
    spec1, spec2 = (split_vfilt(m) if m.split else mc_vfilt(m) for m in (mod1, mod2))
    v = compare(spec1, spec2, (-4, 4))
    assert v == {"verdict": "incomparable", "witness": {"reason": "the filtrations are on different modules"}}
    # the same twist built twice is one module
    again = build_extension(F5, parse_series(F5, c1))
    same = split_vfilt(again) if again.split else mc_vfilt(again)
    assert compare(spec1, same, (-4, 4)) == {"verdict": "equal", "sections": 24}


def test_compare_across_presentations(companion_spec):
    rep = CyclicRep.companion(3, 5)
    inflated = CyclicRep(6, 5, rep.mat)
    spec6 = standard_vfilt(build_kummer_crystal(inflated, F25))
    spec3 = standard_vfilt(build_kummer_crystal(rep, F25))
    assert compare(spec3, spec6, (-3, 3))["verdict"] == "equal"


def test_compare_unrelated_is_incomparable(companion_spec):
    v = compare(companion_spec, delta_vfilt(F25), (-2, 2))
    assert v["verdict"] == "incomparable"
    assert "witness" in v


def test_depth_grading_sections():
    mod = build_extension(F5, parse_series(F5, "t^-6"))
    assert mod.n == 5
    dg = mc_depth_grading(mod)
    x0 = dg.x_section(0)
    assert x0[0].same_values(LaurentSeries.one(F5))
    assert x0[1] == LaurentSeries.monomial(F5, -1).neg()
    assert Fraction(dg.ilevel(dg.x_section(-1)), dg.den) == Fraction(-6, 5)


def test_depth_grading_frobenius_cancellation():
    mod = build_extension(F5, parse_series(F5, "t^-6"))
    dg = mc_depth_grading(mod)
    for i in range(-4, 1):
        f, g = mod.apply_F(dg.x_section(i))
        assert f.same_values(LaurentSeries.monomial(F5, 5 * i))
        assert g.is_zero()


def test_depth_grading_graded_map_lands_on_delta():
    mod = build_extension(F5, parse_series(F5, "t^-6"))
    dg = mc_depth_grading(mod)
    gm = graded_frobenius_map(dg, Fraction(-1) - Fraction(1, 5))
    assert gm.target == Fraction(-6)
    assert gm.invertible
    assert dg.graded_labels(Fraction(-6)) == ["e_6"]


def test_depth_grading_needs_exact_multiple():
    with pytest.raises(InvalidInputError):
        mc_depth_grading(build_extension(F5, parse_series(F5, "t^-3")))  # n=2 not 5l
    with pytest.raises(InvalidInputError):
        # n = 10 = 2*5 has depth 2, fine; n = 25 has depth 5 = p, rejected
        mc_depth_grading(build_extension(F5, parse_series(F5, "t^-26")))


def test_precomputed_graded_report_matches_fresh(companion_spec):
    rep = graded(companion_spec, (-3, 3))
    fresh = check_axioms(companion_spec, (-3, 3))
    shared = check_axioms(companion_spec, (-3, 3), graded_report=rep)
    assert fresh.to_json() == shared.to_json()


@pytest.mark.parametrize("window", [(3, -3), (2, 2)])
def test_empty_window_rejected(companion_spec, window):
    for check in (graded, check_specializing, check_super, check_axioms):
        with pytest.raises(InvalidInputError, match="empty level window"):
            check(companion_spec, window)

"""Every axiom checker can fail: mutant specs and their exact witnesses.

Each mutant breaks one section operation (a t-power, Frobenius, t, the
t-preimage or the spanning family) and leaves the level function alone.
The checker that reads the broken operation must then fail, with a
witness whose levels are exact {"num", "den"} pairs, so a wrong level
comparison inside a checker cannot pass vacuously.  The same goes for
the two reports that judge a spec beyond the axioms: shifted_exactness
names the delta index or series exponent whose level moved, and
vanishing notes a graded image with no class or a square that does not
commute.
"""

from fcrystal import (
    CyclicRep,
    ExtensionModule,
    ExtensionVFilt,
    KummerVFilt,
    build_extension,
    build_kummer_crystal,
    check_axioms,
    check_specializing,
    make_field,
    mc_vfilt,
    parse_series,
    shifted_exactness,
    vanishing,
)
from fcrystal.vfilt import KummerSections
from kummer_dicts import as_dict, from_dict

F25 = make_field(5, 2)
F5 = make_field(5, 1)
WINDOW = (-1, 1)


def lvl(num, den):
    return {"num": num, "den": den}


def moved(ctx, x, s):
    """The Kummer section x with every exponent moved by s."""
    return from_dict(ctx, {e + s: v for e, v in as_dict(x).items()})


class ShortTPower(KummerSections):
    """t^k lands one cover step short: s^(d*k - 1)."""

    def mul_t_pow(self, x, k):
        return moved(self.ctx, x, self.d * k - 1)


class LowFrobenius(KummerSections):
    """Frobenius lands one cover step below p*e."""

    def apply_F(self, x):
        return moved(self.ctx, super().apply_F(x), -1)


class LongT(KummerSections):
    """t multiplies by s^(d+1)."""

    def mul_t(self, x):
        return moved(self.ctx, x, self.d + 1)


class WrongPreimage(KummerVFilt):
    """A t-preimage one cover step too deep: s^(-d-1)."""

    def t_preimage(self, y):
        return moved(self.module.ctx, y, -self.d - 1)


class PreimageWrongAtOneStep(KummerVFilt):
    """The t-preimage of a section at level 1/d lands one cover step too
    deep; every other preimage is right."""

    def t_preimage(self, y):
        pre = super().t_preimage(y)
        return moved(self.module.ctx, pre, -1) if self.ilevel(y) == 1 else pre


def twice(spec, key, x):
    ctx = spec.module.ctx
    two = ctx.from_int(2)
    return ("2*", key), from_dict(ctx, {e: tuple(ctx.mul(two, c) for c in v) for e, v in as_dict(x).items()})


class Renamed(KummerVFilt):
    """Names the sections the mutant families add: the key "0", and
    ("2*", key) for twice the section under key."""

    def section_label(self, key):
        if key == "0":
            return key
        if key[0] == "2*":
            return "2*" + super().section_label(key[1])
        return super().section_label(key)


class ExtraSection(Renamed):
    """The spanning family plus 2 times its last section."""

    def spanning(self, window):
        sections = list(super().spanning(window))
        yield from sections
        yield twice(self, *sections[-1])


class DoubledLevelZero(Renamed):
    """The spanning family with its level-0 section doubled: still a
    spanning family, but that section is no generator."""

    def spanning(self, window):
        for key, x in super().spanning(window):
            yield twice(self, key, x) if self.ilevel(x) == 0 else (key, x)


class ZeroSection(Renamed):
    """The spanning family with the zero section in front."""

    def spanning(self, window):
        yield "0", self.module.zero()
        yield from super().spanning(window)


class ShallowIdeal(ExtensionModule):
    """t^k multiplies by t^(k-1) only."""

    def mul_t_pow(self, sec, k):
        return super().mul_t_pow(sec, k - 1)


class DeltaDeeper(ExtensionVFilt):
    """The delta sections (0, g) one level deeper; the rest as it was."""

    def ilevel(self, x):
        n = super().ilevel(x)
        return n if n is None or x[0].v is not None else n + self.den


class SeriesDeeper(ExtensionVFilt):
    """The sections with a series part one level deeper."""

    def ilevel(self, x):
        n = super().ilevel(x)
        return n if n is None or x[0].v is None else n + self.den


def kummer(rep, sections=KummerSections, spec_cls=KummerVFilt):
    kc = build_kummer_crystal(rep, F25)
    spec = spec_cls(kc)
    spec.module = sections(kc)
    return spec


def statuses(report):
    return {name: c.status for name, c in report.checks.items()}


def test_unbroken_specs_pass():
    for rep in (CyclicRep.companion(3, 5), CyclicRep.regular(3, 5)):
        assert check_axioms(kummer(rep), WINDOW).all_pass


def test_a2_fails_by_one_grid_step():
    # u1.0*s^-1 sits at -1/3; t lands on s^1, at 1/3 < -1/3 + 1
    report = check_specializing(kummer(CyclicRep.companion(3, 5), ShortTPower), WINDOW)
    assert statuses(report)["A1"] == "pass"
    a2 = report.checks["A2"]
    assert a2.status == "fail"
    assert a2.witness == {
        "section": "u1.0*s^-1",
        "level": lvl(-1, 3),
        "after": lvl(1, 3),
        "ideal_power": 1,
    }


def test_a1_fails_when_t_powers_stop_short():
    # the weight-0 section u0.0*s^-3 sits at -1; t^2 lands on s^2, at 2/3 < 1
    report = check_specializing(kummer(CyclicRep.regular(3, 5), ShortTPower), WINDOW)
    a1 = report.checks["A1"]
    assert a1.status == "fail"
    assert a1.witness == {
        "section": "u0.0*s^-3",
        "reason": "t^2 failed to push the level past the window top",
    }
    assert report.checks["A2"].witness == {
        "section": "u0.0*s^-3",
        "level": lvl(-1, 1),
        "after": lvl(-1, 3),
        "ideal_power": 1,
    }


def test_a1_pushes_with_t_when_one_power_must_suffice():
    # on [0, 1) the first section u0.0*s^0 sits at 0, so one t-power must
    # clear the top; t lands on s^2, at 2/3 < 1, though t^2 would clear it
    report = check_specializing(kummer(CyclicRep.regular(3, 5), ShortTPower), (0, 1))
    a1 = report.checks["A1"]
    assert a1.status == "fail"
    assert a1.witness == {
        "section": "u0.0*s^0",
        "reason": "t^1 failed to push the level past the window top",
    }
    assert report.checks["A2"].witness == {
        "section": "u0.0*s^0",
        "level": lvl(0, 1),
        "after": lvl(2, 3),
        "ideal_power": 1,
    }


def test_a3_fails_by_one_grid_step():
    # F(u1.0*s^-1) lands on s^-6, at -2 < 5 * (-1/3)
    report = check_axioms(kummer(CyclicRep.companion(3, 5), LowFrobenius), WINDOW)
    assert statuses(report) == {
        "A1": "pass",
        "A2": "pass",
        "A3": "fail",
        "A4": "fail",
        "SS1": "pass",
        "SS2": "pass",
        "SS3": "pass",
    }
    assert report.checks["A3"].witness == {
        "section": "u1.0*s^-1",
        "level": lvl(-1, 3),
        "frobenius_level": lvl(-2, 1),
    }


def test_ss2_fails_on_a_preimage_that_does_not_multiply_back():
    report = check_axioms(kummer(CyclicRep.companion(3, 5), spec_cls=WrongPreimage), WINDOW)
    assert statuses(report) == {
        "A1": "pass",
        "A2": "pass",
        "A3": "pass",
        "A4": "pass",
        "SS1": "pass",
        "SS2": "fail",
        "SS3": "pass",
    }
    assert report.checks["SS2"].witness == {
        "section": "u1.0*s^-1",
        "reason": "t-preimage does not multiply back",
    }


def test_ss2_fails_on_a_preimage_one_step_too_deep():
    # t is s^4 and the preimage s^-4, so u1.0*s^-1 pulls back to s^-5:
    # level -5/3 < -1/3 - 1
    spec = kummer(CyclicRep.companion(3, 5), LongT, WrongPreimage)
    report = check_axioms(spec, WINDOW)
    assert statuses(report)["SS2"] == "fail"
    assert report.checks["SS2"].witness == {
        "section": "u1.0*s^-1",
        "reason": "t-preimage is too deep",
        "preimage_level": lvl(-5, 3),
    }


def test_ss1_fails_on_a_non_generator():
    spec = kummer(CyclicRep.companion(3, 5), spec_cls=ExtraSection)
    report = check_axioms(spec, WINDOW)
    assert statuses(report) == {
        "A1": "pass",
        "A2": "pass",
        "A3": "pass",
        "A4": "pass",
        "SS1": "fail",
        "SS2": "pass",
        "SS3": "pass",
    }
    assert report.checks["A1"].info == {"sections": 5}
    assert report.checks["SS1"].witness == {
        "section": "2*u2.0*s^1",
        "reason": "not a t-power multiple of a generator",
    }


def test_ss2_checks_the_preimage_just_above_level_zero():
    # only u2.0*s^1, at level 1/3, pulls back wrongly: to s^-3, and t
    # multiplies that to s^0
    spec = kummer(CyclicRep.companion(3, 5), spec_cls=PreimageWrongAtOneStep)
    report = check_axioms(spec, WINDOW)
    assert statuses(report) == {
        "A1": "pass",
        "A2": "pass",
        "A3": "pass",
        "A4": "pass",
        "SS1": "pass",
        "SS2": "fail",
        "SS3": "pass",
    }
    assert report.checks["SS2"].witness == {
        "section": "u2.0*s^1",
        "reason": "t-preimage does not multiply back",
    }


def test_ss1_checks_the_sections_at_level_zero():
    # the regular representation has the weight-0 section u0.0*s^0 at
    # level 0; doubled, it is no t-power multiple of a generator
    spec = kummer(CyclicRep.regular(3, 5), spec_cls=DoubledLevelZero)
    report = check_axioms(spec, WINDOW)
    assert statuses(report) == {
        "A1": "pass",
        "A2": "pass",
        "A3": "pass",
        "A4": "pass",
        "SS1": "fail",
        "SS2": "pass",
        "SS3": "pass",
    }
    assert report.checks["A1"].info == {"sections": 6}
    assert report.checks["SS1"].witness == {
        "section": "2*u0.0*s^0",
        "reason": "not a t-power multiple of a generator",
    }


def test_a1_fails_on_a_zero_section_and_the_other_checks_run():
    report = check_axioms(kummer(CyclicRep.companion(3, 5), spec_cls=ZeroSection), WINDOW)
    assert statuses(report) == {
        "A1": "fail",
        "A2": "pass",
        "A3": "pass",
        "A4": "pass",
        "SS1": "pass",
        "SS2": "pass",
        "SS3": "pass",
    }
    assert report.checks["A1"].witness == {"section": "0", "reason": "no finite level on the window"}


def test_extension_a1_a2_fail_on_the_one_over_p_grid():
    # c = t^-2 over F_5: n = 1 and t^i sits at i - 1/5
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    spec = ExtensionVFilt(ShallowIdeal(mod.ctx, mod.c, mod.n, mod.delta_cap), "extension")
    report = check_specializing(spec, WINDOW)
    assert report.checks["A1"].status == "fail"
    assert report.checks["A1"].witness == {
        "section": "t^0",
        "reason": "t^2 failed to push the level past the window top",
    }
    assert report.checks["A2"].status == "fail"
    assert report.checks["A2"].witness == {
        "section": "t^0",
        "level": lvl(-1, 5),
        "after": lvl(-1, 5),
        "ideal_power": 1,
    }
    assert report.checks["A3"].status == "pass"


def test_shifted_exactness_names_the_moved_delta_generator():
    # c = t^-2 over F_5: e_1 reads level 0 instead of -1
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    assert shifted_exactness(mc_vfilt(mod), (-3, 3))["exact"]
    out = shifted_exactness(DeltaDeeper(mod, "extension"), (-3, 3))
    assert (out["sub_matches_delta"], out["quotient_matches_shifted_integers"], out["exact"]) == (False, True, False)
    assert out["witness"] == {"delta": 1, "level": lvl(0, 1)}
    assert out["levels_checked"] == 6


def test_shifted_exactness_names_the_moved_series_exponent():
    # t^-2 sits at -11/5; its best lift reads -6/5
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    out = shifted_exactness(SeriesDeeper(mod, "extension"), (-3, 3))
    assert (out["sub_matches_delta"], out["quotient_matches_shifted_integers"], out["exact"]) == (True, False, False)
    assert out["witness"] == {"series_exp": -2, "level": lvl(-6, 5)}
    assert out["levels_checked"] == 0


def test_vanishing_notes_a_graded_image_with_no_class():
    # t^5 sends u0.0*s^-15 to s^-1, shallower than the target level 0
    van = vanishing(kummer(CyclicRep.regular(3, 5), ShortTPower))
    assert not van.commutes
    assert van.note == "a graded image failed to land in its target piece"
    assert van.t_target is None and van.f_matrix is not None and van.t_source is not None


def test_vanishing_notes_a_square_that_does_not_commute():
    # t sends u0.0*s^-3 to s^1, deeper than level 0: a zero t-map on Gr^-1
    van = vanishing(kummer(CyclicRep.regular(3, 5), LongT))
    assert not van.commutes
    assert van.note == "(t^p) after F differs from F after t"
    assert van.t_source == ((F25.zero,),)

"""Labels are formatted only where they are read.

A label names a basis vector in a serialized graded report, or a
section in a failure witness, and every label is formatted by the
spec's ilabels(n).  graded() keeps no labels: the report asks its spec
for a level's labels when it serializes.  The sweep of A1-A3, SS1 and
SS2 and the section path of compare carry each spanning section under
the key (n, k), basis vector k of the piece at n, and section_label
reads a key's label off ilabels(n) only for a witness.  So a passing
grade and check formats nothing, and every label that is written is
byte for byte the one the spec's piece and spanning family have always
been named by.
The witnesses pinned here were read off the eager code, which formatted
a label for every basis vector and every spanning section.
"""

import gc
import weakref

import pytest

from test_acceptance import PAIRS, WINDOW
from test_graded_memo import _acceptance_crystals

from fcrystal import (
    CyclicRep,
    build_extension,
    build_kummer_crystal,
    check_axioms,
    compare,
    delta_vfilt,
    graded,
    make_field,
    mc_depth_grading,
    mc_vfilt,
    parse_series,
    pullback_filtration,
    shifted_filtration,
    split_vfilt,
    standard_vfilt,
)
from fcrystal.vfilt import ExtensionVFilt, KummerSections, KummerVFilt, _Reindexed
from kummer_dicts import as_dict, from_dict

F25 = make_field(5, 2)
F5 = make_field(5, 1)
HOOKS = ("ilabels", "section_label")


@pytest.fixture
def formatted(monkeypatch):
    """Counts of the label hooks' calls, by hook name.  section_label's
    call of ilabels counts too, and so does a reindexed spec's call of
    its base's hook."""
    counts = dict.fromkeys(HOOKS, 0)
    for cls in (KummerVFilt, ExtensionVFilt, _Reindexed):
        for name in HOOKS:

            def counted(self, arg, _fn=getattr(cls, name), _name=name):
                counts[_name] += 1
                return _fn(self, arg)

            monkeypatch.setattr(cls, name, counted)
    return counts


def _passing_specs():
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    specs = [(f"p{p}-d{d}", standard_vfilt(_acceptance_crystals(p, d)[2]), WINDOW) for p, d in PAIRS]
    return specs + [("mc_vfilt-t^-2", mc_vfilt(mod), (-64, 0))]


def test_a_passing_grade_and_check_formats_no_label(formatted):
    for name, spec, window in _passing_specs():
        assert all(type(key) is tuple for key, _ in spec.spanning(window)), name
        rep = graded(spec, window)
        assert check_axioms(spec, window, graded_report=rep).all_pass, name
        assert rep.levels and formatted == dict.fromkeys(HOOKS, 0), name
        # serializing asks for each level's labels once
        labels = [level["labels"] for level in rep.to_json(spec)["levels"]]
        assert formatted["ilabels"] == len(rep.levels), name
        assert [len(x) for x in labels] == [gl.dim for gl in rep.levels], name
        formatted.update(dict.fromkeys(HOOKS, 0))


def test_the_report_keeps_neither_its_spec_nor_the_memo():
    kc = _acceptance_crystals(7, 6)[0]
    spec = standard_vfilt(kc)
    rep = graded(spec, (-4, 4))
    assert spec._coords and spec.module._frob
    want = rep.to_json(spec)
    gone = weakref.ref(spec), weakref.ref(spec.module)
    del spec
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    assert rep.to_json(standard_vfilt(kc)) == want


def test_a_report_refuses_a_spec_with_other_pieces():
    """to_json reads each level's labels off the spec it is given, so a
    spec whose piece at a level has another dimension is the wrong one."""
    rep = graded(standard_vfilt(build_kummer_crystal(CyclicRep.regular(3, 5), F25)), (-2, 2))
    for rep2 in (CyclicRep.companion(3, 5), CyclicRep.trivial(3, 5, 3)):
        with pytest.raises(ValueError, match="labels for the 1-dimensional piece at -6/3"):
            rep.to_json(standard_vfilt(build_kummer_crystal(rep2, F25)))
    with pytest.raises(ValueError, match="labels for the"):
        rep.to_json(mc_vfilt(build_extension(F25, parse_series(F25, "t^-2"))))


def test_labels_name_the_pieces_and_spanning_sections():
    kc = build_kummer_crystal(CyclicRep.regular(3, 5), F25)
    spec = standard_vfilt(kc)
    assert [spec.ilabels(n) for n in range(-3, 3)] == [
        ["u0.0*s^-3"], ["u2.0*s^-2"], ["u1.0*s^-1"], ["u0.0*s^0"], ["u2.0*s^1"], ["u1.0*s^2"]
    ]
    assert spec.ilabels(1) == ["u2.0*s^1"]
    spanning = list(spec.spanning((0, 1)))
    assert [key for key, _ in spanning] == [(0, 0), (2, 0), (1, 0)]
    assert [spec.section_label(key) for key, _ in spanning] == ["u0.0*s^0", "u1.0*s^2", "u2.0*s^1"]
    for view in (shifted_filtration(spec, 1), pullback_filtration(spec, 2)):
        assert [view.ilabels(n) for n in view.ijumps((0, 1))] == [
            spec.ilabels(n + view._step) for n in view.ijumps((0, 1))
        ]
    cases = {
        mc_vfilt(build_extension(F5, parse_series(F5, "t^-2"))): {-1: ["t^0"], -5: ["e_1"], -11: ["t^-2"], 0: []},
        mc_depth_grading(build_extension(F5, parse_series(F5, "t^-6"))): {-1: ["x_0"], -6: ["x_-1"], -10: ["e_2"]},
        split_vfilt(build_extension(F5, parse_series(F5, "0"))): {-10: ["t^-2", "e_2"], 0: ["t^0"]},
        delta_vfilt(F5): {-5: ["e_1"], 0: []},
    }
    for spec, want in cases.items():
        assert {n: spec.ilabels(n) for n in want} == want, spec.rule
        pieces = [(n, spec.ipiece(n)) for n in spec.ijumps((-3, 3))]
        assert [len(spec.ilabels(n)) for n, _ in pieces] == [len(basis) for _, basis in pieces], spec.rule
    spec = split_vfilt(build_extension(F5, parse_series(F5, "0")))
    assert [key for key, _ in spec.spanning((-1, 1))] == [(-5, 0), (0, 0), (-5, 1)]
    assert [spec.section_label(key) for key, _ in spec.spanning((-1, 1))] == ["t^-1", "t^0", "e_1"]


# ---------------------------------------------------------------------------
# witnesses: the same bytes as when every section was named up front


def lvl(num, den):
    return {"num": num, "den": den}


class MovedLevels(KummerVFilt):
    """Weight a's level numerators moved by offsets[a] * d, on every
    exponent or only on those >= start; nothing else changes."""

    def __init__(self, kc, offsets, start=None):
        super().__init__(kc)
        self.offsets, self.start = offsets, start

    def ilevel(self, x):
        if not x:
            return None
        d, start = self.d, self.start
        return min(e + self.offsets.get(-e % d, 0) * d * (start is None or e >= start) for e in as_dict(x))


class Blind(KummerVFilt):
    """No finite level for the sections that lead with one weight."""

    def __init__(self, kc, weight):
        super().__init__(kc)
        self.weight = weight

    def ilevel(self, x):
        return None if x and -min(as_dict(x)) % self.d == self.weight else super().ilevel(x)


class ZeroRow(KummerSections):
    """The spanning section of u2.0 is zero at every exponent."""

    def monomial(self, a, i, e):
        return from_dict(self.ctx, {}) if (a, i) == (2, 0) else super().monomial(a, i, e)


class SeriesDeeper(ExtensionVFilt):
    """Sections with a series part one level deeper, the rest one shallower."""

    def ilevel(self, x):
        n = super().ilevel(x)
        if n is None:
            return None
        return n + self.den if x[0].valuation() is not None else n - self.den


def section_witnesses(report):
    return {name: c.witness for name, c in report.checks.items() if name not in ("A4", "SS3") and c.witness}


KC = build_kummer_crystal(CyclicRep.regular(3, 5), F25)
MOD = build_extension(F5, parse_series(F5, "t^-2"))


def test_a_zero_spanning_section_is_named_in_a1():
    spec = KummerVFilt(KC)
    spec.module = ZeroRow(KC)
    report = check_axioms(spec, (-2, 2))
    assert section_witnesses(report) == {
        "A1": {"section": "u2.0*s^-5", "reason": "no finite level on the window"}
    }


@pytest.mark.parametrize(
    "offsets, start, want",
    [
        (
            {1: 1},
            None,
            {
                "A3": {"section": "u1.0*s^-4", "level": lvl(-1, 3), "frobenius_level": lvl(-20, 3)},
                "SS1": {"section": "u1.0*s^-1", "reason": "not a t-power multiple of a generator"},
            },
        ),
        (
            {0: 1},
            None,
            {
                "A3": {"section": "u0.0*s^-6", "level": lvl(-1, 1), "frobenius_level": lvl(-9, 1)},
                "SS1": {"section": "u0.0*s^-3", "reason": "not a t-power multiple of a generator"},
            },
        ),
        (
            {2: -1},
            None,
            {
                "A3": {"section": "u1.0*s^-4", "level": lvl(-4, 3), "frobenius_level": lvl(-23, 3)},
                "SS1": {"section": "u2.0*s^4", "reason": "not a t-power multiple of a generator"},
            },
        ),
        (
            {1: -1},
            0,
            {
                "A2": {"section": "u1.0*s^-1", "level": lvl(-1, 3), "after": lvl(-1, 3), "ideal_power": 1},
                "A3": {"section": "u2.0*s^1", "level": lvl(1, 3), "frobenius_level": lvl(2, 3)},
                "SS1": {"section": "u1.0*s^5", "reason": "not a t-power multiple of a generator"},
                "SS2": {"section": "u1.0*s^-1", "reason": "t does not raise the level"},
            },
        ),
        (
            {0: 2},
            0,
            {
                "A3": {"section": "u0.0*s^0", "level": lvl(2, 1), "frobenius_level": lvl(2, 1)},
                "SS1": {"section": "u0.0*s^0", "reason": "not a t-power multiple of a generator"},
                "SS2": {"section": "u0.0*s^0", "reason": "t-preimage is too deep", "preimage_level": lvl(-1, 1)},
            },
        ),
    ],
    ids=["w1+1", "w0+1", "w2-1", "w1-1-from-0", "w0+2-from-0"],
)
def test_one_weight_moved_by_k_d_names_the_same_sections(formatted, offsets, start, want):
    report = check_axioms(MovedLevels(KC, offsets, start), (-2, 2))
    assert section_witnesses(report) == want
    assert formatted == {"ilabels": len(want), "section_label": len(want)}


def test_extension_witnesses_name_the_same_sections():
    report = check_axioms(SeriesDeeper(MOD, "extension"), (-3, 3))
    assert section_witnesses(report) == {
        "A3": {"section": "t^-2", "level": lvl(-6, 5), "frobenius_level": lvl(-10, 1)},
        "SS1": {"section": "t^0", "reason": "not a t-power multiple of a generator"},
    }


def test_compare_names_the_same_sections(formatted):
    one_side = {"verdict": "incomparable", "witness": {"section": None, "reason": "finite level on one side only"}}
    assert compare(KummerVFilt(KC), Blind(KC, 1), (-2, 2)) == {
        **one_side, "witness": {**one_side["witness"], "section": "u1.0*s^-4"}
    }
    assert compare(Blind(KC, 0), KummerVFilt(KC), (-2, 2)) == {
        **one_side, "witness": {**one_side["witness"], "section": "u0.0*s^-6"}
    }
    assert compare(KummerVFilt(KC), MovedLevels(KC, {1: 1, 2: -1}), (-2, 2)) == {
        "verdict": "incomparable",
        "witness": {
            "deeper_in_first": {"section": "u2.0*s^-5", "levels": [lvl(-5, 3), lvl(-8, 3)]},
            "deeper_in_second": {"section": "u1.0*s^-4", "levels": [lvl(-4, 3), lvl(-1, 3)]},
        },
    }
    assert compare(mc_vfilt(MOD), SeriesDeeper(MOD, "extension"), (-3, 3)) == {
        "verdict": "incomparable",
        "witness": {
            "deeper_in_first": {"section": "e_3", "levels": [lvl(-3, 1), lvl(-4, 1)]},
            "deeper_in_second": {"section": "t^-2", "levels": [lvl(-11, 5), lvl(-6, 5)]},
        },
    }
    assert formatted == {"ilabels": 6, "section_label": 6}
    assert compare(KummerVFilt(KC), shifted_filtration(KummerVFilt(KC), 1), (-2, 2))["verdict"] == "reverse-contained"
    assert formatted == {"ilabels": 6, "section_label": 6}

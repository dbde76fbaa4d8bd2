"""The extension family's shortcuts against the dict reference, end to end.

Sections of an extension module are pairs of canonical series, and the
module and its filtration take shortcuts on them: Frobenius multiplies
by the twist c through a monomial product that scales and shifts c's
terms, t-powers of the delta part keep a prefix of its terms, the
t-preimage shifts a valuation, and a level coordinate is a leading
coefficient.  Each of apply_F, mul_t, mul_t_pow, t_preimage and
_level_coords is wrapped here so that every call that graded(), the
spanning sweep and the checkers make on the 16 extension specs over
(-16, 16) is compared with the dict algorithms of series_dicts:
(f^p, [t f^p c] + g^p), (t^k f, [t^k g]), (f/t, g/t) and the rewritten
coefficients read at the series exponent and the delta index.  Every
section of the sweep also goes through each map once, so a checker that
stops at its first witness does not hide the sections after it, and the
sum of every two of them is read at its level.
"""

from collections import Counter

import pytest

import series_dicts
from test_graded_memo import EXTENSION_SPECS

from fcrystal import check_axioms, graded
from fcrystal.crystal import ExtensionModule
from fcrystal.vfilt import ExtensionVFilt, _sweep

WINDOW = (-16, 16)


def _section(x):
    assert all(series_dicts.is_canonical(s) for s in x)
    return series_dicts.section_dicts(x)


def _check_apply_F(mod, out, x):
    assert _section(out) == series_dicts.apply_F(mod, _section(x))


def _check_mul_t(mod, out, x):
    assert _section(out) == series_dicts.mul_t_pow(_section(x), 1)


def _check_mul_t_pow(mod, out, x, k):
    assert _section(out) == series_dicts.mul_t_pow(_section(x), k)


def _check_t_preimage(spec, out, y):
    assert _section(out) == series_dicts.t_preimage(_section(y))


def _check_level_coords(spec, out, images, n):
    assert out == series_dicts.level_coords(spec, images, n)


CHECKED = (
    (ExtensionModule, "apply_F", _check_apply_F),
    (ExtensionModule, "mul_t", _check_mul_t),
    (ExtensionModule, "mul_t_pow", _check_mul_t_pow),
    (ExtensionVFilt, "t_preimage", _check_t_preimage),
    (ExtensionVFilt, "_level_coords", _check_level_coords),
)


@pytest.fixture
def calls(monkeypatch):
    """Each shortcut checked against the reference on every call; the
    counter gives the calls per shortcut."""
    seen = Counter()
    for cls, name, check in CHECKED:

        def wrapper(self, *args, _orig=getattr(cls, name), _check=check, _name=name):
            out = _orig(self, *args)
            _check(self, out, *args)
            seen[_name] += 1
            return out

        monkeypatch.setattr(cls, name, wrapper)
    return seen


@pytest.mark.parametrize("name", sorted(EXTENSION_SPECS))
def test_shortcuts_match_the_dict_reference(name, calls):
    spec = EXTENSION_SPECS[name]
    mod = spec.module
    report = graded(spec, WINDOW)
    check_axioms(spec, WINDOW, graded_report=report)
    sweep = _sweep(spec, WINDOW)
    for _, x, _ in sweep:
        mod.apply_F(x)
        mod.mul_t(x)
        for k in (-3, 2):
            mod.mul_t_pow(x, k)
        spec.t_preimage(x)
    # sums of two sweep sections, read at their level: there one part
    # may start above the level the other part sets
    for i, (_, x, _) in enumerate(sweep):
        for _, y, _ in sweep[i + 1 :]:
            s = mod.add(x, y)
            lvl = spec.ilevel(s)
            if lvl is not None:
                spec._level_coords([s], lvl)
    assert len(EXTENSION_SPECS) == 16 and sweep and report.levels
    assert set(calls) == {name for _, name, _ in CHECKED}, calls
    assert calls["_level_coords"] > 2 * len(report.levels)

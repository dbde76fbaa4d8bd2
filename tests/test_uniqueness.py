"""Uniqueness as a tested property: A4 tells weight classes apart.

The axioms pin the V-filtration down, so moving any part of it must
break one of them.  Criterion 3 moves every level by the same integer;
here the levels of one weight class, or of one whole p-orbit of weight
classes, move by an integer k while the rest stay.  Weight a's
exponents then sit k_a * d numerators deeper, and the graded Frobenius
from the piece of weight a at n lands at p*n only when k_(pa) = p * k_a;
along an orbit of length L that forces k_a * (p^L - 1) = 0.  So A4 must
fail at exactly the levels whose weight breaks that relation, for every
perturbation, and pass everywhere when nothing moves.

The extension family has one free parameter: the series generator at
exponent i sits at numerator i*p - shift_num over p, and the delta
generators sit at the negative integers.  Moving shift_num by j moves
every series level by -j/p and leaves the delta levels alone, so A4
must fail, and only at levels that hold a moved series generator, on
windows off the positive levels (criterion 8 expects the canonical
extension spec itself to fail A4 there).
"""

import pytest

from test_acceptance import PAIRS

from fcrystal import (
    CyclicRep,
    ExtensionVFilt,
    build_extension,
    build_kummer_crystal,
    check_axioms,
    make_field,
    parse_series,
)
from fcrystal.cli import resolve_m
from fcrystal.vfilt import KummerVFilt
from kummer_dicts import as_dict, from_dict

WINDOW = (-6, 6)
MOVES = (-2, -1, 1, 2)


class MovedWeights(KummerVFilt):
    """The standard filtration with weight a's levels moved by the integer
    offsets[a]: a section's level numerator is the least e + offsets[a]*d
    over its exponents e of weight a.  The piece at n is the standard
    piece of n's weight at the exponent n - offsets[a]*d."""

    def __init__(self, kc, offsets):
        super().__init__(kc)
        self.offsets = offsets

    def _step(self, e):
        return self.offsets.get(-e % self.d, 0) * self.d

    def _moved(self, x):
        return from_dict(self.module.ctx, {e + self._step(e): v for e, v in as_dict(x).items()})

    def ilevel(self, x):
        return super().ilevel(self._moved(x))

    def ipiece(self, n):
        return super().ipiece(n - self._step(n))

    def ilabels(self, n):
        return super().ilabels(n - self._step(n))

    def _level_coords(self, images, n):
        return super()._level_coords([self._moved(y) for y in images], n)


def _orbits(p, d):
    """The orbits of multiplication by p on the weights mod d."""
    seen, out = set(), []
    for a in range(d):
        if a not in seen:
            orbit = [a]
            while p * orbit[-1] % d != a:
                orbit.append(p * orbit[-1] % d)
            seen.update(orbit)
            out.append(tuple(orbit))
    return out


def _crystal(p, d):
    return build_kummer_crystal(CyclicRep.regular(d, p), make_field(p, resolve_m(p, d, None)))


@pytest.mark.parametrize("pair", PAIRS, ids=[f"p{p}-d{d}" for p, d in PAIRS])
def test_every_moved_weight_class_fails_a4_where_it_moved(pair):
    p, d = pair
    kc = _crystal(p, d)
    assert sorted(kc.dims) == list(range(d))
    for spec in (KummerVFilt(kc), MovedWeights(kc, {})):
        assert check_axioms(spec, WINDOW).all_pass
    moves = [(a,) for a in range(d)] + [orbit for orbit in _orbits(p, d) if len(orbit) > 1]
    for weights in moves:
        for k in MOVES:
            offsets = dict.fromkeys(weights, k)
            spec = MovedWeights(kc, offsets)
            a4 = check_axioms(spec, WINDOW).checks["A4"]
            assert a4.status == "fail", (p, d, offsets)
            broken = {
                a for a in range(d) if offsets.get(p * a % d, 0) != p * offsets.get(a, 0)
            }
            assert broken, (p, d, offsets)
            failed = {n for n, status, _ in a4.levels if status == "fail"}
            assert failed == {n for n, _, _ in a4.levels if -n % d in broken}, (p, d, offsets)
            witness = a4.witness["level"]
            assert witness["num"] * d % witness["den"] == 0
            n = witness["num"] * d // witness["den"]
            a = -n % d
            assert n == min(failed) and (a in weights or p * a % d in weights), (p, d, offsets)


EXTENSION_WINDOW = (-6, 0)


def _extension_cases():
    """(rule, field, twist) for each rule, over F_3, F_5 and F_7: pole
    twists t^-k with p not dividing k - 1 and two mixed ones for the
    extension rule, t^-(l*p + 1) with l prime to p for depth-grading, and
    0 for split."""
    out = []
    for p in (3, 5, 7):
        ctx = make_field(p, 1)
        out += [("extension", ctx, f"t^-{k}") for k in range(2, 7) if (k - 1) % p]
        out += [("depth-grading", ctx, f"t^-{l * p + 1}") for l in (1, 2) if l % p]
        out.append(("split", ctx, "0"))
    out.append(("extension", make_field(3, 1), "t^-3+2t^-1"))
    out.append(("extension", make_field(7, 1), "2t^-10+t^-1+3t^2"))
    return out


EXTENSION_CASES = _extension_cases()


@pytest.mark.parametrize("rule", ("extension", "depth-grading", "split"))
def test_every_moved_extension_shift_fails_a4_at_a_moved_level(rule):
    cases = [(ctx, c) for r, ctx, c in EXTENSION_CASES if r == rule]
    assert len(cases) >= 3
    for ctx, c in cases:
        p = ctx.p
        mod = build_extension(ctx, parse_series(ctx, c))
        assert check_axioms(ExtensionVFilt(mod, rule), EXTENSION_WINDOW).all_pass, (p, c)
        for j in range(-2 * p, 2 * p + 1):
            if j == 0:
                continue
            spec = ExtensionVFilt(mod, rule)
            spec.shift_num += j
            a4 = check_axioms(spec, EXTENSION_WINDOW).checks["A4"]
            assert a4.status == "fail", (p, c, j)
            failed = [n for n, status, _ in a4.levels if status == "fail"]
            # only the levels holding a moved series generator fail
            assert all(spec._parts(n)[0] is not None for n in failed), (p, c, j, failed)
            witness = a4.witness["level"]
            assert p % witness["den"] == 0
            assert witness["num"] * (p // witness["den"]) == failed[0], (p, c, j)

"""Rational-level filtrations, graded pieces, and the axiom checkers.

A FiltrationSpec assigns every section x a level: the largest r with
x in V^r (None for the zero section, read as +infinity).  Levels jump
along a discrete set of rationals; each jump carries an explicit
graded basis, and images of sections can be expressed exactly in that
basis.  Graded coordinates are slice-exact: a section at level r can
differ from its graded part only on the one slice of exponents that
sits at r, so each spec reads the coordinates off that slice and checks
them there exactly; the remainder then lies strictly deeper than r, and
coordinates are never guessed.

The checkers turn the defining conditions into finite, window-relative
computations over a level range [lo, hi):

  A1  every spanning section has a finite level, and repeated
      t-multiplication pushes levels past the window top;
  A2  multiplying by the depth-th power of the uniformizer ideal
      raises levels by at least 1 (depth 0 is checked as depth 1);
  A3  Frobenius multiplies levels by at least p;
  A4  the induced Frobenius map on each nonzero graded piece is a
      bijection onto the graded piece at p times the level;
  SS1 V^0 is generated over the regular functions by the in-window
      graded bases at levels in [0, 1);
  SS2 t V^i = V^(i+1) away from i = -1 (both inclusions);
  SS3 t-multiplication is a graded bijection away from level -1,
      where the delta generator e_1 |-> 0 is the recorded exception.

Failures always carry a witness.  Reports are plain data, serialized
with exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import linalg
from .crystal import DeltaElement, ExtensionModule, KummerCrystal, build_extension
from .errors import InvalidInputError
from .series import LaurentSeries, level_json

Window = tuple


def _ge(level, bound) -> bool:
    """level >= bound with None = +infinity."""
    return level is None or level >= bound


# ---------------------------------------------------------------------------
# sections
#
# A spec's module provides ctx, kind, apply_F, mul_t, mul_t_pow and eq.
# ExtensionModule provides them itself (and add, which shifted_exactness
# uses); Kummer crystals go through KummerSections.


class KummerSections:
    """Sparse sections on the cover: {exponent e: length-r vector over F_q}.

    A section sum_e v_e s^e is the dict of its nonzero coefficient
    vectors.  No zero vector is ever stored, so {} is the zero section,
    dict equality is section equality and min(x) is the valuation.
    """

    def __init__(self, kc: KummerCrystal):
        self.kc = kc
        self.ctx = kc.ctx
        self.rank = kc.rank
        self.d = kc.d
        self.kind = ("kummer", kc.d, kc.rank, id(kc.ctx))
        self.zero_vector = (kc.ctx.zero,) * kc.rank

    def zero(self):
        return {}

    def monomial(self, a: int, i: int, e: int):
        return {e: self.kc.bases[a][0][i]}

    def apply_F(self, x):
        p, frob = self.ctx.p, self.ctx.frob
        return {p * e: tuple(map(frob, v)) for e, v in x.items()}

    def mul_t(self, x):
        return {e + self.d: v for e, v in x.items()}

    def mul_t_pow(self, x, k: int):
        return {e + self.d * k: v for e, v in x.items()}

    def eq(self, x, y) -> bool:
        return x == y

    def valuation(self, x):
        return min(x) if x else None

    def slice(self, x, e: int):
        return x.get(e, self.zero_vector)


# ---------------------------------------------------------------------------
# filtration specs


class FiltrationSpec:
    rule = "abstract"
    default_depth = 0
    ideal_name = "t"
    ideal_den = 1  # one ideal power raises levels by 1/ideal_den

    def level(self, x):
        raise NotImplementedError

    def jumps(self, window):
        raise NotImplementedError

    def dim_at(self, r) -> int:
        raise NotImplementedError

    def graded_basis(self, r):
        raise NotImplementedError

    def graded_labels(self, r):
        raise NotImplementedError

    def _raw_coords(self, x, r):
        """Coordinates of x in graded_basis(r), given level(x) == r.

        Slice-exact: returns coordinates c only when x - sum(c_i * b_i)
        lies strictly deeper than r, else None.
        """
        raise NotImplementedError

    def spanning(self, window):
        raise NotImplementedError

    def family(self, window):
        raise NotImplementedError

    def t_preimage(self, y):
        return None

    def mul_ideal(self, x, power: int):
        return self.module.mul_t_pow(x, power)

    def graded_coords(self, x, r):
        """Coordinates of the class of x in Gr^r, or None.

        None means the class genuinely fails to land in the given
        graded basis (level too shallow, or a leading part outside the
        basis span).  At level r itself the answer is _raw_coords, whose
        slice-exact contract puts the remainder x - sum(coords * basis)
        strictly deeper than r.
        """
        lvl = self.level(x)
        if lvl is None or lvl > r:
            return [self.module.ctx.zero] * self.dim_at(r)
        if lvl < r:
            return None
        return self._raw_coords(x, r)

    def to_json(self):
        return {"rule": self.rule}


def _int_range_for(frac: Fraction, window) -> range:
    lo, hi = window
    start = math.ceil(Fraction(lo) - frac)
    stop = math.ceil(Fraction(hi) - frac)
    return range(start, stop)


class KummerVFilt(FiltrationSpec):
    """Standard filtration: level = cover valuation / cover degree."""

    rule = "standard"

    def __init__(self, kc: KummerCrystal):
        self.kc = kc
        self.module = KummerSections(kc)
        self.d = kc.d
        self.frac_of = {a: Fraction(kc.shifts[a], kc.d) for a in kc.dims}
        self.weight_of = {fr: a for a, fr in self.frac_of.items()}

    def level(self, x):
        v = self.module.valuation(x)
        return None if v is None else Fraction(v, self.d)

    def jumps(self, window):
        out = []
        for fr in self.weight_of:
            out.extend(fr + k for k in _int_range_for(fr, window))
        return sorted(out)

    def _weight_exp(self, r):
        """(weight, cover exponent e = r*d) at level r, in integers.

        The weight is None when no graded piece sits at r; both are None
        when r is off the 1/d grid.
        """
        e, rem = divmod(r.numerator * self.d, r.denominator)
        if rem:
            return None, None
        return self.kc.weight_of_shift(e), e

    def dim_at(self, r) -> int:
        a, _ = self._weight_exp(r)
        return self.kc.dims[a] if a is not None else 0

    def graded_basis(self, r):
        a, e = self._weight_exp(r)
        if a is None:
            return []
        return [self.module.monomial(a, i, e) for i in range(self.kc.dims[a])]

    def graded_labels(self, r):
        a, e = self._weight_exp(r)
        if a is None:
            return []
        return [f"u{a}.{i}*s^{e}" for i in range(self.kc.dims[a])]

    def _raw_coords(self, x, r):
        """The basis at r is the monomials u_(a,i) s^e at the single
        exponent e = r*d; linalg.express checks the slice of x at e
        against them exactly, and every other exponent of x is above e."""
        a, e = self._weight_exp(r)
        if e is None:
            return None
        if a is None:
            return [] if e not in x else None
        rows, piv = self.kc.bases[a]
        return linalg.express(self.module.ctx, rows, piv, self.module.slice(x, e))

    def spanning(self, window):
        for a in sorted(self.frac_of):
            fr = self.frac_of[a]
            for k in _int_range_for(fr, window):
                e = self.kc.shifts[a] + k * self.d
                for i in range(self.kc.dims[a]):
                    yield f"u{a}.{i}*s^{e}", self.module.monomial(a, i, e)

    def family(self, window):
        for a in sorted(self.frac_of):
            fr = self.frac_of[a]
            for k in _int_range_for(fr, window):
                for i in range(self.kc.dims[a]):
                    yield ("w", fr, i, k), fr + k

    def t_preimage(self, y):
        return {e - self.d: v for e, v in y.items()}

    def to_json(self):
        return {
            "rule": self.rule,
            "d": self.d,
            "rank": self.kc.rank,
            "jump_classes": [
                {"level_mod_1": level_json(fr), "dim": self.kc.dims[a]}
                for fr, a in sorted(self.weight_of.items())
            ],
        }


# rule -> (label of the series generator at exponent i, its family key,
# whether the depth rewrite applies); the delta rule has no series part
_EXTENSION_RULES = {
    "extension": ("t^{}", "f", False),
    "split": ("t^{}", "f", False),
    "depth-grading": ("x_{}", "x", True),
    "delta": (None, None, False),
}

# the rules whose delta part and series quotient shifted_exactness reads
EXACTNESS_RULES = ("extension", "split")


class ExtensionVFilt(FiltrationSpec):
    """One filtration for the extension family, picked by rule.

    The series generator at exponent i sits at i - shift and the delta
    generator e_m at -m.  The rules differ only in the shift and in
    what the series generator is:

      extension      non-split, p not dividing n: shift n/p, t^i;
      split          the split extension: shift 0, t^i;
      depth-grading  n = l*p: shift l/p, x_i = (t^i, -[t^(i-l)]);
                     sections are read through the rewrite
                     (f, g) = sum f_i x_i + (0, g') with
                     g' = g + sum_(i<l) f_i e_(l-i);
      delta          the delta module (0, g) alone: no series part.
    """

    def __init__(self, mod: ExtensionModule, rule: str):
        if rule not in _EXTENSION_RULES:
            raise InvalidInputError(f"unknown extension filtration rule {rule!r}")
        self.rule = rule
        self.module = mod
        self.series_label, self.series_key, self.rewrite = _EXTENSION_RULES[rule]
        p = mod.ctx.p
        self.l = mod.n // p if self.rewrite else None
        if rule == "extension":
            self.shift = Fraction(mod.n, p)
        elif self.rewrite:
            self.shift = Fraction(self.l, p)
        else:
            self.shift = Fraction(0)

    def x_section(self, i: int):
        """The series generator at exponent i."""
        ctx = self.module.ctx
        if self.rewrite and i < self.l:
            return (LaurentSeries.monomial(ctx, i), DeltaElement(ctx, {self.l - i: ctx.neg(ctx.one)}))
        return self.module.f_monomial(i)

    def _rewrite(self, x):
        """(f, g'): x in the series generators plus a delta remainder."""
        if not self.rewrite:
            return x
        f, g = x
        ctx = self.module.ctx
        extra = {}
        for i, c in f.coeffs.items():
            if i < self.l:
                m = self.l - i
                extra[m] = ctx.add(extra.get(m, ctx.zero), c)
        return f, g.add(DeltaElement(ctx, extra))

    def _parts(self, r):
        """(series exponent or None, delta index or None) at level r."""
        i = r + self.shift
        series = i.numerator if self.series_label and i.denominator == 1 else None
        delta = -r.numerator if r.denominator == 1 and r.numerator <= -1 else None
        return series, delta

    def level(self, x):
        f, g = self._rewrite(x)
        v = f.valuation() if self.series_label else None
        ms = g.max_support()
        if v is None:
            return None if ms is None else Fraction(-ms)
        lvl = v - self.shift
        return lvl if ms is None else min(lvl, Fraction(-ms))

    def jumps(self, window):
        lo, hi = window
        out = {Fraction(mneg) for mneg in range(lo, min(hi, 0))}
        if self.series_label:
            out.update(i - self.shift for i in _int_range_for(-self.shift, window))
        return sorted(out)

    def dim_at(self, r) -> int:
        series, delta = self._parts(r)
        return (series is not None) + (delta is not None)

    def graded_basis(self, r):
        series, delta = self._parts(r)
        out = [] if series is None else [self.x_section(series)]
        if delta is not None:
            out.append(self.module.delta_monomial(delta))
        return out

    def graded_labels(self, r):
        series, delta = self._parts(r)
        out = [] if series is None else [self.series_label.format(series)]
        if delta is not None:
            out.append(f"e_{delta}")
        return out

    def _raw_coords(self, x, r):
        """After the rewrite each x_i reads (t^i, 0), so the coefficients
        at the one series exponent and the one delta index are the
        coordinates; every other term of x already sits above r."""
        series, delta = self._parts(r)
        if series is None and delta is None:
            return None
        f, g = self._rewrite(x)
        zero = self.module.ctx.zero
        out = [] if series is None else [f.coeffs.get(series, zero)]
        if delta is not None:
            out.append(g.coeffs.get(delta, zero))
        return out

    def spanning(self, window):
        lo, hi = window
        if self.series_label:
            for i in _int_range_for(-self.shift, window):
                yield self.series_label.format(i), self.x_section(i)
        for mneg in range(lo, min(hi, 0)):
            yield f"e_{-mneg}", self.module.delta_monomial(-mneg)

    def family(self, window):
        lo, hi = window
        if self.series_label:
            for i in _int_range_for(-self.shift, window):
                yield (self.series_key, i), i - self.shift
        for mneg in range(lo, min(hi, 0)):
            yield ("dl", -mneg), Fraction(mneg)

    def t_preimage(self, y):
        f, g = y
        return (f.shift(-1), g.shift_up(1))

    def to_json(self):
        out = {"rule": self.rule}
        if self.rule == "extension":
            out.update(n=self.module.n, series_levels="Z - n/p", delta_levels="Z_{<=-1}")
        elif self.rewrite:
            out.update(n=self.module.n, l=self.l)
        if self.series_label:
            out["shift"] = level_json(-self.shift)
        return out


class ShiftedVFilt(FiltrationSpec):
    """The same filtration read offset steps deeper: level - offset."""

    rule = "shifted"

    def __init__(self, base: FiltrationSpec, offset: int):
        if offset == 0:
            raise InvalidInputError("offset 0 is the identity; use the base spec")
        self.base = base
        self.offset = offset
        self.module = base.module
        self.default_depth = base.default_depth
        self.ideal_name = base.ideal_name
        self.ideal_den = base.ideal_den

    def _shift_window(self, window):
        lo, hi = window
        return (lo + self.offset, hi + self.offset)

    def level(self, x):
        lvl = self.base.level(x)
        return None if lvl is None else lvl - self.offset

    def jumps(self, window):
        return [r - self.offset for r in self.base.jumps(self._shift_window(window))]

    def dim_at(self, r) -> int:
        return self.base.dim_at(r + self.offset)

    def graded_basis(self, r):
        return self.base.graded_basis(r + self.offset)

    def graded_labels(self, r):
        return self.base.graded_labels(r + self.offset)

    def _raw_coords(self, x, r):
        """The base spec's, at the base level r + offset."""
        return self.base._raw_coords(x, r + self.offset)

    def spanning(self, window):
        return self.base.spanning(self._shift_window(window))

    def family(self, window):
        for key, lvl in self.base.family(self._shift_window(window)):
            yield key, lvl - self.offset

    def t_preimage(self, y):
        return self.base.t_preimage(y)

    def mul_ideal(self, x, power: int):
        return self.base.mul_ideal(x, power)

    def to_json(self):
        return {"rule": self.rule, "offset": self.offset, "base": self.base.to_json()}


class PullbackVFilt(FiltrationSpec):
    """Reindex along a fresh degree-d' cover s^(d') = t.

    Levels are untouched; the uniformizer ideal becomes (s), whose
    single power raises levels by 1/d', and the recorded depth is
    d' * max(base depth, 1).  Concrete s-multiplication is available
    for powers divisible by d' (that is, honest t-powers); the A2
    check only ever needs those.
    """

    rule = "pullback"

    def __init__(self, base: FiltrationSpec, dprime: int):
        p = base.module.ctx.p
        if dprime < 1:
            raise InvalidInputError(f"cover degree {dprime} must be >= 1")
        if dprime % p == 0:
            raise InvalidInputError(f"cover degree {dprime} must be prime to p={p}")
        self.base = base
        self.dprime = dprime
        self.module = base.module
        self.default_depth = dprime * max(base.default_depth, 1)
        self.ideal_name = "s"
        self.ideal_den = dprime

    def level(self, x):
        return self.base.level(x)

    def jumps(self, window):
        return self.base.jumps(window)

    def dim_at(self, r) -> int:
        return self.base.dim_at(r)

    def graded_basis(self, r):
        return self.base.graded_basis(r)

    def graded_labels(self, r):
        return self.base.graded_labels(r)

    def _raw_coords(self, x, r):
        """The base spec's: levels are untouched."""
        return self.base._raw_coords(x, r)

    def spanning(self, window):
        return self.base.spanning(window)

    def family(self, window):
        for key, lvl in self.base.family(window):
            yield ("pb", self.dprime, key), lvl

    def t_preimage(self, y):
        return self.base.t_preimage(y)

    def mul_ideal(self, x, power: int):
        if power % self.dprime:
            raise InvalidInputError(
                f"s-power {power} is not a t-power (d'={self.dprime}); only level arithmetic exists for it"
            )
        return self.base.mul_ideal(x, power // self.dprime)

    def to_json(self):
        return {
            "rule": self.rule,
            "dprime": self.dprime,
            "uniformizer": "s",
            "relation": f"s^{self.dprime} = t",
            "depth": self.default_depth,
            "base": self.base.to_json(),
        }


# ---------------------------------------------------------------------------
# construction entry points


def standard_vfilt(kc: KummerCrystal) -> KummerVFilt:
    """The canonical filtration of a Kummer crystal."""
    return KummerVFilt(kc)


def mc_vfilt(mod: ExtensionModule) -> ExtensionVFilt:
    """The canonical filtration of a non-split extension, p not dividing n."""
    if mod.split:
        raise InvalidInputError("split extension: use split_vfilt")
    if mod.n % mod.ctx.p == 0:
        raise InvalidInputError(
            f"n={mod.n} is divisible by p={mod.ctx.p}: use mc_depth_grading"
        )
    return ExtensionVFilt(mod, "extension")


def split_vfilt(mod: ExtensionModule) -> ExtensionVFilt:
    """Direct-sum filtration of the split extension: integer levels."""
    if not mod.split:
        raise InvalidInputError("direct-sum filtration needs the split extension")
    return ExtensionVFilt(mod, "split")


def delta_vfilt(ctx) -> ExtensionVFilt:
    """The delta module with V^i spanned by the e_m, m <= -i."""
    return ExtensionVFilt(build_extension(ctx, LaurentSeries.zero(ctx)), "delta")


def mc_depth_grading(mod: ExtensionModule) -> ExtensionVFilt:
    """The grading for n = l*p with l >= 1 prime to p."""
    if mod.split:
        raise InvalidInputError("split extension has no depth grading")
    p = mod.ctx.p
    if mod.n % p != 0 or mod.n == 0:
        raise InvalidInputError(f"depth grading needs n = l*p, got n={mod.n}")
    if (mod.n // p) % p == 0:
        raise InvalidInputError(f"l = n/p = {mod.n // p} must be prime to p")
    return ExtensionVFilt(mod, "depth-grading")


def shifted_filtration(spec: FiltrationSpec, offset: int) -> ShiftedVFilt:
    return ShiftedVFilt(spec, offset)


def pullback_filtration(spec: FiltrationSpec, dprime: int) -> PullbackVFilt:
    return PullbackVFilt(spec, dprime)


# ---------------------------------------------------------------------------
# graded report


@dataclass
class GradedMap:
    target: Fraction
    target_dim: int
    matrix: object  # tuple rows or None
    invertible: bool
    note: object = None

    def to_json(self):
        return {
            "target": level_json(self.target),
            "target_dim": self.target_dim,
            "matrix": None
            if self.matrix is None
            else [[list(x) for x in row] for row in self.matrix],
            "invertible": self.invertible,
            "note": self.note,
        }


@dataclass
class GradedLevel:
    level: Fraction
    dim: int
    labels: list
    f_map: GradedMap
    t_map: GradedMap

    def to_json(self):
        return {
            "level": level_json(self.level),
            "dim": self.dim,
            "labels": self.labels,
            "frobenius": self.f_map.to_json(),
            "t": self.t_map.to_json(),
        }


@dataclass
class GradedReport:
    window: tuple
    levels: list

    def all_frobenius_invertible(self) -> bool:
        return all(gl.f_map.invertible for gl in self.levels)

    def all_t_invertible(self, skip=(Fraction(-1),)) -> bool:
        return all(gl.t_map.invertible for gl in self.levels if gl.level not in skip)

    def to_json(self):
        return {
            "window": list(self.window),
            "levels": [gl.to_json() for gl in self.levels],
        }


def _graded_map(spec: FiltrationSpec, basis, images, target) -> GradedMap:
    ctx = spec.module.ctx
    tdim = spec.dim_at(target)
    cols = []
    for lbl_idx, y in enumerate(images):
        coords = spec.graded_coords(y, target)
        if coords is None:
            return GradedMap(
                target,
                tdim,
                None,
                False,
                f"image of basis vector {lbl_idx} has no class in the graded piece at the target",
            )
        cols.append(coords)
    matrix = tuple(tuple(cols[j][i] for j in range(len(cols))) for i in range(tdim))
    if tdim != len(basis):
        return GradedMap(
            target, tdim, matrix, False, f"graded pieces have dimensions {len(basis)} != {tdim}"
        )
    inv = linalg.is_invertible(ctx, matrix) if tdim else True
    return GradedMap(target, tdim, matrix, inv, None if inv else "matrix is singular")


def graded_frobenius_map(spec: FiltrationSpec, r) -> GradedMap:
    """Matrix of the induced Frobenius Gr^r -> Gr^(p*r)."""
    basis = spec.graded_basis(r)
    images = [spec.module.apply_F(b) for b in basis]
    return _graded_map(spec, basis, images, spec.module.ctx.p * r)


def graded_t_map(spec: FiltrationSpec, r, power: int = 1) -> GradedMap:
    """Matrix of t^power multiplication Gr^r -> Gr^(r + power)."""
    basis = spec.graded_basis(r)
    images = [spec.module.mul_t_pow(b, power) for b in basis]
    return _graded_map(spec, basis, images, r + power)


def _check_window(window) -> None:
    """Reject an empty window, on which every check would pass vacuously."""
    lo, hi = window
    if lo >= hi:
        raise InvalidInputError(f"empty level window [{lo}, {hi})")


def graded(spec: FiltrationSpec, window) -> GradedReport:
    """Graded pieces on the window with their Frobenius and t maps.

    Every nonzero jump level in [lo, hi) appears with its basis, the
    matrix of the induced Frobenius into the piece at p * level, and
    the matrix of t-multiplication into level + 1.  Targets may fall
    outside the window; sections are exact so the matrices still are.
    """
    _check_window(window)
    p = spec.module.ctx.p
    out = []
    for r in spec.jumps(window):
        basis = spec.graded_basis(r)
        if not basis:
            continue
        f_images = [spec.module.apply_F(b) for b in basis]
        t_images = [spec.module.mul_t(b) for b in basis]
        out.append(
            GradedLevel(
                level=r,
                dim=len(basis),
                labels=spec.graded_labels(r),
                f_map=_graded_map(spec, basis, f_images, p * r),
                t_map=_graded_map(spec, basis, t_images, r + 1),
            )
        )
    return GradedReport(tuple(window), out)


# ---------------------------------------------------------------------------
# axiom checks


@dataclass
class AxiomCheck:
    name: str
    title: str
    status: str  # "pass" | "fail"
    witness: object = None
    levels: object = None  # optional [(level, status, note)]
    info: dict = dc_field(default_factory=dict)

    def to_json(self):
        out = {"name": self.name, "title": self.title, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.levels is not None:
            out["levels"] = [
                {"level": level_json(r), "status": st, "note": note}
                for r, st, note in self.levels
            ]
        if self.info:
            out["info"] = self.info
        return out


@dataclass
class AxiomReport:
    checks: dict

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks.values())

    def to_json(self):
        return {name: self.checks[name].to_json() for name in self.checks}

    def merge(self, other: "AxiomReport") -> "AxiomReport":
        out = dict(self.checks)
        out.update(other.checks)
        return AxiomReport(out)


def _fail(name, title, witness):
    return AxiomCheck(name, title, "fail", witness=witness)


def check_specializing(spec: FiltrationSpec, window, depth=None, graded_report=None) -> AxiomReport:
    """A1-A4 on the window; failures carry witnesses, A4 per level.

    graded_report, when given, must be graded(spec, window); passing
    it avoids recomputing the table the caller already has.
    """
    _check_window(window)
    module = spec.module
    p = module.ctx.p
    if depth is None:
        depth = spec.default_depth
    power = max(depth, 1)
    sections = list(spec.spanning(window))
    levels = [spec.level(x) for _, x in sections]
    lo, hi = window

    checks = {}

    # A1: finite levels, and t-powers push any section past the window
    a1_witness = None
    for (label, x), lvl in zip(sections, levels):
        if lvl is None:
            a1_witness = {"section": label, "reason": "no finite level on the window"}
            break
    if a1_witness is None and sections:
        label, x = sections[0]
        base = levels[0]
        k = max(1, math.ceil(Fraction(hi) - base))
        esc = spec.level(module.mul_t_pow(x, k))
        if not _ge(esc, Fraction(hi)):
            a1_witness = {
                "section": label,
                "reason": f"t^{k} failed to push the level past the window top",
            }
    checks["A1"] = (
        AxiomCheck("A1", "finite presentation on the window", "pass", info={"sections": len(sections)})
        if a1_witness is None
        else _fail("A1", "finite presentation on the window", a1_witness)
    )

    # A2: ideal^power raises levels by at least 1
    a2_witness = None
    for (label, x), lvl in zip(sections, levels):
        moved = spec.level(spec.mul_ideal(x, power))
        if not _ge(moved, lvl + 1):
            a2_witness = {
                "section": label,
                "level": level_json(lvl),
                "after": level_json(moved),
                "ideal_power": power,
            }
            break
    checks["A2"] = (
        AxiomCheck(
            "A2",
            "ideal power deepens levels",
            "pass",
            info={"ideal": spec.ideal_name, "power": power},
        )
        if a2_witness is None
        else _fail("A2", "ideal power deepens levels", a2_witness)
    )

    # A3: Frobenius multiplies levels by at least p
    a3_witness = None
    for (label, x), lvl in zip(sections, levels):
        flvl = spec.level(module.apply_F(x))
        if not _ge(flvl, p * lvl):
            a3_witness = {
                "section": label,
                "level": level_json(lvl),
                "frobenius_level": level_json(flvl),
            }
            break
    checks["A3"] = (
        AxiomCheck("A3", "Frobenius scales levels by p", "pass")
        if a3_witness is None
        else _fail("A3", "Frobenius scales levels by p", a3_witness)
    )

    # A4: graded Frobenius bijective on nonzero pieces
    rep = graded_report if graded_report is not None else graded(spec, window)
    levels = []
    first_fail = None
    for gl in rep.levels:
        if gl.f_map.invertible:
            levels.append((gl.level, "pass", None))
        else:
            note = gl.f_map.note or "graded Frobenius is not bijective"
            levels.append((gl.level, "fail", note))
            if first_fail is None:
                first_fail = {"level": level_json(gl.level), "reason": note}
    checks["A4"] = AxiomCheck(
        "A4",
        "graded Frobenius bijective",
        "pass" if first_fail is None else "fail",
        witness=first_fail,
        levels=levels,
    )
    return AxiomReport(checks)


def check_super(spec: FiltrationSpec, window, graded_report=None) -> AxiomReport:
    """SS1-SS3 on the window; graded_report as in check_specializing."""
    _check_window(window)
    module = spec.module
    sections = list(spec.spanning(window))
    levels = [spec.level(x) for _, x in sections]
    checks = {}

    # SS1: sections of level >= 0 are t-power multiples of the
    # generators at levels in [0, 1)
    ss1_witness = None
    gens = 0
    for r in spec.jumps((0, 1)):
        gens += spec.dim_at(r)
    for (label, x), lvl in zip(sections, levels):
        if lvl is None or lvl < 0:
            continue
        k = math.floor(lvl)
        gl = lvl - k
        hit = False
        for g in spec.graded_basis(gl):
            if module.eq(module.mul_t_pow(g, k), x):
                hit = True
                break
        if not hit:
            ss1_witness = {"section": label, "reason": "not a t-power multiple of a generator"}
            break
    checks["SS1"] = (
        AxiomCheck("SS1", "V^0 finitely generated on the window", "pass", info={"generators": gens})
        if ss1_witness is None
        else _fail("SS1", "V^0 finitely generated on the window", ss1_witness)
    )

    # SS2: t V^i = V^(i+1) for i != -1
    ss2_witness = None
    for (label, x), lvl in zip(sections, levels):
        if not _ge(spec.level(module.mul_t(x)), lvl + 1):
            ss2_witness = {"section": label, "reason": "t does not raise the level"}
            break
        if lvl - 1 == -1:
            continue
        pre = spec.t_preimage(x)
        if pre is None:
            ss2_witness = {"section": label, "reason": "no t-preimage available"}
            break
        if not module.eq(module.mul_t(pre), x):
            ss2_witness = {"section": label, "reason": "t-preimage does not multiply back"}
            break
        pre_lvl = spec.level(pre)
        if not _ge(pre_lvl, lvl - 1):
            ss2_witness = {
                "section": label,
                "reason": "t-preimage is too deep",
                "preimage_level": level_json(pre_lvl),
            }
            break
    checks["SS2"] = (
        AxiomCheck("SS2", "t V^i = V^(i+1) away from -1", "pass")
        if ss2_witness is None
        else _fail("SS2", "t V^i = V^(i+1) away from -1", ss2_witness)
    )

    # SS3: graded t bijective away from level -1
    rep = graded_report if graded_report is not None else graded(spec, window)
    levels = []
    first_fail = None
    exception = None
    for gl in rep.levels:
        if gl.level == Fraction(-1):
            note = None if gl.t_map.invertible else (gl.t_map.note or "not bijective")
            exception = {
                "level": level_json(gl.level),
                "invertible": gl.t_map.invertible,
                "note": note,
            }
            levels.append((gl.level, "exempt", note))
            continue
        if gl.t_map.invertible:
            levels.append((gl.level, "pass", None))
        else:
            note = gl.t_map.note or "graded t-map is not bijective"
            levels.append((gl.level, "fail", note))
            if first_fail is None:
                first_fail = {"level": level_json(gl.level), "reason": note}
    info = {}
    if exception is not None:
        info["exception_at_minus_one"] = exception
    checks["SS3"] = AxiomCheck(
        "SS3",
        "graded t bijective away from -1",
        "pass" if first_fail is None else "fail",
        witness=first_fail,
        levels=levels,
        info=info,
    )
    return AxiomReport(checks)


def check_axioms(spec: FiltrationSpec, window, depth=None, graded_report=None) -> AxiomReport:
    if graded_report is None:
        graded_report = graded(spec, window)
    return check_specializing(spec, window, depth, graded_report).merge(
        check_super(spec, window, graded_report)
    )


# ---------------------------------------------------------------------------
# comparison


def compare(spec1: FiltrationSpec, spec2: FiltrationSpec, window) -> dict:
    """Relate two filtrations on their spanning families.

    "equal": identical level functions; "contained": the first sits
    inside the second (levels never larger); "reverse-contained": the
    opposite; "incomparable": neither, with a witness.
    """
    concrete = (
        getattr(spec1.module, "kind", None) is not None
        and spec1.module.kind == spec2.module.kind
    )
    pairs = []
    if concrete:
        for label, x in list(spec1.spanning(window)) + list(spec2.spanning(window)):
            l1, l2 = spec1.level(x), spec2.level(x)
            if l1 is None and l2 is None:
                continue
            if l1 is None or l2 is None:
                return {
                    "verdict": "incomparable",
                    "witness": {"section": label, "reason": "finite level on one side only"},
                }
            pairs.append((label, l1, l2))
    else:
        fam1 = dict(spec1.family(window))
        fam2 = dict(spec2.family(window))
        if set(fam1) != set(fam2):
            diff = sorted(
                set(map(str, set(fam1) ^ set(fam2)))
            )[:4]
            return {
                "verdict": "incomparable",
                "witness": {"reason": "spanning families differ", "keys": diff},
            }
        pairs = [(str(k), fam1[k], fam2[k]) for k in fam1]

    le = all(l1 <= l2 for _, l1, l2 in pairs)
    ge = all(l1 >= l2 for _, l1, l2 in pairs)
    if le and ge:
        return {"verdict": "equal", "sections": len(pairs)}
    if le:
        return {"verdict": "contained", "sections": len(pairs)}
    if ge:
        return {"verdict": "reverse-contained", "sections": len(pairs)}
    wit = next((lbl, l1, l2) for lbl, l1, l2 in pairs if l1 > l2)
    wit2 = next((lbl, l1, l2) for lbl, l1, l2 in pairs if l1 < l2)
    return {
        "verdict": "incomparable",
        "witness": {
            "deeper_in_first": {"section": wit[0], "levels": [level_json(wit[1]), level_json(wit[2])]},
            "deeper_in_second": {"section": wit2[0], "levels": [level_json(wit2[1]), level_json(wit2[2])]},
        },
    }


# ---------------------------------------------------------------------------
# exactness of the two-step filtration on extensions


def shifted_exactness(spec, window) -> dict:
    """Induced filtrations on the delta part and the series quotient.

    The delta sections must carry exactly the delta filtration
    (level(0, e_m) = -m), and the quotient filtration of the series
    part must be the integer one shifted by -n/p (0 in the split
    case): the level of t^i maximized over delta lifts equals
    i + shift.
    """
    if spec.rule not in EXACTNESS_RULES:
        raise InvalidInputError("exactness report needs an extension filtration")
    module = spec.module
    lo, hi = window
    shift = -spec.shift
    sub_ok = True
    witness = None
    for m in range(1, -lo + 1):
        got = spec.level(module.delta_monomial(m))
        if got != Fraction(-m):
            sub_ok = False
            witness = {"delta": m, "level": level_json(got)}
            break
    quo_ok = True
    checked = 0
    for i in _int_range_for(shift, window):
        lifts = [
            module.f_monomial(i),
            module.add(module.f_monomial(i), module.delta_monomial(1)),
            module.add(module.f_monomial(i), module.delta_monomial(2)),
        ]
        best = max(spec.level(x) for x in lifts)
        if best != i + shift:
            quo_ok = False
            witness = {"series_exp": i, "level": level_json(best)}
            break
        checked += 1
    return {
        "sub_matches_delta": sub_ok,
        "quotient_shift": level_json(shift),
        "quotient_matches_shifted_integers": quo_ok,
        "levels_checked": checked,
        "witness": witness,
        "exact": sub_ok and quo_ok,
    }

"""Rational-level filtrations, graded pieces, and the axiom checkers.

A FiltrationSpec assigns every section x a level: the largest r with
x in V^r (None for the zero section, read as +infinity).  Levels lie on
one grid (1/den)Z per spec (den = d on the degree-d Kummer cover, p for
the extension family), so inside the engine a level is its integer
numerator over den.  graded(), the checkers, compare and
shifted_exactness work on numerators, and a graded report and the
A4/SS3 tables store them with their den; a Fraction is built only for
jumps, a graded level's level and graded_frobenius_map's target.  JSON
levels are written from the reduced numerator and den.  Each jump
carries an explicit graded basis, and images of sections can be
expressed exactly in that basis.  Graded coordinates are slice-exact:
a section at level r can differ from its graded part only on the one
slice of exponents that sits at r, so each spec reads the coordinates
off that slice and checks them there exactly; the remainder then lies
strictly deeper than r, and coordinates are never guessed.

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
with exact rationals.  Labels are formatted only where they are read:
a graded report asks its spec for a level's labels when it serializes,
and the checkers sweep sections under cheap keys and name a section
only in a witness.  A level supplies its maps' targets as it
serializes, so one frozen GradedMap serves all maps with equal columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd

from . import linalg
from .crystal import ExtensionModule, KummerCrystal, build_extension
from .errors import InvalidInputError
from .series import LaurentSeries, level_json


# ---------------------------------------------------------------------------
# sections
#
# A spec's module provides ctx, apply_F, mul_t and mul_t_pow, on
# sections with value equality (==): Kummer sections are canonical
# (valuation, terms) tuples, extension sections are pairs of
# LaurentSeries.  ExtensionModule provides them itself (and add, which
# shifted_exactness uses); Kummer crystals go through KummerSections.
# Modules compare by value too: two are one module when their crystals,
# or their ExtensionModules, are equal.


class KummerSections:
    """Sparse sections on the cover as canonical (n, terms) tuples.

    A nonzero section sum_e v_e s^e is the pair (n, terms): n is its
    valuation and terms the tuple of (e - n, v_e) over the exponents
    with v_e nonzero, so offsets strictly increase from 0.  The zero
    section is ().  Tuple equality is section equality, x[0] is the
    valuation and x[1][0][1] the slice there; a t-power moves n and
    keeps terms.

    Frobenius acts on each coefficient, and the sections a spec meets
    are t- and Frobenius-shifts of a few basis vectors, so the image of
    each terms tuple is kept, keyed on its value, for the module's
    lifetime.  Each basis vector u_(a,i) has one terms tuple, terms[a][i],
    which every monomial on it shares (and so does the spec's piece).
    """

    def __init__(self, kc: KummerCrystal):
        self.kc = kc
        self.ctx = kc.ctx
        self.rank = kc.rank
        self.d = kc.d
        self.terms = {a: tuple([((0, u),) for u in rows]) for a, (rows, _) in kc.bases.items()}
        self._frob = {}  # terms -> the terms of their Frobenius image

    def __eq__(self, other):
        return isinstance(other, KummerSections) and self.kc == other.kc

    def monomial(self, a: int, i: int, e: int):
        return (e, self.terms[a][i])

    def apply_F(self, x):
        if not x:
            return x
        n, terms = x
        p = self.ctx.p
        fterms = self._frob.get(terms)
        if fterms is None:
            frob = self.ctx.frob
            fterms = self._frob[terms] = tuple((p * o, tuple(map(frob, v))) for o, v in terms)
        return (p * n, fterms)

    def mul_t(self, x):
        return (x[0] + self.d, x[1]) if x else x

    def mul_t_pow(self, x, k: int):
        return (x[0] + self.d * k, x[1]) if x else x


# ---------------------------------------------------------------------------
# filtration specs


class FiltrationSpec:
    """A level function on the grid (1/den)Z, with its graded pieces.

    Subclasses implement the integer core, where a level is its
    numerator n over den:

      ilevel(x)          the level numerator of x, None for zero;
      ijumps(window)     the sorted jump numerators, lo <= n/den < hi;
      idim(n)            the dimension of the graded piece at n;
      ipiece(n)          the basis of the graded piece at n;
      ilabels(n)         the labels of that basis, formatted alone (no
                         section is built): the spec's one label path;
      _level_coords(images, n)
                         (idim(n), columns): each image's coordinates
                         in the basis at n, a zero column for an image
                         deeper than n (or zero), or (idim(n), k) for
                         the first image k with no class at n (shallower,
                         or at n with a leading part outside the span);
                         slice-exact: a column is returned only when
                         y - sum(c_i * b_i) lies strictly deeper than n;
      spanning(window)   (key, section) pairs spanning the window; the
                         key (n, k) says the section is basis vector k
                         of the piece at n, and section_label(key)
                         reads its label off ilabels(n);
      t_preimage(y)      a section that t maps to y (SS2 checks it);
      to_json()          the filtration's JSON for the reports.

    jumps, graded_labels and graded_coords take or give rationals; a
    rational off the grid (_num gives None) has a 0 piece.
    """

    rule = "abstract"
    den = 1
    default_depth = 0
    ideal_name = "t"

    def mul_ideal(self, x, power: int):
        return self.module.mul_t_pow(x, power)

    def _num(self, r):
        """The numerator of the rational r over den, None off the grid."""
        n, rem = divmod(r.numerator * self.den, r.denominator)
        return None if rem else n

    def jumps(self, window):
        return [Fraction(n, self.den) for n in self.ijumps(window)]

    def graded_labels(self, r):
        n = self._num(r)
        return [] if n is None else self.ilabels(n)

    def section_label(self, key):
        n, k = key
        return self.ilabels(n)[k]

    def graded_coords(self, x, r):
        """Coordinates of the class of x in Gr^r as a fresh list, or None.

        None means the class genuinely fails to land in the given
        graded basis (level too shallow, or a leading part outside the
        basis span).  On the grid this is _level_coords of the one image
        x.  Off it, n < r*den < n + 1 and the piece is 0: x has the
        class [] when it lies deeper than n.
        """
        n, rem = divmod(r.numerator * self.den, r.denominator)
        if rem:
            lvl = self.ilevel(x)
            return [] if lvl is None or lvl > n else None
        cols = self._level_coords([x], n)[1]
        return None if type(cols) is int else list(cols[0])


# the class-table entry of an exponent with no weight class: a 0 piece
_NO_CLASS = (None, 0, (), None, None, ())


class KummerVFilt(FiltrationSpec):
    """Standard filtration: level = cover valuation / cover degree.

    The level numerator over den = d is the cover valuation itself, and
    the graded piece at exponent e is the weight class of e.
    """

    rule = "standard"

    def __init__(self, kc: KummerCrystal):
        self.kc = kc
        self.module = KummerSections(kc)
        self.d = self.den = kc.d
        # -e mod d -> (a, dim, zero column, basis rows, pivots, basis
        # terms) of the weight class a of exponent e; _NO_CLASS off it
        zero = kc.ctx.zero
        self._classes = {
            a: (a, len(rows), (zero,) * len(rows), rows, piv, self.module.terms[a])
            for a, (rows, piv) in kc.bases.items()
        }
        # (weight class, slice) -> express result as a tuple, () for none
        self._coords = {}

    def ilevel(self, x):
        return x[0] if x else None

    def ijumps(self, window):
        lo, hi = window
        return sorted([s + k * self.d for s in self.kc.shifts.values() for k in range(lo, hi)])

    def idim(self, e) -> int:
        return self._classes.get(-e % self.d, _NO_CLASS)[1]

    def ipiece(self, e):
        return [(e, terms) for terms in self._classes.get(-e % self.d, _NO_CLASS)[5]]

    def ilabels(self, e):
        a, dim = self._classes.get(-e % self.d, _NO_CLASS)[:2]
        return [f"u{a}.{i}*s^{e}" for i in range(dim)]

    def _level_coords(self, images, e):
        """The basis at e is the monomials u_(a,i) s^e of weight a;
        linalg.express checks the slice of an image at e, its leading
        vector, against them exactly, and every other term of an image
        at level e is above e.

        The solve depends only on the weight class and the slice, so it
        is shared between images with equal ones (the t- and
        Frobenius-periodicity of the filtration makes most of them
        repeat); the columns are the shared tuples, and so is the zero
        column of the class."""
        a, dim, zero, rows, piv, _ = self._classes.get(-e % self.d, _NO_CLASS)
        memo = self._coords
        cols = []
        for k, y in enumerate(images):
            if not y or y[0] > e:
                cols.append(zero)
                continue
            if y[0] < e or a is None:
                return dim, k
            key = (a, y[1][0][1])
            coords = memo.get(key)
            if coords is None:
                coords = linalg.express(self.module.ctx, rows, piv, key[1])
                coords = memo[key] = () if coords is None else tuple(coords)
            if not coords:
                return dim, k
            cols.append(coords)
        return dim, cols

    def spanning(self, window):
        lo, hi = window
        for a in sorted(self.kc.dims):
            for k in range(lo, hi):
                e = self.kc.shifts[a] + k * self.d
                for i in range(self.kc.dims[a]):
                    yield (e, i), self.module.monomial(a, i, e)

    def family(self, window):
        # for compare: the reduced level and basis index of each spanning
        # section, so presentations over d and d*e give the same keys
        for (e, i), _ in self.spanning(window):
            g = gcd(e, self.d)
            yield ("w", e // g, self.d // g, i)

    def t_preimage(self, y):
        return self.module.mul_t_pow(y, -1)

    def to_json(self):
        return {
            "rule": self.rule,
            "d": self.d,
            "rank": self.kc.rank,
            "jump_classes": [
                {"level_mod_1": level_json(self.kc.shifts[a], self.d), "dim": self.kc.dims[a]}
                for a in sorted(self.kc.dims, key=self.kc.shifts.get)
            ],
        }


# rule -> (label of the series generator x_i, whether there are any,
# (shift numerator, depth l) from the twist's n at p, the JSON keys beside
# the rule); ExtensionVFilt.h holds h's monomials: t^(-l), none for l None
_EXTENSION_RULES = {
    "extension": ("t^{}", True, lambda n, p: (n, None), ("n", "series_levels", "delta_levels", "shift")),
    "split": ("t^{}", True, lambda n, p: (0, None), ("shift",)),
    "depth-grading": ("x_{}", True, lambda n, p: (n // p, n // p), ("n", "l", "shift")),
    "delta": (None, False, lambda n, p: (0, None), ()),
}

# the rules whose delta part and series quotient shifted_exactness reads
EXACTNESS_RULES = ("extension", "split")


class ExtensionVFilt(FiltrationSpec):
    """One filtration for the extension family, picked by rule.

    Levels lie on (1/p)Z, so den = p.  The series generator at exponent
    i sits at i - shift, with numerator i*p - shift_num, and the delta
    generator e_m = [t^(-m)] at -m, so a delta part g sits at v_t(g).
    Every rule reads a section through one rewrite by a polar h, as
    (f, g) = sum f_i x_i + (0, g + [h f]) with x_i = (t^i, -[t^i h]);
    its row of _EXTENSION_RULES gives the rest:

      extension      non-split, p not dividing n: shift n/p, h = 0, t^i;
      split          the split extension: shift 0, h = 0, t^i;
      depth-grading  n = l*p: shift l/p, h = t^(-l), x_i;
      delta          the delta module (0, g) alone: an empty series range.
    """

    def __init__(self, mod: ExtensionModule, rule: str):
        if rule not in _EXTENSION_RULES:
            raise InvalidInputError(f"unknown extension filtration rule {rule!r}")
        self.rule = rule
        self.module = mod
        self.series_label, self.has_series, depth, self._json_keys = _EXTENSION_RULES[rule]
        self.den = mod.ctx.p
        self.shift_num, self.l = depth(mod.n, self.den)
        self.h = () if self.l is None else (LaurentSeries.monomial(mod.ctx, -self.l),)

    def x_section(self, i: int):
        """The series generator at exponent i: (t^i, -[t^i h])."""
        f, g = self._rewrite(self.module.f_monomial(i))
        return f, g.neg()

    def _rewrite(self, x):
        """(f, g + [h f]): x in the series generators plus a delta remainder."""
        f, g = x
        for term in self.h:
            g = g.add(f.mul(term).pole_part())
        return f, g

    def _exponents(self, window):
        """The series exponents i whose level i - shift lies in the window."""
        if not self.has_series:
            return range(0)
        lo, hi = window
        c = -(-self.shift_num // self.den)  # ceil(shift)
        return range(lo + c, hi + c)

    def _parts(self, n):
        """(series exponent or None, delta index or None) at numerator n."""
        p = self.den
        i, rem = divmod(n + self.shift_num, p)
        series = i if self.has_series and not rem else None
        delta = -n // p if n % p == 0 and n <= -p else None
        return series, delta

    def ilevel(self, x):
        return self._rewritten_level(*self._rewrite(x))

    def _rewritten_level(self, f, g):
        """The level numerator of the rewritten section (f, g')."""
        p = self.den
        v, w = f.v, g.v
        if v is None:
            return None if w is None else w * p
        n = v * p - self.shift_num
        return n if w is None else min(n, w * p)

    def ijumps(self, window):
        lo, hi = window
        p = self.den
        out = set(range(lo * p, min(hi, 0) * p, p))
        out.update(i * p - self.shift_num for i in self._exponents(window))
        return sorted(out)

    def idim(self, n) -> int:
        series, delta = self._parts(n)
        return (series is not None) + (delta is not None)

    def ipiece(self, n):
        series, delta = self._parts(n)
        basis = [] if series is None else [self.x_section(series)]
        if delta is not None:
            basis.append(self.module.delta_monomial(delta))
        return basis

    def ilabels(self, n):
        series, delta = self._parts(n)
        labels = [] if series is None else [self.series_label.format(series)]
        if delta is not None:
            labels.append(f"e_{delta}")
        return labels

    def _level_coords(self, images, n):
        """After the rewrite each x_i reads (t^i, 0), so the coefficients
        at the one series exponent and the one delta index are an
        image's coordinates; every other term of an image at level n
        already sits above n, so each coordinate is its part's leading
        coefficient, or 0 where that part starts higher."""
        series, delta = self._parts(n)
        dim = (series is not None) + (delta is not None)
        zero = self.module.ctx.zero
        cols = []
        for k, y in enumerate(images):
            f, g = self._rewrite(y)
            lvl = self._rewritten_level(f, g)
            if lvl is None or lvl > n:
                cols.append((zero,) * dim)
                continue
            if lvl < n or not dim:
                return dim, k
            col = () if series is None else (f.terms[0][1] if f.v == series else zero,)
            cols.append(col if delta is None else col + (g.terms[0][1] if g.v == -delta else zero,))
        return dim, cols

    def spanning(self, window):
        # the series generator leads its piece and e_m closes its own
        lo, hi = window
        p = self.den
        for i in self._exponents(window):
            yield (i * p - self.shift_num, 0), self.x_section(i)
        for mneg in range(lo, min(hi, 0)):
            yield (mneg * p, self.idim(mneg * p) - 1), self.module.delta_monomial(-mneg)

    def t_preimage(self, y):
        f, g = y
        return (f.shift(-1), g.shift(-1))

    def to_json(self):
        values = {
            "n": self.module.n,
            "l": self.l,
            "shift": level_json(-self.shift_num, self.den),
            "series_levels": "Z - n/p",
            "delta_levels": "Z_{<=-1}",
        }
        return {"rule": self.rule, **{key: values[key] for key in self._json_keys}}


class _Reindexed(FiltrationSpec):
    """A base spec reindexed: every integer hook is the base's at the
    numerator n + offset * den.

    Without dprime this is the shifted filtration, the base read offset
    steps deeper (level - offset).  With dprime it is the pullback along
    a fresh degree-d' cover s^(d') = t: levels are untouched (offset 0),
    the uniformizer ideal becomes (s), whose single power raises levels
    by 1/d', and the recorded depth is d' * max(base depth, 1).
    Concrete s-multiplication is available for powers divisible by d'
    (that is, honest t-powers); the A2 check only ever needs those.
    """

    def __init__(self, base: FiltrationSpec, offset: int, dprime=None):
        self.base = base
        self.offset = offset
        self.dprime = dprime
        self.module = base.module
        self.den = base.den
        self._step = offset * base.den
        if dprime is None:
            self.rule = "shifted"
            self.default_depth = base.default_depth
            self.ideal_name = base.ideal_name
        else:
            self.rule = "pullback"
            self.default_depth = dprime * max(base.default_depth, 1)
            self.ideal_name = "s"

    def _base_window(self, window):
        lo, hi = window
        return (lo + self.offset, hi + self.offset)

    def ilevel(self, x):
        n = self.base.ilevel(x)
        return None if n is None else n - self._step

    def ijumps(self, window):
        return [n - self._step for n in self.base.ijumps(self._base_window(window))]

    def idim(self, n) -> int:
        return self.base.idim(n + self._step)

    def ipiece(self, n):
        return self.base.ipiece(n + self._step)

    def ilabels(self, n):
        return self.base.ilabels(n + self._step)

    def section_label(self, key):
        return self.base.section_label(key)  # spanning's keys are the base's

    def _level_coords(self, images, n):
        """The base spec's, at the base numerator."""
        return self.base._level_coords(images, n + self._step)

    def spanning(self, window):
        return self.base.spanning(self._base_window(window))

    def t_preimage(self, y):
        return self.base.t_preimage(y)

    def mul_ideal(self, x, power: int):
        d = self.dprime or 1
        if power % d:
            raise InvalidInputError(
                f"s-power {power} is not a t-power (d'={d}); only level arithmetic exists for it"
            )
        return self.base.mul_ideal(x, power // d)

    def to_json(self):
        if self.dprime is None:
            return {"rule": self.rule, "offset": self.offset, "base": self.base.to_json()}
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


def extension_vfilt(mod: ExtensionModule) -> ExtensionVFilt:
    """The filtration of an extension by its twist: split, p not dividing
    n, or n = l*p with l prime to p; n = 0 and p | l are refused."""
    p = mod.ctx.p
    if mod.split:
        rule = "split"
    elif mod.n == 0:
        raise InvalidInputError("a simple pole gives n = 0, which no filtration rule covers")
    elif mod.n % p:
        rule = "extension"
    elif (mod.n // p) % p:
        rule = "depth-grading"
    else:
        raise InvalidInputError(f"l = n/p = {mod.n // p} must be prime to p")
    return ExtensionVFilt(mod, rule)


def _rule_vfilt(mod: ExtensionModule, rule: str) -> ExtensionVFilt:
    """extension_vfilt(mod), refused unless the twist takes the rule."""
    spec = extension_vfilt(mod)
    if spec.rule != rule:
        raise InvalidInputError(f"the twist takes the {spec.rule} rule, not {rule}")
    return spec


def mc_vfilt(mod: ExtensionModule) -> ExtensionVFilt:
    """The canonical filtration of a non-split extension, p not dividing n."""
    return _rule_vfilt(mod, "extension")


def split_vfilt(mod: ExtensionModule) -> ExtensionVFilt:
    """Direct-sum filtration of the split extension: integer levels."""
    return _rule_vfilt(mod, "split")


def mc_depth_grading(mod: ExtensionModule) -> ExtensionVFilt:
    """The grading for n = l*p with l >= 1 prime to p."""
    return _rule_vfilt(mod, "depth-grading")


def delta_vfilt(ctx) -> ExtensionVFilt:
    """The delta module with V^i spanned by the e_m, m <= -i."""
    return ExtensionVFilt(build_extension(ctx, LaurentSeries.zero(ctx)), "delta")


def shifted_filtration(spec: FiltrationSpec, offset: int) -> FiltrationSpec:
    """The filtration read offset steps deeper: level - offset."""
    if offset == 0:
        raise InvalidInputError("offset 0 is the identity; use the base spec")
    return _Reindexed(spec, offset)


def pullback_filtration(spec: FiltrationSpec, dprime: int) -> FiltrationSpec:
    """The filtration along a fresh degree-d' cover s^(d') = t."""
    p = spec.module.ctx.p
    if dprime < 1:
        raise InvalidInputError(f"cover degree {dprime} must be >= 1")
    if dprime % p == 0:
        raise InvalidInputError(f"cover degree {dprime} must be prime to p={p}")
    return _Reindexed(spec, 0, dprime)


# ---------------------------------------------------------------------------
# graded report


@dataclass(frozen=True)
class GradedMap:
    """A graded map's matrix and verdict.  graded() shares one between
    all maps with equal columns, so it is frozen and the level supplies
    the target; a standalone map (graded_frobenius_map) keeps its own."""

    ctx: object  # the FieldCtx of the matrix entries
    target_dim: int
    matrix: object  # tuple rows or None
    invertible: bool
    note: object = None
    own_target: object = None  # a standalone map's target Fraction

    @property
    def target(self) -> Fraction:
        if self.own_target is None:
            raise ValueError("a shared GradedMap's target is its level's: p*n or n + den")
        return self.own_target

    def to_json(self, target=None):  # target: a shared map's level_json
        return {
            "target": level_json(self.target) if target is None else target,
            "target_dim": self.target_dim,
            "matrix": None if self.matrix is None else [[list(self.ctx.coeffs(x)) for x in row] for row in self.matrix],
            "invertible": self.invertible,
            "note": self.note,
        }


@dataclass
class GradedLevel:
    n: int  # the level is n / den
    den: int
    dim: int
    f_map: GradedMap  # into the piece at p * n
    t_map: GradedMap  # into the piece at n + den

    @property
    def level(self) -> Fraction:
        return Fraction(self.n, self.den)

    def to_json(self, labels, p):
        if len(labels) != self.dim:
            raise ValueError(f"{len(labels)} labels for the {self.dim}-dimensional piece at {self.n}/{self.den}")
        return {
            "level": level_json(self.n, self.den),
            "dim": self.dim,
            "labels": labels,
            "frobenius": self.f_map.to_json(level_json(p * self.n, self.den)),
            "t": self.t_map.to_json(level_json(self.n + self.den, self.den)),
        }


@dataclass
class GradedReport:
    """The graded pieces of a spec on a window.  It holds no reference to
    the spec: to_json takes the spec that was graded, for the labels, and
    raises ValueError when that spec's pieces have other dimensions."""

    window: tuple
    levels: list

    def all_frobenius_invertible(self) -> bool:
        return all(gl.f_map.invertible for gl in self.levels)

    def all_t_invertible(self, skip=(Fraction(-1),)) -> bool:
        return all(
            gl.t_map.invertible
            for gl in self.levels
            if not any(gl.n * r.denominator == r.numerator * gl.den for r in skip)
        )

    def to_json(self, spec: FiltrationSpec):
        p = spec.module.ctx.p
        return {
            "window": list(self.window),
            "levels": [gl.to_json(spec.ilabels(gl.n), p) for gl in self.levels],
        }


def _map_verdict(ctx, dim, tdim, cols) -> GradedMap:
    """The GradedMap of a dim-dimensional piece into a tdim-dimensional
    one, from _level_coords's answer cols: the images' columns, or the
    index of the first image with no class at the target."""
    if type(cols) is int:
        note = f"image of basis vector {cols} has no class in the graded piece at the target"
        return GradedMap(ctx, tdim, None, False, note)
    matrix = tuple(zip(*cols)) if cols else ((),) * tdim
    if tdim != dim:
        return GradedMap(ctx, tdim, matrix, False, f"graded pieces have dimensions {dim} != {tdim}")
    inv = linalg.is_invertible(ctx, matrix)
    return GradedMap(ctx, tdim, matrix, inv, None if inv else "matrix is singular")


def _graded_map(spec: FiltrationSpec, dim: int, images, tn: int) -> GradedMap:
    """The matrix of images, the images of a dim-dimensional graded
    basis, in the basis of the piece at numerator tn over spec.den."""
    return _map_verdict(spec.module.ctx, dim, *spec._level_coords(images, tn))


def graded_frobenius_map(spec: FiltrationSpec, r) -> GradedMap:
    """Matrix of the induced Frobenius Gr^r -> Gr^(p*r), with target p*r.
    Off the grid Gr^r is 0, and so is Gr^(p*r) unless p*r is on it."""
    ctx = spec.module.ctx
    n, tn = spec._num(r), spec._num(ctx.p * r)
    basis = [] if n is None else spec.ipiece(n)
    images = [spec.module.apply_F(b) for b in basis]
    gm = _map_verdict(ctx, 0, 0, ()) if tn is None else _graded_map(spec, len(basis), images, tn)
    return replace(gm, own_target=Fraction(ctx.p * r))


def _check_window(window) -> None:
    """Reject an empty window, on which every check would pass vacuously."""
    lo, hi = window
    if lo >= hi:
        raise InvalidInputError(f"empty level window [{lo}, {hi})")


def graded(spec: FiltrationSpec, window) -> GradedReport:
    """Graded pieces on the window with their Frobenius and t maps.

    Every nonzero jump level in [lo, hi) appears with its dimension, the
    matrix of the induced Frobenius into the piece at p * level, and
    the matrix of t-multiplication into level + 1; its labels and
    targets wait for to_json.  Targets may fall outside the window;
    sections are exact so the matrices still are.
    Levels and targets are numerators over den throughout.  The columns
    fix a map, so maps with equal (dim, target dim, columns, or the first
    classless image) share one GradedMap, kept for the call.
    """
    _check_window(window)
    ctx, p, den = spec.module.ctx, spec.module.ctx.p, spec.den
    apply_F, mul_t, ipiece, coords = spec.module.apply_F, spec.module.mul_t, spec.ipiece, spec._level_coords
    verdict = lru_cache(None)(partial(_map_verdict, ctx))
    out = []
    for n in spec.ijumps(window):
        basis = ipiece(n)
        if not basis:
            continue
        dim = len(basis)
        tdim, cols = coords([apply_F(b) for b in basis], p * n)
        f_map = verdict(dim, tdim, cols if type(cols) is int else tuple(cols))
        tdim, cols = coords([mul_t(b) for b in basis], n + den)
        t_map = verdict(dim, tdim, cols if type(cols) is int else tuple(cols))
        out.append(GradedLevel(n, den, dim, f_map, t_map))
    return GradedReport(tuple(window), out)


# ---------------------------------------------------------------------------
# axiom checks
#
# A zero spanning section (level None) fails A1 and meets the rest.


@dataclass
class AxiomCheck:
    name: str
    title: str
    status: str  # "pass" | "fail"
    witness: object = None
    levels: object = None  # optional [(level numerator over den, status, note)]
    den: int = 1
    info: dict = dc_field(default_factory=dict)

    def to_json(self):
        out = {"name": self.name, "title": self.title, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.levels is not None:
            out["levels"] = [
                {"level": level_json(n, self.den), "status": st, "note": note}
                for n, st, note in self.levels
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


def _verdict(name, title, witness, **info):
    """A fail carrying witness, or (witness None) a pass carrying info."""
    if witness is None:
        return AxiomCheck(name, title, "pass", info=info)
    return AxiomCheck(name, title, "fail", witness=witness)


def _graded_check(name, title, maps, den, default_note, exempt=None):
    """The per-level table of a graded map, maps [(numerator, GradedMap)]:
    it fails at the first level whose map is not bijective.  The level
    with numerator exempt (-den for SS3) is recorded, not judged."""
    levels = []
    first_fail = None
    info = {}
    for n, gmap in maps:
        if n == exempt:
            note = None if gmap.invertible else (gmap.note or "not bijective")
            info["exception_at_minus_one"] = {
                "level": level_json(n, den),
                "invertible": gmap.invertible,
                "note": note,
            }
            levels.append((n, "exempt", note))
        elif gmap.invertible:
            levels.append((n, "pass", None))
        else:
            note = gmap.note or default_note
            levels.append((n, "fail", note))
            if first_fail is None:
                first_fail = {"level": level_json(n, den), "reason": note}
    return AxiomCheck(
        name,
        title,
        "pass" if first_fail is None else "fail",
        witness=first_fail,
        levels=levels,
        den=den,
        info=info,
    )


def _sweep(spec: FiltrationSpec, window):
    """The spanning family on the window as (key, section, level
    numerator) triples; a witness names its section by
    spec.section_label(key)."""
    return [(key, x, spec.ilevel(x)) for key, x in spec.spanning(window)]


def check_specializing(spec: FiltrationSpec, window, depth=None, graded_report=None, sweep=None) -> AxiomReport:
    """A1-A4 on the window; failures carry witnesses, A4 per level.

    graded_report, when given, must be graded(spec, window), and sweep
    the spanning family's (key, section, level numerator) triples on
    the window; passing them avoids recomputing what the caller has.
    """
    _check_window(window)
    module = spec.module
    p, den = module.ctx.p, spec.den
    if depth is None:
        depth = spec.default_depth
    power = max(depth, 1)
    if sweep is None:
        sweep = _sweep(spec, window)
    top = window[1] * den

    checks = {}

    # A1: finite levels, and t-powers push any section past the window
    a1_witness = None
    for key, x, lvl in sweep:
        if lvl is None:
            a1_witness = {"section": spec.section_label(key), "reason": "no finite level on the window"}
            break
    if a1_witness is None and sweep:
        key, x, lvl = sweep[0]
        k = max(1, -((lvl - top) // den))  # ceil(hi - level)
        esc = spec.ilevel(module.mul_t_pow(x, k))
        if esc is not None and esc < top:
            a1_witness = {
                "section": spec.section_label(key),
                "reason": f"t^{k} failed to push the level past the window top",
            }
    checks["A1"] = _verdict("A1", "finite presentation on the window", a1_witness, sections=len(sweep))

    # A2: ideal^power raises levels by at least 1
    ilevel, mul_ideal, apply_F = spec.ilevel, spec.mul_ideal, module.apply_F
    a2_witness = None
    for key, x, lvl in sweep:
        if lvl is None:
            continue
        moved = ilevel(mul_ideal(x, power))
        if moved is not None and moved < lvl + den:
            a2_witness = {
                "section": spec.section_label(key),
                "level": level_json(lvl, den),
                "after": level_json(moved, den),
                "ideal_power": power,
            }
            break
    checks["A2"] = _verdict(
        "A2", "ideal power deepens levels", a2_witness, ideal=spec.ideal_name, power=power
    )

    # A3: Frobenius multiplies levels by at least p
    a3_witness = None
    for key, x, lvl in sweep:
        if lvl is None:
            continue
        flvl = ilevel(apply_F(x))
        if flvl is not None and flvl < p * lvl:
            a3_witness = {
                "section": spec.section_label(key),
                "level": level_json(lvl, den),
                "frobenius_level": level_json(flvl, den),
            }
            break
    checks["A3"] = _verdict("A3", "Frobenius scales levels by p", a3_witness)

    # A4: graded Frobenius bijective on nonzero pieces
    rep = graded_report if graded_report is not None else graded(spec, window)
    checks["A4"] = _graded_check(
        "A4",
        "graded Frobenius bijective",
        [(gl.n, gl.f_map) for gl in rep.levels],
        den,
        "graded Frobenius is not bijective",
    )
    return AxiomReport(checks)


def check_super(spec: FiltrationSpec, window, graded_report=None, sweep=None) -> AxiomReport:
    """SS1-SS3 on the window; graded_report and sweep as in
    check_specializing."""
    _check_window(window)
    module = spec.module
    den = spec.den
    if sweep is None:
        sweep = _sweep(spec, window)
    checks = {}

    # SS1: sections of level >= 0 are t-power multiples of the
    # generators at levels in [0, 1)
    ss1_witness = None
    gens = sum(spec.idim(n) for n in spec.ijumps((0, 1)))
    ilevel, mul_t, mul_t_pow, t_preimage = spec.ilevel, module.mul_t, module.mul_t_pow, spec.t_preimage
    bases = {}  # residue numerator -> its graded basis
    for key, x, lvl in sweep:
        if lvl is None or lvl < 0:
            continue
        k, rest = divmod(lvl, den)
        if rest not in bases:
            bases[rest] = spec.ipiece(rest)
        for g in bases[rest]:
            if mul_t_pow(g, k) == x:
                break
        else:
            ss1_witness = {"section": spec.section_label(key), "reason": "not a t-power multiple of a generator"}
            break
    checks["SS1"] = _verdict("SS1", "V^0 finitely generated on the window", ss1_witness, generators=gens)

    # SS2: t V^i = V^(i+1) for i != -1
    ss2_witness = None
    for key, x, lvl in sweep:
        if lvl is None:
            continue
        up = ilevel(mul_t(x))
        if up is not None and up < lvl + den:
            ss2_witness = {"section": spec.section_label(key), "reason": "t does not raise the level"}
            break
        if lvl == 0:
            continue
        pre = t_preimage(x)
        if mul_t(pre) != x:
            ss2_witness = {"section": spec.section_label(key), "reason": "t-preimage does not multiply back"}
            break
        pre_lvl = ilevel(pre)
        if pre_lvl is not None and pre_lvl < lvl - den:
            ss2_witness = {
                "section": spec.section_label(key),
                "reason": "t-preimage is too deep",
                "preimage_level": level_json(pre_lvl, den),
            }
            break
    checks["SS2"] = _verdict("SS2", "t V^i = V^(i+1) away from -1", ss2_witness)

    # SS3: graded t bijective away from level -1
    rep = graded_report if graded_report is not None else graded(spec, window)
    checks["SS3"] = _graded_check(
        "SS3",
        "graded t bijective away from -1",
        [(gl.n, gl.t_map) for gl in rep.levels],
        den,
        "graded t-map is not bijective",
        exempt=-den,
    )
    return AxiomReport(checks)


def check_axioms(spec: FiltrationSpec, window, depth=None, graded_report=None) -> AxiomReport:
    """A1-A4 and SS1-SS3 on one graded report and one spanning sweep."""
    if graded_report is None:
        graded_report = graded(spec, window)
    sweep = _sweep(spec, window)
    return check_specializing(spec, window, depth, graded_report, sweep).merge(
        check_super(spec, window, graded_report, sweep)
    )


# ---------------------------------------------------------------------------
# comparison


def compare(spec1: FiltrationSpec, spec2: FiltrationSpec, window) -> dict:
    """Relate two filtrations on their spanning families.

    "equal": identical level functions; "contained": the first sits
    inside the second (levels never larger); "reverse-contained": the
    opposite; "incomparable": neither, with a witness.  Specs on two
    modules are incomparable unless both are Kummer presentations (d and
    d*e), which are equal when their family keys, reduced levels, agree.
    Levels are compared cross-multiplied.
    """
    if spec1.module != spec2.module:
        if not (isinstance(spec1, KummerVFilt) and isinstance(spec2, KummerVFilt)):
            return {"verdict": "incomparable", "witness": {"reason": "the filtrations are on different modules"}}
        fam1, fam2 = set(spec1.family(window)), set(spec2.family(window))
        if fam1 != fam2:
            diff = sorted(set(map(str, fam1 ^ fam2)))[:4]
            return {
                "verdict": "incomparable",
                "witness": {"reason": "spanning families differ", "keys": diff},
            }
        return {"verdict": "equal", "sections": len(fam1)}
    den1, den2 = spec1.den, spec2.den
    pairs = []  # (spec, key, level 1, level 2): spec.section_label(key) names the section
    for spec in (spec1, spec2):
        for key, x in spec.spanning(window):
            l1, l2 = spec1.ilevel(x), spec2.ilevel(x)
            if l1 is None and l2 is None:
                continue
            if l1 is None or l2 is None:
                return {
                    "verdict": "incomparable",
                    "witness": {"section": spec.section_label(key), "reason": "finite level on one side only"},
                }
            pairs.append((spec, key, l1 * den2, l2 * den1))

    le = all(l1 <= l2 for _, _, l1, l2 in pairs)
    ge = all(l1 >= l2 for _, _, l1, l2 in pairs)
    if le and ge:
        return {"verdict": "equal", "sections": len(pairs)}
    if le:
        return {"verdict": "contained", "sections": len(pairs)}
    if ge:
        return {"verdict": "reverse-contained", "sections": len(pairs)}
    den = den1 * den2
    wit = next(pair for pair in pairs if pair[2] > pair[3])
    wit2 = next(pair for pair in pairs if pair[2] < pair[3])
    return {
        "verdict": "incomparable",
        "witness": {
            "deeper_in_first": {"section": wit[0].section_label(wit[1]), "levels": [level_json(wit[2], den), level_json(wit[3], den)]},
            "deeper_in_second": {"section": wit2[0].section_label(wit2[1]), "levels": [level_json(wit2[2], den), level_json(wit2[3], den)]},
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
    i - n/p.
    """
    if spec.rule not in EXACTNESS_RULES:
        raise InvalidInputError("exactness report needs an extension filtration")
    module = spec.module
    p = spec.den
    sub_ok = True
    witness = None
    for m in range(1, -window[0] + 1):
        got = spec.ilevel(module.delta_monomial(m))
        if got != -m * p:
            sub_ok = False
            witness = {"delta": m, "level": level_json(got, p)}
            break
    quo_ok = True
    checked = 0
    for i in spec._exponents(window):
        lifts = [
            module.f_monomial(i),
            module.add(module.f_monomial(i), module.delta_monomial(1)),
            module.add(module.f_monomial(i), module.delta_monomial(2)),
        ]
        best = max(spec.ilevel(x) for x in lifts)
        if best != i * p - spec.shift_num:
            quo_ok = False
            witness = {"series_exp": i, "level": level_json(best, p)}
            break
        checked += 1
    return {
        "sub_matches_delta": sub_ok,
        "quotient_shift": level_json(-spec.shift_num, p),
        "quotient_matches_shifted_integers": quo_ok,
        "levels_checked": checked,
        "witness": witness,
        "exact": sub_ok and quo_ok,
    }

"""Laurent series over F_{p^m} with explicit knowledge windows.

A series carries a window [lo, hi): its support is certified to lie in
[lo, oo), coefficients at exponents below hi are exactly the stored
ones, and nothing is claimed at hi or above.  hi = None means the
series is a fully known Laurent polynomial.  Arithmetic propagates
windows soundly: sums intersect them, products use
[lo1+lo2, min(hi1+lo2, hi2+lo1)), and the p-power Frobenius scales both
ends by p (in characteristic p the image's support sits in p*Z, so the
gaps between stored exponents stay exact).

The zero-on-window distinction matters: a series with no stored terms
and finite hi is only known to vanish below hi, so its valuation is
reported as "window-limited" rather than +infinity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInputError, WindowError


def _min_hi(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentSeries:
    __slots__ = ("ctx", "coeffs", "lo", "hi")

    def __init__(self, ctx, coeffs: dict, lo: int, hi):
        self.ctx = ctx
        cs = {e: c for e, c in coeffs.items() if not ctx.is_zero(c)}
        if hi is not None:
            if lo >= hi:
                raise InvalidInputError(f"empty window [{lo}, {hi})")
            cs = {e: c for e, c in cs.items() if e < hi}
        if cs and min(cs) < lo:
            raise InvalidInputError("support escapes below the window")
        self.coeffs = cs
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, ctx, coeffs: dict) -> "LaurentSeries":
        """A fully known Laurent polynomial."""
        lo = min(coeffs) if coeffs else 0
        return cls(ctx, dict(coeffs), lo, None)

    @classmethod
    def zero(cls, ctx) -> "LaurentSeries":
        return cls(ctx, {}, 0, None)

    @classmethod
    def one(cls, ctx) -> "LaurentSeries":
        return cls(ctx, {0: ctx.one}, 0, None)

    @classmethod
    def monomial(cls, ctx, exp: int, coeff=None) -> "LaurentSeries":
        c = ctx.one if coeff is None else coeff
        return cls(ctx, {exp: c}, exp, None)

    # -- structure ----------------------------------------------------------

    def is_zero_on_window(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.hi is None

    def window_limited(self) -> bool:
        """True when emptiness on the window proves nothing beyond it."""
        return not self.coeffs and self.hi is not None

    def support(self):
        return sorted(self.coeffs)

    def coeff(self, e: int):
        if self.hi is not None and e >= self.hi:
            raise WindowError(f"coefficient at {e} is outside the window [*, {self.hi})")
        return self.coeffs.get(e, self.ctx.zero)

    def valuation(self):
        """Smallest exponent with a nonzero coefficient, or None for zero."""
        return min(self.coeffs) if self.coeffs else None

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise InvalidInputError("series over different fields")

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        ctx = self.ctx
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = ctx.add(out.get(e, ctx.zero), c)
        return LaurentSeries(ctx, out, min(self.lo, other.lo), _min_hi(self.hi, other.hi))

    def neg(self) -> "LaurentSeries":
        ctx = self.ctx
        return LaurentSeries(ctx, {e: ctx.neg(c) for e, c in self.coeffs.items()}, self.lo, self.hi)

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def smul(self, scalar) -> "LaurentSeries":
        ctx = self.ctx
        return LaurentSeries(
            ctx, {e: ctx.mul(scalar, c) for e, c in self.coeffs.items()}, self.lo, self.hi
        )

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        ctx = self.ctx
        if (self.is_exact() and not self.coeffs) or (other.is_exact() and not other.coeffs):
            return LaurentSeries.zero(ctx)
        lo = self.lo + other.lo
        hi = _min_hi(
            None if self.hi is None else self.hi + other.lo,
            None if other.hi is None else other.hi + self.lo,
        )
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if hi is not None and e >= hi:
                    continue
                prod = ctx.mul(c1, c2)
                out[e] = ctx.add(out.get(e, ctx.zero), prod) if e in out else prod
        return LaurentSeries(ctx, out, lo, hi)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        return LaurentSeries(
            self.ctx,
            {e + k: c for e, c in self.coeffs.items()},
            self.lo + k,
            None if self.hi is None else self.hi + k,
        )

    def truncate(self, hi: int) -> "LaurentSeries":
        return LaurentSeries(self.ctx, dict(self.coeffs), self.lo, _min_hi(self.hi, hi))

    def frob(self) -> "LaurentSeries":
        """The p-power map: sum c_i t^i |-> sum c_i^p t^(p*i)."""
        ctx = self.ctx
        p = ctx.p
        return LaurentSeries(
            ctx,
            {p * e: ctx.pow(c, p) for e, c in self.coeffs.items()},
            p * self.lo,
            None if self.hi is None else p * self.hi,
        )

    def kummer_pullback(self, d: int) -> "LaurentSeries":
        """Reindex along s^d = t: exponents scale by d, coefficients keep."""
        if d < 1:
            raise InvalidInputError(f"cover degree {d} must be >= 1")
        return LaurentSeries(
            self.ctx,
            {d * e: c for e, c in self.coeffs.items()},
            d * self.lo,
            None if self.hi is None else d * self.hi,
        )

    def galois_act(self, a: int, xi) -> "LaurentSeries":
        """Scale the coefficient of s^j by xi^(a*j)."""
        ctx = self.ctx
        return LaurentSeries(
            ctx,
            {e: ctx.mul(ctx.pow(xi, a * e), c) for e, c in self.coeffs.items()},
            self.lo,
            self.hi,
        )

    # -- comparison / io ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self.coeffs == other.coeffs
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((id(self.ctx), tuple(sorted(self.coeffs.items())), self.lo, self.hi))

    def same_values(self, other: "LaurentSeries") -> bool:
        """Equal coefficients on the common window."""
        self._check(other)
        hi = _min_hi(self.hi, other.hi)
        for e in set(self.coeffs) | set(other.coeffs):
            if hi is not None and e >= hi:
                continue
            if self.coeffs.get(e, self.ctx.zero) != other.coeffs.get(e, self.ctx.zero):
                return False
        return True

    def to_json(self):
        return {
            "lo": self.lo,
            "hi": self.hi,
            "terms": [[e, list(self.coeffs[e])] for e in sorted(self.coeffs)],
        }

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                cs = str(self.ctx.encode(c)) if self.ctx.m == 1 else str(list(c))
                if e == 0:
                    parts.append(cs)
                elif e == 1:
                    parts.append(f"{cs}*t" if cs != "1" else "t")
                else:
                    parts.append(f"{cs}*t^{e}" if cs != "1" else f"t^{e}")
            body = " + ".join(parts)
        win = "" if self.hi is None else f" +O(t^{self.hi})"
        return f"<{body}{win}>"


# ---------------------------------------------------------------------------
# levels and parsing


def standard_level(f: LaurentSeries, d: int) -> Fraction:
    """Valuation divided by the cover degree, as an exact rational."""
    v = f.valuation()
    if v is None:
        if f.window_limited():
            raise WindowError("level of a window-limited zero is undetermined")
        raise InvalidInputError("the zero section has no level")
    return Fraction(v, d)


_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
          (?P<coeff>\d+)\s*(?:\*\s*)?(?:(?P<var1>[a-zA-Z])(?:\^(?P<exp1>-?\d+))?)?
          |
          (?P<var2>[a-zA-Z])(?:\^(?P<exp2>-?\d+))?
        )\s*""",
    re.VERBOSE,
)


def parse_series(ctx, text: str, var: str = "t") -> LaurentSeries:
    """Parse expressions like "3t^-2 + t - 4" into an exact series."""
    s = text.strip()
    if s in ("0", ""):
        return LaurentSeries.zero(ctx)
    coeffs: dict = {}
    pos = 0
    first = True
    while pos < len(s):
        mt = _TERM.match(s, pos)
        if not mt or mt.end() == pos:
            raise InvalidInputError(f"cannot parse series at: {s[pos:]!r}")
        sign = mt.group("sign")
        if sign is None and not first:
            raise InvalidInputError(f"missing sign before: {s[mt.start():]!r}")
        v = mt.group("var1") or mt.group("var2")
        if v is not None and v != var:
            raise InvalidInputError(f"unknown variable {v!r}, expected {var!r}")
        c = int(mt.group("coeff")) if mt.group("coeff") else 1
        if sign == "-":
            c = -c
        if v is None:
            e = 0
        else:
            raw = mt.group("exp1") or mt.group("exp2")
            e = int(raw) if raw is not None else 1
        cur = coeffs.get(e, ctx.zero)
        coeffs[e] = ctx.add(cur, ctx.from_int(c))
        pos = mt.end()
        first = False
    return LaurentSeries.exact(ctx, coeffs)


def level_json(level) -> dict:
    """An int or Fraction level (None for +infinity) as {num, den}."""
    if level is None:
        return {"num": None, "den": None}
    return {"num": level.numerator, "den": level.denominator}

"""Exact Laurent polynomials over F_{p^m}.

A series is stored as a Kummer section is: its field ``ctx``, its
valuation ``v`` and ``terms``, the (offset, coefficient) pairs of
sum_o c_o t^(v+o) with offsets strictly increasing from 0 and no zero
coefficient; zero is v = None, terms = ().  The form is canonical, so ==
and hash compare (v, terms), ``valuation`` reads v and a t-shift reuses
the terms.  Every series the engine builds is exact: sections of j_*M on
the punctured disk are Laurent polynomials in t.

The public constructor takes a dict {exponent: coefficient} and drops
zero coefficients; ``coeffs`` gives that dict back.  The operations
build the canonical form directly: ``pole_part`` keeps a prefix of the
terms, ``frob``, ``neg`` and ``smul`` by a nonzero scalar map them (each
injective on coefficients), ``add`` merges two sorted tuples, and
``mul`` by a one-term series scales and shifts the other's terms.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import gcd

from .errors import InvalidInputError


class LaurentSeries:
    __slots__ = ("ctx", "v", "terms")

    def __init__(self, ctx, coeffs: dict):
        items = sorted((e, c) for e, c in coeffs.items() if not ctx.is_zero(c))
        self.ctx = ctx
        self.v = v = items[0][0] if items else None
        self.terms = tuple((e - v, c) for e, c in items)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "LaurentSeries":
        return _series(ctx, None, ())

    @classmethod
    def one(cls, ctx) -> "LaurentSeries":
        return _series(ctx, 0, ((0, ctx.one),))

    @classmethod
    def monomial(cls, ctx, exp: int, coeff=None) -> "LaurentSeries":
        coeff = ctx.one if coeff is None else coeff
        return _series(ctx, None, ()) if ctx.is_zero(coeff) else _series(ctx, exp, ((0, coeff),))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        """Smallest exponent with a nonzero coefficient, or None for zero."""
        return self.v

    @property
    def coeffs(self) -> dict:
        """{exponent: nonzero coefficient}, a new dict."""
        return {self.v + o: c for o, c in self.terms}

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise InvalidInputError("series over different fields")

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        if not (self.terms and other.terms):
            return self if other.is_zero() else other
        lo, hi = (self, other) if self.v <= other.v else (other, self)
        ctx, low, d = self.ctx, lo.terms, hi.v - lo.v
        out, i, n = [], 0, len(low)  # the sum's terms, offsets from lo.v
        for o, c in hi.terms:
            o += d
            while i < n and low[i][0] < o:
                out.append(low[i])
                i += 1
            if i < n and low[i][0] == o:
                c, i = ctx.add(low[i][1], c), i + 1
                if ctx.is_zero(c):
                    continue
            out.append((o, c))
        out += low[i:]
        if not out:
            return _series(ctx, None, ())
        first = out[0][0]  # nonzero where the leading terms cancelled
        return _series(ctx, lo.v + first, tuple((o - first, c) for o, c in out) if first else tuple(out))

    def neg(self) -> "LaurentSeries":
        neg = self.ctx.neg
        return _series(self.ctx, self.v, tuple((o, neg(c)) for o, c in self.terms))

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def smul(self, scalar) -> "LaurentSeries":
        ctx = self.ctx
        if ctx.is_zero(scalar):
            return _series(ctx, None, ())
        return _series(ctx, self.v, tuple((o, ctx.mul(scalar, c)) for o, c in self.terms))

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        ctx = self.ctx
        if not (self.terms and other.terms):
            return other if self.terms else self
        mono, rest = (self, other) if len(self.terms) == 1 else (other, self)
        if len(mono.terms) == 1:  # c t^v times rest: rest's terms scaled by c
            c = mono.terms[0][1]
            terms = rest.terms if c == ctx.one else tuple((o, ctx.mul(c, b)) for o, b in rest.terms)
            return _series(ctx, mono.v + rest.v, terms)
        out = {}
        for o1, c1 in self.terms:
            for o2, c2 in other.terms:
                o = o1 + o2
                prod = ctx.mul(c1, c2)
                out[o] = ctx.add(out[o], prod) if o in out else prod
        return LaurentSeries(ctx, out).shift(self.v + other.v)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        return _series(self.ctx, self.v + k, self.terms) if self.terms else self

    def pole_part(self, k: int = 0) -> "LaurentSeries":
        """The pole part of t^k times the series: the terms of negative
        exponent after the shift, the class in F((t))/F[[t]].  The shifted
        series itself is never built."""
        terms = self.terms
        if not terms:
            return self
        if self.v + k >= 0:
            return _series(self.ctx, None, ())
        cut = -self.v - k  # the offsets below it stay
        if terms[-1][0] >= cut:
            terms = terms[: bisect_left(terms, (cut,))]
        return _series(self.ctx, self.v + k, terms)

    def frob(self) -> "LaurentSeries":
        """The p-power map: sum c_i t^i |-> sum c_i^p t^(p*i)."""
        if not self.terms:
            return self
        p, frob = self.ctx.p, self.ctx.frob
        return _series(self.ctx, p * self.v, tuple((p * o, frob(c)) for o, c in self.terms))

    # -- comparison / io ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.ctx is other.ctx and self.v == other.v and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ctx), self.v, self.terms))

    def same_values(self, other: "LaurentSeries") -> bool:
        """Equal coefficients: the same series."""
        self._check(other)
        return self.v == other.v and self.terms == other.terms

    def to_json(self):
        coeffs = self.ctx.coeffs
        return {"lo": self.v or 0, "hi": None, "terms": [[self.v + o, list(coeffs(c))] for o, c in self.terms]}

    def __repr__(self):
        if not self.terms:
            return "<0>"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            cs = str(self.ctx.encode(c)) if self.ctx.m == 1 else str(list(self.ctx.coeffs(c)))
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*t" if cs != "1" else "t")
            else:
                parts.append(f"{cs}*t^{e}" if cs != "1" else f"t^{e}")
        return f"<{' + '.join(parts)}>"


def _series(ctx, v, terms) -> LaurentSeries:
    """The series of a canonical (v, terms), stored as it is."""
    s = object.__new__(LaurentSeries)
    s.ctx, s.v, s.terms = ctx, v, terms
    return s


# ---------------------------------------------------------------------------
# parsing and levels


_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
          (?P<coeff>\d+)\s*(?:\*\s*)?(?:(?P<var1>[a-zA-Z])(?:\^(?P<exp1>-?\d+))?)?
          |
          (?P<var2>[a-zA-Z])(?:\^(?P<exp2>-?\d+))?
        )\s*""",
    re.VERBOSE,
)


def parse_series(ctx, text: str) -> LaurentSeries:
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
        if v is not None and v != "t":
            raise InvalidInputError(f"unknown variable {v!r}, expected 't'")
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
    return LaurentSeries(ctx, coeffs)


def level_json(level, den: int = 1) -> dict:
    """The level level/den as reduced {num, den}: level a Fraction or an
    int (a numerator over den), or None for +infinity."""
    if level is None:
        return {"num": None, "den": None}
    num, den = level.numerator, level.denominator * den
    g = gcd(num, den)
    return {"num": num // g, "den": den // g}

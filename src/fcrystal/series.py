"""Exact Laurent polynomials over F_{p^m}.

A series is a sparse dict {exponent: nonzero coefficient}, like a
Kummer section with r = 1: no zero coefficient is ever stored, so {}
is the zero series, dict equality is series equality and min(coeffs)
is the valuation.  Every series the engine builds is exact: sections
of j_*M on the punctured disk are Laurent polynomials in t.

The public constructor drops zero coefficients, and so do ``smul`` and
``mul``, whose products and sums can vanish.  The other operations keep
a zero-free dict zero-free and store their result as it is, without the
re-test: ``shift`` and ``pole_part`` move or drop terms, ``frob`` is
injective on coefficients (the p-power map of F_{p^m}) and on exponents,
``neg`` is injective, and ``add`` tests only the exponents both terms
share, dropping a term where it cancels.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import InvalidInputError


class LaurentSeries:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs: dict):
        self.ctx = ctx
        self.coeffs = {e: c for e, c in coeffs.items() if not ctx.is_zero(c)}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "LaurentSeries":
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx) -> "LaurentSeries":
        return cls(ctx, {0: ctx.one})

    @classmethod
    def monomial(cls, ctx, exp: int, coeff=None) -> "LaurentSeries":
        return cls(ctx, {exp: ctx.one if coeff is None else coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

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
            if e in out:
                c = ctx.add(out[e], c)
                if ctx.is_zero(c):
                    del out[e]
                    continue
            out[e] = c
        return _zero_free(ctx, out)

    def neg(self) -> "LaurentSeries":
        ctx = self.ctx
        return _zero_free(ctx, {e: ctx.neg(c) for e, c in self.coeffs.items()})

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def smul(self, scalar) -> "LaurentSeries":
        ctx = self.ctx
        return LaurentSeries(ctx, {e: ctx.mul(scalar, c) for e, c in self.coeffs.items()})

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        ctx = self.ctx
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = ctx.mul(c1, c2)
                out[e] = ctx.add(out[e], prod) if e in out else prod
        return LaurentSeries(ctx, out)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        return _zero_free(self.ctx, {e + k: c for e, c in self.coeffs.items()})

    def pole_part(self, k: int = 0) -> "LaurentSeries":
        """The pole part of t^k times the series: the terms of negative
        exponent after the shift, the class in F((t))/F[[t]].  The shifted
        series itself is never built."""
        return _zero_free(self.ctx, {e + k: c for e, c in self.coeffs.items() if e + k < 0})

    def frob(self) -> "LaurentSeries":
        """The p-power map: sum c_i t^i |-> sum c_i^p t^(p*i)."""
        ctx = self.ctx
        return _zero_free(ctx, {ctx.p * e: ctx.frob(c) for e, c in self.coeffs.items()})

    # -- comparison / io ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx), tuple(sorted(self.coeffs.items()))))

    def same_values(self, other: "LaurentSeries") -> bool:
        """Equal coefficients: the same series."""
        self._check(other)
        return self.coeffs == other.coeffs

    def to_json(self):
        return {
            "lo": self.valuation() or 0,
            "hi": None,
            "terms": [[e, list(self.ctx.coeffs(self.coeffs[e]))] for e in sorted(self.coeffs)],
        }

    def __repr__(self):
        if not self.coeffs:
            return "<0>"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = str(self.ctx.encode(c)) if self.ctx.m == 1 else str(list(self.ctx.coeffs(c)))
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*t" if cs != "1" else "t")
            else:
                parts.append(f"{cs}*t^{e}" if cs != "1" else f"t^{e}")
        return f"<{' + '.join(parts)}>"


def _zero_free(ctx, coeffs: dict) -> LaurentSeries:
    """The series of a dict that holds no zero coefficient, stored as it is."""
    s = object.__new__(LaurentSeries)
    s.ctx = ctx
    s.coeffs = coeffs
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

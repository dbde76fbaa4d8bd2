"""Deterministic arithmetic for the finite fields F_{p^m}.

An element of F_{p^m} is a residue modulo the field's modulus.  The
modulus is the first monic irreducible of degree m in the enumeration
that increments the constant coefficient fastest (candidate k encodes
the polynomial x^m + sum_i k_i x^i with k = sum_i k_i p^i), so repeated
constructions are identical across runs and platforms, and serialized
elements are byte-stable; past MODULUS_CANDIDATES candidates the search
gives up.  A sieve drops every candidate f with a factor of degree 1
or 2 (f(0) = 0, or gcd(x^(p^i) - x, f) != 1 for i = 1, 2: the first
steps of Ben-Or's test, FOCS 1981).  Berlekamp's test decides the rest
(Bell Syst. Tech. J. 46, 1967): f is irreducible iff it is squarefree
(gcd(f, f') = 1) and Q - I has rank m - 1 over F_p, Q the matrix of
Frobenius on F_p[x]/(f), since the fixed part of a squarefree quotient
is F_p^k, k the number of irreducible factors.

Only FieldCtx methods build, index, iterate, slice or serialize an
element; to other code elements are opaque values that compare and
hash.  ctx.coeffs(a) gives the m power-basis coefficients in [0, p),
constant term first, for JSON and flat F_p coordinates;
ctx.from_coeffs(cs) builds an element from such coefficients, and
ctx.el parses outside input.  The stored form is today the coefficient
tuple, which both methods return without a copy.

Fields with m >= 2 and at most TABLE_BOUND elements multiply, invert,
raise to powers and apply Frobenius by log/antilog table lookup, and
eliminate rows through Zech logarithms (Lidl-Niederreiter, Finite
Fields, section 10.3): with Z[k] = log(1 - g^k), log(a - b) = log a +
Z[(log b - log a) mod (q-1)].  Larger fields use polynomial products
and extended Euclid.  add, sub and neg are coefficientwise on every
field.  Every path returns the same elements: the stored form does not
depend on the path taken.

ctx.sub_scaled(u, c, v) is the row kernel of elimination: it returns the
list [a - c*b for a, b in zip(u, v)] for any c and any entries, zero
included, so linalg eliminates a whole row in one call.

Semilinear operators model Frobenius-twisted actions: the operator with
matrix A sends v to A @ v^(p), where v^(p) raises every coordinate to
the p-th power.  Fixed vectors of such an operator form an F_p-subspace
computed exactly by flattening F_{p^m}^n to an F_p-space of dimension
n*m.  The flattened operator is built once, as packed F_p rows in
linalg's lane layout with column c in lane c: row s of block (i, j),
c |-> a_ij c^p, combines the Frobenius images (x^t)^p, the rows of
ctx.frob_rows, weighted by row s of the multiplication matrix of a_ij,
read from its coefficients and the modulus, so no field product and
no Frobenius runs.  The identity is subtracted in the lanes, and the
rows stay packed through elimination and the kernel read-off that
linalg.kernel_int shares.

When an operator has too few fixed vectors over the base field,
`saturate_fixed_points` finds the least extension F_{p^{m*r}} where the
fixed space reaches full rank from the norm matrix N of the operator:
by Lang's theorem the fixed dimension over F_{p^{m*r}} is that of
ker(N^r - I) (Katz, LNM 350, 4.1), so each degree costs one rank over
F_p, and only the saturating degree builds its field.  Degree 1 is
still tried first on its own, and degrees whose fields would exceed
the order bound still raise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from itertools import zip_longest

from . import linalg
from .errors import BoundExceededError, CapExceededError, InvalidInputError

DEFAULT_ORDER_BOUND = 2**192
ENUMERATION_BOUND = 2**16
GENERATOR_BOUND = 2**20
DEFAULT_SATURATION_CAP = 24
TABLE_BOUND = 2**12
# the first p candidates are the binomials x^m + k_0, none irreducible if
# a prime factor of m does not divide p - 1 or if 4 | m and p = 3 mod 4;
# 4096 at p = 2^31 - 1, m = 4 take 1.7 s, and the fields of order <= 2^192
# with p <= 1013 need at most 3,687 but F_{67^24} (4,497), F_{109^28} (4,147)
MODULUS_CANDIDATES = 2**12


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomials over F_p (little-endian int lists): the modulus search
# and the field's reduction, inverse and Frobenius tables are built on these


def _pol_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pol_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pol_trim([c % p for c in out])


def _pol_divmod(a, b, p):
    """(q, r) with a = q*b + r and deg r < deg b, for trimmed b != 0."""
    r = [x % p for x in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            for j, y in enumerate(b):
                r[i - db + j] = (r[i - db + j] - c * y) % p
    return _pol_trim(q), _pol_trim(r[:db])


def _pol_gcd(a, b, p):
    """The monic gcd of a and b != 0, by Euclid on remainders alone."""
    r0, r1 = _pol_trim([x % p for x in b]), _pol_trim([x % p for x in a])
    while r1:
        r0, r1 = r1, _pol_divmod(r0, r1, p)[1]
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0]


def _pol_xgcd(a, b, p):
    """(g, s): g the monic gcd of a and b != 0, and g = s*a mod b."""
    r0, r1 = _pol_trim([x % p for x in b]), _pol_trim([x % p for x in a])
    s0, s1 = [], [1]
    while r1:
        q, r = _pol_divmod(r0, r1, p)
        qs = _pol_mul(q, s1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pol_trim([(x - y) % p for x, y in zip_longest(s0, qs, fillvalue=0)])
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0], [c * inv % p for c in s0]


def _pol_powmod(a, e, f, p):
    """a^e mod f, by square-and-multiply over the bits of e."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _pol_divmod(_pol_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = _pol_divmod(_pol_mul(out, a, p), f, p)[1]
    return out


def _x_to_the_p(f, p):
    """x^p mod f: the monomial itself when p < deg f."""
    return [0] * p + [1] if p < len(f) - 1 else _pol_powmod([0, 1], p, f, p)


def _frobenius_rows(f, p, xp):
    """Row t is x^(p*t) mod f, padded to m = deg f, for xp = x^p mod f:
    the matrix Q of a |-> a^p on F_p[x]/(f) in the power basis."""
    m = len(f) - 1
    rows = [[1]]
    for _ in range(m - 1):
        rows.append(_pol_divmod(_pol_mul(rows[-1], xp, p), f, p)[1])
    return [r + [0] * (m - len(r)) for r in rows]


def _minus_identity(mat, p):
    """mat - I mod p, as a new matrix."""
    out = [list(row) for row in mat]
    for k, row in enumerate(out):
        row[k] = (row[k] - 1) % p
    return out


def _has_factor_dividing(h, f, p):
    """gcd(h - x, f) != 1: for h = x^(p^i) mod f, f has an irreducible
    factor whose degree divides i."""
    hx = h + [0] * (2 - len(h))
    hx[1] = (hx[1] - 1) % p
    return len(_pol_gcd(_pol_trim(hx), f, p)) > 1


def _irreducible_rows(f, p):
    """The Frobenius rows Q = _frobenius_rows of F_p[x]/(f) if monic f
    (little-endian, leading 1) is irreducible over F_p, else None.  The
    sieve rejects f(0) = 0 and a factor of degree dividing i for i = 1
    and, when m >= 4, i = 2 (each i < m, so a hit is a proper factor);
    Berlekamp decides the rest: f squarefree (f' = 0 makes f a p-th
    power) and rank(Q - I) = m - 1."""
    m = len(f) - 1
    if m == 1:
        return [[1]]
    if f[0] == 0:
        return None
    xp = _x_to_the_p(f, p)
    if _has_factor_dividing(xp, f, p):
        return None
    if m >= 4 and _has_factor_dividing(_pol_powmod(xp, p, f, p), f, p):
        return None
    df = _pol_trim([i * c % p for i, c in enumerate(f)][1:])
    if not df or len(_pol_gcd(df, f, p)) > 1:
        return None
    rows = _frobenius_rows(f, p, xp)
    _, pivots = linalg.rref_int(_minus_identity(rows, p), p)
    return rows if len(pivots) == m - 1 else None


def _is_irreducible(f, p):
    """Monic f (little-endian, leading 1) irreducible over F_p."""
    return _irreducible_rows(f, p) is not None


# ---------------------------------------------------------------------------


class FieldCtx:
    """Arithmetic context for F_{p^m}.  Construct via make_field."""

    __slots__ = (
        "p",
        "m",
        "modulus",
        "order",
        "zero",
        "one",
        "_xred",
        "frob_rows",
        "_gen",
        "_log",
        "_exp",
        "_zech",
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], frob_rows=None):
        self.p = p
        self.m = m
        self.modulus = tuple(modulus)
        self.order = p**m
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        f = list(modulus) + [1]
        # x^(m+k) reduced mod the modulus, for k in [0, m-2]
        xred, xk = [], [0] * m + [1]
        for _ in range(m - 1):
            xk = _pol_divmod(xk, f, p)[1]
            xred.append(tuple(xk) + (0,) * (m - len(xk)))
            xk = [0] + xk
        self._xred = tuple(xred)
        # row t: the coefficients of (x^t)^p, the Frobenius matrix in the power
        # basis; the modulus search passes the rows its irreducibility test built
        if frob_rows is None:
            frob_rows = _frobenius_rows(f, p, _x_to_the_p(f, p))
        self.frob_rows = tuple(map(tuple, frob_rows))
        self._gen = None
        self._log = self._exp = self._zech = None
        if m >= 2 and self.order <= TABLE_BOUND:
            self._log, self._exp, self._zech = self._build_tables()

    def _build_tables(self):
        """Log, antilog and Zech tables of the multiplicative group.

        exp holds g^k for k in [0, 2(q-1)), so exp[log a + log b] needs no
        reduction.  Zero logs to 2(q-1) and exp is zero from that index
        on, so a product with a zero factor needs no branch either.
        zech[k] = log(1 - g^k) for k in [0, q-1), from the coefficient
        difference, so zech[0] is the zero code.  Raises unless the
        generator g has order exactly q-1.
        """
        g = self.generator
        n1 = self.order - 1
        powers = [self.one]
        for _ in range(n1 - 1):
            powers.append(self._poly_mul(powers[-1], g))
        if self._poly_mul(powers[-1], g) != self.one or len(set(powers)) != n1:
            raise InvalidInputError(f"{list(self.coeffs(g))} does not generate the units of {self!r}")
        log = {a: k for k, a in enumerate(powers)}
        log[self.zero] = 2 * n1
        p = self.p
        zech = tuple(log[tuple((x - y) % p for x, y in zip(self.one, gk))] for gk in powers)
        return log, tuple(powers) * 2 + (self.zero,) * (2 * n1 + 1), zech

    def __repr__(self):
        return f"FieldCtx(p={self.p}, m={self.m})"

    def el(self, coeffs) -> tuple[int, ...]:
        """Normalize an int or coefficient sequence to an element."""
        if isinstance(coeffs, int):
            return self.from_int(coeffs)
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.m:
            raise InvalidInputError(f"too many coefficients for m={self.m}")
        return tuple(cs + [0] * (self.m - len(cs)))

    def from_int(self, k: int) -> tuple[int, ...]:
        return (k % self.p,) + (0,) * (self.m - 1)

    def coeffs(self, a) -> tuple[int, ...]:
        """The m power-basis coefficients of a, constant term first."""
        return a

    def from_coeffs(self, cs) -> tuple[int, ...]:
        """The element with power-basis coefficients cs, each in [0, p)."""
        return tuple(cs)

    def is_zero(self, a) -> bool:
        return not any(a)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def sub_scaled(self, u, c, v) -> list:
        """The list [a - c*b for a, b in zip(u, v)]: one elimination step
        on a row, for any c, zero entries included.

        Table fields read log c once and take one Zech step per entry:
        log(a - c*b) = log a + zech[(log c + log b - log a) mod (q-1)]
        when a, b and c are nonzero; a zero b leaves a, and a zero a gives
        -c*b at log c + log(-1) + log b, where log(-1) is (q-1)/2, or 0
        when p = 2.  Every other field multiplies and subtracts.
        """
        log = self._log
        if log is None:
            sub, mul = self.sub, self.mul
            return [sub(a, mul(c, b)) for a, b in zip(u, v)]
        n1 = self.order - 1
        zc, lc = 2 * n1, log[c]
        if lc == zc:
            return list(u)
        exp, zech = self._exp, self._zech
        lneg = lc if self.p == 2 else (lc + n1 // 2) % n1
        out = []
        for a, b in zip(u, v):
            lb = log[b]
            if lb == zc:
                out.append(a)
                continue
            la = log[a]
            if la == zc:
                out.append(exp[lneg + lb])
            else:
                out.append(exp[la + zech[(lc + lb - la) % n1]])
        return out

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        if self.m == 1:
            return ((a[0] * b[0]) % self.p,)
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        return self._poly_mul(a, b)

    def _poly_mul(self, a, b):
        p, m = self.p, self.m
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:m]
        for k in range(m, 2 * m - 1):
            c = conv[k]
            if c:
                red = self._xred[k - m]
                for t in range(m):
                    out[t] += c * red[t]
        return tuple(x % p for x in out)

    def smul(self, c: int, a):
        p = self.p
        return tuple((c * x) % p for x in a)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        p, m = self.p, self.m
        if m == 1:
            return (pow(a[0], -1, p),)
        if self._log is not None:
            return self._exp[-self._log[a] % (self.order - 1)]
        s = _pol_xgcd(list(a), list(self.modulus) + [1], p)[1]
        return tuple(s) + (0,) * (m - len(s))

    def pow(self, a, e: int):
        if self.is_zero(a):
            if e == 0:
                return self.one
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return self.zero
        if self._log is not None:
            return self._exp[self._log[a] * e % (self.order - 1)]
        e %= self.order - 1
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frob(self, a):
        """The p-power Frobenius, applied as an F_p-linear map."""
        if self.m == 1:
            return a
        if self._log is not None:
            n1 = self.order - 1
            la = self._log[a]
            if la == 2 * n1:
                return a
            return self._exp[la * self.p % n1]
        out = [0] * self.m
        for c, img in zip(a, self.frob_rows):
            if c:
                for t in range(self.m):
                    out[t] += c * img[t]
        p = self.p
        return tuple(x % p for x in out)

    def encode(self, a) -> int:
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def decode(self, n: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def elements(self):
        if self.order > ENUMERATION_BOUND:
            raise BoundExceededError(
                f"refusing to enumerate {self.order} field elements"
            )
        return (self.decode(n) for n in range(self.order))

    @property
    def generator(self) -> tuple[int, ...]:
        """Smallest multiplicative generator in the encoding order."""
        if self._gen is not None:
            return self._gen
        if self.order > GENERATOR_BOUND:
            raise BoundExceededError(
                f"generator search disabled above order {GENERATOR_BOUND}"
            )
        n1 = self.order - 1
        exps = [n1 // ell for ell in prime_factors(n1)]
        for n in range(1, self.order):
            g = self.decode(n)
            if all(self.pow(g, e) != self.one for e in exps):
                self._gen = g
                return g
        raise InvalidInputError("no generator found (non-field modulus?)")

    def to_json(self):
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


def make_field(p: int, m: int) -> FieldCtx:
    """The field F_{p^m} with its canonical modulus.

    Deterministic: the modulus is the first irreducible in the fixed
    enumeration, so two calls anywhere agree coefficient for
    coefficient.  Raises for non-prime p, m < 1, or orders beyond
    DEFAULT_ORDER_BOUND.  Every call for one (p, m), however it is spelled,
    returns the same context, so identity checks on ctx compare fields.
    """
    if not is_prime(p):
        raise InvalidInputError(f"p={p} is not prime")
    if m < 1:
        raise InvalidInputError(f"m={m} must be >= 1")
    if m >= DEFAULT_ORDER_BOUND.bit_length():  # p^m >= 2^m > the bound; p^m is not formed
        raise BoundExceededError(f"field order {p}^{m} exceeds bound {DEFAULT_ORDER_BOUND}")
    if p**m > DEFAULT_ORDER_BOUND:
        raise BoundExceededError(f"field order p^m={p**m} exceeds bound {DEFAULT_ORDER_BOUND}")
    return _canonical_field(p, m)


@functools.cache
def _canonical_field(p: int, m: int) -> FieldCtx:
    for enc in range(min(p**m, MODULUS_CANDIDATES)):
        coeffs = []
        n = enc
        for _ in range(m):
            coeffs.append(n % p)
            n //= p
        rows = _irreducible_rows(coeffs + [1], p)
        if rows is not None:
            return FieldCtx(p, m, tuple(coeffs), rows)
    message = f"no irreducible modulus of F_{{{p}^{m}}} among the first {MODULUS_CANDIDATES} candidates"
    raise CapExceededError(message, [("modulus_candidates", MODULUS_CANDIDATES)])


def primitive_root_of_unity(ctx: FieldCtx, d: int):
    """The canonical primitive d-th root of unity g^((q-1)/d).

    Requires d >= 1 and d | q-1 (which forces gcd(d, p) = 1).
    """
    if d < 1:
        raise InvalidInputError(f"d={d} must be >= 1")
    if (ctx.order - 1) % d != 0:
        raise InvalidInputError(
            f"no primitive {d}-th root in F_{{{ctx.p}^{ctx.m}}}: {d} does not divide q-1={ctx.order - 1}"
        )
    return ctx.pow(ctx.generator, (ctx.order - 1) // d)


# ---------------------------------------------------------------------------
# semilinear operators


@dataclass(frozen=True)
class SemilinearOperator:
    """v |-> entries @ v^(p) on F_q^n, with v^(p) the coordinatewise p-power."""

    ctx: FieldCtx
    entries: tuple[tuple[tuple[int, ...], ...], ...]
    invertible: bool = dc_field(init=False, default=False)

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise InvalidInputError("operator matrix must be square")
        object.__setattr__(
            self, "invertible", linalg.is_invertible(self.ctx, self.entries)
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def apply(self, v):
        ctx = self.ctx
        return linalg.mat_vec(ctx, self.entries, tuple(ctx.frob(x) for x in v))


def _flat_rows(ctx: FieldCtx, entries):
    """(lanes, rows): the (n*m) x (n*m) F_p-matrix of v |-> A v^(p) on the
    flattened F_q^n as packed rows, column c in lane c, each lane at most
    m (p-1)^2 and not yet reduced; the lanes have room for one residue
    more."""
    p, m, n = ctx.p, ctx.m, len(entries)
    lanes = linalg._lanes(p, n * m, m + 1)
    bits = lanes.bits
    # images[j][u]: coefficient u of every image, (x^t)^p in lane j*m + t
    images = [0] * m
    for img in reversed(ctx.frob_rows):
        images = [v << bits | x for v, x in zip(images, img)]
    images = [[v << bits * m * j for v in images] for j in range(n)]
    red = [-c % p for c in ctx.modulus]  # x^m as a combination of 1, x, ..., x^(m-1)
    rows = []
    for row in entries:
        acc = [0] * m
        for a, imgs_j in zip(row, images):
            col = list(ctx.coeffs(a))  # a x^u, column u of a's multiplication matrix
            if not any(col[1:]):  # a in F_p multiplies by a_0 I
                if col[0]:
                    acc = [v + col[0] * img for v, img in zip(acc, imgs_j)]
                continue
            for u, img in enumerate(imgs_j):
                if u:
                    top, col = col[-1], [0] + col[:-1]
                    if top:
                        col = [(x + top * r) % p for x, r in zip(col, red)]
                for s, x in enumerate(col):
                    if x:
                        acc[s] += x * img
        rows += acc
    return lanes, rows


def _fixed_point_rows(ctx: FieldCtx, entries):
    """Echelonized F_p-basis (flat rows + pivots) of {v : v = A v^(p)}.

    Block (i, j) of the flattened operator is c |-> a_ij c^p: its row s
    holds in lane t coefficient s of a_ij (x^t)^p, the multiplication
    row s of a_ij (coefficient s of a_ij x^u, column u) times the
    Frobenius images (x^t)^p, so no field product runs.  The identity is
    subtracted in the lanes (lane k of row k) before the one reduction,
    and with column c in lane c the rows are already in the order the
    kernel read-off of linalg.kernel_int takes."""
    lanes, rows = _flat_rows(ctx, entries)
    bits, minus_one = lanes.bits, ctx.p - 1
    rows = [lanes.reduce(v + (minus_one << bits * k)) for k, v in enumerate(rows)]
    return linalg._kernel_packed(rows, lanes)


def _decode_flat(ctx: FieldCtx, flat, n: int):
    m = ctx.m
    return tuple(ctx.from_coeffs(flat[j * m : (j + 1) * m]) for j in range(n))


def semilinear_fixed_points(ctx: FieldCtx, op) -> list:
    """Echelonized F_p-basis of the fixed vectors of a semilinear operator.

    Accepts a SemilinearOperator or a raw square matrix of elements.
    The flattened v |-> v - A v^(p) map is F_p-linear; its kernel is
    returned as vectors over ctx, echelonized in the flat coordinates.
    """
    entries = op.entries if isinstance(op, SemilinearOperator) else tuple(op)
    n = len(entries)
    rows, _ = _fixed_point_rows(ctx, entries)
    return [_decode_flat(ctx, r, n) for r in rows]


@dataclass(frozen=True)
class Embedding:
    """The canonical embedding F_{p^m} -> F_{p^{m*r}}."""

    small: FieldCtx
    big: FieldCtx
    theta_pows: tuple

    def map(self, a):
        big = self.big
        out = big.zero
        for c, tp in zip(self.small.coeffs(a), self.theta_pows):
            if c:
                out = big.add(out, big.smul(c, tp))
        return out

    def map_matrix(self, mat):
        return tuple(tuple(self.map(x) for x in row) for row in mat)


@functools.lru_cache(maxsize=None)
def embed_field(small: FieldCtx, big: FieldCtx) -> Embedding:
    """Embed small into big along the smallest root of small's modulus.

    The subfield of big of degree small.m is the kernel of phi^m - id
    for phi the Frobenius matrix; its elements are enumerated (bounded
    by the small field's order) and the lexicographically smallest root
    of small's modulus picked, so the embedding is deterministic.  A
    field embeds into itself by the identity, which needs no search.
    """
    if small is big:  # x, coded p, is the least root: constants code below p, the rest above
        return Embedding(big, big, tuple(big.decode(big.p**t) for t in range(big.m)))
    if small.p != big.p or big.m % small.m != 0:
        raise InvalidInputError(
            f"no embedding: F_{{{small.p}^{small.m}}} into F_{{{big.p}^{big.m}}}"
        )
    if small.order > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"embedding search needs subfield enumeration; order {small.order} too large"
        )
    p, ms, mb = small.p, small.m, big.m
    if small.m == 1:
        return Embedding(small, big, (big.one,))
    # Frobenius as an mb x mb matrix over F_p, columns = frob(x^t)
    phi = [list(col) for col in zip(*big.frob_rows)]
    phim = linalg.mat_pow_int(phi, ms, p)
    diff = [[(phim[i][j] - (1 if i == j else 0)) % p for j in range(mb)] for i in range(mb)]
    sub_rows, _ = linalg.kernel_int(diff, p)
    if len(sub_rows) != ms:
        raise InvalidInputError("subfield has unexpected dimension")
    # enumerate the p^ms subfield elements, collect roots of the modulus
    f = list(small.modulus) + [1]
    roots = []
    for n in range(p**ms):
        theta = big.zero
        for c, row in zip(small.coeffs(small.decode(n)), sub_rows):
            if c:
                theta = big.add(theta, big.smul(c, big.from_coeffs(row)))
        acc = big.one
        val = big.zero
        for c in f:
            if c:
                val = big.add(val, big.smul(c, acc))
            acc = big.mul(acc, theta)
        if big.is_zero(val):
            roots.append(theta)
    if len(roots) != ms:
        raise InvalidInputError("modulus does not split in the subfield")
    theta = min(roots, key=big.encode)
    pows = [big.one]
    for _ in range(ms - 1):
        pows.append(big.mul(pows[-1], theta))
    return Embedding(small, big, tuple(pows))


@dataclass(frozen=True)
class SaturationResult:
    """Fixed points of a semilinear operator after base extension.

    basis holds the fixed vectors over field; rows and pivots are the
    same basis as echelonized F_p rows of the flat coordinates (vector
    entry j's coefficients at j*m, ..., j*m + m - 1, m = field.m), in
    which coords reads coordinates off.
    """

    degree: int
    field: FieldCtx
    embedding: Embedding
    basis: tuple
    rows: tuple
    pivots: tuple
    profile: tuple  # (r, fixed dimension) for every degree tried

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coords(self, vectors):
        """The F_p matrix whose column j holds vectors[j] in the basis,
        or None when a vector is not fixed."""
        big, cols = self.field, []
        for v in vectors:
            flat = [c for x in v for c in big.coeffs(x)]
            col = linalg.express_int(self.rows, self.pivots, flat, big.p)
            if col is None:
                return None
            cols.append(col)
        return tuple(zip(*cols))


def saturate_fixed_points(
    ctx: FieldCtx, op, cap: int = DEFAULT_SATURATION_CAP
) -> SaturationResult:
    """Smallest extension degree r where the fixed space reaches rank n.

    Requires the operator matrix A to be invertible (otherwise full rank
    is never reached).  Degree 1 is tried first, by the F_p kernel of the
    flattened operator over ctx itself.  Above it the profile comes from
    the norm matrix N = A sigma(A) ... sigma^{m-1}(A), q = p^m: by Lang's
    theorem (Amer. J. Math. 78, 1956) the fixed vectors over the
    algebraic closure form an n-dimensional F_p-space on which the
    q-Frobenius acts by a conjugate of N^{-1} (Katz, LNM 350, 4.1), so
    over F_{q^r} the fixed space has dimension dim_{F_q} ker(N^r - I)
    and the saturation degree is the multiplicative order of N.  The
    m-th power of the flattened operator is the flattened N, so each
    degree costs one F_p rank, taken on N^r held as packed rows from
    one degree to the next; only the degree that saturates builds
    F_{q^r}, whose fixed-space kernel gives the basis and must have n
    rows.  A degree whose field order exceeds DEFAULT_ORDER_BOUND raises
    BoundExceededError, as building that field would.  Raises
    CapExceededError carrying the (r, dimension) profile when the cap
    runs out.
    """
    if not isinstance(op, SemilinearOperator):
        op = SemilinearOperator(ctx, tuple(tuple(row) for row in op))
    if not op.invertible:
        raise InvalidInputError("saturation requires an invertible operator matrix")
    n, p, m = op.n, ctx.p, ctx.m
    message = f"fixed space did not reach rank {n} within {cap} extension degrees"
    if cap < 1:
        raise CapExceededError(message, ())
    big, emb = ctx, embed_field(ctx, ctx)
    rows, pivots = _fixed_point_rows(ctx, op.entries)
    profile = [(1, len(rows))]
    if len(rows) < n:
        lanes, flat = _flat_rows(ctx, op.entries)
        flat = [lanes.unpack(lanes.reduce(v))[::-1] for v in flat]
        ranks = linalg._power_ranks(linalg.mat_pow_int(flat, m, p), p)
        for r in range(2, cap + 1):
            if p ** (m * r) > DEFAULT_ORDER_BOUND:
                make_field(p, m * r)  # raises BoundExceededError
            rank = next(ranks)
            profile.append((r, n - rank // m))
            if not rank:
                break
        else:
            raise CapExceededError(message, tuple(profile))
        big = make_field(p, m * r)
        emb = embed_field(ctx, big)
        rows, pivots = _fixed_point_rows(big, emb.map_matrix(op.entries))
        if len(rows) != n:
            raise RuntimeError(
                f"N^{r} = I but the fixed space over F_{{{p}^{m * r}}} has rank {len(rows)} < {n}"
            )
    basis = tuple(_decode_flat(big, fr, n) for fr in rows)
    return SaturationResult(len(profile), big, emb, basis, tuple(rows), tuple(pivots), tuple(profile))

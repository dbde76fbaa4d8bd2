"""Exact linear algebra over prime fields and their extensions.

The ``*_int`` functions work on matrices of Python ints mod p: they
take rows as lists or tuples of any ints and return lists of ints in
[0, p).  Elimination (``rref_int``, ``kernel_int`` and ``invert_int``)
and products (``mat_mul_int``, ``mat_pow_int``) hold each row of
``width`` entries as one int with fixed-width lanes (``_Lanes``,
private): entry j sits in lane width-1-j, so the leading entry is the
top lane and the largest row has the leftmost lead.  A row operation is
one big-int multiply-add, row + (p - f) * pivot_row, and a pivot lane is
one shift and mask.  ``kernel_int`` packs the columns reversed, column c
in lane c, and reads its basis off the packed rows (``_kernel_packed``,
which also takes rows packed that way by their builder).

Before a reduction every lane holds some v <= bound: p(p-1) after a row
operation, terms * (p-1)^2 in a sum of ``terms`` products.  All lanes
then reduce mod p at once, V - (((V * M) >> s) & Q) * p, with s the bit
length of bound * p, M = ceil(2^s / p) and Q the low lane width - s bits
of every lane; lanes are wide enough for bound * M, so no lane carries
into the next.  Each lane's quotient is exact: with M p = 2^s + e,
0 <= e < p, v M / 2^s = v / p + v e / (p 2^s), where the last term is
below 1/p because v p < 2^s, and the fractional part of v / p is at
most (p-1)/p.  This is delayed modular reduction (Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008) with a multiply-shift quotient (Granlund
and Montgomery, PLDI 1994), on one path for every prime.

The ctx functions work on matrices whose entries are field elements of
a ``FieldCtx`` (any object providing add/sub/neg/mul/inv/is_zero/zero/
one and the row kernel ``sub_scaled(u, c, v)``, the list of
u[k] - c*v[k]); they reach the elements only through these methods.
``rref`` and ``express`` eliminate one row per ``sub_scaled`` call.

Echelonized bases are returned as (rows, pivots): ``rows`` is in
reduced row echelon form with leading entries 1, ``pivots`` the column
index of each leading entry.  Expressing a vector against such a basis
is a pivot read-off followed by an exact remainder check.
"""

from __future__ import annotations

import functools

# ---------------------------------------------------------------------------
# prime-field (int) matrices


class _Lanes:
    """The packed layout of rows of ``width`` entries mod p whose lanes
    may hold, before a reduction, a row operation a + (p - f) b or a sum
    of ``terms`` products of residues.  ``shift`` and ``magic`` are s and
    M of the module docstring; ``bits`` is the lane width."""

    __slots__ = ("p", "width", "bits", "mask", "shift", "magic", "qmask", "shifts")

    def __init__(self, p, width, terms):
        bound = (p - 1) * max(p, terms * (p - 1))  # largest unreduced lane
        self.p, self.width = p, width
        self.shift = (bound * p).bit_length()
        self.magic = -(-(1 << self.shift) // p)
        self.bits = (bound * self.magic).bit_length()
        self.mask = (1 << self.bits) - 1
        ones = ((1 << self.bits * width) - 1) // self.mask
        self.qmask = ((1 << self.bits - self.shift) - 1) * ones
        self.shifts = [self.bits * (width - 1 - j) for j in range(width)]

    def reduce(self, v):
        """Every lane of v mod p."""
        return v - (((v * self.magic) >> self.shift) & self.qmask) * self.p

    def pack(self, row):
        p, bits, acc = self.p, self.bits, 0
        for x in row:
            acc = (acc << bits) | (x % p)
        return acc

    def unpack(self, v):
        mask = self.mask
        return [(v >> s) & mask for s in self.shifts]

    def combine(self, coeffs, rows):
        """The packed rows sum_k c[k] rows[k], one for each coefficient row c."""
        p, out = self.p, []
        for c in coeffs:
            acc = 0
            for x, row in zip(c, rows):
                x %= p
                if x:
                    acc += x * row
            out.append(self.reduce(acc))
        return out


@functools.lru_cache(maxsize=256)  # bounded: every matrix shape makes a layout
def _lanes(p, width, terms=1):
    return _Lanes(p, width, terms)


def _rref_packed(rows, lanes):
    """Reduced row echelon form of packed rows, in place: returns the
    nonzero rows and the pivot columns.  The largest remaining row has
    the leftmost leading entry; the form is unique, so the choice among
    rows sharing it does not show."""
    p, bits, mask, reduce = lanes.p, lanes.bits, lanes.mask, lanes.reduce
    n = len(rows)
    pivots = []
    for r in range(n):
        top = max(rows[r:])
        if not top:
            break
        i = rows.index(top, r)
        rows[i] = rows[r]
        shift = (top.bit_length() - 1) // bits * bits
        lead = top >> shift
        if lead != 1:
            top = reduce(top * pow(lead, -1, p))
        rows[r] = top
        for i in range(n):
            if i != r:
                f = (rows[i] >> shift) & mask
                if f:
                    rows[i] = reduce(rows[i] + (p - f) * top)
        pivots.append(lanes.width - 1 - shift // bits)
    return rows[: len(pivots)], pivots


def rref_int(rows, p):
    """Reduced row echelon form mod p.  Returns (rows, pivots)."""
    lanes = _lanes(p, len(rows[0]) if rows else 0)
    red, pivots = _rref_packed([lanes.pack(row) for row in rows], lanes)
    return [lanes.unpack(v) for v in red], pivots


def kernel_int(mat, p):
    """Echelonized basis of {v : mat @ v = 0} mod p.  Returns (rows, pivots)."""
    lanes = _lanes(p, len(mat[0]) if mat else 0)
    return _kernel_packed([lanes.pack(row[::-1]) for row in mat], lanes)


def _kernel_packed(rows, lanes):
    """kernel_int on packed rows that hold column c in lane c, the
    columns reversed from ``pack``'s order; eliminates rows in place.

    A row's leading lane is then its last nonzero column.  Each non-pivot
    column f gives the kernel vector that is 1 at f, minus lane f of the
    reduced rows at their pivot columns, and 0 at the other non-pivot
    columns; a row with an entry in lane f has its pivot right of f.  In
    the order of f, every vector leads with the 1 at its own f and is 0
    at the other vectors' leads, so the vectors are already reduced."""
    p, bits, mask, width = lanes.p, lanes.bits, lanes.mask, lanes.width
    red, pivots = _rref_packed(rows, lanes)
    leads = [width - 1 - c for c in pivots]
    free = sorted(set(range(width)) - set(leads))
    basis = []
    for f in free:
        v = [0] * width
        v[f] = 1
        for row, c in zip(red, leads):
            x = (row >> bits * f) & mask
            if x:
                v[c] = p - x
        basis.append(v)
    return basis, free


def _power_ranks(a, p):
    """rank(A^r - I) mod p for r = 2, 3, ..., lazily.  A^r stays packed:
    A^(r+1) = A A^r takes A's rows as the coefficients."""
    lanes = _lanes(p, len(a), len(a))
    minus_one = [(p - 1) << s for s in lanes.shifts]
    power = [lanes.pack(row) for row in a]
    while True:
        power = lanes.combine(a, power)
        diff = [lanes.reduce(row + d) for row, d in zip(power, minus_one)]
        yield len(_rref_packed(diff, lanes)[1])


def express_int(rows, pivots, vec, p):
    """Coordinates of vec in an echelonized basis, or None if outside it."""
    coords = [vec[c] % p for c in pivots]
    rem = list(vec)
    for x, row in zip(coords, rows):
        if x:
            rem = [(a - x * b) % p for a, b in zip(rem, row)]
    if any(x % p for x in rem):
        return None
    return coords


def mat_mul_int(a, b, p):
    """a @ b mod p; each output row is the combination sum_k a[i][k] b[k]
    of the packed rows of b, reduced once.  An empty b has width 0."""
    lanes = _lanes(p, len(b[0]) if b else 0, len(b))
    return [lanes.unpack(v) for v in lanes.combine(a, [lanes.pack(row) for row in b])]


def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_pow_int(a, e, p):
    """a^e mod p by squaring, on packed rows: a product takes the left
    factor's unpacked rows as coefficients."""
    if not e:
        return identity_int(len(a))
    lanes = _lanes(p, len(a), len(a))
    base = [lanes.pack(row) for row in a]
    out = None
    while True:
        if e & 1:
            out = base if out is None else lanes.combine(map(lanes.unpack, out), base)
        e >>= 1
        if not e:
            return [lanes.unpack(v) for v in out]
        base = lanes.combine(map(lanes.unpack, base), base)


def charpoly_int(mat, p):
    """Characteristic polynomial det(x - mat) mod p, as its coefficients
    from the leading 1 down to the constant term.

    Reduces a copy to upper Hessenberg form by similarity (row operation
    and the inverse column operation), then expands by the recurrence
    on leading principal minors: the Hessenberg method of Cohen, GTM 138,
    section 2.2.
    """
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    # polys[k] is the charpoly of the leading k x k block, constant term first
    polys = [[1]]
    for m in range(n):
        nxt = [0] + polys[m]
        for k, c in enumerate(polys[m]):
            nxt[k] -= h[m][m] * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = t * h[i][m]
            for k, c in enumerate(polys[i]):
                nxt[k] -= f * c
        polys.append([c % p for c in nxt])
    return polys[n][::-1]


def invert_int(mat, p):
    """Inverse mod p, or None if singular."""
    n = len(mat)
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref_int(aug, p)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in red[:n]]


# ---------------------------------------------------------------------------
# extension-field matrices (entries are FieldCtx elements)


def mat_vec(ctx, mat, vec):
    out = []
    for row in mat:
        acc = ctx.zero
        for a, b in zip(row, vec):
            acc = ctx.add(acc, ctx.mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_mul(ctx, a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        line = []
        for col in cols:
            acc = ctx.zero
            for x, y in zip(row, col):
                acc = ctx.add(acc, ctx.mul(x, y))
            line.append(acc)
        out.append(tuple(line))
    return tuple(out)


def mat_frob(ctx, mat):
    return tuple(tuple(ctx.frob(x) for x in row) for row in mat)


def rref(ctx, rows):
    """Reduced row echelon form over ctx.  Returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not ctx.is_zero(mat[i][c])), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = ctx.inv(mat[r][c])
        # left of c the row is zero: every earlier column is a pivot
        # column cleared below its pivot, or was zero from row r down
        mat[r][c:] = [ctx.mul(inv, x) for x in mat[r][c:]]
        for i in range(nrows):
            if i != r and not ctx.is_zero(mat[i][c]):
                mat[i] = ctx.sub_scaled(mat[i], mat[i][c], mat[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(ctx, mat):
    return len(rref(ctx, mat)[1])


def kernel(ctx, mat):
    """Echelonized basis of {v : mat @ v = 0}.  Returns (rows, pivots)."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    red, pivots = rref(ctx, mat)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for i, c in enumerate(pivots):
            v[c] = ctx.neg(red[i][free])
        basis.append(v)
    if not basis:
        return [], []
    return rref(ctx, basis)


def express(ctx, rows, pivots, vec):
    """Coordinates of vec in an echelonized basis, or None if outside it."""
    coords = [vec[c] for c in pivots]
    rem = list(vec)
    for x, row in zip(coords, rows):
        if not ctx.is_zero(x):
            rem = ctx.sub_scaled(rem, x, row)
    if any(not ctx.is_zero(x) for x in rem):
        return None
    return coords


def invert(ctx, mat):
    """Inverse over ctx, or None if singular."""
    n = len(mat)
    if n == 0:
        return ()
    aug = [
        list(mat[i]) + [ctx.one if j == i else ctx.zero for j in range(n)]
        for i in range(n)
    ]
    red, pivots = rref(ctx, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red[:n])


def is_invertible(ctx, mat):
    n = len(mat)
    if n == 0:
        return True
    if any(len(row) != n for row in mat):
        return False
    return rank(ctx, mat) == n

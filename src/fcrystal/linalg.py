"""Exact linear algebra over prime fields and their extensions.

Two parallel toolkits.  The ``*_int`` functions work on matrices of
Python ints reduced mod p (rows are lists/tuples of ints); they are the
hot path for the flattened F_p computations.  The ctx functions work on
matrices whose entries are field elements of a ``FieldCtx`` (any object
providing add/sub/neg/mul/inv/is_zero/zero/one and the row kernel
``sub_scaled(u, c, v)``, the list of u[k] - c*v[k]); they reach the
elements only through these methods.  ``rref`` and ``express`` eliminate
one row per ``sub_scaled`` call.

Echelonized bases are returned as (rows, pivots): ``rows`` is in
reduced row echelon form with leading entries 1, ``pivots`` the column
index of each leading entry.  Expressing a vector against such a basis
is a pivot read-off followed by an exact remainder check.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# prime-field (int) matrices


def rref_int(rows, p):
    """Reduced row echelon form mod p.  Returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def kernel_int(mat, p):
    """Echelonized basis of {v : mat @ v = 0} mod p.  Returns (rows, pivots)."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    red, pivots = rref_int(mat, p)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red[i][free]) % p
        basis.append(v)
    if not basis:
        return [], []
    return rref_int(basis, p)


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
    """a @ b mod p; each output row is the combination sum_k a[i][k] b[k],
    skipping zero coefficients and reduced once.  An empty b has width 0."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append([s % p for s in acc])
    return out


def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_pow_int(a, e, p):
    n = len(a)
    out = identity_int(n)
    base = [list(r) for r in a]
    while e:
        if e & 1:
            out = mat_mul_int(out, base, p)
        base = mat_mul_int(base, base, p)
        e >>= 1
    return out


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

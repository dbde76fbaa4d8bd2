"""The packed fixed-point kernel against the list path it replaced.

``oracle_flat_operator`` is the loop that built the flattened matrix of
v |-> A v^(p) with one field product per (entry, basis vector), kept here
unchanged; the fixed space is the kernel of that matrix minus I, taken
with the list-based elimination of test_linalg_oracle.  Reduced row
echelon form is unique, so ``field._fixed_point_rows`` must return
exactly the same rows and pivots: for p in {2, 3, 5, 7, 65537, 2^31 - 1}
and m in {1, 2, 3, 4, 6, 13, 24} where the field exists, n in {1, 2, 3},
on matrices with entries in F_p, in the whole field, mixed with zeros,
and on the zero and identity matrices, with elements stored as tuples
and, through test_element_format's IntField, as ints.
"""

from random import Random

import pytest
from test_element_format import _int_field
from test_linalg_oracle import oracle_kernel_int

from fcrystal import field
from fcrystal.field import FieldCtx, make_field, saturate_fixed_points

# (p, m) pairs that make_field builds: the others exceed the order bound
# (65537^13 and up, (2^31 - 1)^13 and up) or run out of modulus
# candidates (65537^3, 65537^6, (2^31 - 1)^4)
FIELDS = [(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3, 4, 6, 13, 24)]
FIELDS += [(65537, 1), (65537, 2), (65537, 4)]
FIELDS += [(2**31 - 1, 1), (2**31 - 1, 2), (2**31 - 1, 3), (2**31 - 1, 6)]


def oracle_flat_operator(ctx, entries):
    """The (n*m) x (n*m) F_p-matrix of v |-> A v^(p) on the flattened F_q^n."""
    n = len(entries)
    m = ctx.m
    big_n = n * m
    frobpow = [ctx.frob(ctx.decode(ctx.p**t)) for t in range(m)]  # (x^t)^p, x^t of int code p^t
    mat = [[0] * big_n for _ in range(big_n)]
    for j in range(n):
        for t in range(m):
            col = j * m + t
            for i in range(n):
                e = ctx.coeffs(ctx.mul(entries[i][j], frobpow[t]))
                for s in range(m):
                    if e[s]:
                        mat[i * m + s][col] = e[s]
    return mat


def oracle_minus_identity(mat, p):
    """mat - I mod p, as a new matrix."""
    out = [list(row) for row in mat]
    for k, row in enumerate(out):
        row[k] = (row[k] - 1) % p
    return out


def oracle_fixed_point_rows(ctx, entries):
    return oracle_kernel_int(oracle_minus_identity(oracle_flat_operator(ctx, entries), ctx.p), ctx.p)


def _matrices(ctx, n, rng):
    """Entries from F_p, from the whole field, mixed with zeros, and the
    zero and identity matrices."""
    def prime():
        return ctx.from_int(rng.randrange(ctx.p))

    def whole():
        return ctx.decode(rng.randrange(ctx.order))

    def mixed():
        return rng.choice((ctx.zero, prime(), whole()))

    for draw in (prime, whole, mixed):
        yield tuple(tuple(draw() for _ in range(n)) for _ in range(n))
    yield tuple(tuple(ctx.zero for _ in range(n)) for _ in range(n))
    yield tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n))


@pytest.mark.parametrize("stored", ["tuple", "int"])
@pytest.mark.parametrize("p, m", FIELDS)
def test_fixed_point_rows_match_the_list_path(p, m, stored):
    ctx = make_field(p, m) if stored == "tuple" else _int_field(p, m)
    rng = Random(f"{p}-{m}")
    for n in (1, 2, 3):
        for entries in _matrices(ctx, n, rng):
            assert field._fixed_point_rows(ctx, entries) == oracle_fixed_point_rows(ctx, entries), entries


def test_identity_and_zero_fix_what_they_should():
    # v = v^(p) holds on F_p^n exactly; v = 0 only at v = 0
    ctx = make_field(7, 3)
    one = ((ctx.one, ctx.zero), (ctx.zero, ctx.one))
    rows, pivots = field._fixed_point_rows(ctx, one)
    assert pivots == [0, 3] and rows == [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    assert field._fixed_point_rows(ctx, ((ctx.zero,) * 2,) * 2) == ([], [])


def test_fixed_point_rows_make_no_field_products(monkeypatch):
    # [[0, 1], [3, 1]] has order 24 in GL_2(F_7), so saturation runs the
    # kernel over F_7 and over F_{7^24}; neither may multiply elements
    ctx = make_field(7, 1)
    entries = tuple(tuple(ctx.from_int(x) for x in row) for row in ((0, 1), (3, 1)))
    calls, inside = {"mul": 0, "kernels": 0}, []
    mul, rows = FieldCtx.mul, field._fixed_point_rows

    def counted_mul(self, a, b):
        calls["mul"] += bool(inside)
        return mul(self, a, b)

    def counted_rows(*args):
        calls["kernels"] += 1
        inside.append(True)
        try:
            return rows(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(FieldCtx, "mul", counted_mul)
    monkeypatch.setattr(field, "_fixed_point_rows", counted_rows)
    res = saturate_fixed_points(ctx, entries)
    assert res.degree == 24 and res.dimension == 2
    assert calls == {"mul": 0, "kernels": 2}

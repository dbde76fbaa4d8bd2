"""saturate_fixed_points reads its profile off the norm matrix.

The oracle is the extension-tower loop it replaced: for r = 1, ..., cap
build F_{p^{m r}}, embed the operator and take the F_p kernel of the
flattened v - A v^(p).  The norm walk must reproduce that loop entry
for entry: degree, field, basis and profile, and the profile of a cap
exit.  Draws mix uniform invertible matrices with Jordan forms
conjugated by an invertible F_p-matrix, which commutes with Frobenius,
so that the norm matrix is often not semisimple.
"""

from collections import Counter
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from fcrystal import field, linalg
from fcrystal.errors import BoundExceededError, CapExceededError
from fcrystal.field import (
    SemilinearOperator,
    _decode_flat,
    _fixed_point_rows,
    embed_field,
    make_field,
    saturate_fixed_points,
)
from fcrystal.samples import random_invertible_int


def _tower(ctx, op, cap):
    """(degree, field, embedding, basis, profile); degree None on a cap exit."""
    n = op.n
    profile = []
    for r in range(1, cap + 1):
        big = ctx if r == 1 else make_field(ctx.p, ctx.m * r)
        emb = embed_field(ctx, big)
        rows, _ = _fixed_point_rows(big, emb.map_matrix(op.entries))
        profile.append((r, len(rows)))
        if len(rows) == n:
            basis = tuple(_decode_flat(big, fr, n) for fr in rows)
            return r, big, emb, basis, tuple(profile)
    return None, None, None, None, tuple(profile)


def _norm_is_semisimple(ctx, entries):
    """N = A sigma(A) ... sigma^{m-1}(A) over F_q, with no unipotent part.

    Every eigenvalue of N lies in some F_{q^k}, k <= n, so N^L kills
    the semisimple part for L = lcm(q^k - 1); p does not divide L, so
    N^L = I exactly when the unipotent part is trivial.
    """
    n = len(entries)
    norm, twist = entries, entries
    for _ in range(ctx.m - 1):
        twist = linalg.mat_frob(ctx, twist)
        norm = linalg.mat_mul(ctx, norm, twist)
    power = tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n))
    identity = power
    e = lcm(*(ctx.order**k - 1 for k in range(1, n + 1)))
    while e:
        if e & 1:
            power = linalg.mat_mul(ctx, power, norm)
        norm = linalg.mat_mul(ctx, norm, norm)
        e >>= 1
    return power == identity


def _jordan_conjugate(ctx, n, rng):
    """P J P^{-1}: J Jordan blocks with random eigenvalues in F_q^*, P over F_p."""
    jordan = [[ctx.zero] * n for _ in range(n)]
    start = 0
    while start < n:
        size = rng.randint(1, n - start)
        lam = ctx.decode(rng.randrange(1, ctx.order))
        for i in range(start, start + size):
            jordan[i][i] = lam
            if i + 1 < start + size:
                jordan[i][i + 1] = ctx.one
        start += size
    conj = random_invertible_int(rng, n, ctx.p)
    inv = linalg.invert_int(conj, ctx.p)
    conj_q, inv_q = ([[ctx.from_int(x) for x in row] for row in mat] for mat in (conj, inv))
    return linalg.mat_mul(ctx, conj_q, linalg.mat_mul(ctx, jordan, inv_q))


def _uniform_invertible(ctx, n, rng):
    while True:
        mat = tuple(tuple(ctx.decode(rng.randrange(ctx.order)) for _ in range(n)) for _ in range(n))
        if linalg.is_invertible(ctx, mat):
            return mat


@st.composite
def cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(1, 3))
    n = draw(st.sampled_from(range(1, (4, 3, 2)[m - 1] + 1)))  # n*m <= 6 keeps the oracle tower small
    cap = draw(st.integers(8, 12))
    jordan = draw(st.booleans())
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    ctx = make_field(p, m)
    entries = _jordan_conjugate(ctx, n, rng) if jordan else _uniform_invertible(ctx, n, rng)
    return ctx, SemilinearOperator(ctx, entries), cap


def test_norm_walk_matches_tower_oracle():
    seen = Counter()

    @given(cases())
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    def check(case):
        ctx, op, cap = case
        degree, big, emb, basis, profile = _tower(ctx, op, cap)
        if degree is None:
            with pytest.raises(CapExceededError) as err:
                saturate_fixed_points(ctx, op, cap)
            assert err.value.profile == profile
            seen["cap"] += 1
        else:
            res = saturate_fixed_points(ctx, op, cap)
            assert (res.degree, res.field, res.embedding) == (degree, big, emb)
            assert res.basis == basis and res.profile == profile
            seen["degree > 1"] += degree > 1
        seen["non-semisimple N"] += not _norm_is_semisimple(ctx, op.entries)

    check()
    assert seen["degree > 1"] >= 15 and seen["cap"] >= 5, seen
    assert seen["non-semisimple N"] >= 10, seen


def test_cap_exit_builds_no_field_above_the_base(monkeypatch):
    ctx = make_field(7, 2)
    degrees = []
    build = field.make_field

    def counting(p, m, *args):
        degrees.append(m)
        return build(p, m, *args)

    monkeypatch.setattr(field, "make_field", counting)
    with pytest.raises(CapExceededError) as err:
        saturate_fixed_points(ctx, ((ctx.generator,),), cap=3)
    assert err.value.profile == ((1, 0), (2, 0), (3, 0))
    assert all(m <= ctx.m for m in degrees), degrees


def _primitive_cubic_companion():
    # x^3 + 3x + 2 is primitive over F_7: the companion matrix, which is
    # its own norm (m = 1), has order 7^3 - 1 = 342
    ctx = make_field(7, 1)
    mat = [[0, 0, 5], [1, 0, 4], [0, 1, 0]]
    identity = linalg.identity_int(3)
    assert linalg.mat_pow_int(mat, 342, 7) == identity
    assert all(linalg.mat_pow_int(mat, 342 // q, 7) != identity for q in (2, 3, 19))
    return ctx, tuple(tuple(ctx.from_int(x) for x in row) for row in mat)


def test_order_bound_raises_at_the_same_degree_as_the_tower():
    # 7^68 <= 2^192 < 7^69: the walk reaches degree 69 and stops there,
    # where the tower failed to build F_{7^69}
    ctx, mat = _primitive_cubic_companion()
    with pytest.raises(BoundExceededError) as err:
        saturate_fixed_points(ctx, mat, cap=70)
    assert str(7**69) in str(err.value)
    with pytest.raises(CapExceededError) as err:
        saturate_fixed_points(ctx, mat, cap=68)
    assert err.value.profile == tuple((r, 0) for r in range(1, 69))


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_tries_no_degree(cap):
    ctx = make_field(5, 1)
    with pytest.raises(CapExceededError) as err:
        saturate_fixed_points(ctx, ((ctx.one,),), cap=cap)
    assert err.value.profile == ()
    assert str(err.value) == f"fixed space did not reach rank 1 within {cap} extension degrees"

"""saturate_fixed_points's profile against a walk over every degree.

The walk is independent of the packed kernels: it forms N^r by a naive
triple loop and takes each rank of N^r - I with the frozen list-based
elimination of test_linalg_oracle, then records n - rank / m at every
degree r up to the first r with N^r = I, or up to the cap.  Inputs are
one matrix of every multiplicative order in GL_2(F_5) and GL_2(F_7) (the
orders 42 and 48 over F_7 exceed the default cap of 24), rank-1-per-class
transition systems over F_5 and F_7, and operators over F_25 and F_49,
where the norm matrix is a product of Frobenius twists.
"""

from random import Random

import pytest
from test_fixed_point_oracle import oracle_flat_operator
from test_linalg_oracle import oracle_rref_int

from fcrystal.errors import CapExceededError
from fcrystal.field import DEFAULT_SATURATION_CAP, make_field, saturate_fixed_points


def _mul(a, b, p):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(len(b[0]))] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _walk(ctx, entries, cap):
    """(profile, saturated): (r, n - rank(N^r - I) / m) for r = 1, 2, ..."""
    p, m, n = ctx.p, ctx.m, len(entries)
    flat = oracle_flat_operator(ctx, entries)
    norm = _identity(n * m)
    for _ in range(m):
        norm = _mul(norm, flat, p)
    power = _identity(n * m)
    profile = []
    for r in range(1, cap + 1):
        power = _mul(power, norm, p)
        diff = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(power)]
        rank = len(oracle_rref_int(diff, p)[1])
        profile.append((r, n - rank // m))
        if not rank:
            return tuple(profile), True
    return tuple(profile), False


def _assert_profile(ctx, entries, cap=DEFAULT_SATURATION_CAP):
    """Returns the saturation degree, or None on a cap exit."""
    profile, saturated = _walk(ctx, entries, cap)
    if not saturated:
        with pytest.raises(CapExceededError) as err:
            saturate_fixed_points(ctx, entries, cap)
        assert err.value.profile == profile
        return None
    res = saturate_fixed_points(ctx, entries, cap)
    assert res.profile == profile
    assert res.degree == len(profile) and res.dimension == len(entries)
    return res.degree


def _gl2_by_order(p):
    buckets = {}
    for k in range(p**4):
        mat = [[k % p, k // p % p], [k // p**2 % p, k // p**3]]
        if (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) % p:
            power, order = mat, 1
            while power != _identity(2):
                power, order = _mul(power, mat, p), order + 1
            buckets.setdefault(order, []).append(mat)
    return buckets


@pytest.mark.parametrize("p", [5, 7])
def test_every_gl2_order(p):
    ctx = make_field(p, 1)
    rng = Random(2300 + p)
    capped = []
    buckets = _gl2_by_order(p)
    for order in sorted(buckets):
        mat = rng.choice(buckets[order])
        degree = _assert_profile(ctx, tuple(tuple(ctx.from_int(x) for x in row) for row in mat))
        # over F_p the operator is its own norm: it saturates at its order
        assert degree == (order if order <= DEFAULT_SATURATION_CAP else None), (order, mat)
        if degree is None:
            capped.append(order)
    assert capped == ([] if p == 5 else [42, 48])


@pytest.mark.parametrize("p, d", [(5, 2), (5, 4), (7, 2), (7, 3)])
def test_rank_one_per_class_systems(p, d):
    # class a goes to class p*a mod d, scaled by c_a: the flattened
    # transition system of a graded object with one dimension per class
    ctx = make_field(p, 1)
    rng = Random(2400 + 10 * p + d)
    for _ in range(6):
        mat = [[ctx.zero] * d for _ in range(d)]
        for a in range(d):
            mat[p * a % d][a] = ctx.from_int(rng.randrange(1, p))
        _assert_profile(ctx, tuple(map(tuple, mat)))


def _is_invertible(ctx, entries):
    p = ctx.p
    flat = oracle_flat_operator(ctx, entries)
    return len(oracle_rref_int(flat, p)[1]) == len(flat)


@pytest.mark.parametrize("p", [5, 7])
def test_operators_over_extensions(p):
    ctx = make_field(p, 2)
    rng = Random(2500 + p)
    degrees = set()
    for n in (1, 2, 2, 2, 3):
        while True:
            entries = tuple(tuple(ctx.decode(rng.randrange(ctx.order)) for _ in range(n)) for _ in range(n))
            if _is_invertible(ctx, entries) and _walk(ctx, entries, 1)[0][0][1] < n:
                break
        degrees.add(_assert_profile(ctx, entries, cap=12))
    assert len(degrees) >= 2, degrees


"""Field tower arithmetic, fixed points, saturation."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcrystal import (
    BoundExceededError,
    CapExceededError,
    InvalidInputError,
    SemilinearOperator,
    embed_field,
    make_field,
    parse_series,
    primitive_root_of_unity,
    saturate_fixed_points,
    semilinear_fixed_points,
)
from fcrystal import linalg
from fcrystal.field import ENUMERATION_BOUND, FieldCtx, _flat_rows, is_prime, prime_factors


def frob_iter(ctx, a, k: int):
    """The k-th Frobenius power of a, k read mod the degree."""
    for _ in range(k % ctx.m):
        a = ctx.frob(a)
    return a


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_factors():
    assert prime_factors(48) == [2, 3]
    assert prime_factors(15624) == [2, 3, 7, 31]


def test_modulus_is_first_irreducible_in_encoding_order():
    # over F_7 the polynomial x^2 + 1 is irreducible and nothing with a
    # smaller integer encoding is; over F_5 it factors, x^2 + 2 is next
    assert make_field(7, 2).modulus == (1, 0)
    assert make_field(5, 2).modulus == (2, 0)
    assert make_field(5, 1).modulus == (0,)


def test_make_field_returns_one_context_per_field():
    """Every spelling of one (p, m) gives the same context, so objects
    built over it combine; the size bound is still checked per call."""
    ctx = make_field(5, 2)
    assert make_field(p=5, m=2) is ctx
    assert make_field(5, m=2) is ctx
    total = parse_series(ctx, "t").add(parse_series(make_field(5, 2), "t"))
    assert total == parse_series(make_field(p=5, m=2), "2t")
    for p, m in ((2, 193), (3, 122)):  # 2^193 and 3^122 > DEFAULT_ORDER_BOUND = 2^192 > 3^121
        with pytest.raises(BoundExceededError):
            make_field(p, m)
    with pytest.raises(InvalidInputError):
        make_field(4, 2)


def test_prime_field_arithmetic():
    ctx = make_field(7, 1)
    a = ctx.from_int(3)
    assert ctx.mul(a, a) == ctx.from_int(2)
    assert ctx.inv(a) == ctx.from_int(5)
    assert ctx.pow(a, 6) == ctx.one
    assert ctx.frob(a) == a


def test_f49_frobenius_negates_root_of_minus_one():
    ctx = make_field(7, 2)
    i = ctx.el([0, 1])
    assert ctx.mul(i, i) == ctx.el([6, 0])
    # x -> x^7 swaps the two square roots of -1
    assert ctx.frob(i) == ctx.el([0, 6])
    assert frob_iter(ctx, i, 2) == i


def test_frob_iter_reduces_mod_degree():
    ctx = make_field(5, 2)
    g = ctx.generator
    assert frob_iter(ctx, g, 3) == ctx.frob(g)
    assert frob_iter(ctx, g, 0) == g


def test_generator_is_lex_smallest():
    assert make_field(7, 1).generator == (3,)
    assert make_field(5, 1).generator == (2,)
    g25 = make_field(5, 2).generator
    ctx = make_field(5, 2)
    # order must be exactly 24
    assert ctx.pow(g25, 24) == ctx.one
    for q in (2, 3):
        assert ctx.pow(g25, 24 // q) != ctx.one


def test_primitive_roots_of_unity():
    assert primitive_root_of_unity(make_field(7, 1), 3) == (2,)
    assert primitive_root_of_unity(make_field(5, 1), 4) == (2,)
    ctx = make_field(5, 2)
    xi = primitive_root_of_unity(ctx, 3)
    assert ctx.pow(xi, 3) == ctx.one and xi != ctx.one


def test_root_of_unity_tower_coherence():
    # xi_d must equal xi_{de}^e whenever both live in the same field
    ctx = make_field(5, 2)
    for d, e in [(2, 2), (3, 2), (2, 6), (4, 3), (6, 2)]:
        xi_de = primitive_root_of_unity(ctx, d * e)
        xi_d = primitive_root_of_unity(ctx, d)
        assert ctx.pow(xi_de, e) == xi_d


def test_root_of_unity_requires_divisibility():
    with pytest.raises(InvalidInputError):
        primitive_root_of_unity(make_field(5, 1), 3)


def test_embedding_is_a_ring_map():
    small = make_field(5, 2)
    big = make_field(5, 4)
    emb = embed_field(small, big)
    a, b = small.generator, small.el([1, 3])
    assert emb.map(small.add(a, b)) == big.add(emb.map(a), emb.map(b))
    assert emb.map(small.mul(a, b)) == big.mul(emb.map(a), emb.map(b))
    assert emb.map(small.one) == big.one
    # the image is exactly the subfield fixed by frob^(small degree)
    assert frob_iter(big, emb.map(a), small.m) == emb.map(a)


def test_embedding_commutes_with_frobenius():
    small = make_field(7, 2)
    big = make_field(7, 6)
    emb = embed_field(small, big)
    a = small.el([3, 2])
    assert emb.map(small.frob(a)) == big.frob(emb.map(a))


@pytest.mark.parametrize("p, m", [(2, 2), (5, 2), (7, 2), (2, 6), (3, 4), (5, 3)])
def test_self_embedding_is_the_identity(p, m):
    # x is the root of the modulus with the least int code (p), so
    # saturation at degree 1 may skip mapping the operator through it
    ctx = make_field(p, m)
    emb = embed_field(ctx, ctx)
    assert emb.theta_pows == tuple(ctx.decode(p**t) for t in range(m))
    assert all(emb.map(a) == a for a in ctx.elements())


def _least_root(ctx):
    """The root of ctx's own modulus with the least int code, by a scan
    of the codes 0, 1, ... with a Horner evaluation at each."""
    for n in range(ctx.order):
        a, acc = ctx.decode(n), ctx.zero
        for c in reversed(list(ctx.modulus) + [1]):
            acc = ctx.add(ctx.mul(acc, a), ctx.from_int(c))
        if ctx.is_zero(acc):
            return a


# every field of order <= ENUMERATION_BOUND with m >= 2, and prime fields
_SMALL_FIELDS = [
    (p, m) for p in range(2, 257) if is_prime(p) for m in range(1, 17) if p**m <= ENUMERATION_BOUND
]


def test_self_embedding_takes_the_searched_least_root():
    # the self-embedding skips the subfield search; on every field the
    # search may enumerate it must give the root that search would pick
    for p, m in _SMALL_FIELDS:
        ctx = make_field(p, m)
        theta = _least_root(ctx)
        assert embed_field(ctx, ctx).theta_pows == tuple(ctx.pow(theta, t) for t in range(m)), (p, m)


def test_self_embedding_skips_the_enumeration_bound():
    # F_{7^6} and F_{3^11} lie past the bound the subfield search keeps
    for p, m in ((7, 6), (3, 11), (2, 17)):
        ctx = make_field(p, m)
        assert ctx.order > ENUMERATION_BOUND
        assert embed_field(ctx, ctx).theta_pows == tuple(ctx.decode(p**t) for t in range(m))
        assert saturate_fixed_points(ctx, ((ctx.one,),)).degree == 1
    with pytest.raises(BoundExceededError):
        embed_field(make_field(2, 17), make_field(2, 34))


def test_embedding_requires_divisible_degree():
    with pytest.raises(InvalidInputError):
        embed_field(make_field(5, 2), make_field(5, 3))


# table fields (m >= 2, q <= 4096) apply Frobenius by log lookup, so
# their rows are checked against a path that does not read them
@pytest.mark.parametrize(
    "p, m", [(5, 1), (2, 2), (5, 2), (7, 2), (5, 3), (3, 4), (2, 6), (7, 6), (2, 12), (11, 4), (5, 8), (7, 24)]
)
def test_frob_rows_are_the_frobenius_images_of_the_power_basis(p, m):
    ctx = make_field(p, m)
    assert ctx.frob_rows == tuple(ctx.coeffs(ctx.frob(ctx.decode(p**t))) for t in range(m))


def test_flattening_and_embedding_run_no_frobenius(monkeypatch):
    """_flat_rows and embed_field read the images (x^t)^p off frob_rows."""
    ctx, small, big = make_field(7, 24), make_field(7, 2), make_field(7, 6)
    calls = []
    frob = FieldCtx.frob
    monkeypatch.setattr(FieldCtx, "frob", lambda self, a: calls.append(a) or frob(self, a))
    x = ctx.decode(7)
    _, rows = _flat_rows(ctx, ((x, ctx.one), (ctx.zero, ctx.from_int(3))))
    assert len(rows) == 2 * 24 and calls == []
    embed_field.__wrapped__(small, big)  # past the cache, which may hold the pair
    assert calls == []


def _brute_fixed_dimension(ctx, mat):
    """Enumerate all vectors of F_q^n and count tau-fixed ones."""
    import itertools

    n = len(mat)
    op = SemilinearOperator(ctx, mat)
    count = 0
    for vec in itertools.product(ctx.elements(), repeat=n):
        if op.apply(vec) == tuple(vec):
            count += 1
    # fixed points form an F_p-space, so the count is a p-power
    dim = 0
    while ctx.p**dim < count:
        dim += 1
    assert ctx.p**dim == count
    return dim


@pytest.mark.parametrize(
    "p,m,n",
    [(5, 1, 1), (5, 1, 2), (7, 1, 1), (7, 1, 2), (5, 2, 1), (7, 2, 1), (3, 2, 2)],
)
def test_fixed_points_match_exhaustive_enumeration(p, m, n):
    ctx = make_field(p, m)
    from random import Random

    rng = Random(p * 100 + m * 10 + n)
    for _ in range(4):
        mat = tuple(
            tuple(ctx.decode(rng.randrange(ctx.order)) for _ in range(n)) for _ in range(n)
        )
        basis = semilinear_fixed_points(ctx, SemilinearOperator(ctx, mat))
        assert len(basis) == _brute_fixed_dimension(ctx, mat)
        op = SemilinearOperator(ctx, mat)
        for v in basis:
            assert op.apply(v) == tuple(v)


def test_fixed_basis_is_independent_over_fp():
    # the returned basis must be F_p-independent, not just nonzero
    ctx = make_field(5, 1)
    mat = ((ctx.one, ctx.zero), (ctx.zero, ctx.one))
    basis = semilinear_fixed_points(ctx, SemilinearOperator(ctx, mat))
    assert len(basis) == 2


def test_saturation_of_generator_scaling_needs_degree_six():
    # tau(x) = gamma x^7 over F_49: the norm gamma^(1+7) has order
    # 48/gcd(48,8) = 6, so the fixed line appears at degree six
    ctx = make_field(7, 2)
    op = SemilinearOperator(ctx, ((ctx.generator,),))
    res = saturate_fixed_points(ctx, op)
    assert res.degree == 6
    assert res.profile == ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 1))
    assert len(res.basis) == 1
    big = res.field
    x = res.basis[0][0]
    gamma = res.embedding.map(ctx.generator)
    assert big.mul(gamma, big.frob(x)) == x


def test_saturation_cap_reports_profile():
    ctx = make_field(7, 2)
    op = SemilinearOperator(ctx, ((ctx.generator,),))
    with pytest.raises(CapExceededError) as err:
        saturate_fixed_points(ctx, op, cap=3)
    assert err.value.profile == ((1, 0), (2, 0), (3, 0))


def test_saturation_identity_is_immediate():
    ctx = make_field(5, 2)
    op = SemilinearOperator(ctx, ((ctx.one,),))
    res = saturate_fixed_points(ctx, op)
    assert res.degree == 1
    assert len(res.basis) == 1


def test_singular_operator_rejected():
    ctx = make_field(5, 1)
    with pytest.raises(InvalidInputError):
        saturate_fixed_points(ctx, SemilinearOperator(ctx, ((ctx.zero,),)))


@given(st.integers(min_value=0, max_value=48), st.integers(min_value=0, max_value=48))
@settings(max_examples=40, deadline=None)
def test_encode_decode_roundtrip_and_frobenius_additivity(i, j):
    ctx = make_field(7, 2)
    a, b = ctx.decode(i), ctx.decode(j)
    assert ctx.encode(a) == i
    assert ctx.frob(ctx.add(a, b)) == ctx.add(ctx.frob(a), ctx.frob(b))
    assert ctx.frob(ctx.mul(a, b)) == ctx.mul(ctx.frob(a), ctx.frob(b))


def test_saturation_is_idempotent():
    # over the field that saturates A, A is already saturated: degree 1
    # and the full dimension n; draws that hit the cap, or whose field is
    # too large to embed into, are skipped and the rest are counted
    kept = []

    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 2), st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def check(p, m, n, data):
        ctx = make_field(p, m)
        coeff = st.lists(st.integers(0, p - 1), min_size=m, max_size=m).map(tuple)
        A = tuple(tuple(data.draw(coeff) for _ in range(n)) for _ in range(n))
        assume(linalg.is_invertible(ctx, A))
        try:
            sat = saturate_fixed_points(ctx, A, cap=8)
        except CapExceededError:
            return
        if sat.field.order > ENUMERATION_BOUND:
            return
        again = saturate_fixed_points(sat.field, sat.embedding.map_matrix(A), cap=8)
        assert (again.degree, again.dimension) == (1, n)
        kept.append(sat.degree)

    check()
    assert len(kept) >= 30
    assert sum(degree > 1 for degree in kept) >= 15

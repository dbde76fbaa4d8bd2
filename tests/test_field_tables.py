"""Log/antilog table arithmetic, checked against the polynomial path.

Fields with m >= 2 and q <= TABLE_BOUND multiply, invert, raise to powers
and apply Frobenius by table lookup, and eliminate rows (sub_scaled) by
Zech logarithms.
Each table field is compared with a twin built on the same modulus with
tables disabled, which runs the polynomial product, extended Euclid and
coefficientwise subtraction; the linear algebra built on the row kernel
sub_scaled is compared the same way.  The F_p[x] helpers beneath both,
and the irreducibility test that picks each modulus, are checked against
sympy.
"""

from collections import Counter
from itertools import zip_longest
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcrystal import InvalidInputError, field, linalg, make_field
from fcrystal.field import TABLE_BOUND, FieldCtx

# every table field with q <= 256, compared exhaustively
SMALL = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9) if p**m <= 256]
# the largest table field for each small p, compared on seeded samples
LARGE = [(2, 12), (3, 7), (5, 5), (7, 4)]


def _poly_twin(ctx):
    """ctx's field on the same modulus, built without tables."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "TABLE_BOUND", 1)
        twin = FieldCtx(ctx.p, ctx.m, ctx.modulus)
    assert twin._log is None
    return twin


def _exponents(ctx):
    q = ctx.order
    return (-q, -2, -1, 0, 1, 2, 3, ctx.p, q - 2, q - 1, q, 2 * q + 5)


def _assert_same(ctx, twin, a, b, exps):
    assert ctx.mul(a, b) == twin.mul(a, b), (a, b)
    assert ctx.sub(a, b) == twin.sub(a, b) and ctx.add(a, b) == twin.add(a, b), (a, b)
    assert ctx.neg(a) == twin.neg(a), a
    z = ctx.zero
    u, v = [a, b, z, a, z], [b, a, a, z, z]
    for c in (z, ctx.one, ctx.neg(ctx.one), a, b):
        assert ctx.sub_scaled(u, c, v) == twin.sub_scaled(u, c, v), (a, b, c)
    assert ctx.frob(a) == twin.frob(a), a
    if ctx.is_zero(a):
        for c in (ctx, twin):
            with pytest.raises(ZeroDivisionError):
                c.inv(a)
            with pytest.raises(ZeroDivisionError):
                c.pow(a, -1)
    else:
        assert ctx.inv(a) == twin.inv(a), a
    for e in exps:
        if e >= 0 or not ctx.is_zero(a):
            assert ctx.pow(a, e) == twin.pow(a, e), (a, e)


def test_table_bound_selects_fields():
    assert TABLE_BOUND == 2**12
    assert make_field(2, 12)._log is not None
    assert make_field(2, 13)._log is None
    assert make_field(5, 6)._log is None
    assert make_field(7, 1)._log is None  # prime fields keep their own path


@pytest.mark.parametrize("p,m", SMALL, ids=[f"F{p}^{m}" for p, m in SMALL])
def test_tables_match_polynomial_path_exhaustively(p, m):
    ctx = make_field(p, m)
    assert ctx._log is not None
    twin = _poly_twin(ctx)
    elems = [ctx.decode(n) for n in range(ctx.order)]
    # each a meets every b with c in {0, 1, -1, g}, and every c = a meets
    # every a' with b rotated against it
    scaled = {c: [twin.mul(c, b) for b in elems] for c in (ctx.zero, ctx.one, ctx.neg(ctx.one), ctx.generator)}
    for k, a in enumerate(elems):
        for op in ("mul", "add", "sub"):
            assert [getattr(ctx, op)(a, b) for b in elems] == [getattr(twin, op)(a, b) for b in elems], (op, a)
        for c, cb in scaled.items():
            assert ctx.sub_scaled([a] * len(elems), c, elems) == [twin.sub(a, x) for x in cb], (a, c)
        turned = elems[k:] + elems[:k]
        assert ctx.sub_scaled(elems, a, turned) == twin.sub_scaled(elems, a, turned), a
        _assert_same(ctx, twin, a, a, _exponents(ctx))


@pytest.mark.parametrize("p,m", LARGE, ids=[f"F{p}^{m}" for p, m in LARGE])
def test_tables_match_polynomial_path_on_samples(p, m):
    ctx = make_field(p, m)
    assert ctx._log is not None
    twin = _poly_twin(ctx)
    rng = Random(1000 * p + m)
    exps = _exponents(ctx)
    for _ in range(300):
        a = ctx.decode(rng.randrange(ctx.order))
        b = ctx.decode(rng.randrange(ctx.order))
        _assert_same(ctx, twin, a, b, exps + (rng.randrange(-ctx.order**2, ctx.order**2),))
    _assert_same(ctx, twin, ctx.zero, ctx.generator, exps)


@pytest.mark.parametrize("p", (2, 3, 7))
def test_prime_field_kernel_matches_int_arithmetic(p):
    ctx = make_field(p, 1)
    pairs = [(a, b) for a in range(p) for b in range(p)]
    for c in range(p):
        got = ctx.sub_scaled([(a,) for a, _ in pairs], (c,), [(b,) for _, b in pairs])
        assert got == [((a - c * b) % p,) for a, b in pairs], c


def test_zech_table_is_log_of_one_minus_power():
    for p, m in ((2, 3), (3, 2), (5, 3)):
        ctx = make_field(p, m)
        twin, n1 = _poly_twin(ctx), ctx.order - 1
        assert len(ctx._zech) == n1 and ctx._zech[0] == 2 * n1
        for k, z in enumerate(ctx._zech):
            assert ctx._exp[z] == twin.sub(ctx.one, twin.pow(ctx.generator, k)), k


def _random_matrix(ctx, rng, rows, cols, rank):
    """A seeded rows x cols matrix of rank at most rank: a product of
    random rows x rank and rank x cols factors."""
    if rank == 0:
        return tuple((ctx.zero,) * cols for _ in range(rows))
    left = [[ctx.decode(rng.randrange(ctx.order)) for _ in range(rank)] for _ in range(rows)]
    right = [[ctx.decode(rng.randrange(ctx.order)) for _ in range(cols)] for _ in range(rank)]
    return linalg.mat_mul(ctx, left, right)


LINALG_FIELDS = [(2, 6), (5, 3), (7, 2)]


@pytest.mark.parametrize("p,m", LINALG_FIELDS, ids=[f"F{p}^{m}" for p, m in LINALG_FIELDS])
def test_linalg_over_tables_matches_polynomial_path(p, m):
    # RREF is unique, so the echelon forms, kernels, coordinates and
    # inverses agree entry for entry with the twin's
    ctx = make_field(p, m)
    twin = _poly_twin(ctx)
    rng = Random(31 * p + m)
    ranks = Counter()
    for rows in range(1, 9):
        for cols in range(1, 9):
            for rank in sorted({min(rows, cols), rng.randrange(min(rows, cols) + 1)}):
                mat = _random_matrix(ctx, rng, rows, cols, rank)
                red, pivots = linalg.rref(ctx, mat)
                assert (red, pivots) == linalg.rref(twin, mat), mat
                assert linalg.kernel(ctx, mat) == linalg.kernel(twin, mat), mat
                ranks[len(pivots) == min(rows, cols)] += 1
                inside = [ctx.decode(rng.randrange(ctx.order)) for _ in red]
                vec = [ctx.zero] * cols
                for x, row in zip(inside, red):
                    vec = [ctx.add(a, ctx.mul(x, b)) for a, b in zip(vec, row)]
                outside = [ctx.decode(rng.randrange(ctx.order)) for _ in range(cols)]
                for w in (vec, outside):
                    assert linalg.express(ctx, red, pivots, w) == linalg.express(twin, red, pivots, w), w
                assert linalg.express(ctx, red, pivots, vec) == inside
                if rows == cols:
                    inv = linalg.invert(ctx, mat)
                    assert inv == linalg.invert(twin, mat), mat
                    assert (inv is not None) == (len(pivots) == rows)
                    if inv is not None:
                        assert linalg.mat_mul(ctx, mat, inv) == tuple(
                            tuple(ctx.one if i == j else ctx.zero for j in range(rows)) for i in range(rows)
                        )
    assert ranks[True] and ranks[False]  # both full-rank and singular matrices ran


def test_build_rejects_non_primitive_generator(monkeypatch):
    ctx = make_field(2, 4)
    g3 = ctx.pow(ctx.generator, 3)  # order 5 in the cyclic group of order 15
    monkeypatch.setattr(FieldCtx, "generator", property(lambda self: g3))
    with pytest.raises(InvalidInputError, match="does not generate"):
        FieldCtx(2, 4, ctx.modulus)


def test_build_rejects_reducible_modulus():
    # over F_2[x]/(x^2) the element x passes the generator search's order
    # test (x^1 != 1) but is nilpotent, so only the table build catches it
    with pytest.raises(InvalidInputError, match="does not generate"):
        FieldCtx(2, 2, (0, 0))


def _sympy_irreducible():
    """sympy's irreducibility test on little-endian coefficient lists."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    return lambda f, p: galoistools.gf_irreducible_p([int(c) for c in reversed(f)], p, ZZ)


def _candidate(p, m, enc):
    """The monic degree-m candidate with encoding enc, little-endian."""
    return [enc // p**i % p for i in range(m)] + [1]


# the tower fields (p in {5, 7}, r <= the saturation cap 24); the corpus
# fields F_5, F_25, F_7, F_49 and the heavy fields F_125 and F_7 are among
# them, and F_64 is the other heavy field
FIRST_FIELDS = [(p, r) for p in (5, 7) for r in range(1, 25)] + [(2, 6)]


def test_moduli_are_irreducible_per_sympy():
    irreducible = _sympy_irreducible()
    for p, m in SMALL + LARGE + [(2, 13), (5, 6), (7, 5)]:
        ctx = make_field(p, m)
        assert irreducible(list(ctx.modulus) + [1], p), (p, m, ctx.modulus)
    for p, m in FIRST_FIELDS:
        modulus = make_field(p, m).modulus
        enc = sum(c * p**i for i, c in enumerate(modulus))
        for k in range(enc):
            assert not irreducible(_candidate(p, m, k), p), (p, m, k)
        assert irreducible(_candidate(p, m, enc), p), (p, m, modulus)


# every monic polynomial of degree 1 to ORACLE_DEGREES[p] over F_p: 14,078
# in all, squareful ones and p-th powers (f' = 0, e.g. x^5 + c over F_5)
# among them
ORACLE_DEGREES = {2: 11, 3: 7, 5: 5, 7: 4}


@pytest.mark.parametrize("p", sorted(ORACLE_DEGREES))
def test_is_irreducible_matches_sympy(p):
    irreducible = _sympy_irreducible()
    verdicts = set()
    for m in range(1, ORACLE_DEGREES[p] + 1):
        for enc in range(p**m):
            f = _candidate(p, m, enc)
            verdict = field._is_irreducible(f, p)
            assert verdict == irreducible(f, p), (p, f)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _rank_steps(monkeypatch):
    """A list that gains the matrix size of each rank step from now on."""
    steps, rref_int = [], linalg.rref_int
    monkeypatch.setattr(linalg, "rref_int", lambda rows, p: steps.append(len(rows)) or rref_int(rows, p))
    return steps


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_sieve_and_berlekamp_match_sympy_on_degrees_6_to_14(p, monkeypatch):
    # seeded products whose factor degrees are known: the sieve rejects a
    # quadratic factor before the rank step, a square fails the squarefree
    # test, and only a product of two irreducibles of degree >= 3 and an
    # irreducible reach the rank step, where Berlekamp decides
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    irreducible = _sympy_irreducible()
    rng = Random(p)

    def mul(a, b):
        return [int(c) for c in reversed(galoistools.gf_mul(a[::-1], b[::-1], p, ZZ))]

    def draw(n, other=None):
        """A seeded monic irreducible of degree n over F_p other than other."""
        while True:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            if f != other and irreducible(f, p):
                return f

    cases = []
    for m in range(6, 15):
        cases += [("quadratic", mul(draw(2), draw(m - 2))) for _ in range(2)]
        if m % 2 == 0:
            g = draw(m // 2)
            cases.append(("square", mul(g, g)))
        k = rng.randrange(3, m - 2)
        a = draw(k)
        cases.append(("wide", mul(a, draw(m - k, a))))
        cases += [("irreducible", draw(m)) for _ in range(2)]
    steps = _rank_steps(monkeypatch)
    tally = Counter()
    for kind, f in cases:
        before = len(steps)
        verdict = field._is_irreducible(f, p)
        assert verdict == irreducible(f, p) == (kind == "irreducible"), (kind, f)
        ranked = len(steps) > before
        assert ranked == (kind in ("wide", "irreducible")), (kind, f)
        tally[kind, verdict, ranked] += 1
    assert tally == {
        ("quadratic", False, False): 18,
        ("square", False, False): 5,
        ("wide", False, True): 9,
        ("irreducible", True, True): 18,
    }


def test_modulus_search_runs_few_rank_steps(monkeypatch):
    # the search over FIRST_FIELDS tries 1,586 candidates; the sieve
    # leaves 280 for the rank step (1,298 without it), and every accepted
    # modulus of degree >= 2 still passes the rank step
    moduli = [make_field(p, m).modulus for p, m in FIRST_FIELDS]
    steps = _rank_steps(monkeypatch)
    rebuilt = [field._canonical_field.__wrapped__(p, m).modulus for p, m in FIRST_FIELDS]
    assert rebuilt == moduli
    assert sum(m >= 2 for _, m in FIRST_FIELDS) <= len(steps) <= 300


def _pol_add(a, b, p):
    return field._pol_trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)])


_pol = st.lists(st.integers(0, 6), max_size=14)


@given(p=st.sampled_from((2, 3, 5, 7)), a=_pol, b=_pol, c=_pol)
@settings(max_examples=300, deadline=None)
def test_polynomial_helpers(p, a, b, c):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    a, b, c = (field._pol_trim([x % p for x in pol]) for pol in (a, b, c))
    assume(b)
    mul, divmod_ = field._pol_mul, field._pol_divmod
    assert mul(a, b, p) == mul(b, a, p)
    assert len(mul(a, b, p)) == (len(a) + len(b) - 1 if a and b else 0)
    q, r = divmod_(a, b, p)
    assert len(r) < len(b) and r == field._pol_trim(list(r))
    assert _pol_add(mul(q, b, p), r, p) == a
    # a common factor c makes the gcd nontrivial in some draws
    if c:
        a, b = mul(a, c, p), mul(b, c, p)
    g, s = field._pol_xgcd(a, b, p)
    assert g and g[-1] == 1 and field._pol_gcd(a, b, p) == g
    assert divmod_(mul(s, a, p), b, p)[1] == divmod_(g, b, p)[1]
    assert divmod_(a, g, p)[1] == [] and divmod_(b, g, p)[1] == []
    expected = galoistools.gf_gcd(a[::-1], b[::-1], p, ZZ)
    assert g == [int(x) for x in reversed(expected)]


AXIOM_FIELDS = {"table": (5, 3), "prime": (7, 1), "polynomial": (5, 6), "big": (7, 24)}
_element = st.integers(min_value=0)


@pytest.mark.parametrize("kind", sorted(AXIOM_FIELDS))
@given(i=_element, j=_element, k=_element, e=st.integers(-200, 200), f=st.integers(-200, 200))
@settings(max_examples=60, deadline=None)
def test_field_axioms(kind, i, j, k, e, f):
    ctx = make_field(*AXIOM_FIELDS[kind])
    assert (ctx._log is not None) == (kind == "table")
    a, b, c = (ctx.decode(n % ctx.order) for n in (i, j, k))
    mul, add = ctx.mul, ctx.add
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, ctx.one) == a and mul(a, ctx.zero) == ctx.zero
    assert ctx.frob(a) == ctx.pow(a, ctx.p)
    assert ctx.frob(mul(a, b)) == mul(ctx.frob(a), ctx.frob(b))
    assert ctx.frob(add(a, b)) == add(ctx.frob(a), ctx.frob(b))
    assert ctx.pow(a, ctx.order) == a
    if not ctx.is_zero(a):
        assert mul(a, ctx.inv(a)) == ctx.one
        assert ctx.pow(a, e + f) == mul(ctx.pow(a, e), ctx.pow(a, f))
        assert ctx.pow(a, -e) == ctx.inv(ctx.pow(a, e))

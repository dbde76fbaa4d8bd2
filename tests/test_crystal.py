"""Representations, weight decomposition, crystals, extensions."""

from itertools import product

import pytest

from fcrystal import (
    CapExceededError,
    CyclicRep,
    InvalidInputError,
    LaurentSeries,
    build_extension,
    build_kummer_crystal,
    make_field,
    mc_depth_grading,
    mc_vfilt,
    parse_series,
    primitive_root_of_unity,
    sol_extension,
    weight_decompose,
)
from fcrystal import linalg
from direct_sums import direct_sum

F25 = make_field(5, 2)
F5 = make_field(5, 1)


def test_rep_constructors():
    t = CyclicRep.trivial(3, 5, 2)
    assert t.rank == 2 and t.mat == ((1, 0), (0, 1))
    r = CyclicRep.regular(3, 5)
    assert r.rank == 3
    c = CyclicRep.companion(3, 5)
    assert c.rank == 2


def test_rep_requires_order_dividing_d():
    with pytest.raises(InvalidInputError):
        CyclicRep(4, 5, ((1, 1), (0, 1)))  # unipotent, order 5 does not divide 4
    with pytest.raises(InvalidInputError):
        CyclicRep(3, 5, ((0, 0), (0, 0)))
    # inflating to a multiple of the order is legitimate
    assert CyclicRep(6, 5, CyclicRep.companion(3, 5).mat).d == 6


def test_direct_sum_blocks():
    a = CyclicRep.trivial(3, 5)
    b = CyclicRep.companion(3, 5)
    s = direct_sum(a, b)
    assert s.rank == 3
    assert s.mat[0] == (1, 0, 0)
    assert s.mat[1][0] == 0 and s.mat[2][0] == 0
    with pytest.raises(InvalidInputError):
        direct_sum(a, CyclicRep.trivial(2, 5))


def test_weight_decomposition_eigen_property():
    rep = CyclicRep.companion(3, 5)
    dec = weight_decompose(rep, F25)
    assert dec.dims == {1: 1, 2: 1}
    xi = primitive_root_of_unity(F25, 3)
    mat = [[F25.from_int(x) for x in row] for row in rep.mat]
    for a, (rows, piv) in dec.bases.items():
        lam = F25.pow(xi, a)
        for v in rows:
            got = linalg.mat_vec(F25, mat, v)
            want = [F25.mul(lam, x) for x in v]
            assert list(got) == want


def test_weight_dims_sum_to_rank():
    for rep in (CyclicRep.trivial(3, 5, 4), CyclicRep.regular(3, 5), CyclicRep.companion(3, 5)):
        dec = weight_decompose(rep, F25)
        assert sum(dec.dims.values()) == rep.rank


def test_decomposition_needs_all_roots_of_unity():
    with pytest.raises(InvalidInputError):
        weight_decompose(CyclicRep.companion(3, 5), F5)


def test_kummer_crystal_shifts_and_dims():
    kc = build_kummer_crystal(CyclicRep.companion(3, 5), F25)
    assert kc.dims == {1: 1, 2: 1}
    # the cover exponent of weight a is (d - a) mod d
    assert kc.shifts == {1: 2, 2: 1}
    kr = build_kummer_crystal(CyclicRep.regular(3, 5), F25)
    assert kr.dims == {0: 1, 1: 1, 2: 1}
    assert kr.shifts == {0: 0, 1: 2, 2: 1}


def test_kummer_frobenius_relation():
    """B_a expresses the frobenius image of the a-basis in the pa-basis."""
    for rep in (CyclicRep.companion(3, 5), CyclicRep.regular(3, 5)):
        kc = build_kummer_crystal(rep, F25)
        for a in kc.dims:
            rows_a, _ = kc.bases[a]
            rows_pa, _ = kc.bases[(5 * a) % 3]
            ua_p = [[F25.frob(x) for x in row] for row in rows_a]
            assert linalg.mat_mul(F25, kc.frob_mats[a], rows_pa) == tuple(
                tuple(r) for r in ua_p
            )
            assert linalg.is_invertible(F25, kc.frob_mats[a])


def test_delta_element_operations():
    # a delta part is a polar part: e_m is the class of t^(-m)
    mod = build_extension(F5, LaurentSeries.zero(F5))
    e1, e3 = mod.delta_monomial(1), mod.delta_monomial(3)
    assert e3 == (LaurentSeries.zero(F5), LaurentSeries.monomial(F5, -3))
    assert mod.mul_t(e1)[1].is_zero()
    assert mod.mul_t(e3) == mod.delta_monomial(2)
    assert mod.mul_t_pow(e3, 2) == e1 and mod.mul_t_pow(e3, 3)[1].is_zero()
    assert mod.apply_F(e3) == mod.delta_monomial(15)
    two_e2 = (LaurentSeries.zero(F5), LaurentSeries.monomial(F5, -2, F5.from_int(2)))
    assert mod.apply_F(two_e2)[1] == LaurentSeries.monomial(F5, -10, F5.from_int(2))  # 2^5 = 2 mod 5
    assert e1[1].add(e1[1].neg()).is_zero()


def test_delta_from_series_tail():
    f = parse_series(F5, "3t^-2+t+4")
    assert f.pole_part().coeffs == {-2: (3,)}
    assert parse_series(F5, "t+4").pole_part().is_zero()


def test_extension_pole_order():
    assert build_extension(F5, parse_series(F5, "t^-2")).n == 1
    assert build_extension(F5, parse_series(F5, "t^-11")).n == 10
    assert build_extension(F5, parse_series(F5, "3t^-2+t")).n == 1
    assert build_extension(F5, LaurentSeries.zero(F5)).split
    # a nonzero pole-free twist is the split class in disguise; the
    # builder insists on the honest representative
    with pytest.raises(InvalidInputError):
        build_extension(F5, parse_series(F5, "t^3"))


def test_extension_frobenius_values():
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    f, g = mod.apply_F((LaurentSeries.one(F5), LaurentSeries.zero(F5)))
    assert f.same_values(LaurentSeries.one(F5))
    assert g == LaurentSeries.monomial(F5, -1)
    f2, g2 = mod.apply_F((LaurentSeries.monomial(F5, -1), LaurentSeries.zero(F5)))
    assert f2.same_values(LaurentSeries.monomial(F5, -5))
    assert g2 == LaurentSeries.monomial(F5, -6)


def test_extension_t_kills_first_delta_level():
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    sec = (LaurentSeries.zero(F5), LaurentSeries.monomial(F5, -1))
    f, g = mod.mul_t(sec)
    assert f.is_zero() and g.is_zero()


def test_extension_eq_ignores_the_stored_window():
    # t^2 + t^-1 - t^-1 cancels to t^2: no zero coefficient is stored
    mod = build_extension(F5, parse_series(F5, "t^-2"))
    f = parse_series(F5, "t^2+t^-1").sub(parse_series(F5, "t^-1"))
    zero = LaurentSeries.zero(F5)
    assert (f, zero) == (parse_series(F5, "t^2"), zero)
    assert (f, zero) != (parse_series(F5, "t^3"), zero)
    assert (f, zero) != (f, LaurentSeries.monomial(F5, -1))

def test_delta_cap_guard():
    mod = build_extension(F5, parse_series(F5, "t^-2"), delta_cap=3)
    sec = (LaurentSeries.zero(F5), LaurentSeries.monomial(F5, -1))
    with pytest.raises(CapExceededError):
        mod.apply_F(sec)  # e_1 maps to e_5, above the cap


def test_pole_order_zero_has_no_filtration_rule():
    mod = build_extension(F5, parse_series(F5, "t^-1"))
    assert mod.n == 0 and not mod.split
    with pytest.raises(InvalidInputError):
        mc_vfilt(mod)
    with pytest.raises(InvalidInputError):
        mc_depth_grading(mod)


def test_solutions_of_split_extension():
    rep = sol_extension(build_extension(F5, LaurentSeries.zero(F5)))
    assert rep.dimension == 1
    assert rep.obstruction is None


def test_solutions_blocked_by_pole():
    rep = sol_extension(build_extension(F5, parse_series(F5, "t^-2")))
    assert rep.dimension == 0
    assert rep.obstruction == [[1, [1]]]
    rep2 = sol_extension(build_extension(F5, parse_series(F5, "t^-4")))
    assert rep2.dimension == 0
    assert rep2.obstruction == [[3, [1]]]


def test_solutions_across_primes():
    F7 = make_field(7, 1)
    assert sol_extension(build_extension(F7, parse_series(F7, "t^-3"))).dimension == 0
    assert sol_extension(build_extension(F7, LaurentSeries.zero(F7))).dimension == 1


def _brute_fixed_sections(mod):
    """Every Frobenius-fixed section (lambda, g), by search: lambda in F_p
    and g a polar part with support m <= bound // p, where bound is the
    pole order of [t c].  A fixed section has g = [lambda t c] + g^p, so
    at its top index M the coefficient of e_(pM) reads
    0 = lambda [t c]_(pM) + g_M^p, and pM <= bound: the search misses
    no finite solution.  Each candidate is checked with mod.apply_F."""
    ctx = mod.ctx
    bound = -(mod.c.shift(1).pole_part().valuation() or 0)
    support = range(1, bound // ctx.p + 1)
    found = []
    for lam in range(ctx.p):
        f = LaurentSeries.monomial(ctx, 0, ctx.from_int(lam))
        for coeffs in product(list(ctx.elements()), repeat=len(support)):
            x = (f, LaurentSeries(ctx, {-m: c for m, c in zip(support, coeffs)}))
            if mod.apply_F(x) == x:
                found.append(x)
    return found


@pytest.mark.parametrize(
    "p, twist, dimension, obstruction",
    [
        (2, "t^-3+t^-2", 1, None),  # [t c] = e_2 + e_1: g = e_1, its chain step cancels e_2
        (3, "t^-4+2t^-2", 1, None),  # [t c] = e_3 + 2 e_1: g = 2 e_1
        (5, "t^-11+t^-3", 0, [[10, [2]]]),  # e_10 + e_2: the chain of e_2 adds to e_10
    ],
)
def test_solution_chains_match_a_brute_force_search(p, twist, dimension, obstruction):
    """sol_extension's ascending recursion carries each value up its
    p-adic chain m, p*m, ...; these twists put a pole term on the chain
    of another, so the p-power step decides the answer."""
    ctx = make_field(p, 1)
    mod = build_extension(ctx, parse_series(ctx, twist))
    rep = sol_extension(mod)
    fixed = _brute_fixed_sections(mod)
    assert (rep.dimension, rep.obstruction) == (dimension, obstruction)
    assert len(fixed) == p**dimension
    assert all(x in fixed for x in rep.basis)


def test_rep_rejects_d_not_dividing_any_power():
    # d sharing a factor with p can never have exact order d
    with pytest.raises(InvalidInputError):
        CyclicRep.regular(5, 5)

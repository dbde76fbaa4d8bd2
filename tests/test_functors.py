"""Equivalence functors, roundtrips, nearby/vanishing pieces, gluing."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from test_acceptance import PAIRS
from test_graded_memo import _acceptance_crystals

from fcrystal import (
    CGObject,
    CyclicRep,
    InvalidInputError,
    build_extension,
    build_kummer_crystal,
    fg_roundtrip,
    functor_F,
    functor_G,
    gf_roundtrip,
    gluing_data,
    graded_frobenius_map,
    make_field,
    mc_vfilt,
    naturality_check_F,
    naturality_check_G,
    nearby_full,
    nearby_unipotent,
    parse_series,
    recover_rep,
    rep_isomorphic,
    sol_crystal,
    split_vfilt,
    standard_vfilt,
    vanishing,
    weight_dims_full,
)
from fcrystal.cli import resolve_m
from fcrystal.linalg import invert, invert_int, mat_mul, mat_mul_int
from fcrystal.vfilt import GradedMap, _graded_map
from fcrystal.samples import (
    random_invertible_int,
    random_object,
    random_rep,
    random_rep_morphism,
)
from direct_sums import direct_sum
from object_morphisms import random_object_morphism
from random import Random

F25 = make_field(5, 2)
F49 = make_field(7, 2)

COMP = CyclicRep.companion(3, 5)


def test_image_of_companion():
    obj = functor_F(COMP, F25)
    assert obj.d == 3
    assert obj.dims == (0, 1, 1)
    assert obj.mats[0] == ()
    # 1x1 transitions between the two nontrivial classes
    assert len(obj.mats[1]) == 1 and len(obj.mats[2]) == 1


def test_weight_dims_full():
    assert weight_dims_full(COMP, F25) == (0, 1, 1)
    assert weight_dims_full(CyclicRep.regular(3, 5), F25) == (1, 1, 1)
    assert weight_dims_full(CyclicRep.trivial(3, 5, 2), F25) == (2, 0, 0)


def test_object_validation():
    with pytest.raises(InvalidInputError):
        CGObject(F25, 3, (0, 1, 1), ((), ((F25.zero,),), ((F25.one,),)))  # singular
    with pytest.raises(InvalidInputError):
        CGObject(F25, 3, (0, 1, 1), ((), (), ((F25.one,),)))  # wrong shape
    with pytest.raises(InvalidInputError):
        CGObject(F25, 5, (1,) * 5, (((F25.one,),),) * 5)  # 5 = p
    with pytest.raises(InvalidInputError):
        CGObject(F25, 7, (1,) * 7, (((F25.one,),),) * 7)  # 7 does not divide 24
    with pytest.raises(InvalidInputError):
        # classes 1 and 2 share a p-orbit, so their dimensions must agree
        CGObject(F25, 3, (0, 2, 1), ((), ((F25.one,),), ((F25.one, F25.zero),)))


def from_pair(ctx, d: int, dims, taus, tau_tildes) -> CGObject:
    """Normalize a (tau, tau-tilde) presentation: C_a = tilde_(pa)^(-1) tau_a."""
    mats = []
    for a in range(d):
        ta = (ctx.p * a) % d
        inv = invert(ctx, tuple(tuple(row) for row in tau_tildes[ta]))
        if inv is None:
            raise InvalidInputError(f"twist identification at class {ta} is singular")
        mats.append(mat_mul(ctx, inv, tuple(tuple(row) for row in taus[a])) if dims[a] else ())
    return CGObject(ctx, d, dims, tuple(mats))


def test_from_pair_normalization():
    obj = functor_F(COMP, F25)
    d = obj.d
    eye = tuple(
        tuple(tuple(F25.one if i == j else F25.zero for j in range(n)) for i in range(n))
        if n
        else ()
        for n in obj.dims
    )
    # identity twist: the pair collapses to the transitions themselves
    same = from_pair(F25, d, obj.dims, obj.mats, eye)
    assert same == obj
    # twisting by the transitions themselves divides them out
    trivialized = from_pair(F25, d, obj.dims, obj.mats, obj.mats)
    assert all(m in ((), eye[a]) for a, m in enumerate(trivialized.mats))


def test_fixed_points_recover_companion():
    res = functor_G(functor_F(COMP, F25))
    assert res.saturation.degree == 1
    assert res.rep.rank == 2
    assert rep_isomorphic(res.rep, COMP, F25)
    assert res.source == functor_F(COMP, F25)


def test_gamma_object_needs_degree_six():
    # rank-1 object over F_49 whose transition is a field generator:
    # the norm has multiplicative order 6, so saturation stops at 6
    gamma = F49.generator
    obj = CGObject(F49, 1, (1,), (((gamma,),),))
    res = functor_G(obj)
    assert res.saturation.degree == 6
    assert res.rep.d == 1 and res.rep.rank == 1
    assert res.rep.mat == ((1,),)


def test_roundtrip_reports():
    for rep in (CyclicRep.trivial(3, 5, 2), COMP, CyclicRep.regular(6, 5)):
        out = gf_roundtrip(rep, F25)
        assert out["status"] == "pass"
        assert out["recovered_rank"] == rep.rank
    obj = functor_F(CyclicRep.regular(3, 5), F25)
    out = fg_roundtrip(obj)
    assert out["status"] == "pass"
    assert out["recovered_dims"] == [1, 1, 1]


def test_roundtrips_on_samples():
    rng = Random(4)
    for _ in range(6):
        rep = random_rep(F25, 3, rng)
        assert gf_roundtrip(rep, F25)["status"] == "pass"
        obj = random_object(F25, 3, rng)
        assert fg_roundtrip(obj)["status"] == "pass"


def test_recover_rep_from_crystal():
    for rep in (COMP, CyclicRep.regular(3, 5)):
        kc = build_kummer_crystal(rep, F25)
        back = recover_rep(kc)
        assert rep_isomorphic(back, rep, F25)


def test_nearby_full_equals_image():
    spec = standard_vfilt(build_kummer_crystal(COMP, F25))
    obj = nearby_full(spec)
    assert obj == functor_F(COMP, F25)


def test_nearby_full_on_regular():
    rep = CyclicRep.regular(6, 5)
    spec = standard_vfilt(build_kummer_crystal(rep, F25))
    assert nearby_full(spec) == functor_F(rep, F25)


def graded_t_map(spec, r):
    """Matrix of t-multiplication Gr^r -> Gr^(r + 1), with target r + 1,
    for any rational r: off the grid both pieces are 0."""
    n = spec._num(r)
    if n is None:
        return GradedMap(spec.module.ctx, 0, (), True, own_target=r + 1)
    basis = spec.ipiece(n)
    gm = _graded_map(spec, len(basis), [spec.module.mul_t(b) for b in basis], n + spec.den)
    return replace(gm, own_target=r + 1)


def _nearby_full_oracle(spec):
    """nearby_full by the inverted t-maps: the graded Frobenius out of
    level j/d, carried back into [0, 1) by floor(p*j/d) inverse graded
    t-maps, one level at a time."""
    ctx = spec.module.ctx
    p, d = ctx.p, spec.d
    dims, mats = [0] * d, [()] * d
    for j in range(d):
        r = Fraction(j, d)
        a = (-j) % d
        dims[a] = spec.idim(j)
        if not dims[a]:
            continue
        M = graded_frobenius_map(spec, r).matrix
        cur = p * r
        for _ in range(math.floor(cur)):
            M = mat_mul(ctx, invert(ctx, graded_t_map(spec, cur - 1).matrix), M)
            cur -= 1
        mats[a] = M
    return CGObject(ctx, d, tuple(dims), tuple(mats))


def _crystal(rep):
    return build_kummer_crystal(rep, make_field(rep.p, resolve_m(rep.p, rep.d)))


@pytest.mark.parametrize("pair", PAIRS, ids=[f"p{p}-d{d}" for p, d in PAIRS])
def test_nearby_full_matches_the_inverted_t_maps_on_the_corpus(pair):
    for kc in _acceptance_crystals(*pair) + [_crystal(CyclicRep.companion(pair[1], pair[0]))]:
        spec = standard_vfilt(kc)
        assert nearby_full(spec) == _nearby_full_oracle(spec)


@pytest.mark.parametrize("p, d", [(2, 21), (5, 31), (2, 63), (7, 6)])
@pytest.mark.parametrize("shape", ["regular", "companion"])
def test_nearby_full_matches_the_inverted_t_maps_on_big_covers(shape, p, d):
    spec = standard_vfilt(_crystal(getattr(CyclicRep, shape)(d, p)))
    obj = nearby_full(spec)
    assert obj == _nearby_full_oracle(spec)
    assert obj.rank == (d if shape == "regular" else d - 1)


def test_nearby_unipotent_counts_trivial_part():
    spec = standard_vfilt(build_kummer_crystal(COMP, F25))
    psi = nearby_unipotent(spec)
    assert psi.dim == 0 and psi.matrix == () and psi.saturated_dimension() == 0

    mixed = direct_sum(CyclicRep.trivial(3, 5, 1), COMP)
    spec2 = standard_vfilt(build_kummer_crystal(mixed, F25))
    psi2 = nearby_unipotent(spec2)
    assert psi2.dim == 1
    assert psi2.saturated_dimension() == 1


def test_vanishing_on_crystal():
    spec = standard_vfilt(build_kummer_crystal(CyclicRep.regular(3, 5), F25))
    van = vanishing(spec)
    assert van.commutes and van.note is None
    assert van.source_dim == van.target_dim == 1


def test_vanishing_on_extension():
    mod = build_extension(F25, parse_series(F25, "t^-2"))
    van = vanishing(mc_vfilt(mod))
    assert van.source_labels == ("e_1",)
    assert van.commutes and van.note is None
    assert van.source_dim == 1 and van.target_dim == 1


def test_gluing_crystal():
    triple = gluing_data(build_kummer_crystal(COMP, F25))
    assert triple.consistent
    assert triple.psi_dim == 0 and triple.delta_multiplicity == 0
    assert triple.open_part["kind"] == "kummer-crystal"
    assert triple.morphism["intertwines"]


def test_gluing_split_extension():
    mod = build_extension(F25, parse_series(F25, "0"))
    triple = gluing_data(mod)
    assert triple.consistent
    assert triple.delta_multiplicity == 1
    assert triple.open_part == {"kind": "structure-sheaf", "rank": 1}


def test_gluing_rejects_nonsplit():
    mod = build_extension(F25, parse_series(F25, "t^-2"))
    with pytest.raises(InvalidInputError) as exc:
        gluing_data(mod)
    assert "pole part [1, 0]*t^-2" in str(exc.value)


def test_solution_counts():
    assert sol_crystal(build_kummer_crystal(CyclicRep.trivial(3, 5, 2), F25)).dimension == 2
    assert sol_crystal(build_kummer_crystal(COMP, F25)).dimension == 0
    assert sol_crystal(build_kummer_crystal(CyclicRep.regular(3, 5), F25)).dimension == 1


def test_naturality_rep_morphisms():
    eye = ((1, 0), (0, 1))
    out = naturality_check_F(COMP, COMP, eye, F25)
    assert out["status"] == "pass"
    assert out["squares"] == {
        "equivariance": True,
        "graded_components": True,
        "transition": True,
    }

    rng = Random(11)
    rep = random_rep(F25, 3, rng)
    f = random_rep_morphism(rep, rep, rng)
    assert naturality_check_F(rep, rep, f, F25)["status"] == "pass"

    bad = ((1, 1), (0, 1))  # not equivariant for the companion action
    out = naturality_check_F(COMP, COMP, bad, F25)
    assert out["status"] == "fail"
    assert out["square"] == "equivariance"
    assert "witness" in out


def test_naturality_object_morphisms():
    obj = functor_F(COMP, F25)
    eye = tuple(
        tuple(tuple(F25.one if i == j else F25.zero for j in range(n)) for i in range(n))
        if n
        else ()
        for n in obj.dims
    )
    out = naturality_check_G(obj, obj, eye)
    assert out["status"] == "pass"
    assert out["common_degree"] == 1
    assert out["squares"]["group_action"]

    rng = Random(7)
    twisted = random_object(F25, 3, rng)
    zero = tuple(
        tuple(tuple(F25.zero for _ in range(twisted.dims[a])) for _ in range(obj.dims[a]))
        if obj.dims[a]
        else ()
        for a in range(3)
    )
    assert naturality_check_G(twisted, obj, zero)["status"] == "pass"


def test_naturality_G_computes_each_fixed_space_once(monkeypatch):
    # both objects saturate at degree 1, the common degree, so each
    # saturation is reused: one fixed space and one group action apiece
    from fcrystal import field, functors

    calls = {"fixed": 0, "sigma": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(field, "_fixed_point_rows", counted("fixed", field._fixed_point_rows))
    monkeypatch.setattr(functors, "_sigma_matrix", counted("sigma", functors._sigma_matrix))
    rng = Random(1)
    obj1, obj2 = random_object(F25, 3, rng), random_object(F25, 3, rng)
    out = naturality_check_G(obj1, obj2, random_object_morphism(obj1, obj2, rng))
    assert out["status"] == "pass" and out["common_degree"] == 1
    assert calls == {"fixed": 2, "sigma": 2}


def test_split_filtration_feeds_nearby():
    mod = build_extension(F25, parse_series(F25, "0"))
    psi = nearby_unipotent(split_vfilt(mod))
    assert psi.dim == 1
    assert psi.saturated_dimension() == 1


def test_rep_isomorphic_agrees_with_weight_multisets():
    # the charpoly verdict against the eigenspace dimensions over F_q,
    # on sampled pairs and on random conjugates of each sample
    kinds = {"isomorphic": 0, "same rank, not isomorphic": 0, "other rank": 0}
    for p in (5, 7):
        for d in (2, 3, 4, 6):
            ctx = make_field(p, resolve_m(p, d, None))
            rng = Random(7000 + 10 * p + d)
            for _ in range(12):
                rep1 = random_rep(ctx, d, rng)
                conj = random_invertible_int(rng, rep1.rank, p)
                moved = mat_mul_int(conj, mat_mul_int(rep1.mat, invert_int(conj, p), p), p)
                for rep2 in (random_rep(ctx, d, rng), CyclicRep(d, p, tuple(map(tuple, moved)))):
                    verdict = rep_isomorphic(rep1, rep2, ctx)
                    assert verdict == (weight_dims_full(rep1, ctx) == weight_dims_full(rep2, ctx))
                    if verdict:
                        kinds["isomorphic"] += 1
                    elif rep1.rank == rep2.rank:
                        kinds["same rank, not isomorphic"] += 1
                    else:
                        kinds["other rank"] += 1
    assert all(kinds.values()), kinds

"""Every functor verdict can fail: injected faults and their witnesses.

The naturality squares of F and G, the group action of functor_G and
the two round trips cannot fail on consistent data, so each test breaks
one input the way a bug would: a weight space dropped or swapped, a
transition scaled, the structure square skipped, or a wrong root of
unity calibrating the group action.  The verdict must then name the
square, class or dimensions that went wrong.
"""

from dataclasses import replace

import pytest

from fcrystal import (
    CapExceededError,
    CyclicRep,
    InvalidInputError,
    fg_roundtrip,
    functor_F,
    functor_G,
    gf_roundtrip,
    make_field,
    naturality_check_F,
    naturality_check_G,
    weight_dims_full,
)
from fcrystal import functors
from fcrystal.field import primitive_root_of_unity

F25 = make_field(5, 2)
F5 = make_field(5, 1)
COMP = CyclicRep.companion(3, 5)  # weights 1 and 2 over F_25
# weights 0 and 1 over F_5, where xi = 2: the root xi^3 = 3 would send
# weight 1 to weight 3
DIAG = CyclicRep(4, 5, ((1, 0), (0, 2)))


def _identity(obj):
    ctx = obj.ctx
    return tuple(tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n)) for n in obj.dims)


def _break_second_crystal(monkeypatch, rep2, fault):
    """naturality_check_F builds rep2's crystal through fault."""
    build = functors.build_kummer_crystal

    def patched(rep, ctx):
        kc = build(rep, ctx)
        return fault(kc) if rep is rep2 else kc

    monkeypatch.setattr(functors, "build_kummer_crystal", patched)


def _root_powers(monkeypatch, *exponents):
    """The k-th call of functor_G's root of unity gives xi^exponents[k]."""
    calls = iter(exponents)
    monkeypatch.setattr(
        functors, "primitive_root_of_unity", lambda ctx, d: ctx.pow(primitive_root_of_unity(ctx, d), next(calls))
    )


def test_naturality_F_names_an_image_in_an_empty_weight(monkeypatch):
    rep2 = CyclicRep(COMP.d, COMP.p, COMP.mat)
    _break_second_crystal(monkeypatch, rep2, lambda kc: replace(kc, bases={2: kc.bases[2]}))
    out = naturality_check_F(COMP, rep2, ((1, 0), (0, 1)), F25)
    assert out == {
        "status": "fail",
        "square": "graded-components",
        "witness": {"class": 1, "reason": "image hits an empty weight"},
    }


def test_naturality_F_names_an_image_outside_its_weight_space(monkeypatch):
    rep2 = CyclicRep(COMP.d, COMP.p, COMP.mat)
    _break_second_crystal(monkeypatch, rep2, lambda kc: replace(kc, bases={1: kc.bases[2], 2: kc.bases[1]}))
    out = naturality_check_F(COMP, rep2, ((1, 0), (0, 1)), F25)
    assert out == {
        "status": "fail",
        "square": "graded-components",
        "witness": {"class": 1, "reason": "image leaves the weight space"},
    }


def test_naturality_F_names_the_class_of_a_broken_transition(monkeypatch):
    rep2 = CyclicRep(COMP.d, COMP.p, COMP.mat)
    two = ((F25.from_int(2),),)
    _break_second_crystal(monkeypatch, rep2, lambda kc: replace(kc, frob_mats={**kc.frob_mats, 2: two}))
    out = naturality_check_F(COMP, rep2, ((1, 0), (0, 1)), F25)
    assert out == {"status": "fail", "square": "transition", "witness": {"class": 2}}


def test_naturality_G_names_a_fixed_vector_whose_image_is_not_fixed(monkeypatch):
    # g_1 = 2 and g_2 = 1 break C2 g^(p) = g C1 at class 1 (2^5 = 2 != 1);
    # with the structure square skipped, the fixed-space square must see it
    obj = functor_F(COMP, F25)
    gmats = ((), ((F25.from_int(2),),), ((F25.one,),))
    assert naturality_check_G(obj, obj, gmats) == {"status": "fail", "square": "transition", "witness": {"class": 1}}
    monkeypatch.setattr(functors, "_transition_failure", lambda *args: None)
    assert naturality_check_G(obj, obj, gmats) == {
        "status": "fail",
        "square": "fixed-spaces",
        "witness": {"reason": "image of a fixed vector is not fixed"},
    }


def test_naturality_G_refuses_a_common_field_where_a_fixed_space_falls_short(monkeypatch):
    # the objects saturate at degrees 3 and 2, so both fixed spaces are
    # taken again over the degree-6 field, where they must keep full rank
    el = F25.el
    deg3 = functors.CGObject(F25, 1, (2,), ((((el([1, 1]), el([0, 1])), (el([0, 1]), el([3, 2])))),))
    deg2 = functors.CGObject(F25, 1, (2,), ((((el([1, 1]), el([1, 1])), (el([2, 0]), el([1, 1])))),))
    zero = ((((F25.zero,) * 2,) * 2),)
    assert naturality_check_G(deg3, deg2, zero)["common_degree"] == 6
    saturate = functors.saturate_fixed_points

    def short(ctx, op, cap):
        if cap == 1:
            raise CapExceededError("fixed space did not reach rank 2 within 1 extension degrees", ((1, 1),))
        return saturate(ctx, op, cap)

    monkeypatch.setattr(functors, "saturate_fixed_points", short)
    with pytest.raises(InvalidInputError, match="did not stay saturated over the common field"):
        naturality_check_G(deg3, deg2, zero)


def test_naturality_G_names_group_actions_that_do_not_commute(monkeypatch):
    obj = functor_F(DIAG, F5)
    assert naturality_check_G(obj, obj, _identity(obj))["induced_map"] == [[1, 0], [0, 1]]
    action = functor_G(obj).rep.mat
    _root_powers(monkeypatch, 3)
    action3 = functor_G(obj).rep.mat
    assert action3 != action
    _root_powers(monkeypatch, 1, 3)  # the target's action calibrated by xi^3
    # the induced map is the identity, so the two sides are the two actions
    assert naturality_check_G(obj, obj, _identity(obj)) == {
        "status": "fail",
        "square": "group-action",
        "witness": {"lhs": [list(r) for r in action3], "rhs": [list(r) for r in action]},
    }


def test_functor_G_refuses_an_action_that_leaves_the_fixed_space(monkeypatch):
    # the field's generator has order 24, no cube root of unity: scaling
    # class 1 by it and class 2 by its square does not commute with the
    # transitions 1 -> 2 -> 1, so the scaled vectors are not fixed
    monkeypatch.setattr(functors, "primitive_root_of_unity", lambda ctx, d: ctx.generator)
    with pytest.raises(InvalidInputError, match="group action left the fixed space"):
        functor_G(functor_F(COMP, F25))


def test_gf_roundtrip_witness_names_both_weight_multisets(monkeypatch):
    assert "witness" not in gf_roundtrip(DIAG, F5)
    _root_powers(monkeypatch, 3)
    out = gf_roundtrip(DIAG, F5)
    assert out == {
        "status": "fail",
        "rank": 2,
        "recovered_rank": 2,
        "saturation_degree": 1,
        "witness": {"weight_dims": [1, 1, 0, 0], "recovered_weight_dims": [1, 0, 0, 1]},
    }
    assert out["witness"]["weight_dims"] == list(weight_dims_full(DIAG, F5))


def test_fg_roundtrip_witness_names_dimensions_and_conjugacy(monkeypatch):
    obj = functor_F(DIAG, F5)
    assert "witness" not in fg_roundtrip(obj)
    # functor_G runs twice: xi^3 maps weight 1 to 3 and back to 9 = 1 mod 4
    _root_powers(monkeypatch, 3, 3)
    out = fg_roundtrip(obj)
    assert out == {
        "status": "fail",
        "dims": [1, 1, 0, 0],
        "recovered_dims": [1, 0, 0, 1],
        "saturation_degree": 1,
        "witness": {"dims_match": False, "operators_conjugate": False},
    }

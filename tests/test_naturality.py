"""Naturality squares of F and G, and the local functors, over the
acceptance pairs (p, d).

The guards pin the verdicts and reports of the parent implementation:
the transition square and its witness class for G on perturbed
morphisms, the F pass report with its classes, and the serialized
vanishing and gluing reports of seeded Kummer crystals.
"""

import hashlib
import json
from collections import Counter
from random import Random

from fcrystal import (
    InvalidInputError,
    build_kummer_crystal,
    gluing_data,
    make_field,
    naturality_check_F,
    naturality_check_G,
    standard_vfilt,
    vanishing,
)
from fcrystal.cli import resolve_m
from fcrystal.samples import random_object, random_rep, random_rep_morphism
from object_morphisms import random_object_morphism

PAIRS = tuple((p, d) for p in (5, 7) for d in (2, 3, 4, 6))
SEED = 20260816


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _contexts():
    for p, d in PAIRS:
        yield p, d, make_field(p, resolve_m(p, d, None))


def _explicit(ctx, obj1, obj2, gmats):
    """Components with the explicit shape dim2(a) x dim1(a); a component
    without entries becomes the zero block of that shape."""
    return tuple(
        gmats[a]
        if obj1.dims[a] and obj2.dims[a]
        else tuple(tuple(ctx.zero for _ in range(obj1.dims[a])) for _ in range(obj2.dims[a]))
        for a in range(obj1.d)
    )


def _object_pairs():
    """30 sampled object pairs per (p, d), each with a sampled morphism."""
    for p, d, ctx in _contexts():
        rng = Random(SEED + 100 * p + d)
        for _ in range(30):
            obj1 = random_object(ctx, d, rng)
            obj2 = random_object(ctx, d, rng)
            yield ctx, obj1, obj2, random_object_morphism(obj1, obj2, rng)


def _perturbed_verdicts():
    """One entry of one nonzero-size component moved by 1, per sampled pair."""
    rng = Random(SEED)
    out = []
    for ctx, obj1, obj2, g in _object_pairs():
        g = _explicit(ctx, obj1, obj2, g)
        live = [a for a in range(obj1.d) if obj1.dims[a] and obj2.dims[a]]
        if not live:
            out.append([ctx.p, obj1.d, None])
            continue
        a = live[rng.randrange(len(live))]
        i, j = rng.randrange(obj2.dims[a]), rng.randrange(obj1.dims[a])
        comp = [list(row) for row in g[a]]
        comp[i][j] = ctx.add(comp[i][j], ctx.one)
        g = g[:a] + (tuple(tuple(row) for row in comp),) + g[a + 1 :]
        out.append([ctx.p, obj1.d, a, naturality_check_G(obj1, obj2, g)])
    return out


def test_perturbed_object_morphisms_keep_their_verdicts():
    verdicts = _perturbed_verdicts()
    tally = Counter(
        (v[3]["status"], v[3].get("square"), v[3].get("witness", {}).get("class"))
        if v[2] is not None
        else None
        for v in verdicts
    )
    assert tally == {
        ("fail", "transition", 1): 12,
        ("fail", "transition", 2): 1,
        ("pass", None, None): 141,
        None: 86,
    }
    assert _digest(verdicts) == "5647c3548a80ff5b87db22d59a8b4a929f9b3dddd5b7d5503e5a9821b45f9a72"


def _rep_pairs():
    for p, d, ctx in _contexts():
        rng = Random(SEED + 43 * p + d)
        for _ in range(6):
            r1 = random_rep(ctx, d, rng, max_rank=3)
            r2 = r1 if rng.randrange(2) else random_rep(ctx, d, rng, max_rank=3)
            yield ctx, r1, r2, random_rep_morphism(r1, r2, rng)


def test_rep_morphism_pass_reports():
    reports = [naturality_check_F(r1, r2, f, ctx) for ctx, r1, r2, f in _rep_pairs()]
    assert all(r["status"] == "pass" for r in reports)
    assert all(
        r["squares"] == {"equivariance": True, "graded_components": True, "transition": True}
        for r in reports
    )
    assert sorted(Counter(tuple(r["classes"]) for r in reports).items()) == [
        ((0,), 10),
        ((0, 1), 6),
        ((0, 1, 2), 1),
        ((0, 1, 3), 2),
        ((0, 1, 5), 1),
        ((0, 2), 1),
        ((0, 3), 2),
        ((0, 5), 2),
        ((1,), 7),
        ((1, 2), 2),
        ((1, 2, 3), 2),
        ((1, 3), 2),
        ((1, 3, 5), 1),
        ((2,), 4),
        ((2, 4), 2),
        ((2, 5), 1),
        ((3,), 2),
    ]
    assert _digest(reports) == "a7dac1439331c69b035835c8491f36d7873ce592fdd08ac44e2b6852482774d5"


def _local_reports():
    for p, d, ctx in _contexts():
        rng = Random(SEED + 59 * p + d)
        vans, glues = [], []
        for _ in range(4):
            kc = build_kummer_crystal(random_rep(ctx, d, rng, max_rank=4), ctx)
            vans.append(vanishing(standard_vfilt(kc)).to_json())
            glues.append(gluing_data(kc).to_json())
        yield (p, d), vans, glues


def test_vanishing_and_gluing_reports_are_pinned():
    got = {pd: (_digest(v), _digest(g)) for pd, v, g in _local_reports()}
    assert got == {
        (5, 2): (
            "e2876cb661cab82b6ca7f4e3121149aa8ec83b2f8aeb8b30ebc9acd5f312689b",
            "89b3aa0330658c9e0f23d4fee5a2c3eb4e27bfe4e7f08ff19c1b6c10f4df5dbb",
        ),
        (5, 3): (
            "8a61a9f9b8c9263e8f7ee90684a53174fc5169fa00dad8da1e39a250b0553ab3",
            "f5e57e6ea754acc45b2285b9e0b2f62d222319bca6b40627de167fa1acaddc42",
        ),
        (5, 4): (
            "6a2c2b638b223634f8cac7655dd54c412487ea8bd07037765d11b1d085ac5b0d",
            "5e1dbef99a0e898af5640436c3798d112102ab96243118224d8bdabb98f5932e",
        ),
        (5, 6): (
            "58f9a010e00f1d9f1544d6d400b4a4508d07518b02a36efa3fd4cc7bc628b22a",
            "59d4ae327509477cc775a6e8ecc4d64e90d194cee6c3acaf36f052ee6e03d68d",
        ),
        (7, 2): (
            "70eb5447aeb560580d372c1216eae6eb970f13613effd476cc34afdd903ff48c",
            "e8450c0ea11642b4a69ffd3bcbe33a82e6a2c99ff578e1d50c6bee65e0616a65",
        ),
        (7, 3): (
            "6d1252d7a31ded873669abe8f65a280af94a89793efc9e0e26a2736ab650affa",
            "6a0e0403fac9850fa6135d4f5911e724afb149bf29699f0968f389631f058762",
        ),
        (7, 4): (
            "395478d5c7b48b61c5592fddb65e009d0732f0fc5da07aaae5460d095171b86a",
            "18ec15c577abf337fca2cf8a9860a49def623d85813d176f14aa6af8bfb669a5",
        ),
        (7, 6): (
            "1f644c572370a728a73957c6e357d7ee95411e943b7230e314355e3885a1ccf5",
            "2333150903fc94cc45e538e25fcc4d54ac577f1c2a7f3fcda7cf48a5861d393e",
        ),
    }


def test_sampled_object_morphisms_are_natural():
    """The sampler's own components pass G-naturality as they come: each
    has the explicit shape dim2(a) x dim1(a), including dim1(a) = 0."""
    rejected, passed, nonzero = [], 0, 0
    for ctx, obj1, obj2, g in _object_pairs():
        try:
            v = naturality_check_G(obj1, obj2, g)
        except InvalidInputError as err:
            rejected.append(str(err))  # the shape check of the components
            continue
        passed += v["status"] == "pass"
        nonzero += any(any(x) for m in g for row in m for x in row)
    assert len(rejected) == 0, rejected[:3]
    assert passed == 240
    assert nonzero > 0

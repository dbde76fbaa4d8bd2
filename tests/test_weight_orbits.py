"""weight_decompose takes one kernel per Frobenius orbit of weights.

The oracle is the per-weight loop it replaced: one F_q kernel of
A - xi^a for every weight a.  Frobenius commutes with reduced row
echelon form, so the orbit shortcut must reproduce that loop entry for
entry, pivots and insertion order included.
"""

from random import Random

import pytest

from fcrystal import CyclicRep, linalg, make_field, weight_decompose
from fcrystal.cli import resolve_m
from fcrystal.field import primitive_root_of_unity
from fcrystal.samples import character_orbits, random_rep

PAIRS = tuple((p, d) for p in (5, 7) for d in (2, 3, 4, 6))
SEED = 20260816


def _oracle_bases(rep, ctx):
    """The per-weight kernel loop: every weight, in increasing order."""
    xi = primitive_root_of_unity(ctx, rep.d)
    mat_q = tuple(tuple(ctx.from_int(x) for x in row) for row in rep.mat)
    bases = {}
    for a in range(rep.d):
        lam = ctx.pow(xi, a)
        shifted = tuple(
            tuple(ctx.sub(mat_q[i][j], lam) if i == j else mat_q[i][j] for j in range(rep.rank))
            for i in range(rep.rank)
        )
        rows, pivots = linalg.kernel(ctx, shifted)
        if rows:
            bases[a] = (tuple(map(tuple, rows)), tuple(pivots))
    return bases


def _field(p, d):
    return make_field(p, resolve_m(p, d, None))


def _assert_matches_oracle(rep, ctx):
    got = weight_decompose(rep, ctx).bases
    want = _oracle_bases(rep, ctx)
    assert list(got) == list(want), rep.mat
    assert got == want, rep.mat


@pytest.mark.parametrize("p, d", PAIRS)
def test_random_reps_match_per_weight_kernels(p, d):
    ctx = _field(p, d)
    rng = Random(SEED + 100 * p + d)
    for _ in range(20):
        _assert_matches_oracle(random_rep(ctx, d, rng), ctx)


@pytest.mark.parametrize("p, d", [(2, 21), (5, 31), (7, 6)])
def test_regular_reps_match_per_weight_kernels(p, d):
    _assert_matches_oracle(CyclicRep.regular(d, p), _field(p, d))


def test_rank_six_reps_at_d63_match_per_weight_kernels():
    ctx = _field(2, 63)
    rng = Random(SEED)
    seen = 0
    while seen < 4:
        rep = random_rep(ctx, 63, rng, max_rank=6)
        if rep.rank == 6:
            _assert_matches_oracle(rep, ctx)
            seen += 1


@pytest.mark.parametrize("p, d, orbits", [(5, 31, 11), (2, 21, 6), (2, 63, 13)])
def test_one_kernel_per_orbit(monkeypatch, p, d, orbits):
    calls = []
    kernel = linalg.kernel

    def counting(ctx, mat):
        calls.append(len(mat))
        return kernel(ctx, mat)

    monkeypatch.setattr(linalg, "kernel", counting)
    dec = weight_decompose(CyclicRep.regular(d, p), _field(p, d))
    assert len(calls) == len(character_orbits(d, p)) == orbits
    assert sorted(dec.bases) == list(range(d))

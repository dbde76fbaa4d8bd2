"""weight_decompose takes one kernel per Frobenius orbit of weights,
and frobenius_on_weights states that every transition is the identity.

The oracles are the computations these shortcuts replaced: one F_q
kernel of A - xi^a for every weight a, and the transition solve that
expresses each p-power image of the weight-a basis in the
weight-(p*a) basis.  Frobenius commutes with reduced row echelon form,
so the orbit shortcut must reproduce the kernel loop entry for entry,
pivots and insertion order included, and the solve must return the
identity everywhere.
"""

from random import Random

import pytest

from fcrystal import CyclicRep, build_kummer_crystal, linalg, make_field, weight_decompose
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


def _oracle_transitions(ctx, d, bases):
    """The transition solve: B_a with U_(p*a) B_a = U_a^(p), invertible."""
    out = {}
    for a, (rows, _) in bases.items():
        trows, tpiv = bases[(ctx.p * a) % d]
        assert len(trows) == len(rows)
        cols = [linalg.express(ctx, trows, tpiv, tuple(ctx.frob(x) for x in u)) for u in rows]
        assert None not in cols
        mat = tuple(tuple(col[i] for col in cols) for i in range(len(trows)))
        assert linalg.is_invertible(ctx, mat)
        out[a] = mat
    return out


def _field(p, d):
    return make_field(p, resolve_m(p, d, None))


def _assert_matches_oracle(rep, ctx):
    kc = build_kummer_crystal(rep, ctx)
    got = kc.bases
    want = _oracle_bases(rep, ctx)
    assert list(got) == list(want), rep.mat
    assert got == want, rep.mat
    for a, mat in _oracle_transitions(ctx, rep.d, want).items():
        n = len(mat)
        identity = tuple(tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n))
        assert mat == kc.frob_mats[a] == identity, (rep.mat, a)
    # the p-power of the orbit's last basis is the first basis again
    for orbit in character_orbits(rep.d, ctx.p):
        first = last = orbit[0]
        if first not in got:
            continue
        while (ctx.p * last) % rep.d != first:
            last = (ctx.p * last) % rep.d
        assert linalg.mat_frob(ctx, got[last][0]) == got[first][0], (rep.mat, first, last)


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

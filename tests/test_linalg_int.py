"""Prime-field matrix products against a naive triple loop.

mat_mul_int builds each output row as a combination of the packed rows
of b, over small primes and word-size ones; mat_pow_int squares with it,
and CyclicRep checks A^d = I with that.
"""

from random import Random

import pytest

from fcrystal import CyclicRep, linalg


def _naive(a, b, p):
    width = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) % p for j in range(width)] for row in a]


def _naive_pow(a, e, p):
    out = linalg.identity_int(len(a))
    for _ in range(e):
        out = _naive(out, a, p)
    return out


@pytest.mark.parametrize("p", [2, 5, 7, 251, 2**61 - 1])
def test_mat_mul_int_matches_triple_loop(p):
    rng = Random(4100 + p)
    shapes = set()
    for r in range(5):
        for k in range(5):
            for c in range(5):
                # entries outside [0, p) and many zeros, as after a subtraction
                a = [[rng.choice([0, 0, rng.randrange(-p, 2 * p)]) for _ in range(k)] for _ in range(r)]
                b = [[rng.choice([0, 0, rng.randrange(-p, 2 * p)]) for _ in range(c)] for _ in range(k)]
                got = linalg.mat_mul_int(a, b, p)
                assert got == _naive(a, b, p), (a, b)
                assert len(got) == r and all(len(row) == (c if k else 0) for row in got)
                shapes.add((r == 0, c == 0))
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}


@pytest.mark.parametrize(
    "rep",
    [
        CyclicRep.regular(21, 2),
        CyclicRep.regular(31, 5),
        CyclicRep.regular(6, 7),
        CyclicRep.companion(9, 2),
        CyclicRep.companion(4, 5),
        CyclicRep.trivial(3, 7, 3),
    ],
    ids=lambda rep: f"d{rep.d}-p{rep.p}-r{rep.rank}",
)
def test_mat_pow_int_on_builtin_reps(rep):
    for e in (0, 1, 2, 3, rep.d - 1, rep.d):
        assert linalg.mat_pow_int(rep.mat, e, rep.p) == _naive_pow(rep.mat, e, rep.p), e
    assert linalg.mat_pow_int(rep.mat, rep.d, rep.p) == linalg.identity_int(rep.rank)


@pytest.mark.parametrize("p", [2, 7, 251, 2**61 - 1])
def test_mat_pow_int_matches_repeated_products(p):
    # entries outside [0, p) and exponents through several squarings
    rng = Random(4200 + p % 1000)
    for n in (0, 1, 3, 5):
        a = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n)]
        for e in range(12):
            assert linalg.mat_pow_int(a, e, p) == _naive_pow(a, e, p), (a, e)

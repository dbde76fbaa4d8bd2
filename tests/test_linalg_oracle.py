"""The packed prime-field kernels against the list-based elimination they replaced.

``oracle_rref_int`` is the list-of-ints Gauss-Jordan loop that
``linalg.rref_int`` ran before rows were packed into one int each, kept
here unchanged; ``oracle_kernel_int`` and ``oracle_invert_int`` are the
kernel (two eliminations) and inverse built on it.  Reduced row echelon
form is unique, so the packed kernels must return exactly the same rows
and pivots: on uniform, singular (a product B C) and sparse matrices up
to 48 x 48 with entries in [-3p, 3p), for primes from 2 to 2^127 - 1,
and on the lane edges: every entry p - 1 (the largest lane a row
operation makes), width 1, and widths of 64 and more.
"""

from random import Random

import pytest

from fcrystal import linalg

PRIMES = (2, 3, 5, 7, 251, 2**31 - 1, 2**61 - 1, 2**127 - 1)


def oracle_rref_int(rows, p):
    """Reduced row echelon form mod p.  Returns (rows, pivots)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def oracle_kernel_int(mat, p):
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    red, pivots = oracle_rref_int(mat, p)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red[i][free]) % p
        basis.append(v)
    if not basis:
        return [], []
    return oracle_rref_int(basis, p)


def oracle_invert_int(mat, p):
    n = len(mat)
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = oracle_rref_int(aug, p)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in red[:n]]


def _uniform(rng, n, m, p):
    return [[rng.randrange(-3 * p, 3 * p) for _ in range(m)] for _ in range(n)]


def _singular(rng, n, m, p):
    """B C through an inner dimension below min(n, m), entries moved into [-3p, 3p)."""
    k = rng.randrange(min(n, m))
    b, c = _uniform(rng, n, k, p), _uniform(rng, k, m, p)
    prod = [[sum(b[i][t] * c[t][j] for t in range(k)) % p for j in range(m)] for i in range(n)]
    return [[x + p * rng.randrange(-3, 3) for x in row] for row in prod]


def _sparse(rng, n, m, p):
    return [[x if rng.randrange(5) == 0 else 0 for x in row] for row in _uniform(rng, n, m, p)]


SHAPES = ((1, 1), (3, 5), (5, 3), (8, 8), (24, 24), (48, 48), (16, 48), (48, 10))


def _cases(p):
    rng = Random(2100 + p.bit_length())
    for n, m in SHAPES:
        for kind in (_uniform, _singular, _sparse):
            yield kind.__name__, kind(rng, n, m, p)


def _assert_agree(mat, p):
    """Returns the rank."""
    red = oracle_rref_int(mat, p)
    assert linalg.rref_int(mat, p) == red, mat
    assert linalg.kernel_int(mat, p) == oracle_kernel_int(mat, p), mat
    if mat and len(mat) == len(mat[0]):
        assert linalg.invert_int(mat, p) == oracle_invert_int(mat, p), mat
    return len(red[1])


@pytest.mark.parametrize("p", PRIMES, ids=lambda p: f"p{p.bit_length()}b" if p > 251 else f"p{p}")
def test_packed_kernels_match_the_list_oracle(p):
    seen = set()
    for kind, mat in _cases(p):
        rank = _assert_agree(mat, p)
        full = rank == min(len(mat), len(mat[0]))
        seen.add((kind, full))
        if len(mat) == len(mat[0]) and full:
            seen.add("invertible")
    # the draws reach full and deficient rank, and square invertible inputs
    assert {("_uniform", True), ("_singular", False), ("_sparse", False), "invertible"} <= seen, seen


@pytest.mark.parametrize("p", PRIMES, ids=lambda p: f"p{p.bit_length()}b" if p > 251 else f"p{p}")
def test_lane_edges(p):
    rng = Random(2200 + p.bit_length())
    # every entry p - 1: each row operation fills its lanes to the bound
    for n, m in ((1, 1), (2, 2), (7, 7), (48, 48), (3, 70)):
        _assert_agree([[p - 1] * m for _ in range(n)], p)
        _assert_agree([[p - 1 if (i + j) % 3 else -1 for j in range(m)] for i in range(n)], p)
    # -J - I: p - 1 off the diagonal and p - 2 on it; singular exactly when p | n + 1
    for n in (2, 5, 16):
        _assert_agree([[p - 1 if i != j else p - 2 for j in range(n)] for i in range(n)], p)
    # width 1: one lane per row
    for n in (1, 2, 9):
        _assert_agree([[rng.randrange(-3 * p, 3 * p)] for _ in range(n)], p)
        _assert_agree([[0] for _ in range(n)], p)
    # widths of 64 and more, beyond a machine word of lanes
    for n, m in ((2, 64), (10, 65), (5, 130)):
        _assert_agree(_uniform(rng, n, m, p), p)
        _assert_agree(_sparse(rng, n, m, p), p)


@pytest.mark.parametrize("p", PRIMES, ids=lambda p: f"p{p.bit_length()}b" if p > 251 else f"p{p}")
def test_empty_and_zero_matrices(p):
    for mat in ([], [[]], [[0] * 4 for _ in range(3)], [[p, -p, 2 * p]]):
        _assert_agree(mat, p)
    assert linalg.rref_int([], p) == ([], [])
    assert linalg.kernel_int([[0, 0, 0]], p) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])

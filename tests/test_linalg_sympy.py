"""Prime-field linear algebra against sympy's DomainMatrix over GF(p).

rref_int and kernel_int are the integer-mod-p kernels behind the
fixed-point computations.  sympy is an independent oracle: the reduced
row echelon form is unique, so rank, pivots and rows must match exactly,
and the kernel must have sympy's dimension, lie in the kernel and span
the same space as sympy's nullspace.  charpoly_int, the isomorphism
test of rep_isomorphic, must give sympy's characteristic polynomial.
"""

from random import Random

import pytest

from fcrystal import linalg

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _random(rng, n, m, p):
    return [[rng.randrange(p) for _ in range(m)] for _ in range(n)]


def _matrices(p):
    """For every shape up to 6x6: one uniform matrix and one product
    B C through an inner dimension below min(n, m), so singular (the
    zero matrix when that dimension is 0)."""
    rng = Random(9000 + p)
    out = []
    for n in range(1, 7):
        for m in range(1, 7):
            out.append(_random(rng, n, m, p))
            k = rng.randrange(min(n, m))
            b, c = _random(rng, n, k, p), _random(rng, k, m, p)
            out.append([[sum(b[i][t] * c[t][j] for t in range(k)) % p for j in range(m)] for i in range(n)])
    return out


def _dm(mat, p):
    K = sympy.GF(p)
    return DomainMatrix([[K(x) for x in row] for row in mat], (len(mat), len(mat[0])), K)


def _ints(dm, p):
    return [[int(x) % p for x in row] for row in dm.to_list()]


@pytest.mark.parametrize("p", [5, 7])
def test_rref_int_matches_sympy(p):
    shapes = set()
    for mat in _matrices(p):
        rows, pivots = linalg.rref_int(mat, p)
        dm = _dm(mat, p)
        rank = dm.rank()
        ref, ref_pivots = dm.rref()
        assert len(rows) == len(pivots) == rank, mat
        assert tuple(pivots) == tuple(ref_pivots), mat
        assert rows == _ints(ref, p)[:rank], mat
        shapes.add((len(mat) == len(mat[0]), rank == min(len(mat), len(mat[0]))))
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("p", [5, 7])
def test_kernel_int_matches_sympy(p):
    nonzero = 0
    for mat in _matrices(p):
        rows, _ = linalg.kernel_int(mat, p)
        null = _dm(mat, p).nullspace()
        ncols = len(mat[0])
        assert len(rows) == null.shape[0] == ncols - _dm(mat, p).rank(), mat
        for v in rows:
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in mat), (mat, v)
        if rows:
            nonzero += 1
            same_span, _ = linalg.rref_int(_ints(null, p), p)
            assert rows == same_span, mat
    assert nonzero


def _large_matrices(p):
    """24 x 24 and 48 x 48: uniform, singular (B C through an inner
    dimension below n) and sparse, the sizes of the flat fixed-point
    kernels at a saturating degree."""
    rng = Random(9200 + p)
    out = []
    for n in (24, 48):
        out.append(_random(rng, n, n, p))
        k = rng.randrange(n)
        b, c = _random(rng, n, k, p), _random(rng, k, n, p)
        out.append([[sum(b[i][t] * c[t][j] for t in range(k)) % p for j in range(n)] for i in range(n)])
        out.append([[x if rng.randrange(6) == 0 else 0 for x in row] for row in _random(rng, n, n, p)])
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_large_rref_and_kernel_match_sympy(p):
    deficient = 0
    for mat in _large_matrices(p):
        dm = _dm(mat, p)
        rank = dm.rank()
        ref, ref_pivots = dm.rref()
        rows, pivots = linalg.rref_int(mat, p)
        assert tuple(pivots) == tuple(ref_pivots), mat
        assert rows == _ints(ref, p)[:rank], mat
        kernel, _ = linalg.kernel_int(mat, p)
        assert len(kernel) == len(mat) - rank, mat
        if kernel:
            deficient += 1
            same_span, _ = linalg.rref_int(_ints(dm.nullspace(), p), p)
            assert kernel == same_span, mat
    assert deficient >= 2


def _square_matrices(p):
    """For n in 0..9: uniform, singular (a product B C through an inner
    dimension below n), upper Hessenberg, and sparse matrices; the sparse
    ones have zero subdiagonal entries, so the reduction must search for
    pivots below the subdiagonal or skip a column."""
    rng = Random(9100 + p)
    out = []
    for n in range(10):
        for _ in range(4):
            out.append(("uniform", _random(rng, n, n, p)))
            k = rng.randrange(n) if n else 0
            b, c = _random(rng, n, k, p), _random(rng, k, n, p)
            out.append(("singular", [[sum(b[i][t] * c[t][j] for t in range(k)) % p for j in range(n)] for i in range(n)]))
            hess = _random(rng, n, n, p)
            out.append(("hessenberg", [[x if i <= j + 1 else 0 for j, x in enumerate(row)] for i, row in enumerate(hess)]))
            out.append(("sparse", [[x if rng.randrange(4) == 0 else 0 for x in row] for row in _random(rng, n, n, p)]))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_charpoly_int_matches_sympy(p):
    kinds = set()
    for kind, mat in _square_matrices(p):
        n = len(mat)
        K = sympy.GF(p)
        ref = DomainMatrix([[K(x) for x in row] for row in mat], (n, n), K).charpoly()
        assert linalg.charpoly_int(mat, p) == [int(c) % p for c in ref], (kind, mat)
        if n and ref[-1] == 0:
            kinds.add("det 0")
        kinds.add(kind)
    assert kinds == {"uniform", "singular", "hessenberg", "sparse", "det 0"}

"""Seeded sampling of representations, graded objects, and morphisms.

Everything takes an explicit random.Random so batch suites are
reproducible; no global randomness.  Representations are drawn as
conjugated direct sums of companion blocks of orbit polynomials, so
the sampled eigenvalue structure covers every p-power orbit of
characters and the rank is hit exactly.
"""

from __future__ import annotations

from random import Random

from . import linalg
from .crystal import CyclicRep, _companion_block
from .errors import InvalidInputError
from .field import primitive_root_of_unity
from .functors import CGObject, functor_F


def character_orbits(d: int, p: int) -> list:
    """Orbits of multiplication by p on Z/d, each sorted, smallest first."""
    seen = set()
    orbits = []
    for a in range(d):
        if a in seen:
            continue
        orb = []
        b = a
        while b not in seen:
            seen.add(b)
            orb.append(b)
            b = (b * p) % d
        orbits.append(tuple(sorted(orb)))
    return orbits


def orbit_polynomial(ctx, d: int, orbit) -> list:
    """Coefficients (ascending, ints) of prod over the orbit of (x - xi^b).

    The p-power map permutes the roots, so the product is fixed by
    Frobenius coefficientwise and the coefficients are prime-field
    scalars.
    """
    xi = primitive_root_of_unity(ctx, d)
    poly = [ctx.one]
    for b in orbit:
        root = ctx.pow(xi, b)
        nxt = [ctx.zero] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = ctx.add(nxt[i + 1], c)
            nxt[i] = ctx.sub(nxt[i], ctx.mul(root, c))
        poly = nxt
    out = [ctx.coeffs(c)[0] for c in poly]
    if poly != [ctx.from_int(c) for c in out]:
        raise InvalidInputError(f"orbit {orbit} is not p-stable over this field")
    return out


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def random_invertible_int(rng: Random, n: int, p: int):
    while True:
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if linalg.invert_int(mat, p) is not None:
            return mat


def random_invertible(rng: Random, ctx, n: int):
    while True:
        mat = tuple(
            tuple(ctx.from_int(rng.randrange(ctx.order)) for _ in range(n)) for _ in range(n)
        )
        if linalg.invert(ctx, mat) is not None:
            return mat


def _pick_orbit_multiset(rng: Random, orbits, max_rank: int):
    target = rng.randint(1, max_rank)
    chosen = []
    total = 0
    while total < target:
        fits = [o for o in orbits if len(o) <= target - total]
        o = fits[rng.randrange(len(fits))]
        chosen.append(o)
        total += len(o)
    return chosen


def random_rep(ctx, d: int, rng: Random, max_rank: int = 4) -> CyclicRep:
    """A random representation of exact rank in [1, max_rank].

    Companion blocks of random orbit polynomials, conjugated by a
    random invertible prime-field matrix.
    """
    p = ctx.p
    orbits = character_orbits(d, p)
    blocks = [
        _companion_block(orbit_polynomial(ctx, d, o), p)
        for o in _pick_orbit_multiset(rng, orbits, max_rank)
    ]
    mat = _block_diag(blocks)
    n = len(mat)
    conj = random_invertible_int(rng, n, p)
    inv = linalg.invert_int(conj, p)
    mat = linalg.mat_mul_int(conj, linalg.mat_mul_int(mat, inv, p), p)
    return CyclicRep(d, p, tuple(tuple(r) for r in mat))


def random_object(ctx, d: int, rng: Random, max_rank: int = 3) -> CGObject:
    """A random graded object, drawn as a twisted base change of the
    image of a random representation.

    Every isomorphism class of objects arises this way after enough
    scalar extension, while the fixed-point search for the sampled
    presentation stays inside the base field: a uniformly random
    transition system instead needs extensions of degree equal to the
    multiplicative order of its norm matrix, which is unbounded in
    practice.
    """
    base = functor_F(random_rep(ctx, d, rng, max_rank), ctx)
    g = [random_invertible(rng, ctx, n) if n else () for n in base.dims]
    p = ctx.p
    mats = []
    for a in range(d):
        n = base.dims[a]
        if not n:
            mats.append(())
            continue
        gp = tuple(tuple(ctx.frob(x) for x in row) for row in g[a])
        m = linalg.mat_mul(ctx, base.mats[a], linalg.invert(ctx, gp))
        mats.append(linalg.mat_mul(ctx, g[(p * a) % d], m))
    return CGObject(ctx, d, tuple(base.dims), tuple(mats))


def _random_solution(rows, n: int, p: int, rng: Random):
    """A random combination, not all coefficients zero, of the echelon
    basis of {v : rows @ v = 0} mod p; the zero vector of length n when
    that kernel is zero."""
    basis, _ = linalg.kernel_int(rows, p)
    flat = [0] * n
    if basis:
        combo = [rng.randrange(p) for _ in basis]
        if not any(combo):
            combo[0] = 1
        for c, vec in zip(combo, basis):
            if c:
                flat = [(x + c * y) % p for x, y in zip(flat, vec)]
    return flat


def random_rep_morphism(rep1: CyclicRep, rep2: CyclicRep, rng: Random):
    """A random equivariant matrix rep1 -> rep2 (possibly zero).

    Solves the intertwining equations exactly and draws a random
    combination of the kernel basis.
    """
    p = rep1.p
    r1, r2 = rep1.rank, rep2.rank
    rows = []
    for i in range(r2):
        for j in range(r1):
            row = [0] * (r2 * r1)
            for k in range(r2):
                row[k * r1 + j] = (row[k * r1 + j] + rep2.mat[i][k]) % p
            for k in range(r1):
                row[i * r1 + k] = (row[i * r1 + k] - rep1.mat[k][j]) % p
            rows.append(row)
    flat = _random_solution(rows, r2 * r1, p, rng)
    return tuple(tuple(flat[i * r1 + j] for j in range(r1)) for i in range(r2))


"""Random morphisms of graded objects, for the naturality tests.

The library samples representations, objects and representation
morphisms; the object morphisms below are read only by tests, so they
live here, next to the tests that draw them.
"""

from random import Random

from fcrystal.errors import InvalidInputError
from fcrystal.functors import CGObject, transition_residual
from fcrystal.samples import _random_solution


def random_object_morphism(obj1: CGObject, obj2: CGObject, rng: Random):
    """A random morphism of graded objects (possibly zero).

    Components g_a of shape dim2(a) x dim1(a) with a zero transition
    residual C2 G^(p) - G C1.  The residual is prime-field-linear in the
    entries of the g_a written over the power basis of F_q, unknowns
    ordered by (class, row, column, coordinate), so the solution space
    is an exact kernel.
    """
    if obj1.ctx is not obj2.ctx or obj1.d != obj2.d:
        raise InvalidInputError("morphism endpoints live in different categories")
    ctx = obj1.ctx
    p, d, m = ctx.p, obj1.d, ctx.m
    n1, n2 = obj1.dims, obj2.dims
    nunk = m * sum(a * b for a, b in zip(n1, n2))

    def components(flat):
        it = iter(flat)
        return tuple(
            tuple(tuple(ctx.from_coeffs([next(it) for _ in range(m)]) for _ in range(n1[a])) for _ in range(n2[a]))
            for a in range(d)
        )

    cols = []
    for u in range(nunk):
        res = transition_residual(obj1, obj2, components([int(u == v) for v in range(nunk)]))
        cols.append([x for row in res for el in row for x in ctx.coeffs(el)])
    return components(_random_solution([list(r) for r in zip(*cols)], nunk, p, rng))

"""Direct sums of cyclic representations, for the tests.

The library builds crystals from one representation at a time; the
tests build mixed-weight ones from block sums, so the sum lives here,
next to the tests that take it.
"""

from fcrystal.crystal import CyclicRep
from fcrystal.errors import InvalidInputError


def direct_sum(rep1: CyclicRep, rep2: CyclicRep) -> CyclicRep:
    if (rep1.d, rep1.p) != (rep2.d, rep2.p):
        raise InvalidInputError("direct sum needs matching d and p")
    r1, r2 = rep1.rank, rep2.rank
    rows = [tuple(row) + (0,) * r2 for row in rep1.mat]
    rows += [(0,) * r1 + tuple(row) for row in rep2.mat]
    return CyclicRep(rep1.d, rep1.p, tuple(rows))

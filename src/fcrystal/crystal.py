"""Cyclic-group representations and the modules they induce on the
punctured formal disk.

A representation of Z/d on F_p^r (d prime to p) determines, over any
F_q containing the d-th roots of unity, a weight decomposition: the
generator acts on the weight-a eigenspace by xi^a.  Descending the
trivialized pullback along the degree-d Kummer cover packages this as
a KummerCrystal: each weight a carries a dimension and a shift
epsilon_a = (d - a) mod d locating its sections among the cover
coordinate's exponent classes.  The weight bases are Frobenius-
compatible, so every transition matrix is the identity.

ExtensionModule models extensions of the structure sheaf by the
delta module at the origin, k((t))/k[[t]]: pairs (f, g) of Laurent
series, where the delta part g is a polar part (every exponent <= -1)
and the generator e_m is the class [t^(-m)], with Frobenius
(f, g) |-> (f^p, [t f^p c] + g^p) for a fixed Laurent polynomial c.
The pole order of c enters through n = -v_t(c) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import CapExceededError, InvalidInputError
from .field import FieldCtx, is_prime, primitive_root_of_unity
from .series import LaurentSeries

DEFAULT_DELTA_CAP = 4096
_CHAIN_CAP = 4096  # the largest pole order sol_extension follows


def _reduce_mat(mat, p: int):
    rows = tuple(tuple(int(x) % p for x in row) for row in mat)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("representation matrix must be square")
    return rows


def _companion_block(coeffs, p: int):
    # coeffs ascending with leading 1; block has that characteristic polynomial
    k = len(coeffs) - 1
    rows = []
    for i in range(k):
        row = [0] * k
        if i > 0:
            row[i - 1] = 1
        row[k - 1] = (row[k - 1] - coeffs[i]) % p
        rows.append(row)
    return rows


@dataclass(frozen=True)
class CyclicRep:
    """An action of Z/d on F_p^r: the generator acts by mat, mat^d = 1."""

    d: int
    p: int
    mat: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.d < 1:
            raise InvalidInputError(f"d={self.d} must be >= 1")
        if not is_prime(self.p):
            raise InvalidInputError(f"p={self.p} is not prime")
        if self.d % self.p == 0:
            raise InvalidInputError(f"d={self.d} must be prime to p={self.p}")
        object.__setattr__(self, "mat", _reduce_mat(self.mat, self.p))
        if self.rank == 0:
            raise InvalidInputError("representation must have positive rank")
        md = linalg.mat_pow_int(self.mat, self.d, self.p)
        if md != linalg.identity_int(self.rank):
            raise InvalidInputError(f"matrix does not have order dividing d={self.d}")

    @property
    def rank(self) -> int:
        return len(self.mat)

    @classmethod
    def trivial(cls, d: int, p: int, rank: int = 1) -> "CyclicRep":
        return cls(d, p, tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)))

    @classmethod
    def regular(cls, d: int, p: int) -> "CyclicRep":
        """The cyclic shift on F_p^d."""
        return cls(
            d, p, tuple(tuple(1 if j == (i - 1) % d else 0 for j in range(d)) for i in range(d))
        )

    @classmethod
    def companion(cls, d: int, p: int) -> "CyclicRep":
        """Companion matrix of 1 + x + ... + x^(d-1); faithful of rank d-1."""
        if d < 2:
            raise InvalidInputError("companion form needs d >= 2")
        return cls(d, p, tuple(map(tuple, _companion_block([1] * d, p))))

    def to_json(self):
        return {"d": self.d, "p": self.p, "mat": [list(r) for r in self.mat]}


# ---------------------------------------------------------------------------
# weight decomposition and Frobenius transition


@dataclass(frozen=True)
class WeightDecomposition:
    """Echelonized eigenbasis of the generator's action over F_q.

    bases[a] = (rows, pivots): rows are the RREF basis vectors, as
    tuples, of the weight-a eigenspace (generator acts by xi^a); only
    nonzero weights appear.  The dimensions sum to the rank (the action
    is semisimple since d is prime to p).
    """

    ctx: FieldCtx
    xi: tuple
    bases: dict

    @property
    def dims(self) -> dict:
        return {a: len(rows) for a, (rows, _) in self.bases.items()}


def weight_decompose(rep: CyclicRep, ctx: FieldCtx) -> WeightDecomposition:
    """Split F_q^r into eigenspaces of the generator's action.

    Requires the d-th roots of unity to live in ctx (d | q-1).  One
    kernel per Frobenius orbit a, p*a, p^2*a, ... (mod d), taken at the
    orbit's least weight: the generator has F_p entries, so Frobenius
    sends A - xi^a to A - xi^(p*a), and since it is a field automorphism
    it commutes with reduced row echelon form.  The weight-(p*a) basis is
    therefore the entrywise p-power of the weight-a basis, with the same
    pivots, and an empty weight empties its whole orbit.
    """
    if ctx.p != rep.p:
        raise InvalidInputError("field characteristic does not match the representation")
    if (ctx.order - 1) % rep.d != 0:
        raise InvalidInputError(
            f"weights need mu_{rep.d} in the field: {rep.d} does not divide q-1={ctx.order - 1}"
        )
    d, r = rep.d, rep.rank
    xi = primitive_root_of_unity(ctx, d)
    mat_q = tuple(tuple(ctx.from_int(x) for x in row) for row in rep.mat)
    found = {}
    for a in range(d):
        if a in found:
            continue
        lam = ctx.pow(xi, a)
        shifted = tuple(
            tuple(ctx.sub(mat_q[i][j], lam) if i == j else mat_q[i][j] for j in range(r))
            for i in range(r)
        )
        rows, pivots = linalg.kernel(ctx, shifted)
        rows, pivots = tuple(map(tuple, rows)), tuple(pivots)
        b = a
        while True:
            found[b] = (rows, pivots)
            b = (ctx.p * b) % d
            if b in found:
                break
            rows = linalg.mat_frob(ctx, rows)
    bases = {a: found[a] for a in range(d) if found[a][0]}
    if sum(len(rows) for rows, _ in bases.values()) != r:
        raise InvalidInputError("action is not diagonalizable over this field")
    return WeightDecomposition(ctx, xi, bases)


def frobenius_on_weights(dec: WeightDecomposition) -> dict:
    """Transition matrices B_a with U_(p*a) B_a = U_a^(p), row-major.

    U_a has the weight-a basis vectors as columns and ^(p) is the
    coordinatewise p-power.  Every B_a is the identity of size dim(a).
    weight_decompose builds U_(p*a) as U_a^(p) along each orbit.  At the
    orbit's closure, after L steps, U_a^(p^L) is the RREF basis of the
    kernel of A - xi^(p^L*a) = A - xi^a: Frobenius commutes with RREF
    and fixes A's F_p entries.  A subspace has one RREF basis, so
    U_a^(p^L) = U_a.
    """
    one, zero = dec.ctx.one, dec.ctx.zero
    return {
        a: tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        for a, n in dec.dims.items()
    }


@dataclass(frozen=True)
class KummerCrystal:
    """Descent data of a representation along the degree-d Kummer cover.

    Per nonzero weight a: dims[a], the exponent shift
    shifts[a] = (d - a) mod d (weight-a sections live on cover
    exponents congruent to it), the echelonized weight basis, and the
    transition matrix frob_mats[a] into weight p*a mod d, which is the
    identity (see frobenius_on_weights).
    """

    rep: CyclicRep
    ctx: FieldCtx
    d: int
    rank: int
    xi: tuple
    dims: dict
    shifts: dict
    bases: dict
    frob_mats: dict

    def to_json(self):
        coeffs = self.ctx.coeffs
        return {
            "field": self.ctx.to_json(),
            "d": self.d,
            "rank": self.rank,
            "xi": list(coeffs(self.xi)),
            "weights": {
                str(a): {
                    "dim": self.dims[a],
                    "shift": self.shifts[a],
                    "basis": [[list(coeffs(x)) for x in row] for row in self.bases[a][0]],
                    "frob_mat": [[list(coeffs(x)) for x in row] for row in self.frob_mats[a]],
                    "frob_target": (self.ctx.p * a) % self.d,
                }
                for a in sorted(self.dims)
            },
        }


def build_kummer_crystal(rep: CyclicRep, ctx: FieldCtx) -> KummerCrystal:
    dec = weight_decompose(rep, ctx)
    mats = frobenius_on_weights(dec)
    dims = dec.dims
    shifts = {a: (rep.d - a) % rep.d for a in dims}
    return KummerCrystal(
        rep=rep,
        ctx=ctx,
        d=rep.d,
        rank=rep.rank,
        xi=dec.xi,
        dims=dims,
        shifts=shifts,
        bases=dec.bases,
        frob_mats=mats,
    )


# ---------------------------------------------------------------------------
# extensions by the delta module


@dataclass(frozen=True)
class ExtensionModule:
    """Extension of the structure sheaf by the delta module, twisted by c.

    Sections are pairs (f, g) of Laurent series in t, g a polar part
    (e_m is t^(-m)).  Frobenius acts by (f, g) |-> (f^p, [t f^p c] + g^p)
    where [.] is the pole part.  For nonzero c the invariant
    n = -v_t(c) - 1 >= 0 controls the filtration; c = 0 is the split
    extension and carries n = None.
    """

    ctx: FieldCtx
    c: LaurentSeries
    n: object  # int or None
    delta_cap: int

    @property
    def split(self) -> bool:
        return self.n is None

    def f_monomial(self, i: int):
        return (LaurentSeries.monomial(self.ctx, i), LaurentSeries.zero(self.ctx))

    def delta_monomial(self, m: int):
        return (LaurentSeries.zero(self.ctx), LaurentSeries.monomial(self.ctx, -m))

    def _guard(self, g: LaurentSeries) -> LaurentSeries:
        v = g.valuation()
        if v is not None and -v > self.delta_cap:
            raise CapExceededError(
                f"delta support {-v} exceeds the cap {self.delta_cap}",
                [("delta_support", -v)],
            )
        return g

    def apply_F(self, sec):
        f, g = sec
        fp = f.frob()
        return (fp, self._guard(fp.mul(self.c).pole_part(1).add(g.frob())))

    def mul_t(self, sec):
        f, g = sec
        return (f.shift(1), g.pole_part(1))

    def mul_t_pow(self, sec, k: int):
        f, g = sec
        return (f.shift(k), g.pole_part(k))

    def add(self, s1, s2):
        return (s1[0].add(s2[0]), s1[1].add(s2[1]))

    def to_json(self):
        return {
            "field": self.ctx.to_json(),
            "c": self.c.to_json(),
            "n": self.n,
            "split": self.split,
            "delta_cap": self.delta_cap,
        }


def build_extension(ctx: FieldCtx, c: LaurentSeries, delta_cap: int = DEFAULT_DELTA_CAP) -> ExtensionModule:
    """The extension module twisted by the Laurent polynomial c.

    Nonzero c must have a pole (v_t(c) <= -1) so that
    n = -v_t(c) - 1 >= 0.
    """
    if c.ctx is not ctx:
        raise InvalidInputError("twist series over the wrong field")
    v = c.valuation()
    if v is None:
        return ExtensionModule(ctx, c, None, delta_cap)
    if v >= 0:
        raise InvalidInputError(
            f"nonzero twist must have a pole: v_t(c) = {v} >= 0 gives n < 0"
        )
    return ExtensionModule(ctx, c, -v - 1, delta_cap)


@dataclass(frozen=True)
class SolutionReport:
    """Fixed sections under Frobenius, as an F_p-space."""

    dimension: int
    basis: tuple
    obstruction: object = None


def sol_extension(mod: ExtensionModule) -> SolutionReport:
    """F_p-dimension (0 or 1 for nonzero c) of Frobenius-fixed sections.

    A fixed pair (f, g) forces f = f^p, so f is a constant lambda in
    F_p, and lambda scales the whole problem: g must solve
    g = [lambda t c] + g^p, whose coefficients are determined by an
    ascending recursion along the p-adic chains m, p*m, p^2*m, ...
    Once past the support of [t c], a nonzero value propagates
    forever, so the solution is a genuine (finite) delta section
    exactly when every chain has died by then.
    """
    ctx = mod.ctx
    p = ctx.p
    if mod.split:
        return SolutionReport(1, ((LaurentSeries.one(ctx), LaurentSeries.zero(ctx)),))
    h = mod.c.pole_part(1)
    bound = -(h.valuation() or 0)
    if bound > _CHAIN_CAP:
        raise CapExceededError(
            f"pole order {bound} exceeds the solution chain cap {_CHAIN_CAP}",
            [("pole", bound)],
        )
    hc = {-h.v - o: c for o, c in h.terms}  # -exponent -> coefficient
    gamma: dict = {}
    for m in range(1, bound + 1):
        val = hc.get(m, ctx.zero)
        if m % p == 0 and m // p in gamma:
            val = ctx.add(val, ctx.frob(gamma[m // p]))
        if not ctx.is_zero(val):
            gamma[m] = val
    # a chain keeps p-powering beyond the support bound; the last
    # in-range value must vanish for the support to stay finite
    blockers = sorted(m for m in gamma if m * p > bound)
    if blockers:
        return SolutionReport(
            0, (), obstruction=[[m, list(ctx.coeffs(gamma[m]))] for m in blockers]
        )
    g = LaurentSeries(ctx, {-m: c for m, c in gamma.items()})
    return SolutionReport(1, ((LaurentSeries.one(ctx), g),))

"""Graded objects, the two equivalence functors, and the local functors.

A CGObject is the canonical form of a p-graded semilinear structure:
per class a mod d a space of dimension n_a and an invertible matrix
C_a carrying class a to class p*a.  Arbitrary (tau, tau-tilde) pairs
are normalized on ingestion by absorbing the twist identification
into tau, which makes equality of objects decidable.  Objects and
their morphisms share one block form over the classes: the flattened
transitions carry block a to block p*a, a morphism is block diagonal,
and its naturality is one matrix identity, transition_residual = 0.

build_to_classes: functor_F sends a representation to its weight data;
functor_G flattens a CGObject to one semilinear operator, saturates
its fixed points over field extensions, and reads off the group
action on the F_p-basis of fixed vectors.  nearby_full collects the
graded pieces of a filtration at levels in [0, 1) into a CGObject
(carrying Frobenius images back into the range by a power of t, exact
on Kummer sections), so recover_rep = functor_G after nearby_full is
the end-to-end inverse of the crystal construction.  Both work on level
numerators over the filtration's den.

vanishing packages Gr^(-1) -> Gr^(-p) with its natural morphism
(t, t^p) into the level-0 piece; gluing_data extracts the splitting
triple when the module is split near the origin and rejects nonzero
extension classes with a witness.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import linalg
from .crystal import (
    CyclicRep,
    ExtensionModule,
    KummerCrystal,
    SolutionReport,
    build_kummer_crystal,
    weight_decompose,
)
from .errors import InvalidInputError
from .field import (
    DEFAULT_SATURATION_CAP,
    SaturationResult,
    SemilinearOperator,
    embed_field,
    make_field,
    primitive_root_of_unity,
    saturate_fixed_points,
    semilinear_fixed_points,
)
from .vfilt import (
    FiltrationSpec,
    KummerVFilt,
    _graded_map,
    split_vfilt,
    standard_vfilt,
)


# ---------------------------------------------------------------------------
# the graded category


class CGObject:
    """Canonical-form graded object: dims n_a and transitions C_a: a -> p*a."""

    __slots__ = ("ctx", "d", "dims", "mats")

    def __init__(self, ctx, d: int, dims, mats):
        p = ctx.p
        if d < 1:
            raise InvalidInputError(f"d={d} must be >= 1")
        if d % p == 0:
            raise InvalidInputError(f"d={d} must be prime to p={p}")
        if (ctx.order - 1) % d:
            raise InvalidInputError(f"d={d} does not divide q-1={ctx.order - 1}")
        dims = tuple(int(n) for n in dims)
        if len(dims) != d or any(n < 0 for n in dims):
            raise InvalidInputError("need one nonnegative dimension per class")
        mats = tuple(tuple(tuple(row) for row in m) for m in mats)
        if len(mats) != d:
            raise InvalidInputError("need one transition matrix per class")
        for a in range(d):
            ta = (p * a) % d
            if dims[a] != dims[ta]:
                raise InvalidInputError(
                    f"classes {a} and {ta} lie in one p-orbit but have dimensions {dims[a]} != {dims[ta]}"
                )
            m = mats[a]
            if len(m) != dims[ta] or any(len(row) != dims[a] for row in m):
                raise InvalidInputError(f"transition at class {a} has the wrong shape")
            if dims[a] and not linalg.is_invertible(ctx, m):
                raise InvalidInputError(f"transition at class {a} is singular")
        self.ctx = ctx
        self.d = d
        self.dims = dims
        self.mats = mats

    @property
    def rank(self) -> int:
        return sum(self.dims)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CGObject)
            and self.ctx is other.ctx
            and self.d == other.d
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def to_json(self):
        return {
            "d": self.d,
            "q": self.ctx.order,
            "classes": [
                {
                    "a": a,
                    "dim": self.dims[a],
                    "C": [[list(self.ctx.coeffs(x)) for x in row] for row in self.mats[a]],
                }
                for a in range(self.d)
                if self.dims[a]
            ],
        }


def _blocks(ctx, out_dims, in_dims, mats, target):
    """One matrix out of blocks: mats[a] sits at block (target(a), a).

    Row blocks follow out_dims and column blocks in_dims, both in class
    order.  A block with no rows or no columns has no entries to place,
    so such a block may be written in either shape.
    """
    rows = [[ctx.zero] * sum(in_dims) for _ in range(sum(out_dims))]
    row_off = (0, *accumulate(out_dims))
    col_off = (0, *accumulate(in_dims))
    for a, m in enumerate(mats):
        r0, c0 = row_off[target(a)], col_off[a]
        for i, row in enumerate(m):
            rows[r0 + i][c0 : c0 + len(row)] = row
    return tuple(tuple(r) for r in rows)


def _flat(obj: CGObject):
    """The matrix of flatten_object."""
    p, d = obj.ctx.p, obj.d
    return _blocks(obj.ctx, obj.dims, obj.dims, obj.mats, lambda a: (p * a) % d)


def flatten_object(obj: CGObject) -> SemilinearOperator:
    """One semilinear operator on the sum of the classes.

    Blocks ordered by class; the matrix carries block a into block
    p*a mod d by C_a, so the p-power permutation of classes needs no
    special-casing downstream.
    """
    return SemilinearOperator(obj.ctx, _flat(obj))


def transition_residual(obj1: CGObject, obj2: CGObject, gmats):
    """C2 G^(p) - G C1 on the flattened objects, G block diagonal.

    gmats[a] is the component g_a: class a of obj1 -> class a of obj2.
    Column block a of the residual is C2_a g_a^(p) - g_(pa) C1_a, so it
    vanishes exactly when every transition square commutes.
    """
    ctx = obj1.ctx
    G = _blocks(ctx, obj2.dims, obj1.dims, gmats, lambda a: a)
    lhs = linalg.mat_mul(ctx, _flat(obj2), linalg.mat_frob(ctx, G))
    rhs = linalg.mat_mul(ctx, G, _flat(obj1))
    return tuple(tuple(ctx.sub(x, y) for x, y in zip(r, s)) for r, s in zip(lhs, rhs))


def _transition_failure(obj1: CGObject, obj2: CGObject, gmats):
    """The failed-square report naming the smallest class whose residual
    column is nonzero, or None when the transition square commutes."""
    ctx = obj1.ctx
    res = transition_residual(obj1, obj2, gmats)
    col = next(
        (j for j in range(obj1.rank) if any(not ctx.is_zero(row[j]) for row in res)), None
    )
    if col is None:
        return None
    a = bisect_right(tuple(accumulate(obj1.dims)), col)
    return {"status": "fail", "square": "transition", "witness": {"class": a}}


def _flatten_vec(ctx, vec):
    return [x for el in vec for x in ctx.coeffs(el)]


# ---------------------------------------------------------------------------
# the two functors


def _graded_object(kc: KummerCrystal) -> CGObject:
    dims = tuple(kc.dims.get(a, 0) for a in range(kc.d))
    mats = tuple(kc.frob_mats.get(a, ()) for a in range(kc.d))
    return CGObject(kc.ctx, kc.d, dims, mats)


def functor_F(rep: CyclicRep, ctx) -> CGObject:
    """Weight dimensions and transition matrices of a representation."""
    return _graded_object(build_kummer_crystal(rep, ctx))


@dataclass(frozen=True)
class GResult:
    """functor_G output: the representation plus the saturation trace."""

    rep: CyclicRep
    saturation: SaturationResult
    source: CGObject

    def to_json(self):
        return {
            "rep": self.rep.to_json(),
            "saturation_degree": self.saturation.degree,
            "saturation_profile": [list(t) for t in self.saturation.profile],
        }


def functor_G(obj: CGObject, cap: int = DEFAULT_SATURATION_CAP) -> GResult:
    """Fixed points of the flattened operator, with the group action.

    Saturates over extensions until the F_p-dimension of the fixed
    space reaches the rank, then expresses the generator's action
    (multiplication by xi^a on class a) in the echelonized F_p-basis
    of fixed vectors.  The action provably preserves the fixed space;
    coordinates outside F_p would make the expression step fail, so
    success certifies the entries.
    """
    sat = _saturate(obj, cap)
    mat = _sigma_matrix(obj, *_fixed_data(obj, sat, sat.degree))
    return GResult(CyclicRep(obj.d, obj.ctx.p, mat), sat, obj)


def _saturate(obj: CGObject, cap: int) -> SaturationResult:
    if obj.rank == 0:
        raise InvalidInputError("object has no nonzero class")
    return saturate_fixed_points(obj.ctx, flatten_object(obj), cap)


def _fixed_data(obj: CGObject, sat: SaturationResult, degree: int):
    """(field, embedding, fixed vectors, their F_p rref rows and pivots)
    over the degree-`degree` extension; sat is reused at its own degree.
    The vectors are decoded rref kernel rows: flattening gives them back."""
    ctx = obj.ctx
    if degree == sat.degree:
        big, emb, vecs = sat.field, sat.embedding, sat.basis
    else:
        big = make_field(ctx.p, ctx.m * degree)
        emb = embed_field(ctx, big)
        vecs = semilinear_fixed_points(big, emb.map_matrix(_flat(obj)))
    rows = [_flatten_vec(big, v) for v in vecs]
    piv = [next(j for j, x in enumerate(r) if x) for r in rows]
    return big, emb, vecs, rows, piv


def weight_dims_full(rep: CyclicRep, ctx):
    dec = weight_decompose(rep, ctx)
    return tuple(dec.dims.get(a, 0) for a in range(rep.d))


def rep_isomorphic(rep1: CyclicRep, rep2: CyclicRep, ctx) -> bool:
    """Same characteristic polynomial of the generator over F_p.

    Complete for isomorphism here: prime-to-p order makes both actions
    semisimple, and a semisimple F_p[x]-module is the direct sum of
    F_p[x]/(f) over the irreducible factors f of its characteristic
    polynomial, with their multiplicities.  The charpoly is also the
    product of (x - xi^a)^dim(a) over the weights, so this is the
    weight-multiset test of weight_dims_full without the eigenspaces.
    ctx is not needed and is accepted for the callers that pass it.
    """
    if rep1.d != rep2.d or rep1.p != rep2.p:
        return False
    return linalg.charpoly_int(rep1.mat, rep1.p) == linalg.charpoly_int(rep2.mat, rep2.p)


def gf_roundtrip(rep: CyclicRep, ctx, cap: int = DEFAULT_SATURATION_CAP) -> dict:
    """Check functor_G(functor_F(rep)) recovers rep up to isomorphism."""
    res = functor_G(functor_F(rep, ctx), cap)
    ok = res.rep.rank == rep.rank and rep_isomorphic(rep, res.rep, ctx)
    out = {
        "status": "pass" if ok else "fail",
        "rank": rep.rank,
        "recovered_rank": res.rep.rank,
        "saturation_degree": res.saturation.degree,
    }
    if not ok:
        out["witness"] = {
            "weight_dims": list(weight_dims_full(rep, ctx)),
            "recovered_weight_dims": list(weight_dims_full(res.rep, ctx)),
        }
    return out


def fg_roundtrip(obj: CGObject, cap: int = DEFAULT_SATURATION_CAP) -> dict:
    """Check functor_F(functor_G(obj)) recovers obj up to isomorphism.

    Dimensions per class must match exactly; the operators are then
    compared through their fixed-point representations, a complete
    conjugacy invariant in this semisimple setting.
    """
    res = functor_G(obj, cap)
    obj2 = functor_F(res.rep, obj.ctx)
    ok_dims = obj2.dims == obj.dims
    res2 = functor_G(obj2, cap)
    ok_conj = rep_isomorphic(res.rep, res2.rep, obj.ctx)
    ok = ok_dims and ok_conj
    out = {
        "status": "pass" if ok else "fail",
        "dims": list(obj.dims),
        "recovered_dims": list(obj2.dims),
        "saturation_degree": res.saturation.degree,
    }
    if not ok:
        out["witness"] = {"dims_match": ok_dims, "operators_conjugate": ok_conj}
    return out


# ---------------------------------------------------------------------------
# nearby cycles


@dataclass(frozen=True)
class UnipotentNearby:
    """Level-0 graded piece with its induced semilinear endomorphism."""

    ctx: object  # the FieldCtx of the matrix entries
    dim: int
    labels: tuple
    matrix: tuple

    def saturated_dimension(self, cap: int = DEFAULT_SATURATION_CAP) -> int:
        if self.dim == 0:
            return 0
        return saturate_fixed_points(self.ctx, self.matrix, cap).dimension

    def to_json(self):
        return {
            "dim": self.dim,
            "labels": list(self.labels),
            "matrix": [[list(self.ctx.coeffs(x)) for x in row] for row in self.matrix],
        }


def nearby_unipotent(spec: FiltrationSpec) -> UnipotentNearby:
    """Gr^0 with the induced Frobenius (level 0 maps to level p*0 = 0)."""
    module = spec.module
    basis = spec.ipiece(0)
    if not basis:
        return UnipotentNearby(module.ctx, 0, (), ())
    gm = _graded_map(spec, len(basis), [module.apply_F(b) for b in basis], 0)
    if gm.matrix is None:
        raise InvalidInputError("level-0 Frobenius image has no graded class")
    return UnipotentNearby(module.ctx, len(basis), tuple(spec.ilabels(0)), gm.matrix)


def nearby_full(spec: FiltrationSpec) -> CGObject:
    """Graded pieces at levels j/d in [0, 1) assembled into a CGObject.

    The Frobenius image of the piece at level j/d lands at level p*j/d;
    with k, tn = divmod(p*j, d) it is carried back into [0, 1) by t^(-k),
    an exact inverse on Kummer sections, so the normalized matrix is the
    class of t^(-k) F(b) in the piece at tn/d.  The piece at level j/d
    is indexed by the class acting through the (-j)-th power of the root
    of unity; this calibration is what makes recover_rep the inverse of
    the construction.
    """
    if not isinstance(spec, KummerVFilt):
        raise InvalidInputError("full nearby cycles needs the standard filtration of a crystal")
    module = spec.module
    p, d = module.ctx.p, spec.d
    dims = [0] * d
    mats = [()] * d
    for j in range(d):
        basis = spec.ipiece(j)
        a = (-j) % d
        dims[a] = len(basis)
        if not basis:
            continue
        k, tn = divmod(p * j, d)
        images = [module.mul_t_pow(module.apply_F(b), -k) for b in basis]
        gm = _graded_map(spec, len(basis), images, tn)
        if gm.matrix is None:
            raise InvalidInputError(f"graded Frobenius at level {j}/{d} has no class matrix")
        mats[a] = gm.matrix
    return CGObject(module.ctx, d, tuple(dims), tuple(mats))


def recover_rep(kc: KummerCrystal, cap: int = DEFAULT_SATURATION_CAP) -> CyclicRep:
    """Representation recovered from the crystal's nearby cycles."""
    return functor_G(nearby_full(standard_vfilt(kc)), cap).rep


# ---------------------------------------------------------------------------
# vanishing cycles and gluing


@dataclass(frozen=True)
class VanishingReport:
    """Gr^(-1) -> Gr^(-p) with its morphism (t, t^p) into Gr^0."""

    ctx: object  # the FieldCtx of the matrix entries
    source_dim: int
    target_dim: int
    source_labels: tuple
    f_matrix: object
    psi: UnipotentNearby
    t_source: object
    t_target: object
    commutes: bool
    note: object = None

    def to_json(self):
        def mat(m):
            return None if m is None else [[list(self.ctx.coeffs(x)) for x in row] for row in m]

        return {
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
            "source_labels": list(self.source_labels),
            "f_matrix": mat(self.f_matrix),
            "nearby": self.psi.to_json(),
            "t_source": mat(self.t_source),
            "t_target": mat(self.t_target),
            "commutes": self.commutes,
            "note": self.note,
        }


def vanishing(spec: FiltrationSpec) -> VanishingReport:
    """The vanishing pair with its natural map to the nearby cycles.

    Commutation is checked entrywise: (t^p after F) equals (F after t)
    as maps Gr^(-1) -> Gr^0, i.e. T_W A = A_0 T_V^(p) on matrices.
    """
    module = spec.module
    ctx = module.ctx
    p, den = ctx.p, spec.den
    basisV, basisW = spec.ipiece(-den), spec.ipiece(-p * den)
    psi = nearby_unipotent(spec)
    fm = _graded_map(spec, len(basisV), [module.apply_F(b) for b in basisV], -p * den)
    tV = _graded_map(spec, len(basisV), [module.mul_t(b) for b in basisV], 0)
    tW = _graded_map(spec, len(basisW), [module.mul_t_pow(b, p) for b in basisW], 0)
    note = None
    commutes = False
    if fm.matrix is None or tV.matrix is None or tW.matrix is None:
        note = "a graded image failed to land in its target piece"
    else:
        lhs = linalg.mat_mul(ctx, tW.matrix, fm.matrix)
        rhs = linalg.mat_mul(ctx, psi.matrix, linalg.mat_frob(ctx, tV.matrix))
        commutes = lhs == rhs
        if not commutes:
            note = "(t^p) after F differs from F after t"
    return VanishingReport(
        ctx=ctx,
        source_dim=len(basisV),
        target_dim=len(basisW),
        source_labels=tuple(spec.ilabels(-den)),
        f_matrix=fm.matrix,
        psi=psi,
        t_source=tV.matrix,
        t_target=tW.matrix,
        commutes=commutes,
        note=note,
    )


@dataclass(frozen=True)
class GluingTriple:
    """Open-part descriptor, vanishing pair, and the (t, t^p) morphism."""

    open_part: dict
    pair: dict
    morphism: dict
    psi_dim: int
    delta_multiplicity: int
    consistent: bool

    def to_json(self):
        return {
            "open_part": self.open_part,
            "pair": self.pair,
            "morphism": self.morphism,
            "psi_dim": self.psi_dim,
            "delta_multiplicity": self.delta_multiplicity,
            "consistent": self.consistent,
        }


def _pole_string(series) -> str:
    terms = []
    for o, c in series.terms:
        if series.v + o < 0:
            terms.append(f"{list(series.ctx.coeffs(c))}*t^{series.v + o}")
    return " + ".join(terms) if terms else "0"


def gluing_data(obj) -> GluingTriple:
    """Splitting triple of a module that is split near the origin.

    Crystals are always split near the origin; an extension module
    qualifies only when its class vanishes, i.e. the defining series
    has no pole.  A nonzero pole is rejected with the class witness.
    """
    if isinstance(obj, ExtensionModule):
        if not obj.split:
            raise InvalidInputError(
                f"extension class does not vanish near the origin: pole part {_pole_string(obj.c)}"
            )
        spec: FiltrationSpec = split_vfilt(obj)
        open_part = {"kind": "structure-sheaf", "rank": 1}
    elif isinstance(obj, KummerCrystal):
        spec = standard_vfilt(obj)
        open_part = {
            "kind": "kummer-crystal",
            "d": obj.d,
            "rank": obj.rank,
            "dims": {str(a): n for a, n in sorted(obj.dims.items())},
        }
    else:
        raise InvalidInputError(f"cannot extract gluing data from {type(obj).__name__}")
    van = vanishing(spec)
    t_rank = linalg.rank(spec.module.ctx, van.t_source) if van.t_source else 0
    k = van.source_dim - t_rank
    consistent = van.commutes and t_rank == van.psi.dim and k + t_rank == van.source_dim
    vj = van.to_json()
    pair = {key: vj[key] for key in ("source_dim", "target_dim", "f_matrix")}
    morphism = {"t_source": vj["t_source"], "t_target": vj["t_target"], "intertwines": van.commutes}
    return GluingTriple(
        open_part=open_part,
        pair=pair,
        morphism=morphism,
        psi_dim=van.psi.dim,
        delta_multiplicity=k,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# naturality


def _int_mat(mat, p, rows, cols):
    out = tuple(tuple(int(x) % p for x in row) for row in mat)
    if len(out) != rows or any(len(r) != cols for r in out):
        raise InvalidInputError(f"morphism matrix must be {rows} x {cols}")
    return out


def naturality_check_F(rep1: CyclicRep, rep2: CyclicRep, fmat, ctx) -> dict:
    """Both naturality squares for a morphism of representations.

    The underlying square is equivariance over F_p; the structure
    square says the induced weight-component matrices intertwine the
    transition matrices: B2_a f_a^(p) = f_(pa) B1_a for every class.
    """
    if (rep1.d, rep1.p) != (rep2.d, rep2.p):
        raise InvalidInputError("morphism endpoints have different (d, p)")
    p, d = rep1.p, rep1.d
    fmat = _int_mat(fmat, p, rep2.rank, rep1.rank)
    lhs = linalg.mat_mul_int(rep2.mat, fmat, p)
    rhs = linalg.mat_mul_int(fmat, rep1.mat, p)
    if lhs != rhs:
        i, j = next(
            (i, j) for i in range(rep2.rank) for j in range(rep1.rank) if lhs[i][j] != rhs[i][j]
        )
        return {
            "status": "fail",
            "square": "equivariance",
            "witness": {"entry": [i, j], "lhs": lhs[i][j], "rhs": rhs[i][j]},
        }
    kc1 = build_kummer_crystal(rep1, ctx)
    kc2 = build_kummer_crystal(rep2, ctx)
    fctx = tuple(tuple(ctx.from_int(x) for x in row) for row in fmat)
    comps = {}
    for a, (rows1, _) in kc1.bases.items():
        images = [linalg.mat_vec(ctx, fctx, u) for u in rows1]
        if a not in kc2.bases:
            if any(not ctx.is_zero(x) for img in images for x in img):
                return {
                    "status": "fail",
                    "square": "graded-components",
                    "witness": {"class": a, "reason": "image hits an empty weight"},
                }
            comps[a] = ()
            continue
        rows2, piv2 = kc2.bases[a]
        cols = []
        for img in images:
            coords = linalg.express(ctx, rows2, piv2, img)
            if coords is None:
                return {
                    "status": "fail",
                    "square": "graded-components",
                    "witness": {"class": a, "reason": "image leaves the weight space"},
                }
            cols.append(coords)
        comps[a] = tuple(zip(*cols))
    obj1, obj2 = _graded_object(kc1), _graded_object(kc2)
    gmats = tuple(comps.get(a, ((),) * obj2.dims[a]) for a in range(d))
    failure = _transition_failure(obj1, obj2, gmats)
    if failure is not None:
        return failure
    return {
        "status": "pass",
        "squares": {"equivariance": True, "graded_components": True, "transition": True},
        "classes": sorted(comps),
    }


def _sigma_matrix(obj: CGObject, big, emb, vecs, rows, piv):
    """The generator's action, xi^a on class a, in the F_p-basis of vecs."""
    ctx = obj.ctx
    xi_big = emb.map(primitive_root_of_unity(ctx, obj.d))
    scal = []
    for a, n in enumerate(obj.dims):
        if n:
            scal += [big.pow(xi_big, a)] * n
    cols = []
    for w in vecs:
        sw = [big.mul(s, x) for s, x in zip(scal, w)]
        coords = linalg.express_int(rows, piv, _flatten_vec(big, sw), ctx.p)
        if coords is None:
            raise InvalidInputError("group action left the fixed space; object data inconsistent")
        cols.append(coords)
    n = len(vecs)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def naturality_check_G(
    obj1: CGObject, obj2: CGObject, gmats, cap: int = DEFAULT_SATURATION_CAP
) -> dict:
    """Both naturality squares for a morphism of graded objects.

    The structure square is the intertwining condition
    C2_a g_a^(p) = g_(pa) C1_a per class; the underlying square says
    the induced F_p-map on fixed spaces (computed over a common
    splitting extension) commutes with the recovered group actions.
    """
    if obj1.ctx is not obj2.ctx or obj1.d != obj2.d:
        raise InvalidInputError("morphism endpoints live in different categories")
    ctx = obj1.ctx
    p, d = ctx.p, obj1.d
    gmats = tuple(tuple(tuple(row) for row in m) for m in gmats)
    if len(gmats) != d:
        raise InvalidInputError("need one component per class")
    for a in range(d):
        m = gmats[a]
        if len(m) != obj2.dims[a] or any(len(row) != obj1.dims[a] for row in m):
            raise InvalidInputError(f"component at class {a} has the wrong shape")
    failure = _transition_failure(obj1, obj2, gmats)
    if failure is not None:
        return failure
    sat1, sat2 = _saturate(obj1, cap), _saturate(obj2, cap)
    degree = math.lcm(sat1.degree, sat2.degree)
    big, emb, vecs1, rows1, piv1 = _fixed_data(obj1, sat1, degree)
    big2, emb2, vecs2, rows2, piv2 = _fixed_data(obj2, sat2, degree)
    if len(vecs1) != obj1.rank or len(vecs2) != obj2.rank:
        raise InvalidInputError("fixed spaces did not stay saturated over the common field")
    G = emb.map_matrix(_blocks(ctx, obj2.dims, obj1.dims, gmats, lambda a: a))
    cols = []
    for w in vecs1:
        img = linalg.mat_vec(big, G, w)
        coords = linalg.express_int(rows2, piv2, _flatten_vec(big, img), ctx.p)
        if coords is None:
            return {
                "status": "fail",
                "square": "fixed-spaces",
                "witness": {"reason": "image of a fixed vector is not fixed"},
            }
        cols.append(coords)
    G = tuple(tuple(cols[j][i] for j in range(obj1.rank)) for i in range(obj2.rank))
    s1 = _sigma_matrix(obj1, big, emb, vecs1, rows1, piv1)
    s2 = _sigma_matrix(obj2, big2, emb2, vecs2, rows2, piv2)
    lhs = linalg.mat_mul_int(s2, G, p)
    rhs = linalg.mat_mul_int(G, s1, p)
    if lhs != rhs:
        return {
            "status": "fail",
            "square": "group-action",
            "witness": {"lhs": lhs, "rhs": rhs},
        }
    return {
        "status": "pass",
        "squares": {"transition": True, "fixed_spaces": True, "group_action": True},
        "induced_map": [list(r) for r in G],
        "common_degree": degree,
    }


# ---------------------------------------------------------------------------
# solutions of crystals


def sol_crystal(kc: KummerCrystal) -> SolutionReport:
    """Fixed sections of the crystal over the base field.

    A fixed section has finite support closed under e -> p*e, so only
    the exponent-0 coefficient survives, and that forces weight 0:
    solutions are the fixed points of the weight-0 transition.
    """
    if kc.dims.get(0, 0) == 0:
        return SolutionReport(0, (), None)
    vecs = semilinear_fixed_points(kc.ctx, kc.frob_mats[0])
    return SolutionReport(len(vecs), tuple(vecs), None)

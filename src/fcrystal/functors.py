"""Graded objects, the two equivalence functors, and the local functors.

A CGObject is the canonical form of a p-graded semilinear structure:
per class a mod d a space of dimension n_a and an invertible matrix
C_a carrying class a to class p*a.  Arbitrary (tau, tau-tilde) pairs
are normalized on ingestion by absorbing the twist identification
into tau, which makes equality of objects decidable.

build_to_classes: functor_F sends a representation to its weight data;
functor_G flattens a CGObject to one semilinear operator, saturates
its fixed points over field extensions, and reads off the group
action on the F_p-basis of fixed vectors.  nearby_full collects the
graded pieces of a filtration at levels in [0, 1) into a CGObject
(normalizing Frobenius targets back into the range with inverse
t-multiplications), so recover_rep = functor_G after nearby_full is
the end-to-end inverse of the crystal construction.

vanishing packages Gr^(-1) -> Gr^(-p) with its natural morphism
(t, t^p) into the level-0 piece; gluing_data extracts the splitting
triple when the module is split near the origin and rejects nonzero
extension classes with a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    graded_frobenius_map,
    graded_t_map,
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

    @classmethod
    def from_pair(cls, ctx, d: int, dims, taus, tau_tildes) -> "CGObject":
        """Normalize a (tau, tau-tilde) presentation: C_a = tilde_(pa)^(-1) tau_a."""
        p = ctx.p
        mats = []
        for a in range(d):
            ta = (p * a) % d
            tilde = tuple(tuple(row) for row in tau_tildes[ta])
            inv = linalg.invert(ctx, tilde)
            if inv is None:
                raise InvalidInputError(f"twist identification at class {ta} is singular")
            tau = tuple(tuple(row) for row in taus[a])
            mats.append(linalg.mat_mul(ctx, inv, tau) if dims[a] else ())
        return cls(ctx, d, dims, tuple(mats))

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
                    "C": [[list(x) for x in row] for row in self.mats[a]],
                }
                for a in range(self.d)
                if self.dims[a]
            ],
        }


def flatten_object(obj: CGObject) -> SemilinearOperator:
    """One semilinear operator on the sum of the classes.

    Blocks ordered by class; the matrix carries block a into block
    p*a mod d by C_a, so the p-power permutation of classes needs no
    special-casing downstream.
    """
    ctx = obj.ctx
    R = obj.rank
    offs = []
    acc = 0
    for a in range(obj.d):
        offs.append(acc)
        acc += obj.dims[a]
    rows = [[ctx.zero] * R for _ in range(R)]
    for a in range(obj.d):
        if obj.dims[a] == 0:
            continue
        ta = (ctx.p * a) % obj.d
        C = obj.mats[a]
        for i in range(obj.dims[ta]):
            for j in range(obj.dims[a]):
                rows[offs[ta] + i][offs[a] + j] = C[i][j]
    return SemilinearOperator(ctx, tuple(tuple(r) for r in rows))


def _class_of_coordinate(obj: CGObject):
    out = []
    for a in range(obj.d):
        out.extend([a] * obj.dims[a])
    return out


def _flatten_vec(vec):
    return [int(x) for el in vec for x in el]


# ---------------------------------------------------------------------------
# the two functors


def functor_F(rep: CyclicRep, ctx) -> CGObject:
    """Weight dimensions and transition matrices of a representation."""
    kc = build_kummer_crystal(rep, ctx)
    dims = tuple(kc.dims.get(a, 0) for a in range(rep.d))
    mats = tuple(kc.frob_mats.get(a, ()) for a in range(rep.d))
    return CGObject(ctx, rep.d, dims, mats)


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
    ctx = obj.ctx
    R = obj.rank
    if R == 0:
        raise InvalidInputError("object has no nonzero class")
    op = flatten_object(obj)
    sat = saturate_fixed_points(ctx, op, cap)
    big = sat.field
    xi_big = sat.embedding.map(primitive_root_of_unity(ctx, obj.d))
    classes = _class_of_coordinate(obj)
    scal = {a: big.pow(xi_big, a) for a in set(classes)}
    flat = [_flatten_vec(w) for w in sat.basis]
    rows, piv = linalg.rref_int(flat, ctx.p)
    cols = []
    for w in sat.basis:
        sw = [big.mul(scal[classes[i]], w[i]) for i in range(R)]
        coords = linalg.express_int(rows, piv, _flatten_vec(sw), ctx.p)
        if coords is None:
            raise InvalidInputError("group action left the fixed space; object data inconsistent")
        cols.append(coords)
    mat = tuple(tuple(cols[j][i] for j in range(R)) for i in range(R))
    return GResult(CyclicRep(obj.d, ctx.p, mat), sat, obj)


def weight_dims_full(rep: CyclicRep, ctx):
    dec = weight_decompose(rep, ctx)
    return tuple(dec.dims.get(a, 0) for a in range(rep.d))


def rep_isomorphic(rep1: CyclicRep, rep2: CyclicRep, ctx) -> bool:
    """Same eigenvalue multiset over the splitting field.

    Complete for isomorphism here: prime-to-p order makes both actions
    semisimple, so the multiset of generator eigenvalues determines
    the representation.
    """
    if rep1.d != rep2.d or rep1.p != rep2.p:
        return False
    return weight_dims_full(rep1, ctx) == weight_dims_full(rep2, ctx)


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

    dim: int
    labels: tuple
    matrix: tuple
    operator: object  # SemilinearOperator or None when dim == 0

    def saturated_dimension(self, cap: int = DEFAULT_SATURATION_CAP) -> int:
        if self.dim == 0:
            return 0
        sat = saturate_fixed_points(self.operator.ctx, self.operator, cap)
        return sat.dimension

    def to_json(self):
        return {
            "dim": self.dim,
            "labels": list(self.labels),
            "matrix": [[list(x) for x in row] for row in self.matrix],
        }


def nearby_unipotent(spec: FiltrationSpec) -> UnipotentNearby:
    """Gr^0 with the induced Frobenius (level 0 maps to level p*0 = 0)."""
    r0 = Fraction(0)
    basis = spec.graded_basis(r0)
    if not basis:
        return UnipotentNearby(0, (), (), None)
    gm = graded_frobenius_map(spec, r0)
    if gm.matrix is None:
        raise InvalidInputError("level-0 Frobenius image has no graded class")
    op = SemilinearOperator(spec.module.ctx, gm.matrix)
    return UnipotentNearby(len(basis), tuple(spec.graded_labels(r0)), gm.matrix, op)


def nearby_full(spec: FiltrationSpec) -> CGObject:
    """Graded pieces at levels j/d in [0, 1) assembled into a CGObject.

    The Frobenius matrix out of level j/d lands at level p*j/d; it is
    carried back into [0, 1) by floor(p*j/d) inverse t-multiplications,
    all of which stay at levels >= 0 where the graded t-maps are
    invertible.  The piece at level j/d is indexed by the class acting
    through the (-j)-th power of the root of unity; this calibration
    is what makes recover_rep the inverse of the construction.
    """
    if not isinstance(spec, KummerVFilt):
        raise InvalidInputError("full nearby cycles needs the standard filtration of a crystal")
    ctx = spec.module.ctx
    p, d = ctx.p, spec.d
    dims = [0] * d
    mats = [()] * d
    for j in range(d):
        r = Fraction(j, d)
        n = spec.dim_at(r)
        a = (-j) % d
        dims[a] = n
        if n == 0:
            continue
        gm = graded_frobenius_map(spec, r)
        if gm.matrix is None:
            raise InvalidInputError(f"graded Frobenius at level {j}/{d} has no class matrix")
        M = gm.matrix
        cur = p * r
        for _ in range(math.floor(p * r)):
            tm = graded_t_map(spec, cur - 1)
            tinv = None if tm.matrix is None else linalg.invert(ctx, tm.matrix)
            if tinv is None:
                raise InvalidInputError(
                    f"normalization crossed a non-invertible t-map into level {cur}"
                )
            M = linalg.mat_mul(ctx, tinv, M)
            cur -= 1
        mats[a] = M
    return CGObject(ctx, d, tuple(dims), tuple(mats))


def recover_rep(kc: KummerCrystal, cap: int = DEFAULT_SATURATION_CAP) -> CyclicRep:
    """Representation recovered from the crystal's nearby cycles."""
    return functor_G(nearby_full(standard_vfilt(kc)), cap).rep


# ---------------------------------------------------------------------------
# vanishing cycles and gluing


def _mat_mul0(ctx, a, b, bcols: int):
    """Matrix product tolerating zero-dimensional factors."""
    if not a:
        return ()
    if not b:
        return tuple(tuple(ctx.zero for _ in range(bcols)) for _ in a)
    return linalg.mat_mul(ctx, a, b)


@dataclass(frozen=True)
class VanishingReport:
    """Gr^(-1) -> Gr^(-p) with its morphism (t, t^p) into Gr^0."""

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
            return None if m is None else [[list(x) for x in row] for row in m]

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
    ctx = spec.module.ctx
    p = ctx.p
    rV = Fraction(-1)
    basisV = spec.graded_basis(rV)
    dimV = len(basisV)
    dimW = spec.dim_at(Fraction(-p))
    psi = nearby_unipotent(spec)
    fm = graded_frobenius_map(spec, rV)
    tV = graded_t_map(spec, rV)
    tW = graded_t_map(spec, Fraction(-p), power=p)
    note = None
    commutes = False
    if fm.matrix is None or tV.matrix is None or tW.matrix is None:
        note = "a graded image failed to land in its target piece"
    else:
        lhs = _mat_mul0(ctx, tW.matrix, fm.matrix, dimV)
        rhs = _mat_mul0(ctx, psi.matrix, linalg.mat_frob(ctx, tV.matrix), dimV)
        commutes = lhs == rhs
        if not commutes:
            note = "(t^p) after F differs from F after t"
    return VanishingReport(
        source_dim=dimV,
        target_dim=dimW,
        source_labels=tuple(spec.graded_labels(rV)),
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
    for e in sorted(series.coeffs):
        if e < 0:
            c = series.coeffs[e]
            terms.append(f"{list(c)}*t^{e}")
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
    ctx = spec.module.ctx
    t_rank = linalg.rank(ctx, van.t_source) if van.t_source else 0
    k = van.source_dim - t_rank
    consistent = (
        van.commutes
        and t_rank == van.psi.dim
        and k + t_rank == van.source_dim
    )
    pair = {
        "source_dim": van.source_dim,
        "target_dim": van.target_dim,
        "f_matrix": None
        if van.f_matrix is None
        else [[list(x) for x in row] for row in van.f_matrix],
    }
    morphism = {
        "t_source": None
        if van.t_source is None
        else [[list(x) for x in row] for row in van.t_source],
        "t_target": None
        if van.t_target is None
        else [[list(x) for x in row] for row in van.t_target],
        "intertwines": van.commutes,
    }
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
    dec1 = weight_decompose(rep1, ctx)
    dec2 = weight_decompose(rep2, ctx)
    kc1 = build_kummer_crystal(rep1, ctx)
    kc2 = build_kummer_crystal(rep2, ctx)
    comps = {}
    for a, (rows1, _) in dec1.bases.items():
        images = []
        for u in rows1:
            img = []
            for i in range(rep2.rank):
                acc = ctx.zero
                for j in range(rep1.rank):
                    if fmat[i][j]:
                        acc = ctx.add(acc, ctx.smul(fmat[i][j], u[j]))
                img.append(acc)
            images.append(tuple(img))
        if a not in dec2.bases:
            if any(not all(ctx.is_zero(x) for x in img) for img in images):
                return {
                    "status": "fail",
                    "square": "graded-components",
                    "witness": {"class": a, "reason": "image hits an empty weight"},
                }
            comps[a] = ()
            continue
        rows2, piv2 = dec2.bases[a]
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
        comps[a] = tuple(
            tuple(cols[j][i] for j in range(len(cols))) for i in range(len(rows2))
        )
    for a, fa in comps.items():
        ta = (p * a) % d
        n2a = len(dec2.bases[a][0]) if a in dec2.bases else 0
        b1 = kc1.frob_mats[a]
        lhs_m = _mat_mul0(ctx, kc2.frob_mats.get(a, ()), linalg.mat_frob(ctx, fa), len(fa[0]) if fa else 0) if n2a else ()
        rhs_m = _mat_mul0(ctx, comps.get(ta, ()), b1, len(b1[0]) if b1 else 0)
        if lhs_m != rhs_m:
            return {
                "status": "fail",
                "square": "transition",
                "witness": {"class": a},
            }
    return {
        "status": "pass",
        "squares": {"equivariance": True, "graded_components": True, "transition": True},
        "classes": sorted(comps),
    }


def _fixed_data(obj: CGObject, degree: int):
    ctx = obj.ctx
    big = ctx if degree == 1 else make_field(ctx.p, ctx.m * degree)
    emb = embed_field(ctx, big)
    op = flatten_object(obj)
    vecs = semilinear_fixed_points(big, emb.map_matrix(op.entries))
    flat = [_flatten_vec(v) for v in vecs]
    rows, piv = linalg.rref_int(flat, ctx.p) if flat else ([], [])
    return big, emb, vecs, rows, piv


def _sigma_matrix(obj: CGObject, big, emb, vecs, rows, piv):
    ctx = obj.ctx
    xi_big = emb.map(primitive_root_of_unity(ctx, obj.d))
    classes = _class_of_coordinate(obj)
    scal = {a: big.pow(xi_big, a) for a in set(classes)}
    cols = []
    for w in vecs:
        sw = [big.mul(scal[classes[i]], w[i]) for i in range(len(w))]
        coords = linalg.express_int(rows, piv, _flatten_vec(sw), ctx.p)
        if coords is None:
            raise InvalidInputError("group action left the fixed space")
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
    for a in range(d):
        ta = (p * a) % d
        lhs = _mat_mul0(ctx, obj2.mats[a], linalg.mat_frob(ctx, gmats[a]), obj1.dims[a])
        rhs = _mat_mul0(ctx, gmats[ta], obj1.mats[a], obj1.dims[a])
        if lhs != rhs:
            return {"status": "fail", "square": "transition", "witness": {"class": a}}
    res1 = functor_G(obj1, cap)
    res2 = functor_G(obj2, cap)
    degree = math.lcm(res1.saturation.degree, res2.saturation.degree)
    big, emb, vecs1, rows1, piv1 = _fixed_data(obj1, degree)
    big2, emb2, vecs2, rows2, piv2 = _fixed_data(obj2, degree)
    if len(vecs1) != obj1.rank or len(vecs2) != obj2.rank:
        raise InvalidInputError("fixed spaces did not stay saturated over the common field")
    gbig = [emb.map_matrix(m) if m else () for m in gmats]
    offs1 = []
    acc = 0
    for a in range(d):
        offs1.append(acc)
        acc += obj1.dims[a]
    cols = []
    for w in vecs1:
        img = [big.zero] * obj2.rank
        pos = 0
        for a in range(d):
            n1, n2 = obj1.dims[a], obj2.dims[a]
            if n2:
                block = [w[offs1[a] + j] for j in range(n1)]
                for i in range(n2):
                    acc2 = big.zero
                    for j in range(n1):
                        acc2 = big.add(acc2, big.mul(gbig[a][i][j], block[j]))
                    img[pos + i] = acc2
            pos += n2
        coords = linalg.express_int(rows2, piv2, _flatten_vec(img), ctx.p)
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


def naturality_check(tag: str, *args, **kwargs) -> dict:
    """Dispatch on the functor: tag "F" for representation morphisms
    (rep1, rep2, matrix, ctx), tag "G" for graded-object morphisms
    (obj1, obj2, components)."""
    if tag == "F":
        return naturality_check_F(*args, **kwargs)
    if tag == "G":
        return naturality_check_G(*args, **kwargs)
    raise InvalidInputError(f"unknown functor tag {tag!r}")


# ---------------------------------------------------------------------------
# solutions of crystals


def sol_crystal(kc: KummerCrystal, cap=None) -> SolutionReport:
    """Fixed sections of the crystal over the base field.

    A fixed section has finite support closed under e -> p*e, so only
    the exponent-0 coefficient survives, and that forces weight 0:
    solutions are the fixed points of the weight-0 transition.  With
    cap set, the count is taken after saturating over extensions.
    """
    n0 = kc.dims.get(0, 0)
    if n0 == 0:
        return SolutionReport(0, (), None)
    B0 = kc.frob_mats[0]
    if cap is not None:
        sat = saturate_fixed_points(kc.ctx, B0, cap)
        return SolutionReport(sat.dimension, tuple(sat.basis), None)
    vecs = semilinear_fixed_points(kc.ctx, B0)
    return SolutionReport(len(vecs), tuple(vecs), None)

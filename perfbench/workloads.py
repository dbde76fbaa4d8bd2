"""The benchmark workloads: seeded inputs, ops and their exact checks.

Each workload's ``setup(fc, seed)`` generates its inputs from the seed
alone, warms the library caches its ops rely on, and returns a
``Workload``: a list of blocks, each a list of ops.  Every block of a
workload has the same composition (same field, order and rank strata,
same job kinds), only the sampled data differ, so a run that completes
whole blocks does the same kind of work whatever the seed.

An op is the unit the end-to-end metrics count.  ``run()`` is the timed
call into the library; ``check(result)`` is untimed and returns
``(ok, digest)``, where ``ok`` is the exact check and ``digest`` a
sha256 of the output that must repeat whenever the op repeats.

Ops look the library up through the module objects at call time, so a
tracer installed after set-up sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from random import Random

CAP = 24  # fcrystal's default saturation cap
PAIRS = tuple((p, d) for p in (5, 7) for d in (2, 3, 4, 6))
N_BLOCKS = 4  # distinct blocks of tower and jobs; each repeats in a run
POLE_WINDOW = 16

# the 13 determinism jobs of the acceptance battery (criterion 10)
DETERMINISM_SEED = 20260816
DETERMINISM_JOBS = (
    ["build", "--p", "5", "--d", "3", "--rep", "companion"],
    ["build", "--p", "7", "--c", "t^-3"],
    ["vfilt", "--p", "5", "--d", "6", "--rep", "regular", "--window", "8"],
    ["graded", "--p", "7", "--d", "4", "--rep", "companion", "--window", "8"],
    ["check", "--p", "5", "--d", "3", "--rep", "regular", "--window", "8"],
    ["compare", "--p", "5", "--d", "3", "--rep", "companion", "--e", "2", "--window", "4"],
    ["pullback", "--p", "7", "--d", "3", "--rep", "companion", "--dprime", "2", "--window", "4"],
    ["nearby", "--p", "5", "--d", "3", "--rep", "companion", "--full"],
    ["vanishing", "--p", "7", "--d", "6", "--rep", "regular"],
    ["recover", "--p", "5", "--d", "4", "--rep", "companion"],
    ["sol", "--p", "7", "--c", "t^-2"],
    ["roundtrip", "--p", "5", "--seed", str(DETERMINISM_SEED), "--count", "8"],
    ["glue", "--p", "7", "--c", "0"],
)

# ROADMAP's heavy jobs plus its p=7, d=6 baseline row, named for the report
ROADMAP_JOBS = (
    ("vfilt_p5_d31_w16", ["vfilt", "--p", "5", "--d", "31", "--rep", "regular", "--window", "16"]),
    ("recover_p2_d63", ["recover", "--p", "2", "--d", "63", "--rep", "regular"]),
    ("vfilt_p2_d63_w8", ["vfilt", "--p", "2", "--d", "63", "--rep", "regular", "--window", "8"]),
    ("vfilt_p7_d6_w64", ["vfilt", "--p", "7", "--d", "6", "--rep", "regular", "--window", "64"]),
)

# the same kinds of job on regular reps over the same fields (F_64, F_125,
# F_49), at sizes that take about a second, so each repeats in a run
HEAVY_JOBS = (
    ("recover_p2_d21", ["recover", "--p", "2", "--d", "21", "--rep", "regular"]),
    ("vfilt_p2_d21_w8", ["vfilt", "--p", "2", "--d", "21", "--rep", "regular", "--window", "8"]),
    ("recover_p5_d31", ["recover", "--p", "5", "--d", "31", "--rep", "regular"]),
    ("vfilt_p5_d31_w4", ["vfilt", "--p", "5", "--d", "31", "--rep", "regular", "--window", "4"]),
    ("vfilt_p7_d6_w64", ["vfilt", "--p", "7", "--d", "6", "--rep", "regular", "--window", "64"]),
)


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def min_degree(p: int, d: int) -> int:
    """Smallest m with d | p^m - 1: the field the CLI resolves for d."""
    m = 1
    while (p**m - 1) % d:
        m += 1
    return m


def exact_rank_rep(fc, ctx, d: int, rank: int, rng: Random):
    """samples.random_rep conditioned on its rank being exactly ``rank``."""
    while True:
        rep = fc.samples.random_rep(ctx, d, rng, max_rank=rank)
        if rep.rank == rank:
            return rep


class Workload:
    def __init__(self, blocks, inputs_digest: str):
        self.blocks = blocks
        self.inputs_digest = inputs_digest  # changes with the seed


# ---------------------------------------------------------------------------
# ops


class CliOp:
    """One ``fcrystal`` command, run through the in-process ``cli.main``."""

    def __init__(self, fc, argv, expected_code: int, name: str):
        self.fc = fc
        self.argv = list(argv)
        self.expected_code = expected_code
        self.name = name
        self.key = " ".join(self.argv)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.fc.cli.main(list(self.argv))
        return code, out.getvalue()

    def check(self, result):
        code, text = result
        report = json.loads(text)
        digest = report.pop("digest")
        canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
        ok = code == self.expected_code and sha(canon) == digest
        return ok, sha(text)

    def size(self, result) -> int:
        return len(result[1].encode())


class CrystalOp:
    """Build a crystal, take its standard filtration, grade and check it."""

    WINDOW = (-64, 64)

    def __init__(self, fc, rep, ctx):
        self.fc = fc
        self.rep = rep
        self.ctx = ctx
        self.name = f"crystal_p{rep.p}_d{rep.d}_r{rep.rank}"
        self.key = repr((rep.p, rep.d, rep.mat))

    def run(self):
        fc = self.fc
        spec = fc.standard_vfilt(fc.build_kummer_crystal(self.rep, self.ctx))
        report = fc.graded(spec, self.WINDOW)
        return report, fc.check_axioms(spec, self.WINDOW, graded_report=report)

    def check(self, result):
        report, checks = result
        ok = (
            checks.all_pass
            and report.all_frobenius_invertible()
            and report.all_t_invertible(skip=())
        )
        summary = (
            [(str(gl.level), gl.dim, gl.f_map.matrix, gl.t_map.matrix) for gl in report.levels],
            sorted((name, c.status) for name, c in checks.checks.items()),
        )
        return ok, sha(repr(summary))


class SaturationOp:
    """functor_G on a transition system whose norm matrix has a known order."""

    def __init__(self, fc, obj, order: int, name: str):
        self.fc = fc
        self.obj = obj
        self.order = order
        self.name = name
        self.key = repr((obj.ctx.p, obj.d, obj.mats))

    def run(self):
        try:
            return self.fc.functor_G(self.obj, CAP)
        except self.fc.CapExceededError as err:
            return err

    def check(self, result):
        if isinstance(result, self.fc.CapExceededError):
            profile = tuple(result.profile)
            return self.order > CAP and len(profile) == CAP, sha(repr(profile))
        sat = result.saturation
        ok = sat.degree == self.order <= CAP and result.rep.rank == self.obj.rank
        return ok, sha(repr((sat.degree, sat.profile, result.rep.mat)))


class RoundtripOp:
    """gf_roundtrip on a representation or fg_roundtrip on a graded object."""

    def __init__(self, fc, kind: str, item, ctx):
        self.fc = fc
        self.kind = kind
        self.item = item
        self.ctx = ctx
        self.name = f"{kind}_roundtrip_p{ctx.p}_d{item.d}"
        data = item.mat if kind == "gf" else item.mats
        self.key = repr((kind, ctx.p, ctx.m, item.d, data))

    def run(self):
        if self.kind == "gf":
            return self.fc.gf_roundtrip(self.item, self.ctx, CAP)
        return self.fc.fg_roundtrip(self.item, CAP)

    def check(self, result):
        return result["status"] == "pass", sha(json.dumps(result, sort_keys=True))


# ---------------------------------------------------------------------------
# plain-integer order of the norm matrix, independent of the library


def _mat_mul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def mult_order(mat, p: int, bound: int) -> int:
    """Multiplicative order of an invertible matrix over F_p (<= bound)."""
    n = len(mat)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    power = [list(row) for row in mat]
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = _mat_mul_mod(power, mat, p)
    raise ValueError("matrix order exceeds its bound")


def norm_matrix(p: int, d: int, dims, blocks):
    """The flattened operator of a graded object over a prime field.

    Block a (the matrix C_a over F_p) carries class a to class p*a mod
    d.  Over F_p the Frobenius fixes the entries, so this matrix is its
    own norm and the saturation degree is its multiplicative order.
    """
    offs = [sum(dims[:a]) for a in range(d)]
    size = sum(dims)
    mat = [[0] * size for _ in range(size)]
    for a in range(d):
        ta = (p * a) % d
        for i, row in enumerate(blocks[a]):
            for j, x in enumerate(row):
                mat[offs[ta] + i][offs[a] + j] = x
    return mat


def gl2_by_order(p: int) -> dict:
    """Every invertible 2x2 matrix over F_p, bucketed by multiplicative order."""
    buckets = {}
    for n in range(p**4):
        a, b, c, d = n % p, n // p % p, n // p**2 % p, n // p**3
        if (a * d - b * c) % p:
            mat = [[a, b], [c, d]]
            buckets.setdefault(mult_order(mat, p, p**2 - 1), []).append(mat)
    return buckets


def _object(fc, ctx, d, dims, blocks):
    mats = tuple(tuple(tuple((x,) for x in row) for row in blk) for blk in blocks)
    return fc.CGObject(ctx, d, dims, mats)


# ---------------------------------------------------------------------------
# workloads


# ranks per (p, d) in a corpus block; rank 3 twice puts the block's median
# op inside the dense low end of the rank-3 costs, not in the gap between
# the rank-2 and rank-3 costs, where it would jump from seed to seed
CORPUS_RANKS = (1, 2, 3, 3, 4)


def setup_corpus(fc, seed: int) -> Workload:
    """The acceptance-battery shape: one block of crystals, CORPUS_RANKS per (p, d)."""
    rng = Random(seed)
    block = []
    for p, d in PAIRS:
        ctx = fc.make_field(p, min_degree(p, d))
        ctx.generator  # warm the lazily searched generator
        block += [CrystalOp(fc, exact_rank_rep(fc, ctx, d, r, rng), ctx) for r in CORPUS_RANKS]
    return Workload([block], sha(repr([op.key for op in block])))


def setup_heavy(fc, seed: int) -> Workload:
    """Regular-rep CLI jobs over F_64, F_125 and F_49, plus seeded low-rank
    reps at ROADMAP's heavy (p, d): the heavy jobs' kind of work, in ops
    that repeat within a run."""
    rng = Random(seed)
    ops = [CliOp(fc, argv, 0, name) for name, argv in HEAVY_JOBS]
    for p, d, rank, cmd, window in (
        (2, 63, 6, "recover", None),
        (2, 63, 6, "vfilt", 8),
        (5, 31, 3, "vfilt", 16),
    ):
        ctx = fc.make_field(p, min_degree(p, d))
        rep = exact_rank_rep(fc, ctx, d, rank, rng)
        literal = json.dumps({"d": d, "mat": [list(r) for r in rep.mat]}, separators=(",", ":"))
        argv = [cmd, "--p", str(p), "--d", str(d), "--rep", literal]
        if window is not None:
            argv += ["--window", str(window)]
        ops.append(CliOp(fc, argv, 0, f"seeded_{cmd}_p{p}_d{d}"))
    for p, d in ((2, 21), (2, 63), (5, 31), (7, 6)):
        fc.make_field(p, min_degree(p, d)).generator
    return Workload([ops], sha(repr([op.key for op in ops])))


def setup_roadmap(fc, seed: int) -> Workload:
    """ROADMAP's heavy jobs themselves, one block; the seed is not used.

    Not a gated workload: its ops take 5 to 15 s, so a run holds one
    sample of each per worker.
    """
    ops = [CliOp(fc, argv, 0, name) for name, argv in ROADMAP_JOBS]
    for p, d in ((2, 63), (5, 31), (7, 6)):
        fc.make_field(p, min_degree(p, d)).generator
    return Workload([ops], sha(repr([op.key for op in ops])))


def setup_tower(fc, seed: int) -> Workload:
    """Uniformly random transition systems that need scalar extension.

    Per block: for p in {5, 7}, one d=1 rank-2 system per multiplicative
    order that GL_2(F_p) has (drawn uniformly among the matrices of that
    order; over F_7 the orders 42 and 48 exceed the cap), two rank-1-per-
    class systems for each of (5,2), (5,4), (7,2), (7,3), and one
    fg/gf round trip per acceptance pair.
    """
    rng = Random(seed)
    for p in (5, 7):
        base = fc.make_field(p, 1)
        for r in range(1, CAP + 1):
            fc.embed_field(base, fc.make_field(p, r))
    ctxs = {}
    for p, d in PAIRS:
        ctxs[p, d] = fc.make_field(p, min_degree(p, d))
        ctxs[p, d].generator
    gl2 = {p: gl2_by_order(p) for p in (5, 7)}
    blocks = []
    for _ in range(N_BLOCKS):
        block = []
        for p in (5, 7):
            ctx = fc.make_field(p, 1)
            for order in sorted(gl2[p]):
                mat = rng.choice(gl2[p][order])
                obj = _object(fc, ctx, 1, (2,), [mat])
                block.append(SaturationOp(fc, obj, order, f"gl2_p{p}_ord{order}"))
        for p, d in ((5, 2), (5, 4), (7, 2), (7, 3)):
            ctx = fc.make_field(p, 1)
            for _ in range(2):
                scalars = [[[rng.randrange(1, p)]] for _ in range(d)]
                dims = (1,) * d
                order = mult_order(norm_matrix(p, d, dims, scalars), p, p**d)
                obj = _object(fc, ctx, d, dims, scalars)
                block.append(SaturationOp(fc, obj, order, f"classes_p{p}_d{d}"))
        for p, d in PAIRS:
            ctx = ctxs[p, d]
            while True:
                obj = fc.samples.random_object(ctx, d, rng, max_rank=3)
                if obj.rank == 3:
                    break
            block.append(RoundtripOp(fc, "fg", obj, ctx))
            block.append(RoundtripOp(fc, "gf", exact_rank_rep(fc, ctx, d, 3, rng), ctx))
        blocks.append(block)
    return Workload(blocks, sha(repr([op.key for b in blocks for op in b])))


def _pole_series(rng: Random, p: int, pole: int) -> str:
    """A seeded series with exact pole order ``pole`` and a few tail terms."""
    terms = [(rng.randrange(1, p), -pole)]
    for e in sorted(rng.sample(range(-pole + 1, 3), 2)):
        terms.append((rng.randrange(1, p), e))
    out = ""
    for c, e in terms:
        out += ("+" if out else "") + f"{c}t^{e}"
    return out


def setup_jobs(fc, seed: int) -> Workload:
    """The 13 determinism jobs plus seeded pole-extension jobs.

    Per block and per p in {5, 7}: the split case (c = 0) through check,
    vfilt, sol and glue; an mc_vfilt case (pole order k with p not
    dividing k - 1) and a depth-grading case (pole order l*p + 1) through
    check, vfilt and sol.  check and vfilt fail honestly (exit 1) on
    every nonzero class: A4 breaks at positive levels.  The pole orders
    are fixed per block, since a job's cost grows with its pole; the seed
    draws the coefficients and the tail terms.
    """
    rng = Random(seed)
    blocks = []
    for i in range(N_BLOCKS):
        block = [CliOp(fc, argv, 0, f"determinism_{argv[0]}") for argv in DETERMINISM_JOBS]
        for p in (5, 7):
            mc_pole = (2, 3, p, p + 2)[i]
            depth_pole = (1, 2, 1, 2)[i] * p + 1
            cases = (
                ("split", "0", ("check", "vfilt", "sol", "glue")),
                ("mc", _pole_series(rng, p, mc_pole), ("check", "vfilt", "sol")),
                ("depth", _pole_series(rng, p, depth_pole), ("check", "vfilt", "sol")),
            )
            for kind, series, cmds in cases:
                for cmd in cmds:
                    argv = [cmd, "--p", str(p), "--c", series]
                    if cmd in ("check", "vfilt"):
                        argv += ["--window", str(POLE_WINDOW)]
                    code = 1 if kind != "split" and cmd in ("check", "vfilt") else 0
                    block.append(CliOp(fc, argv, code, f"pole_{kind}_{cmd}"))
        blocks.append(block)
    return Workload(blocks, sha(repr([op.key for b in blocks for op in b])))


SETUPS = {
    "corpus": setup_corpus,
    "heavy": setup_heavy,
    "tower": setup_tower,
    "jobs": setup_jobs,
    "roadmap": setup_roadmap,
}

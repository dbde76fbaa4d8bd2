"""End-to-end acceptance battery.

One test per numbered requirement; each prints a verdict line in the
terminal summary.  All checks are exact: any mismatch is a failure,
and every runtime budget is asserted, not just observed.
"""

import hashlib
import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from random import Random

import pytest

from conftest import criterion, note

from fcrystal import (
    CyclicRep,
    LaurentSeries,
    SemilinearOperator,
    build_extension,
    build_kummer_crystal,
    check_axioms,
    cli,
    compare,
    fg_roundtrip,
    gf_roundtrip,
    graded,
    graded_frobenius_map,
    make_field,
    mc_depth_grading,
    mc_vfilt,
    naturality_check_F,
    nearby_unipotent,
    parse_series,
    recover_rep,
    rep_isomorphic,
    semilinear_fixed_points,
    shifted_exactness,
    shifted_filtration,
    sol_crystal,
    standard_vfilt,
)
from fcrystal import linalg
from fcrystal.cli import resolve_m
from fcrystal.samples import random_object, random_rep, random_rep_morphism

SEED = 20260816
PAIRS = tuple((p, d) for p in (5, 7) for d in (2, 3, 4, 6))
PER_PAIR = 26  # 208 cases total, rank <= 4 each
WINDOW = (-64, 64)


class Case:
    __slots__ = ("p", "d", "ctx", "rep", "crystal", "spec", "graded")

    def __init__(self, p, d, ctx, rep):
        self.p = p
        self.d = d
        self.ctx = ctx
        self.rep = rep
        self.crystal = build_kummer_crystal(rep, ctx)
        self.spec = standard_vfilt(self.crystal)
        self.graded = None


@pytest.fixture(scope="module")
def corpus():
    cases = []
    for p, d in PAIRS:
        ctx = make_field(p, resolve_m(p, d, None))
        rng = Random(SEED + 100 * p + d)
        for _ in range(PER_PAIR):
            cases.append(Case(p, d, ctx, random_rep(ctx, d, rng, max_rank=4)))
    return cases


def _graded_reports(cases):
    for case in cases:
        if case.graded is None:
            case.graded = graded(case.spec, WINDOW)
    return [case.graded for case in cases]


def test_criterion_01_graded_maps_invertible(corpus):
    text = f"all graded Frobenius and t-maps invertible on [{WINDOW[0]}, {WINDOW[1]}) over {len(corpus)} crystals"
    start = time.perf_counter()
    with criterion(1, text):
        assert len(corpus) >= 200
        for case, rep in zip(corpus, _graded_reports(corpus)):
            assert rep.all_frobenius_invertible(), (case.p, case.d, case.rep.mat)
            assert rep.all_t_invertible(skip=()), (case.p, case.d, case.rep.mat)
        elapsed = time.perf_counter() - start
        assert elapsed < 30
    note(1, f"({elapsed:.1f}s < 30s)")


def test_criterion_02_axiom_suite(corpus):
    text = f"A1-A4 and SS1-SS3 pass on [{WINDOW[0]}, {WINDOW[1]}) for all {len(corpus)} crystals"
    start = time.perf_counter()
    with criterion(2, text):
        for case, rep in zip(corpus, _graded_reports(corpus)):
            report = check_axioms(case.spec, WINDOW, graded_report=rep)
            assert report.all_pass, (case.p, case.d, case.rep.mat, report.to_json())
        elapsed = time.perf_counter() - start
        assert elapsed < 30
    note(2, f"({elapsed:.1f}s < 30s)")


def test_criterion_03_uniqueness(corpus):
    text = "presentation-inflated filtrations compare equal; every nonzero shift breaks A4"
    start = time.perf_counter()
    with criterion(3, text):
        for case in corpus:
            for e in (2, 3):
                de = case.d * e
                big = make_field(case.p, resolve_m(case.p, de, None))
                spec1 = standard_vfilt(
                    build_kummer_crystal(CyclicRep(case.d, case.p, case.rep.mat), big)
                )
                spec2 = standard_vfilt(
                    build_kummer_crystal(CyclicRep(de, case.p, case.rep.mat), big)
                )
                out = compare(spec1, spec2, (-4, 4))
                assert out["verdict"] == "equal", (case.p, case.d, e, out)
            for offset in (-3, -2, -1, 1, 2, 3):
                report = check_axioms(shifted_filtration(case.spec, offset), (-2, 2))
                a4 = report.checks["A4"]
                assert a4.status == "fail" and a4.witness is not None, (
                    case.p,
                    case.d,
                    offset,
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60
    note(3, f"({elapsed:.1f}s < 60s)")


def test_criterion_04_equivalence_roundtrips():
    reps_per_pair = 100
    objs_per_pair = 100
    morphisms = 0
    text = f"both roundtrips pass on {reps_per_pair} reps and {objs_per_pair} objects per pair"
    start = time.perf_counter()
    with criterion(4, text):
        for p, d in PAIRS:
            ctx = make_field(p, resolve_m(p, d, None))
            rng = Random(SEED + 17 * p + d)
            for _ in range(reps_per_pair):
                rep = random_rep(ctx, d, rng, max_rank=4)
                assert gf_roundtrip(rep, ctx)["status"] == "pass", (p, d, rep.mat)
            for _ in range(objs_per_pair):
                obj = random_object(ctx, d, rng, max_rank=3)
                assert fg_roundtrip(obj)["status"] == "pass", (p, d, obj.to_json())
            for _ in range(3):
                r1 = random_rep(ctx, d, rng, max_rank=3)
                f = random_rep_morphism(r1, r1, rng)
                assert naturality_check_F(r1, r1, f, ctx)["status"] == "pass", (p, d)
                morphisms += 1
        assert morphisms >= 20
        elapsed = time.perf_counter() - start
        assert elapsed < 60
    note(4, f"({morphisms} morphisms, {elapsed:.1f}s < 60s)")


def test_criterion_05_representation_recovery(corpus):
    text = f"recovered representation matches the input eigenvalue multiset on all {len(corpus)} cases"
    start = time.perf_counter()
    with criterion(5, text):
        for case in corpus:
            back = recover_rep(case.crystal)
            assert rep_isomorphic(back, case.rep, case.ctx), (case.p, case.d, case.rep.mat)
        elapsed = time.perf_counter() - start
        assert elapsed < 60
    note(5, f"({elapsed:.1f}s < 60s)")


def test_criterion_06_unipotent_nearby_dimension(corpus):
    text = f"unipotent nearby dimension equals dim ker(action - id) on all {len(corpus)} cases"
    start = time.perf_counter()
    with criterion(6, text):
        for case in corpus:
            p, r = case.p, case.rep.rank
            rows = [
                [(case.rep.mat[i][j] - (1 if i == j else 0)) % p for j in range(r)]
                for i in range(r)
            ]
            basis, _ = linalg.kernel_int(rows, p)
            got = nearby_unipotent(case.spec).saturated_dimension()
            assert got == len(basis), (case.p, case.d, case.rep.mat, got, len(basis))
        elapsed = time.perf_counter() - start
        assert elapsed < 30
    note(6, f"({elapsed:.1f}s < 30s)")


def _brute_force_fixed_count(ctx, op):
    count = 0
    for vec in itertools.product(ctx.elements(), repeat=len(op.entries)):
        if op.apply(vec) == vec:
            count += 1
    return count


def test_criterion_07_solution_dimensions():
    text = "trivial crystals have full solution space; fixed points match exhaustive enumeration"
    start = time.perf_counter()
    enumerated = 0
    with criterion(7, text):
        for p, d in PAIRS:
            ctx = make_field(p, resolve_m(p, d, None))
            for r in range(1, 5):
                kc = build_kummer_crystal(CyclicRep.trivial(d, p, r), ctx)
                assert sol_crystal(kc).dimension == r, (p, d, r)
                if ctx.order**r <= 2**16:
                    op = SemilinearOperator(ctx, kc.frob_mats[0])
                    fixed = semilinear_fixed_points(ctx, kc.frob_mats[0])
                    assert all(op.apply(v) == v for v in fixed)
                    assert _brute_force_fixed_count(ctx, op) == p ** len(fixed)
                    enumerated += 1
        # same cross-check on non-identity operators
        rng = Random(SEED)
        for p, m, n in ((5, 1, 3), (5, 2, 2), (7, 1, 3), (7, 2, 1)):
            ctx = make_field(p, m)
            for _ in range(3):
                entries = None
                while entries is None or not linalg.is_invertible(ctx, entries):
                    entries = tuple(
                        tuple(ctx.decode(rng.randrange(ctx.order)) for _ in range(n))
                        for _ in range(n)
                    )
                op = SemilinearOperator(ctx, entries)
                fixed = semilinear_fixed_points(ctx, entries)
                assert all(op.apply(v) == v for v in fixed)
                assert _brute_force_fixed_count(ctx, op) == p ** len(fixed)
                enumerated += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30
    note(7, f"({enumerated} exhaustive checks, {elapsed:.1f}s < 30s)")


def test_criterion_08_extension_filtrations():
    text = "pole extensions: frozen jump set, axioms clean off positive levels, exact split"
    start = time.perf_counter()
    with criterion(8, text):
        for p in (5, 7):
            ctx = make_field(p, 1)
            for pole in (2, 3, 4):
                mod = build_extension(ctx, parse_series(ctx, f"t^-{pole}"))
                n = pole - 1
                assert n % p
                spec = mc_vfilt(mod)
                lo, hi = -8, 8
                expected = sorted(
                    {Fraction(i) - Fraction(n, p) for i in range(lo - 1, hi + 2)}
                    | {Fraction(i) for i in range(lo, 0)}
                )
                expected = [x for x in expected if lo <= x < hi]
                assert list(spec.jumps((lo, hi))) == expected, (p, pole)
                report = check_axioms(spec, (lo, hi))
                for name in ("A1", "A2", "A3", "SS1", "SS2"):
                    assert report.checks[name].status == "pass", (p, pole, name)
                a4 = report.checks["A4"]
                assert a4.status == "fail" and a4.witness is not None
                for level, status, _ in a4.levels:
                    assert (status == "pass") == (level <= 0), (p, pole, level)
                assert report.checks["SS3"].status == "pass"
                out = shifted_exactness(spec, (lo, hi))
                assert out["exact"]
                assert out["sub_matches_delta"]
                assert out["quotient_matches_shifted_integers"]
                assert out["quotient_shift"] == {"num": -n, "den": p}
        elapsed = time.perf_counter() - start
        assert elapsed < 30
    note(8, f"({elapsed:.1f}s < 30s)")


def test_criterion_09_depth_grading():
    text = "depth-graded sections cancel under Frobenius and map onto delta generators"
    start = time.perf_counter()
    with criterion(9, text):
        for p in (5, 7):
            ctx = make_field(p, 1)
            for l in (1, 2):
                mod = build_extension(ctx, parse_series(ctx, f"t^-{l * p + 1}"))
                assert mod.n == l * p
                dg = mc_depth_grading(mod)
                one = parse_series(ctx, "1")
                f0, g0 = mod.apply_F(dg.x_section(0))
                assert f0.same_values(one) and g0.is_zero()
                for i in range(WINDOW[0], 1):
                    f, g = mod.apply_F(dg.x_section(i))
                    assert f.same_values(LaurentSeries.monomial(ctx, p * i)), (p, l, i)
                    assert g.is_zero(), (p, l, i)
                    gm = graded_frobenius_map(dg, Fraction(i) - Fraction(l, p))
                    assert gm.target == Fraction(p * i - l)
                    assert gm.invertible, (p, l, i)
                    assert dg.graded_labels(Fraction(p * i - l)) == [f"e_{l - p * i}"]
        elapsed = time.perf_counter() - start
        assert elapsed < 30
    note(9, f"({elapsed:.1f}s < 30s)")


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
    ["roundtrip", "--p", "5", "--seed", str(SEED), "--count", "8"],
    ["glue", "--p", "7", "--c", "0"],
)


def _run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_criterion_10_determinism():
    text = f"all {len(DETERMINISM_JOBS)} command jobs reproduce byte-identical reports"
    with criterion(10, text):
        for argv in DETERMINISM_JOBS:
            code1, out1 = _run_job(argv)
            code2, out2 = _run_job(argv)
            assert code1 == code2 == 0, (argv, code1, code2)
            assert out1 == out2, argv
            report = json.loads(out1)
            digest = report.pop("digest")
            canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
            assert digest == hashlib.sha256(canon.encode()).hexdigest(), argv


# sha256 of each determinism job's stdout, in DETERMINISM_JOBS order.  A
# change to any report byte must be deliberate and recorded here.
PINNED_STDOUT_SHA256 = (
    "cbda3653a2471781495bb7052db9b6d351661509f2431473b6bc604e31ef3ea0",
    "c6aa34641bfce71d51dc9366aeea8a413329793aa18ac542b22554a679aa9ffe",
    "cb5a5193aebcdb28e1c2e010522164c5f26abef95c467eb9b0876d1ae901517c",
    "a7e4066a9bf9c2cb0f385500841d12d8fd99cfc7bfd8ec9a8d8d672b7c43845d",
    "875129f695ac8e7d04e9d2c6f2bd1477a315a52ed3160bafe94e5953b200d1b1",
    "4088d703601d53f0f18208fc06c6047fc8db55ec8b26375633aa6cd6189ef365",
    "f3092de8ee04f1a40abc81b6025a89594f3b8fe93289b0733b8d46541d53a0c0",
    "25462df6267aad6098444fda70b56508fc73e99f4a0d86abe59f2fa4b0955fd3",
    "c16794fa4a75bb3739bd9d778b159bd107c60083346b20b922ea006150278f4a",
    "78e34c4e68777eb5946ec951bda8446d929b4d0443ee05ad9ba6f501174e2a8c",
    "61b0ac5040a75df95e0e48f3f51f76c43204094867720b37917403dac66284d8",
    "e4d4fd123140730a6bd072422968224c4328a9cd62c4b5777b81f9cf14647068",
    "292e4ad412b1871859d7a5d598685466f95b3c576a636740ce117bf95b266423",
)


@pytest.mark.parametrize(
    "argv, pinned",
    list(zip(DETERMINISM_JOBS, PINNED_STDOUT_SHA256)),
    ids=[" ".join(argv) for argv in DETERMINISM_JOBS],
)
def test_determinism_jobs_pinned_digests(argv, pinned):
    code, out = _run_job(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned

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
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # a usage error, from argparse
            code = exc.code
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


def _extension_family_jobs():
    """Every extension-family CLI path: split, mc and depth-grading classes.
    The window goes to the commands that read it."""
    for p in (5, 7):
        for c in ("0", "t^-2", "t^-3", f"t^-{p + 1}", f"2t^-{2 * p + 1}+t^-1+3t^2"):
            target = ["--p", str(p), "--c", c]
            base = target + ["--window", "6"]
            for cmd in ("build", "vfilt", "graded", "check", "nearby", "vanishing", "sol"):
                yield [cmd] + (base if cmd in cli._WINDOWED else target)
            yield ["check"] + base + ["--shift", "1"]
            yield ["compare"] + base + ["--shift", "2"]
            yield ["pullback"] + base + ["--dprime", "2"]


EXTENSION_FAMILY_JOBS = tuple(_extension_family_jobs())

# (exit code, sha256 of stdout) of each extension-family job, in
# EXTENSION_FAMILY_JOBS order; exit 1 is an honest check failure (A4
# breaks at positive levels of a nonzero class, shifts break A4).
PINNED_EXTENSION_FAMILY = (
    (0, "f6ffad55280c7c7ba027e840403466874ff09a74a0504edd525b1e6b1bc7af01"),
    (0, "8aae13f6a4ed7275e4c29e6ee5daa9feb2465be61d9b70c89dea0d36cf731f15"),
    (0, "5ce02eacd7e0c539b69a0afd36be73896765ca62037d7c18a8b8626a42c0f9ff"),
    (0, "129dd3a1138e081341d986e6e22d0bf9d47acfd1c160496b466cc91b87f95b24"),
    (0, "8bb22cc8194fff23055e48aac8c942c2baefe4952b92e6ade77601780908300a"),
    (0, "c3a8f4b8efb888f364bb481aedfffea85f8970a8f832e50198ef90b271da2b32"),
    (0, "479f175d32794bd170355113adc6fc34f6fd375718604a810d6efe8472a0be34"),
    (1, "34e5a6f74b4f54ee0613420190230e9c51c53e220b61940828a70cb5f89bc3a7"),
    (1, "6486c933d2ce9a5879451178ec6ba412e10c9209dea2f6990c61db5bfddc3aeb"),
    (0, "871d8dfc4dc5089cc752e678dcc4a7d21b52e4a45e81ce0d07b4516dc616f7a6"),
    (0, "8500bd849fae11a3481e8dc84cb7e3b4cce0bf505db36434a3d103c74c96cee8"),
    (1, "4128b8871070a2a0ae4895427e2fba6c10ea6653e4e61530961fb9c5325a2af6"),
    (1, "b4d3b13d73b0e163eb98d4b938981a9abe53853ca5ff90eea10baa842efe8e8c"),
    (1, "f447c3c3bb0af8fc282676bc88fd2a2f14c5552418d482a00435a00edfc38dcc"),
    (0, "7a92db2720c5984ac4db7da2397df4397c1c67aa4fdea80bfa96c14fe387c4e0"),
    (0, "6d65cfe1b6ea41b1fb105de313ef581d3ea8876e6946ef63b674d74f54a3c89e"),
    (0, "f1312b23b7a5f29ce28633bab7b7a5e0b0a7ccded4d74375bef5f2e72884a8a0"),
    (1, "6590377db13c181a9a7fb36db1112396c7b7bbc7c03517955cf45ca73c6ee7a7"),
    (1, "737b1a0e5c3e9d9e37f5a5e2b04152035df670659acb292d85232af4f827c6cc"),
    (1, "4e243eaf0f5769208dd3b72f4a50a3dc069913254558caeb9c952185eb9424ad"),
    (0, "ad7c0e4437186a9d2b46cb5091441039bb78e8496abedf4fbf974a9977e72bf3"),
    (1, "49116cd20fe9974b77b6977d9bafff324dead10c3187ad077fe999183cb9b7fb"),
    (1, "a07da8f9273ff6f7c5975abb6ca86ab6dc8367c52018418fd913ae91c73e3fb4"),
    (1, "947ceb0155cd4f5d7f943e1a9a5e2a9191263351dcd0f705a912b2f627418968"),
    (0, "efcd3ececf30e09d722a9759feb56e4626b9f9d02c772a277f37191faac1fc92"),
    (0, "b804af0c8a7c884b324e813b5a4dbb7723b7414a9c714a4d871ca18519e97b7c"),
    (0, "c84e20e499200d3fdd2b663475027c1fbc230d49149be369450ec110cf198e3a"),
    (1, "7d457ac93a5ca48cc4cc1531c77b3c095d006d2083a9d101b66ce2685b1288f7"),
    (1, "6330967af8286192d06f51d1d2548cfacbf248b85f06ed1186077426b21beaf5"),
    (1, "4d2b0212017c3ab5c485e67a1e774e383d50d6c24f14a271345bfb1c3a7c18e0"),
    (0, "f7234f9e0d7c12721ebbcb5ea609228a70a04f017696d6edafadda95cfd56aaa"),
    (1, "ad7e856f8b465b47eec3067aed84287e9f3c160c90e98d5317c99a07bad70336"),
    (1, "f009dfcf6c1483139831a053f8aeb01c8f3d48770b66c7273f5d8f4d4be731b7"),
    (1, "4e6d45ae1a50457abd3ac0c3514a32436668fbf5ef4eda8d320964ea399b90cf"),
    (0, "2da60d0feef27ad12b347b05c2e0e7f2be1de5d6140f7f84f51db8994a0bacc4"),
    (0, "9ce1b9af6594f010dbbebf6a280f36e54667d7ec064bf541d14d23d02cef1b27"),
    (0, "4674de9955f7a8b638aa5becc8f480f091f8aee1bbd151baaeabdebbd1ae491d"),
    (1, "a3d823994c04aeb97991b5e1dd7b167d728e075adf2efafae68f467e18fa1ca8"),
    (1, "90cefd7dcb6e823ce2a0c5ce50697387f3d005a6bb457615a0ec1d111b9f2bb8"),
    (1, "27347aac0ccd1bd332d7712f51b4d8583ac17f23385bbf3ea450b24876e93285"),
    (0, "68ad6093c66f98f6b2c7fd0e216055528891e069ad2f08e22b6015c33c7a5187"),
    (1, "e08aed3df731d01a0ea69ddfcf6eb1c8434fe99e6f13e9ea78518a60b60f4bfb"),
    (1, "ad67fe1fbc2daba0c2492645482c6ece2118af0c556575b1bbe21273ccc0bddd"),
    (1, "26763f0d7c758992d674ad4d4e20408ca95da239a7ba9fafef0c052ff5279b48"),
    (0, "db5b40a7230df6910597ad406477b9511cfe0e45c1083407974d7541ace151d2"),
    (0, "eedddddde72f0aa6c804dee2d393ae5ed2ff2f13d7b0b1ce0990e6400f0bc044"),
    (0, "74b6b626552e5d96f13bdfa6dd8c6c5128f95e45a45f8c65f788e6810deb7735"),
    (1, "70217f4649db5291a988e8755dce80b74b423a730d9bd7c50a31bd39efa2b579"),
    (1, "66fbf958cd81be29d79fac5ab45b5099d7e732b2f73c9f19258a679302b3c91e"),
    (1, "ffa99c84e1b2a8a60289f51f77d07411af24895d77c8a4c8d849df60421e13ec"),
    (0, "5c3dd13830153c499831b8b61ba4e6661538331504de2ed755032abb303b3281"),
    (0, "5170d98b8f53cd556e07f5a3acf623340a3a36902c9a76ff6f63981a52c8414d"),
    (0, "fc37961afe9e9c36a257a3fdfae24659314658639c1ebfb2f2f64a139fcae53b"),
    (0, "29019973a3612f50874451622de4f63a77fcaf13fb842f02cdb8a4377db1415e"),
    (0, "974e111b45732cb35e685b571a757c5c73c33f49f03bad83553aaf68c054f424"),
    (0, "9e27f4c421cee83389335cebc7723f11d104093d2e6e92762549b6de5a410bb6"),
    (0, "824b29670aba584ecef10ccac9d65a6d2b3309505cc7d707bdfe252c88ed8ef5"),
    (1, "420ea48801165688f5f1732875493fb37a55922e5f605dd100b7fe741934d9fc"),
    (1, "58506219c2113ad14d50d1680cee00230feae916076e63698c360e46f08dcb99"),
    (0, "2889ce0491f46aa3ac00b2eb91c0a500f782d4d62c63e32c7ad5fb24d09a0895"),
    (0, "753b45a8d95cae403018a50b626a70af139e6a42f05b87c7cd84879da13e7264"),
    (1, "23790752fe9d48faeb842f6bbeb551c799820cb6d453beb0f5748a0169a0d3e7"),
    (1, "2253ccb7988f76a01fb8ab208c0de8e6e3717e726d6403148407fb7147439869"),
    (1, "1c50e1e18ba316c269540a2231e001b220d367d1d73fe857aee39cebe98a7c1e"),
    (0, "17660b4a62e5a12bbb490accf6cb66d74905e8a7fde3a25d766d83440f55d83b"),
    (0, "1e9c44edb5eb1156702a8149c1849668b89721df5aa58fafe405edff4c9a922c"),
    (0, "61b0ac5040a75df95e0e48f3f51f76c43204094867720b37917403dac66284d8"),
    (1, "d9a81f8c4e89251f754535efce5bf3f18ec9f4d3cad6035fffd174e9931a7364"),
    (1, "c30d0151da11c1993c560a1f4f035aa9aadecfb4dbbac0a038bbb926e1c6d7d9"),
    (1, "fafb46d9c097c5958f8df39b60de5d8bf369349f4d1113e9a8a8433b38b5adb5"),
    (0, "c6aa34641bfce71d51dc9366aeea8a413329793aa18ac542b22554a679aa9ffe"),
    (1, "249cf957fb053b72ec4dad452186e568ea34ef105d40ca86ac49f065f81ac3b9"),
    (1, "6664a5cb8e37e94c6963d284c7a933b69f421c7d5e5212ad5f994752ad0ce7a0"),
    (1, "3f80e8b52450dfc3a692d70a490054c68160aa9c924a898b5d0b86f45c12f65a"),
    (0, "64d9e8fd0ade2558c6b2f4ee9a663c8afbd7164ee280b43bdc384f88677f51fb"),
    (0, "b2cab99022cc63bf259fe0046b23d1e4c745e76d78cdcecc79540ee2b8b16e2b"),
    (0, "76cb76c1827abcbadb8921d2826bbae6dd044ba49e98a4a77fd6a3823356c604"),
    (1, "7975b1d0cc60b55427ade2eb73fd846834ceb1859c30a5e833fe75e3adfe0518"),
    (1, "fe0a6eeaf356a6184b468678b55caec27c16369eced44359977f7568e21ea62f"),
    (1, "143ad1f6da4a0c0d82410feb7ff6127726459781a8db4ca2577315852bf2c116"),
    (0, "59020914afe3c2d2b3731f1222ac12edcca30be191bec63e91befc05a3fc516a"),
    (1, "8fd586aa2fc4029945f45929e6358eec0c3e4cecc0e1e6391428f6c1a73b085a"),
    (1, "5b96fa7e99ddfb1093e6fd97c4405455a5e4f27ff4d4a20aef93a8719307959d"),
    (1, "1a471a5470937f8bff6f81cdb5d9055410bf7b150d484d9105eaee603f6f17e2"),
    (0, "9939f6594dc60168b793653582fa73afb555b7d33ff95fa8587482b6a4cd08af"),
    (0, "2877a449d373e3cbb1128cbcb9fa8249d519bb151234e557c20c6e5ba3cfea15"),
    (0, "c1f68ef1c56bf01284551d1c3e8ed2175c1d81a2f2d5e05706a20c8da2d96e1a"),
    (1, "283b4cea2d7fce40fb5a313f1e60cbe362a8525d62f11f4b2a18e0f5166ab6aa"),
    (1, "bc83147076f3e3334c44f1ecba0cc1e4d39e82c7a097584042a2710c03857b96"),
    (1, "1224aebb02ca22e6ae8981fd20e55bb883c16bac359e5ce4957a17d03f5390fb"),
    (0, "8e7914009ef210ce20b4027834289749d24c81c8058667b52620b1b088b2a51f"),
    (1, "65a4aaa735673c76207d6777ef8809e6bbcddc6cdf6a3d21d6ddf98c97bf6eb1"),
    (1, "ebaabfa95bc69e4476237b5b62cd538e304e21e3ad2f3d27a92d18b306c0ca0b"),
    (1, "34cf969838e4c8742179ca240c44352deb8a79e764acb62f5d0c184b5d87a335"),
    (0, "6eeca9eed7b12e49f38f038a41fdd27c19235c54f508a6711ea41c4f0c41e1d1"),
    (0, "675ea8e1522d9d1b4aaa7c0acbb1022f00c63a6ed9a71f269046c05b1dc2dd2a"),
    (0, "9c96c3949182f93badb323219ab2b8be51ca905902b83f949dd5999852a3682e"),
    (1, "5630354c347a7e8a2e50ba88be21fc9d92d0a12d3ec3ca822a763ea9fd818871"),
    (1, "48414bc89f5e2c30b6d159652d0635cc9c4eed71d8b206c801254308a887aa99"),
    (1, "982d5f768495d195ebfbfa81a6835546a6c3f4e95b2628c1b75d437df4402f18"),
)


# the same jobs with --window 6 on a command that reads no window: a usage
# error, exit 2 with nothing on stdout
REFUSED_WINDOW_JOBS = tuple(
    argv + ["--window", "6"] for argv in EXTENSION_FAMILY_JOBS if argv[0] not in cli._WINDOWED
)
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
EXTENSION_FAMILY_CASES = list(zip(EXTENSION_FAMILY_JOBS, PINNED_EXTENSION_FAMILY)) + [
    (argv, (2, EMPTY_SHA256)) for argv in REFUSED_WINDOW_JOBS
]


@pytest.mark.parametrize(
    "argv, pinned",
    EXTENSION_FAMILY_CASES,
    ids=[" ".join(argv) for argv, _ in EXTENSION_FAMILY_CASES],
)
def test_extension_family_jobs_pinned_digests(argv, pinned):
    code, out = _run_job(argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == pinned

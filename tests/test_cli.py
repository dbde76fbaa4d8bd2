"""Command-line surface: exit codes, report shape, determinism."""

import hashlib
import json
import time

import pytest

from fcrystal import cli, make_field
from fcrystal.field import MODULUS_CANDIDATES


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_build_companion(capsys):
    code, rep, _ = report(capsys, ["build", "--p", "5", "--d", "3", "--rep", "companion"])
    assert code == 0
    assert rep["command"] == "build"
    assert rep["job"]["m"] == 2  # minimal field with 3 | 5^m - 1
    obj = rep["result"]["object"]
    assert rep["result"]["rank"] == 2
    assert sorted(int(k) for k in obj["weights"]) == [1, 2]
    assert obj["weights"]["1"]["shift"] == 2 and obj["weights"]["2"]["shift"] == 1


def test_build_extension(capsys):
    code, rep, _ = report(capsys, ["build", "--p", "5", "--c", "t^-2"])
    assert code == 0
    assert rep["result"]["kind"] == "extension"
    assert rep["result"]["n"] == 1


def test_rep_and_class_conflict(capsys):
    code, out, err = run(
        capsys, ["build", "--p", "5", "--d", "3", "--rep", "companion", "--c", "t^-2"]
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_vfilt_report(capsys):
    code, rep, _ = report(
        capsys, ["vfilt", "--p", "5", "--d", "3", "--rep", "companion", "--window", "4"]
    )
    assert code == 0
    res = rep["result"]
    assert res["all_pass"] is True
    assert {"num": 1, "den": 3} in res["jumps"]
    assert {"num": -1, "den": 3} in res["jumps"]
    assert set(res["checks"]) >= {"A1", "A2", "A3", "A4", "SS1", "SS2", "SS3"}


def test_graded_report(capsys):
    code, rep, _ = report(
        capsys, ["graded", "--p", "5", "--d", "3", "--rep", "companion", "--window", "4"]
    )
    assert code == 0
    assert rep["result"]["all_invertible"] is True


def test_check_crystal_passes(capsys):
    code, rep, _ = report(
        capsys, ["check", "--p", "5", "--d", "3", "--rep", "companion", "--window", "6"]
    )
    assert code == 0
    assert rep["result"]["all_pass"] is True


def test_check_extension_reports_failures(capsys):
    # positive fractional levels break the graded-Frobenius axiom; the
    # command reports that honestly and signals it in the exit code
    code, rep, _ = report(capsys, ["check", "--p", "5", "--c", "t^-2", "--window", "6"])
    assert code == 1
    assert rep["result"]["all_pass"] is False


def test_compare_inflation_equal(capsys):
    code, rep, _ = report(
        capsys,
        ["compare", "--p", "5", "--d", "3", "--rep", "companion", "--e", "2", "--window", "4"],
    )
    assert code == 0
    assert rep["result"]["compare"]["verdict"] == "equal"
    assert rep["result"]["presentations"] == [3, 6]


def test_compare_shift_not_equal(capsys):
    code, rep, _ = report(
        capsys,
        ["compare", "--p", "5", "--d", "3", "--rep", "companion", "--shift", "1", "--window", "4"],
    )
    assert code == 1
    assert rep["result"]["compare"]["verdict"] == "reverse-contained"


def test_pullback(capsys):
    code, rep, _ = report(
        capsys,
        ["pullback", "--p", "5", "--d", "3", "--rep", "companion", "--dprime", "2", "--window", "4"],
    )
    assert code == 0
    assert rep["result"]["all_pass"] is True


def test_pullback_degree_must_be_prime_to_p(capsys):
    code, out, err = run(
        capsys, ["pullback", "--p", "5", "--d", "3", "--rep", "companion", "--dprime", "5"]
    )
    assert code == 2
    assert "prime to p" in err


def test_nearby_full(capsys):
    code, rep, _ = report(capsys, ["nearby", "--p", "5", "--d", "3", "--rep", "companion", "--full"])
    assert code == 0
    classes = rep["result"]["nearby"]["classes"]
    assert [(c["a"], c["dim"]) for c in classes] == [(1, 1), (2, 1)]


def test_vanishing(capsys):
    code, rep, _ = report(capsys, ["vanishing", "--p", "5", "--d", "3", "--rep", "companion"])
    assert code == 0
    assert rep["result"]["vanishing"]["commutes"] is True


def test_recover(capsys):
    code, rep, _ = report(capsys, ["recover", "--p", "5", "--d", "3", "--rep", "companion"])
    assert code == 0
    assert rep["result"]["isomorphic"] is True
    assert rep["result"]["recovered"]["d"] == 3


def test_sol_extension(capsys):
    code, rep, _ = report(capsys, ["sol", "--p", "5", "--c", "t^-2"])
    assert code == 0
    assert rep["result"]["dimension"] == 0
    assert rep["result"]["obstruction"] == [[1, [1]]]

    code, rep, _ = report(capsys, ["sol", "--p", "5", "--c", "0"])
    assert code == 0
    assert rep["result"]["dimension"] == 1


def test_sol_crystal(capsys):
    code, rep, _ = report(capsys, ["sol", "--p", "5", "--d", "3", "--rep", "trivial", "--rank", "3"])
    assert code == 0
    assert rep["result"]["dimension"] == 3


def test_glue_split(capsys):
    code, rep, _ = report(capsys, ["glue", "--p", "5", "--c", "0"])
    assert code == 0
    triple = rep["result"]["triple"]
    assert triple["consistent"] is True
    assert triple["delta_multiplicity"] == 1


def test_glue_rejects_pole(capsys):
    code, out, err = run(capsys, ["glue", "--p", "5", "--c", "t^-2"])
    assert code == 2
    assert "pole part [1]*t^-2" in err


def test_roundtrip_sampled(capsys):
    code, rep, _ = report(capsys, ["roundtrip", "--p", "5", "--seed", "9", "--count", "8"])
    assert code == 0
    res = rep["result"]
    assert res["source"] == "sampled"
    assert res["ds"] == [2, 3, 4, 6]
    assert res["reps"]["fail"] == 0
    assert res["objects"]["fail"] == 0
    assert res["naturality"]["fail"] == 0


def cap_error(err):
    """The JSON error line that follows the message line of a cap exit."""
    message, line = err.strip().splitlines()
    assert message.startswith("resource cap exceeded: ")
    error = json.loads(line)["error"]
    assert error["kind"] == "cap" and message.endswith(error["message"])
    return error


def test_cap_exit_carries_the_profile(capsys):
    code, out, err = run(capsys, ["sol", "--p", "5", "--c", "t^-5000"])
    assert code == 3 and out == ""
    assert cap_error(err) == {
        "kind": "cap",
        "message": "pole order 4999 exceeds the solution chain cap 4096",
        "profile": [["pole", 4999]],
    }


@pytest.mark.parametrize("command", ["graded", "check"])
def test_an_internal_error_exits_4_with_the_json_error_line(capsys, monkeypatch, command):
    """A fault of the program is not a failed check: it exits 4, not 1,
    with the message line and an error line of kind "internal"."""

    def broken(args):
        raise RuntimeError("no such thing")

    monkeypatch.setattr(cli, f"cmd_{command}", broken)
    code, out, err = run(capsys, [command, "--p", "5", "--d", "3", "--rep", "companion"])
    assert code == 4 and out == ""
    line, json_line = err.strip().splitlines()
    error = json.loads(json_line)["error"]
    assert line == f"internal error: {error['message']}"
    assert error["kind"] == "internal" and error["profile"] is None
    assert error["message"].startswith("RuntimeError: no such thing (in broken, test_cli.py:")
    assert json_line == json.dumps({"error": error}, sort_keys=True)


HUGE_M = str(2**70)
IDENTITY_65 = json.dumps({"d": 1, "mat": [[int(i == j) for j in range(65)] for i in range(65)]})
MERSENNE_61 = str(2**61 - 1)  # prime, and past the bound on p: trial division would take minutes
LONG_INT = "9" * 5000  # past Python's int-string limit of 4300 digits


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (["vfilt", "--p", "5", "--d", "3", "--rep", "companion", "--window", "0"], "invalid", "--window 0 must be >= 1"),
        (["vfilt", "--p", "4", "--d", "3", "--rep", "companion"], "invalid", "p=4 is not prime"),
        (["build", "--p", "5", "--rep", '{"d":3,"mat":[[1.5]]}'], "invalid", "entries must be integers"),
        (["build", "--p", "2", "--m", "200", "--c", "t^-2"], "bound", "field order 2^200 exceeds bound"),
        # p is checked before any representation is built
        (["graded", "--p", "0", "--rep", "companion", "--window", "4"], "invalid", "p=0 is not prime"),
        (["build", "--p", "0", "--d", "11", "--rep", "companion"], "invalid", "p=0 is not prime"),
        (["compare", "--p", "0", "--d", "3", "--rep", "companion", "--e", "2"], "invalid", "p=0 is not prime"),
        # a huge m fails without forming p^m
        (["nearby", "--p", "2", "--m", HUGE_M, "--c", "t^-1"], "bound", f"field order 2^{HUGE_M} exceeds"),
        (["nearby", "--p", "5", "--m", HUGE_M, "--d", "4"], "bound", f"field order 5^{HUGE_M} exceeds"),
        (["nearby", "--p", "2", "--m", HUGE_M, "--d", "7", "--rep", "companion"], "invalid", "d=7 does not divide p^m-1"),
        # sizes are bounded before any matrix is built
        (["graded", "--p", "11", "--d", HUGE_M, "--rep", "regular"], "bound", f"--d {HUGE_M} must be <= 256"),
        (["nearby", "--p", "13", "--rank", HUGE_M], "bound", f"--rank {HUGE_M} must be <= 64"),
        (["build", "--p", "5", "--d", "100000", "--rep", "regular"], "bound", "--d 100000 must be <= 256"),
        (["vfilt", "--p", "7", "--d", "3", "--rep", "companion", "--window", "1025"], "bound", "--window 1025 must be <= 1024"),
        (["roundtrip", "--p", "5", "--count", HUGE_M], "bound", f"--count {HUGE_M} must be <= 1024"),
        # the level grid d x 2N is bounded before the crystal is built
        (
            ["vfilt", "--p", "2", "--d", "255", "--rep", "regular", "--window", "1024"],
            "bound",
            "--d 255 times --window 1024 is 261120, must be <= 2048",
        ),
        # a --rep literal's d meets the same bounds as --d
        (["build", "--p", "2", "--rep", '{"d":1023,"mat":[[1]]}'], "bound", "representation d=1023 must be <= 256"),
        (
            ["graded", "--p", "2", "--rep", '{"d":1023,"mat":[[1]]}', "--window", "4"],
            "bound",
            "representation d=1023 must be <= 256",
        ),
        (
            ["graded", "--p", "2", "--rep", '{"d":255,"mat":[[1]]}', "--window", "16"],
            "bound",
            "representation d=255 times --window 16 is 4080, must be <= 2048",
        ),
        # and its rank the same bound as --rank
        (["vfilt", "--p", "5", "--rep", IDENTITY_65, "--window", "4"], "bound", "representation rank=65 must be <= 64"),
        # compare's degree d*e meets both bounds before any field is built
        (
            ["compare", "--p", "2", "--d", "3", "--rep", "companion", "--e", "349525", "--window", "2"],
            "bound",
            "d*e=1048575 must be <= 256",
        ),
        (
            ["compare", "--p", "7", "--d", "3", "--rep", "companion", "--e", "50", "--window", "16"],
            "bound",
            "d*e=150 times --window 16 is 2400, must be <= 2048",
        ),
        # p is bounded before is_prime runs, in a flag and in a --rep literal
        (["build", "--p", MERSENNE_61, "--c", "t^-2"], "bound", f"--p {MERSENNE_61} must be <= 2147483647"),
        (
            ["build", "--p", "5", "--rep", '{"d":1,"p":%s,"mat":[[1]]}' % MERSENNE_61],
            "bound",
            f"representation p={MERSENNE_61} must be <= 2147483647",
        ),
        # integers past Python's int-string limit in outside text
        (["build", "--p", "5", "--rep", '{"d":1,"mat":[[%s]]}' % LONG_INT], "invalid", "--rep is not valid JSON: "),
        (["build", "--p", "5", "--c", "t^-" + LONG_INT], "invalid", "(4300 digits) for integer string conversion"),
    ],
    ids=[
        "window-0",
        "p-not-prime",
        "rep-not-integer",
        "field-order-bound",
        "graded-p-0",
        "build-p-0",
        "compare-p-0",
        "extension-huge-m",
        "kummer-huge-m",
        "huge-m-not-divisible",
        "graded-huge-d",
        "nearby-huge-rank",
        "build-d-100000",
        "window-1025",
        "roundtrip-huge-count",
        "level-grid",
        "build-rep-literal-d",
        "graded-rep-literal-d",
        "rep-literal-level-grid",
        "rep-literal-rank",
        "compare-huge-e",
        "compare-level-grid",
        "huge-p",
        "rep-literal-huge-p",
        "rep-literal-long-int",
        "series-long-int",
    ],
)
def test_invalid_exit_prints_the_json_error_line(capsys, argv, kind, message):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    line, json_line = err.strip().splitlines()
    error = json.loads(json_line)["error"]
    assert line == f"error: {error['message']}"
    assert error["kind"] == kind and error["profile"] is None
    assert message in error["message"]
    assert json_line == json.dumps({"error": error}, sort_keys=True)


@pytest.mark.parametrize(
    "argv, prog, message",
    [
        (["vfilt", "--p", "5", "--window", "abc"], "fcrystal vfilt", "argument --window: invalid int value: 'abc'"),
        (["vfilt"], "fcrystal vfilt", "the following arguments are required: --p"),
        ([], "fcrystal", "the following arguments are required: command"),
    ],
    ids=["bad-int", "missing-p", "no-command"],
)
def test_usage_error_prints_usage_and_the_json_error_line(capsys, argv, prog, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines[0].startswith(f"usage: {prog} ")
    assert lines[-2] == f"{prog}: error: {message}"
    error = {"kind": "invalid", "message": message, "profile": None}
    assert lines[-1] == json.dumps({"error": error}, sort_keys=True)


def unread_flags():
    for command in cli._COMMANDS:
        for flag in cli._FLAGS:
            if flag[2:] not in cli._COMMANDS[command].split():
                yield pytest.param(command, flag, id=f"{command}{flag}")


@pytest.mark.parametrize("command, flag", list(unread_flags()))
def test_a_flag_outside_the_command_row_is_a_usage_error(capsys, command, flag):
    # every command used to take all ten common flags and drop the ones it never read
    unread = [flag] if flag == "--full" else [flag, "1"]
    required = ["--dprime", "2"] if command == "pullback" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--p", "5", *required, *unread])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    message = "unrecognized arguments: " + " ".join(unread)
    lines = captured.err.strip().splitlines()
    assert lines[0].startswith("usage: fcrystal ") and lines[-2] == f"fcrystal: error: {message}"
    assert json.loads(lines[-1]) == {"error": {"kind": "invalid", "message": message, "profile": None}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recover", "--p", "3", "--c", "t^-2"], "unrecognized arguments: --c t^-2"),
        (["recover", "--p", "5", "--d", "3", "--rep", "companion", "--window", "4"], "unrecognized arguments: --window 4"),
        # --c is no abbreviation of --cap or --count
        (["recover", "--p", "3", "--c", "5"], "unrecognized arguments: --c 5"),
        (["roundtrip", "--p", "3", "--c", "5"], "unrecognized arguments: --c 5"),
        (["compare", "--p", "5", "--c", "t^-2", "--e", "2", "--window", "4"], "--e and --c are mutually exclusive"),
        (["build", "--p", "5", "--d", "3", "--rep", "regular", "--rank", "2"], "--rank needs --rep trivial"),
        (["build", "--p", "5", "--rep", '{"d":1,"mat":[[1]]}', "--rank", "2"], "--rank needs --rep trivial"),
        (["recover", "--p", "5", "--d", "3", "--rep", "companion", "--rank", "1"], "--rank needs --rep trivial"),
        (["build", "--p", "5", "--d", "3", "--c", "t^-2"], "--d and --c are mutually exclusive"),
        (["sol", "--p", "5", "--rank", "2", "--c", "0"], "--rank and --c are mutually exclusive"),
        (["compare", "--p", "5", "--d", "3", "--rep", "companion", "--e", "2", "--shift", "1", "--window", "4"], "--e and --shift are mutually exclusive"),
        (["nearby", "--p", "5", "--d", "3", "--rep", "companion", "--full", "--cap", "1"], "--full and --cap are mutually exclusive"),
        (["roundtrip", "--p", "5", "--rep", '{"d":1,"mat":[[1]]}', "--seed", "3", "--count", "2", "--d", "4"], "--rep and --seed are mutually exclusive"),
        (["roundtrip", "--p", "5", "--rep", '{"d":1,"mat":[[1]]}', "--count", "2"], "--rep and --count are mutually exclusive"),
        (["roundtrip", "--p", "5", "--rep", '{"d":1,"mat":[[1]]}', "--d", "4"], "--rep and --d are mutually exclusive"),
        (["roundtrip", "--p", "5", "--rep", "companion", "--count", "4"], "--rep and --count are mutually exclusive"),
        (["roundtrip", "--p", "5", "--rep", "regular"], "roundtrip samples its cases without --rep, which takes a file or a JSON literal, not regular"),
        (["build", "--p", "5", "--d", "4", "--rep", '{"d":2,"mat":[[1]]}'], "--d 4 conflicts with representation d=2"),
    ],
    ids=[
        "recover-c",
        "recover-window",
        "recover-c-not-cap",
        "roundtrip-c-not-count",
        "compare-e-c",
        "rank-regular",
        "rank-json",
        "recover-rank-companion",
        "d-c",
        "rank-c",
        "compare-e-shift",
        "nearby-full-cap",
        "roundtrip-literal-seed",
        "roundtrip-literal-count",
        "roundtrip-literal-d",
        "roundtrip-builtin-count",
        "roundtrip-builtin",
        "d-conflicts-json",
    ],
)
def test_a_flag_the_job_does_not_read_is_refused(capsys, argv, message):
    # each of these used to exit 0, the flag dropped without a word
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err.strip().splitlines()[-1])["error"]
    assert error == {"kind": "invalid", "message": message, "profile": None}


def test_refusable_flags_echo_their_defaults_when_left_out(capsys):
    # nearby --full reads no cap and roundtrip --rep no seed, but their
    # reports echo both at the defaults, which pinned digests cover
    for argv in (
        ["nearby", "--p", "5", "--d", "3", "--rep", "companion", "--full"],
        ["roundtrip", "--p", "5", "--rep", '{"d":1,"mat":[[1]]}'],
    ):
        code, rep, _ = report(capsys, argv)
        assert code == 0
        assert {k: rep["job"][k] for k in ("cap", "seed", "window")} == {
            "cap": cli._FLAGS["--cap"]["default"],
            "seed": 0,
            "window": 64,
        }
        assert ("d" in rep["job"]) == (argv[0] == "nearby")
    # either flag of a refused pair alone still runs
    code, rep, _ = report(capsys, ["nearby", "--p", "5", "--d", "3", "--rep", "companion", "--cap", "8"])
    assert code == 0 and rep["job"]["cap"] == 8
    code, rep, _ = report(capsys, ["compare", "--p", "5", "--d", "3", "--rep", "companion", "--shift", "1", "--window", "4"])
    assert code == 1 and rep["result"]["shift"] == 1


def test_rank_defaults_to_one_for_the_trivial_rep(capsys):
    jobs = ([], ["--rank", "1"], ["--rep", "trivial"])
    results = [report(capsys, ["build", "--p", "5", "--d", "3", *job])[1]["result"] for job in jobs]
    assert results[0]["rank"] == 1 and results[0] == results[1] == results[2]


def test_modulus_search_is_capped(capsys):
    # F_{p^4} for p = 2^31 - 1 = 3 mod 4: no binomial x^4 + c is
    # irreducible, and the search walks the constant term first, so it
    # used to try about p candidates, for hours
    start = time.perf_counter()
    code, out, err = run(capsys, ["nearby", "--p", "2147483647", "--d", "5", "--rep", "regular", "--full"])
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert cap_error(err)["profile"] == [["modulus_candidates", MODULUS_CANDIDATES]]


def test_help_exits_zero_without_a_json_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.out.startswith("usage: fcrystal ")
    assert "error" not in captured.err and "{" not in captured.err


def test_roundtrip_file_object(capsys, tmp_path):
    gamma = make_field(7, 2).generator
    entry = {"d": 1, "classes": [{"a": 0, "dim": 1, "C": [[list(gamma)]]}]}
    path = tmp_path / "objs.json"
    path.write_text(json.dumps([entry]))

    # the fixed space only saturates at degree 6; a lower cap must abort
    code, out, err = run(
        capsys, ["roundtrip", "--p", "7", "--m", "2", "--rep", str(path), "--cap", "3"]
    )
    assert code == 3
    assert "within 3 extension degrees" in err
    assert out == ""
    assert cap_error(err)["profile"] == [[1, 0], [2, 0], [3, 0]]

    code, rep, _ = report(
        capsys, ["roundtrip", "--p", "7", "--m", "2", "--rep", str(path), "--cap", "8"]
    )
    assert code == 0
    assert rep["result"]["counts"] == {"fail": 0, "pass": 1, "rejected": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ["nearby", "--p", "7", "--d", "43", "--rep", "trivial"],
        ["recover", "--p", "7", "--d", "43", "--rep", "trivial"],
        ["nearby", "--p", "3", "--d", "23", "--rep", "trivial"],
    ],
    ids=["nearby-7^6", "recover-7^6", "nearby-3^11"],
)
def test_saturation_over_fields_past_the_enumeration_bound(capsys, argv):
    # F_{7^6} and F_{3^11} are too large to enumerate; degree-1 saturation
    # embeds the field into itself, which used to refuse them with exit 2
    code, rep, _ = report(capsys, argv)
    assert code == 0 and rep["job"]["m"] in (6, 11)
    if argv[0] == "recover":
        assert rep["result"]["isomorphic"] and rep["result"]["recovered"] == rep["result"]["input"]
    else:
        assert rep["result"]["nearby"]["dim"] == rep["result"]["saturated_dimension"] == 1


def test_reports_are_deterministic(capsys):
    argv = ["vfilt", "--p", "5", "--d", "3", "--rep", "companion", "--window", "6"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_digest_matches_payload(capsys):
    code, out, _ = run(capsys, ["build", "--p", "7", "--d", "6", "--rep", "regular"])
    assert code == 0
    rep = json.loads(out)
    digest = rep.pop("digest")
    canon = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    assert digest == hashlib.sha256(canon.encode()).hexdigest()


def test_minimal_field_in_echo(capsys):
    _, rep, _ = report(capsys, ["build", "--p", "7", "--d", "3", "--rep", "regular"])
    assert rep["job"]["m"] == 1  # 3 divides 7 - 1 already
    _, rep, _ = report(capsys, ["build", "--p", "7", "--d", "4", "--rep", "regular"])
    assert rep["job"]["m"] == 2  # 4 divides 48 but not 6


@pytest.mark.parametrize(
    "rep, message",
    [
        ("/nonexistent.json", "cannot read --rep"),
        ("{bad", "not valid JSON"),
        ('{"d":3}', "key 'mat'"),
    ],
)
def test_malformed_rep_is_invalid_input(capsys, rep, message):
    code, out, err = run(capsys, ["build", "--p", "5", "--rep", rep])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "rep, message",
    [
        ('{"d":3,"mat":[["a"]]}', "entries must be integers"),
        ('{"d":3,"mat":[[1.5]]}', "entries must be integers"),
        ('{"d":3,"mat":[[true]]}', "entries must be integers"),
        ('{"d":3,"mat":[[null]]}', "entries must be integers"),
        ('{"d":"3","mat":[[1]]}', "d must be an integer"),
        ('{"d":true,"mat":[[1]]}', "d must be an integer"),
        ('{"d":3,"mat":[[1]],"p":"x"}', "p must be an integer"),
        ('{"d":3,"mat":5}', "list of lists"),
        ('{"d":3,"mat":[1]}', "list of lists"),
    ],
    ids=["str-entry", "float-entry", "bool-entry", "null-entry", "str-d", "bool-d", "str-p", "int-mat", "flat-mat"],
)
def test_non_integer_rep_is_invalid_input(capsys, rep, message):
    # these used to crash with a traceback or be coerced to 1 and run
    code, out, err = run(capsys, ["build", "--p", "5", "--rep", rep])
    assert code == 2
    assert out == ""
    assert err.startswith("error: representation ") and message in err


def test_non_integer_roundtrip_entry_is_rejected(capsys, tmp_path):
    path = tmp_path / "reps.json"
    path.write_text(json.dumps([{"d": 3, "mat": [["a"]]}, {"d": 3, "mat": [[1.5]]}, {"d": 1, "mat": [[1]]}]))
    code, rep, _ = report(capsys, ["roundtrip", "--p", "5", "--rep", str(path)])
    assert code == 2
    assert rep["result"]["counts"] == {"fail": 0, "pass": 1, "rejected": 2}

    # a graded object's d, class indices and dimensions are checked
    # before any field or list is built; these used to raise IndexError
    # and TypeError tracebacks, or allocate lists of 2^40 entries
    bad = [
        {"d": 3, "classes": [{"a": 7, "dim": 1, "C": [[1]]}]},
        {"d": 3, "classes": [{"a": -1, "dim": 1, "C": [[1]]}]},
        {"d": "x", "classes": []},
        {"d": 0, "classes": []},
        {"d": 3, "classes": [{"a": 0, "dim": -1, "C": []}]},
        {"d": 3, "classes": [{"a": 0, "dim": 1.5, "C": [[1]]}]},
        {"d": 3, "classes": 5},
    ]
    path.write_text(json.dumps(bad + [{"d": 1, "mat": [[1]]}]))
    code, rep, _ = report(capsys, ["roundtrip", "--p", "5", "--rep", str(path)])
    assert code == 2
    assert rep["result"]["counts"] == {"fail": 0, "pass": 1, "rejected": len(bad)}

    path.write_text(json.dumps([{"d": 2**40 - 1, "classes": [{"a": 0, "dim": 1, "C": [[1]]}]}]))
    start = time.perf_counter()
    code, rep, _ = report(capsys, ["roundtrip", "--p", "2", "--rep", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert rep["result"]["counts"] == {"fail": 0, "pass": 0, "rejected": 1}


def test_roundtrip_class_matrix_is_checked(capsys, tmp_path):
    # "C" is checked the way --rep's "mat" is: a list of lists whose
    # entries are integers or integer coefficient lists.  These used to
    # raise TypeError tracebacks from the tuple build or FieldCtx.el.
    bad = [[["x"]], 5, [5], [[1.5]], [[None]], [[[1, "x"]]], [[[1, True]]], [[{"c": 1}]]]
    entries = [{"d": 1, "classes": [{"a": 0, "dim": 1, "C": c}]} for c in bad]
    path = tmp_path / "objects.json"
    path.write_text(json.dumps(entries + [{"d": 1, "classes": [{"a": 0, "dim": 1, "C": [[[1]]]}]}]))
    code, rep, err = report(capsys, ["roundtrip", "--p", "2", "--rep", str(path)])
    assert code == 2
    assert rep["result"]["counts"] == {"fail": 0, "pass": 1, "rejected": len(bad)}
    assert "Traceback" not in err


def test_roundtrip_class_entries_may_be_ints(capsys, tmp_path):
    # an int entry of "C" is the constant it names, as a one-coefficient list is
    path = tmp_path / "objects.json"
    reports = []
    for entry in (3, [3]):
        path.write_text(json.dumps([{"d": 1, "classes": [{"a": 0, "dim": 1, "C": [[entry]]}]}]))
        code, rep, _ = report(capsys, ["roundtrip", "--p", "7", "--m", "2", "--rep", str(path)])
        assert code == 0 and rep["result"]["counts"] == {"fail": 0, "pass": 1, "rejected": 0}
        reports.append(rep)
    assert reports[0] == reports[1]


def test_malformed_roundtrip_file_is_invalid_input(capsys, tmp_path):
    code, _, err = run(capsys, ["roundtrip", "--p", "5", "--rep", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read --rep" in err

    bad = tmp_path / "bad.json"
    bad.write_text("[{")
    code, _, err = run(capsys, ["roundtrip", "--p", "5", "--rep", str(bad)])
    assert code == 2 and "not valid JSON" in err

    # entries missing a key are rejected one by one, not a crash
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"mat": [[1]]}, {"d": 1, "classes": [{"a": 0}]}, 7]))
    code, rep, _ = report(capsys, ["roundtrip", "--p", "5", "--rep", str(partial)])
    assert code == 2
    assert rep["result"]["counts"] == {"fail": 0, "pass": 0, "rejected": 3}


@pytest.mark.parametrize("command", ["build", "roundtrip"])
@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe{}",
        b'{"d":1,"mat":[[' + LONG_INT.encode() + b"]]}",
        b'[{"d":1,"mat":[[1]]},{"d":1,"mat":[[' + LONG_INT.encode() + b"]]}]",
    ],
    ids=["not-utf-8", "long-int", "long-int-entry"],
)
def test_unparsable_rep_file_is_invalid_input(capsys, tmp_path, command, data):
    # these used to escape as UnicodeDecodeError and ValueError tracebacks;
    # the JSON reader refuses the whole file, so no entry can be counted
    path = tmp_path / "rep.json"
    path.write_bytes(data)
    code, out, err = run(capsys, [command, "--p", "5", "--rep", str(path)])
    assert code == 2 and out == ""
    error = json.loads(err.strip().splitlines()[-1])["error"]
    assert error["kind"] == "invalid" and error["message"].startswith("--rep is not valid JSON: ")


def test_roundtrip_reads_a_literal_as_entries(capsys):
    # a literal used to be ignored, and the command sampled instead
    code, rep, _ = report(capsys, ["roundtrip", "--p", "5", "--rep", '{"d":4,"mat":[[1]]}'])
    assert code == 0
    assert rep["result"] == {"source": "file", "counts": {"fail": 0, "pass": 1, "rejected": 0}}
    code, rep, _ = report(capsys, ["roundtrip", "--p", "5", "--rep", '{"d":4,"mat":[["x"]]}'])
    assert code == 2
    assert rep["result"] == {"source": "file", "counts": {"fail": 0, "pass": 0, "rejected": 1}}


@pytest.mark.parametrize("window", ["-3", "0"])
def test_empty_window_is_invalid_input(capsys, window):
    # [3, -3) is empty: every check used to pass vacuously with exit 0
    code, out, err = run(capsys, ["check", "--p", "5", "--d", "3", "--rep", "companion", "--window", window])
    assert code == 2
    assert out == ""
    assert "--window" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["build", "--p", "5", "--c", "t^-2", "--m", "0"], "--m 0"),
        (["roundtrip", "--p", "5", "--count", "0"], "--count 0"),
        (["roundtrip", "--p", "5", "--count", "-3"], "--count -3"),
        (["check", "--p", "5", "--c", "t^-2", "--window", "3", "--depth", "-1"], "--depth -1"),
        (["compare", "--p", "5", "--d", "3", "--rep", "companion", "--e", "0"], "--e 0"),
        (["compare", "--p", "5", "--d", "3", "--rep", "companion", "--e", "-1"], "--e -1"),
        (["recover", "--p", "5", "--d", "3", "--rep", "companion", "--cap", "0"], "--cap 0"),
        (["roundtrip", "--p", "5", "--cap", "-1"], "--cap -1"),
        # these used to raise ValueError from randrange, or sample the
        # default orders as if --d were unset
        (["roundtrip", "--p", "5", "--d", "-3"], "--d -3"),
        (["roundtrip", "--p", "5", "--d", "0"], "--d 0"),
        (["build", "--p", "5", "--d", "0", "--rep", "regular"], "--d 0"),
    ],
    ids=[
        "m-0",
        "count-0",
        "count-neg",
        "depth-neg",
        "e-0",
        "e-neg",
        "cap-0",
        "cap-neg",
        "roundtrip-d-neg",
        "roundtrip-d-0",
        "build-d-0",
    ],
)
def test_out_of_range_flag_is_invalid_input(capsys, argv, flag):
    # unchecked, each would run with a silently changed value (m = 1,
    # four roundtrip cases, depth 1), fail later on another message, or
    # exit 3 as if a real cap had run out (cap < 1)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be >= ")


def test_build_reports_lo_after_cancellation(capsys):
    # "lo" is the valuation of the parsed series, not its first written term
    code, rep, _ = report(capsys, ["build", "--p", "5", "--c", "t^-3-t^-3+t^-2"])
    assert code == 0
    assert rep["result"]["n"] == 1
    assert rep["result"]["object"]["c"] == {"lo": -2, "hi": None, "terms": [[-2, [1]]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["sol", "--p", "5", "--c", "t^-2", "--rep", "companion"],
        ["glue", "--p", "7", "--c", "0", "--rep", "companion"],
    ],
)
def test_rep_and_class_conflict_in_sol_and_glue(capsys, argv):
    # every command that reads --rep or --c refuses both at once
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "mutually exclusive" in err


@pytest.mark.parametrize("c", ["t^-1", "t^-3-t^-3+t^-1"])
def test_build_with_a_simple_pole(capsys, c):
    # build prints the module only, so n = 0 needs no filtration rule
    code, rep, _ = report(capsys, ["build", "--p", "5", "--c", c])
    assert code == 0
    assert rep["result"]["kind"] == "extension"
    assert rep["result"]["n"] == 0 and rep["result"]["split"] is False
    assert rep["result"]["object"]["c"] == {"lo": -1, "hi": None, "terms": [[-1, [1]]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["vfilt", "--p", "5", "--c", "t^-1"],
        ["graded", "--p", "5", "--c", "t^-1"],
        ["check", "--p", "7", "--c", "2t^-1+t"],
        ["vanishing", "--p", "5", "--c", "t^-1"],
        ["pullback", "--p", "5", "--c", "t^-1", "--dprime", "2"],
    ],
)
def test_filtration_commands_name_a_simple_pole(capsys, argv):
    # no rule covers n = 0: the extension filtration needs p not dividing
    # n, the depth grading n = l*p with l >= 1
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: a simple pole gives n = 0")


@pytest.mark.parametrize(
    "p, count, per_d, reps, naturality",
    [(5, 1, 1, 4, 4), (5, 8, 2, 8, 4), (3, 1, 1, 2, 2), (5, 24, 6, 24, 4)],
)
def test_roundtrip_count_is_a_per_order_budget(capsys, p, count, per_d, reps, naturality):
    # each order d runs max(1, count // #orders) representation and object
    # cases and max(1, that // 4) naturality cases, so --count 1 still
    # runs one case of each kind per order
    code, rep, _ = report(capsys, ["roundtrip", "--p", str(p), "--count", str(count)])
    assert code == 0
    res = rep["result"]
    assert res["per_d"] == per_d
    assert sum(res["reps"].values()) == sum(res["objects"].values()) == reps
    assert sum(res["naturality"].values()) == naturality
    assert len(res["ds"]) * per_d == reps

"""The command line under random and hostile input.

Every argv, however malformed, must exit 0-3 without a traceback: a
report whose digest covers it on stdout, or a JSON error line on
stderr.  Each command draws the flags its row of the CLI's command table
names, and sometimes one more that it does not take, which must exit 2.
And every row of the CLI's input table is enforced at its boundary, so
a new row gets its boundary test here for free.
"""

import hashlib
import io
import itertools
import json
import signal
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from fcrystal import cli
from fcrystal.errors import BoundExceededError, InvalidInputError

HUGE = 10**30
DEADLINE_S = 5  # per example; a hang fails the test instead of stalling it


class Hang(Exception):
    pass


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()

    def alarm(signum, frame):
        raise Hang(f"no exit within {DEADLINE_S} s: {argv}")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a usage error, from argparse
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def check_exit(argv, code, out, err):
    """The exit contract; any other exception has already failed the run,
    as it would print a traceback from the console script."""
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    if code in (0, 1) or out:
        report = json.loads(out)
        digest = report.pop("digest")
        canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
        assert digest == hashlib.sha256(canon.encode()).hexdigest(), argv
    if code in (2, 3) and out:
        # a --rep file reports its entries even when it rejected some
        assert report["command"] == "roundtrip" and report["result"]["counts"]["rejected"], argv
    elif code in (2, 3):
        error = json.loads(err.strip().splitlines()[-1])["error"]
        assert set(error) == {"kind", "message", "profile"}, argv
        assert error["kind"] in (("invalid", "bound") if code == 2 else ("cap",)), argv


def values(small, edge):
    """A flag value as argv text: mostly small, sometimes an edge or a malformed one."""
    return st.sampled_from([str(v) for v in small] * 3 + [str(v) for v in edge])


PRIMES = values([2, 3, 5, 7, 11, 13], [0, 1, 4, -7, 2**31, 2**61 - 1, HUGE, "x"])
DEGREES = values(range(1, 9), [0, -3, 256, 257, HUGE, "1.5"])
SERIES = ["0", "t^-2", "t^-3", "t^-1", "2t^-11+t^-1+3t^2", "3t^-2+t"]
BAD_SERIES = ["t^2", "t^-" + "9" * 5000, "9" * 5000 + "t^-2", "t^-x", "x^-2", "t^--2", ""]
FLAGS = {  # what each flag with a value draws; the command table says who takes it
    "--m": values([1, 2], [0, -1, 200, HUGE]),
    "--window": values(range(1, 9), [0, -1, 1024, 1025, HUGE, "abc"]),
    "--rank": values([1, 2, 3], [0, -1, 64, 65, HUGE]),
    "--cap": values([4, 8, 24], [0, 1, -1, HUGE]),
    "--seed": values([0, 1, 2], [-1, HUGE]),
    "--depth": values([0, 1, 2], [-1, HUGE]),
    "--shift": values([-1, 0, 1, 2], [HUGE, -HUGE]),
    "--e": values([1, 2, 3], [0, -1, 349525, HUGE]),
    "--dprime": values([1, 2, 3], [0, 5, -2, HUGE]),
    "--count": values([1, 2, 4, 8], [0, -3, 1025, HUGE]),
    "--d": DEGREES,
    "--c": st.sampled_from(SERIES),
    "--rep": st.sampled_from(cli._BUILTIN_REPS),
}
COMMANDS = sorted(cli._COMMANDS)
# the flag pairs a command refuses together, as it reads only the first
CONFLICTS = {
    "compare": [("--e", "--c"), ("--e", "--shift")],
    "nearby": [("--full", "--cap")],
    "roundtrip": [("--rep", "--seed"), ("--rep", "--count"), ("--rep", "--d")],
}


def shift_matrix(d):
    return [[int(j == (i - 1) % d) for j in range(d)] for i in range(d)]


# JSON values a --rep literal or file may hold that are not valid input
BAD_ENTRIES = [
    {"d": 3},
    {"d": "3", "mat": [[1]]},
    {"d": True, "mat": [[1]]},
    {"d": 3, "mat": 5},
    {"d": 3, "mat": [1]},
    {"d": 3, "mat": [[1.5]]},
    {"d": 0, "mat": [[1]]},
    {"d": 1, "mat": []},
    {"d": 1023, "mat": [[1]]},
    {"d": 1, "p": 2**61 - 1, "mat": [[1]]},
    {"d": 1, "p": "x", "mat": [[1]]},
    {"d": 3, "classes": 5},
    {"d": 3, "classes": [{"a": 7, "dim": 1, "C": [[1]]}]},
    {"d": 1, "classes": [{"a": 0, "dim": 1, "C": [["x"]]}]},
    {"d": 1, "classes": [{"a": 0, "dim": 1, "C": 5}]},
    {"d": 1, "classes": [{"a": 0}]},
    {"d": 2**40 - 1, "classes": []},
    7,
    "x",
    [1],
]
# and text that is no JSON value at all, or none Python reads
BAD_JSON = [json.dumps(v) for v in BAD_ENTRIES] + ['{"d":1,"mat":[[' + "9" * 5000 + "]]}", "{bad"]
BAD_FILES = [t.encode() for t in BAD_JSON] + [b"[1, 2", b"", b"\xff\xfe{}"]


@st.composite
def rep_json(draw):
    """A representation or graded object, most of them valid."""
    d = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["regular", "identity", "object", "object", "bad"]))
    if shape == "regular":
        return {"d": d, "mat": shift_matrix(d)}
    if shape == "identity":
        return {"d": d, "mat": [[int(i == j) for j in range(d)] for i in range(draw(st.integers(1, 3)))]}
    if shape == "object":
        entry = draw(st.sampled_from([[[1]], [[[1]]], [[2]], [[[0, 1]]]]))
        return {"d": 1, "classes": [{"a": 0, "dim": 1, "C": entry}]}
    return draw(st.sampled_from(BAD_ENTRIES))


@st.composite
def rep_argument(draw, folder, serial):
    """--rep as a JSON literal or as a file holding a JSON value."""
    choice = draw(st.sampled_from(["literal", "literal", "file", "bad literal", "bad file"]))
    if choice == "literal":
        return json.dumps(draw(rep_json()))
    if choice == "bad literal":
        return draw(st.sampled_from(BAD_JSON))
    if choice == "file":
        data = json.dumps(draw(st.lists(rep_json(), min_size=1, max_size=3))).encode()
    else:
        data = draw(st.sampled_from(BAD_FILES))
    path = folder / f"rep{next(serial)}.json"
    path.write_bytes(data)
    return str(path)


@st.composite
def argvs(draw, folder, serial):
    """(argv, refused): refused when the argv holds a flag its command does
    not take, a pair of flags it refuses together, or a built-in --rep for
    roundtrip, which samples its cases without one."""
    command = draw(st.sampled_from(COMMANDS))
    takes = ["--" + name for name in cli._COMMANDS[command].split()]
    argv = [command, "--p", draw(PRIMES)]
    target = draw(st.sampled_from(["builtin", "builtin", "json", "none"] + ["series"] * ("--c" in takes)))
    if target == "builtin":
        argv += ["--rep", draw(st.sampled_from(cli._BUILTIN_REPS))]
        if draw(st.integers(0, 3)):
            argv += ["--d", draw(DEGREES)]
    elif target == "json":
        argv += ["--rep", draw(rep_argument(folder, serial))]
    elif target == "series":
        argv += ["--c", draw(st.sampled_from(SERIES * 3 + BAD_SERIES))]
    for flag in takes:
        if flag == "--dprime" or flag in FLAGS and flag not in ("--d", "--c", "--rep") and draw(st.integers(0, 3)) == 0:
            argv += [flag, draw(FLAGS[flag])]
    if "--full" in takes and draw(st.booleans()):
        argv.append("--full")
    given = set(argv)
    refused = command == "roundtrip" and target == "builtin"
    refused |= any(first in given and second in given for first, second in CONFLICTS.get(command, ()))
    unread = [flag for flag in cli._FLAGS if flag not in takes]
    if draw(st.integers(0, 9)) == 0:
        refused = True
        flag = draw(st.sampled_from(unread))
        argv += [flag] if flag == "--full" else [flag, draw(FLAGS[flag])]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "--p", "--help-me", "-"])))
    return argv, refused


def test_every_argv_exits_with_a_report_or_an_error_line(tmp_path):
    codes = []
    serial = itertools.count()

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        phases=[Phase.generate, Phase.shrink],  # no explain phase: its line tracing slows each run fivefold
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=argvs(tmp_path, serial))
    def one(case):
        argv, refused = case
        code, out, err = run(argv)
        check_exit(argv, code, out, err)
        assert code == 2 or not refused, argv
        codes.append(code)

    one()
    # most draws are valid, so the test cannot pass by refusing everything
    assert sum(c in (0, 1) for c in codes) >= 0.2 * len(codes), sorted(codes)
    assert {0, 2} <= set(codes)


# a job of each command with refused pairs, and each pair flag's value
PAIR_JOBS = {
    "compare": ["compare", "--p", "5", "--window", "4"],
    "nearby": ["nearby", "--p", "5", "--d", "3", "--rep", "companion"],
    "roundtrip": ["roundtrip", "--p", "5"],
}
PAIR_VALUES = {
    "--e": ["2"],
    "--c": ["t^-2"],
    "--shift": ["1"],
    "--full": [],
    "--cap": ["8"],
    "--rep": ['{"d": 1, "mat": [[1]]}'],
    "--seed": ["1"],
    "--count": ["4"],
    "--d": ["1"],
}
REFUSED = [
    pytest.param(command, [first, *PAIR_VALUES[first]], [second, *PAIR_VALUES[second]], id=f"{command} {first} {second}")
    for command, pairs in CONFLICTS.items()
    for first, second in pairs
] + [pytest.param("roundtrip", ["--rep", rep], [], id=f"roundtrip --rep {rep}") for rep in cli._BUILTIN_REPS]


@pytest.mark.parametrize("command, first, second", REFUSED)
def test_every_refusal_exits_2_as_invalid(command, first, second):
    """Each refused flag pair, and roundtrip with a built-in --rep, exits
    2 with kind "invalid"; a pair's job without its second flag runs."""
    argv = PAIR_JOBS[command] + first + second
    code, out, err = run(argv)
    check_exit(argv, code, out, err)
    assert code == 2 and out == "", argv
    assert json.loads(err.strip().splitlines()[-1])["error"]["kind"] == "invalid", argv
    if second:
        assert run(PAIR_JOBS[command] + first)[0] in (0, 1), argv


# one job per flag that reads it; a flag given twice takes its last value
BASE_JOB = ["vfilt", "--p", "5", "--d", "3", "--rep", "companion", "--window", "4"]
FLAG_JOBS = {
    "--rank": ["vfilt", "--p", "5", "--d", "3", "--window", "4"],
    "--cap": ["recover", "--p", "5", "--d", "3", "--rep", "companion"],
    "--e": ["compare", "--p", "5", "--d", "3", "--rep", "companion", "--e", "2", "--window", "4"],
    "--count": ["roundtrip", "--p", "5", "--count", "4"],
}


def boundary_cases():
    for name, (kind, least, most) in cli._INPUTS.items():
        if kind is not int:
            continue
        if least is not None:
            yield pytest.param(name, least, least - 1, "invalid", id=f"{name}-least")
        if most is not None:
            yield pytest.param(name, most, most + 1, "bound", id=f"{name}-most")


@pytest.mark.parametrize("name, inside, outside, kind", list(boundary_cases()))
def test_every_table_row_is_enforced_at_its_boundary(capsys, name, inside, outside, kind):
    assert cli._check(name, inside) == inside
    with pytest.raises(BoundExceededError if kind == "bound" else InvalidInputError) as exc:
        cli._check(name, outside)
    assert isinstance(exc.value, BoundExceededError) == (kind == "bound")
    if name.startswith("--"):
        code = cli.main(FLAG_JOBS.get(name, BASE_JOB) + [name, str(outside)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        error = json.loads(captured.err.strip().splitlines()[-1])["error"]
        assert error["kind"] == kind and error["message"] == f"{name} {outside} must be " + (
            f">= {inside}" if kind == "invalid" else f"<= {inside}"
        )


@pytest.mark.parametrize("name", [n for n, row in cli._INPUTS.items() if row is cli._DEGREE])
def test_every_cover_degree_meets_the_grid_rule(name):
    # d * window may reach _GRID_BOUND in a command that reads the window
    d = 256
    window = cli._GRID_BOUND // d
    assert cli._check(name, d, Namespace(command="vfilt", window=window)) == d
    assert cli._check(name, d, Namespace(command="build", window=window + 1)) == d
    with pytest.raises(BoundExceededError, match=f"times --window {window + 1} is {d * (window + 1)}, must be <= "):
        cli._check(name, d, Namespace(command="vfilt", window=window + 1))

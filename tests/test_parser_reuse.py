"""One parser serves every ``cli.main`` call in a process.

``cli._parser`` is built on the first call and reused.  Each run of a
sequence in one process must print exactly what the same job prints
with a freshly built parser, so no flag value, default or error state
leaks from one job into the next.
"""

import importlib.util

import pytest

from fcrystal import cli

NEARBY = ["nearby", "--p", "5", "--d", "3", "--rep", "companion"]
CHECK = ["check", "--p", "5", "--c", "t^-2", "--window", "6"]
USAGE_ERROR = ["vfilt", "--p", "5", "--window", "abc"]
VFILT = ["vfilt", "--p", "5", "--d", "3", "--rep", "companion", "--window", "4"]
HELP = ["--help"]


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one ``cli.main`` call."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(capsys, argv):
    cli._parser.cache_clear()
    return _call(capsys, argv)


@pytest.mark.parametrize(
    "sequence",
    [
        [NEARBY + ["--full"], NEARBY],
        [CHECK + ["--shift", "2"], CHECK],
        [USAGE_ERROR, VFILT],
        [HELP, HELP],
    ],
    ids=["nearby-full-then-plain", "check-shift-then-plain", "usage-error-then-job", "help-twice"],
)
def test_reused_parser_matches_a_fresh_one(capsys, sequence):
    expected = [_fresh(capsys, argv) for argv in sequence]
    cli._parser.cache_clear()
    got = [_call(capsys, argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    assert got == expected


def test_sequences_are_not_vacuous(capsys):
    """Each pair differs in its output, so a leaked flag would show."""
    assert _fresh(capsys, NEARBY + ["--full"])[1] != _fresh(capsys, NEARBY)[1]
    assert _fresh(capsys, CHECK + ["--shift", "2"])[1] != _fresh(capsys, CHECK)[1]
    code, out, err = _fresh(capsys, USAGE_ERROR)
    assert code == 2 and out == "" and err.splitlines()[-1].startswith('{"error": ')
    for _ in range(2):
        code, out, err = _call(capsys, HELP)
        assert code == 0 and out.startswith("usage: fcrystal ") and "{" not in err


def test_parser_is_not_built_at_import():
    spec = importlib.util.find_spec("fcrystal.cli")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod._parser.cache_info().currsize == 0

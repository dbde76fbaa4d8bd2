"""The report emitter prints exactly what ``json.dumps`` prints.

``cli._pretty`` replaces ``json.dumps(x, indent=2, sort_keys=True)`` on
the stdout report.  The stdlib is the oracle here: on generated JSON
values (awkward strings, big ints, empty and nested containers, tuples),
on dicts that share or almost share a key set, and on the raw report
objects of the 13 determinism jobs and of jobs whose reports have other
shapes (failing checks with witnesses, entries over F_64).
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import DETERMINISM_JOBS, _run_job

from fcrystal import cli


def oracle(x):
    return json.dumps(x, indent=2, sort_keys=True)


# quotes, backslashes, control characters, non-ASCII, astral and lone
# surrogate code points, the emitter's own format markup, plus anything
# else hypothesis draws
AWKWARD = [*'"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600\ud800\udfff', "%", "%s", "%%"]
TEXT = st.lists(st.sampled_from(AWKWARD) | st.characters(blacklist_categories=()), max_size=12).map("".join)
INTS = st.integers() | st.integers(-(2**200), 2**200) | st.sampled_from([2**63, 2**64, -(2**64) - 1])
ATOMS = st.none() | st.booleans() | INTS | TEXT
JSON = st.recursive(
    ATOMS,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(TEXT, kids, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON)
def test_pretty_matches_the_stdlib(x):
    assert cli._pretty(x) == oracle(x)


@pytest.mark.parametrize("x", [[], {}, (), [[]], {"": {}}, [(), {}], {"a": [{}, []]}, "", 0, -1])
def test_empty_containers_and_edge_atoms(x):
    assert cli._pretty(x) == oracle(x)


@pytest.mark.parametrize(
    "x",
    [
        {"a": {"a": 1}},
        [{"a": 1}, {"k": {"a": 2}}, {"a": {"a": {"a": 3}}}],
        [{"b": 1, "a": 2}, {"a": 3, "b": 4}],
        {"b": {"y": 1, "x": 2}, "a": {"x": 3, "y": 4}},
        [{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}, {"a": 6}],
        [{"a": 1, "b": 2}, {"a": 3, "c": 4}, {"b": 5, "c": 6}],
        {"%": 1, "%s": {"%%": "%s", "%d": [None]}, "%(a)s": "%"},
        [{"%s": 1}, {"%s": 2, "%": 3}],
    ],
    ids=[
        "one-key-set-two-depths",
        "one-key-set-three-depths",
        "insertion-orders",
        "nested-insertion-orders",
        "one-key-more",
        "one-key-other",
        "percent-keys",
        "percent-keys-two-shapes",
    ],
)
def test_dicts_of_shared_and_near_key_sets(x):
    """Dicts of one shape at other depths, in other orders and next to
    shapes one key apart, each print as the stdlib prints them."""
    assert cli._pretty(x) == oracle(x)


def test_deep_nesting():
    x = 0
    for depth in range(150):
        x = ([x], {"k": x}, (x, "s"))[depth % 3]
    assert cli._pretty(x) == oracle(x)


@pytest.mark.parametrize(
    "x",
    [Fraction(1, 3), 0.5, {1: 2}, {"a": [1, {2: "b"}]}, [1, Fraction(2)], {"a": 1.0}, {None: 1}],
    ids=["fraction", "float", "int-key", "nested-int-key", "nested-fraction", "nested-float", "none-key"],
)
def test_rejects_non_json_values(x):
    with pytest.raises(TypeError):
        cli._pretty(x)


@pytest.mark.parametrize("argv", DETERMINISM_JOBS, ids=[" ".join(a) for a in DETERMINISM_JOBS])
def test_determinism_reports_match_the_stdlib(monkeypatch, argv):
    """The raw report objects, tuples included, as ``_emit`` passes them."""
    reports = []
    pretty = cli._pretty

    def spy(x, ind="\n"):
        if ind == "\n":
            reports.append(x)
        return pretty(x, ind)

    monkeypatch.setattr(cli, "_pretty", spy)
    code, out = _run_job(argv)
    assert code == 0 and len(reports) == 1
    assert out == oracle(reports[0]) + "\n"


# shapes the determinism jobs do not print: a pole twist whose check and
# vfilt fail (exit 1, failing levels with witnesses), and graded entries
# that are coefficient lists over F_64
OTHER_SHAPES = (
    (["check", "--p", "7", "--c", "2t^-8", "--window", "6"], 1),
    (["vfilt", "--p", "7", "--c", "2t^-8", "--window", "6"], 1),
    (["vfilt", "--p", "2", "--d", "21", "--rep", "regular", "--window", "2"], 0),
)


@pytest.mark.parametrize("argv, code", OTHER_SHAPES, ids=[" ".join(a) for a, _ in OTHER_SHAPES])
def test_other_report_shapes_match_the_stdlib(monkeypatch, argv, code):
    reports = []
    pretty = cli._pretty

    def spy(x, ind="\n"):
        reports.append(x)
        return pretty(x, ind)

    monkeypatch.setattr(cli, "_pretty", spy)
    got = _run_job(argv)
    assert len(reports) == 1
    text = oracle(reports[0])
    assert got == (code, text + "\n")
    assert code == 0 or '"witness"' in text and '"status": "fail"' in text

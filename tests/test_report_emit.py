"""The report emitter prints exactly what ``json.dumps`` prints.

``cli._pretty`` replaces ``json.dumps(x, indent=2, sort_keys=True)`` on
the stdout report.  The stdlib is the oracle here: on generated JSON
values (awkward strings, big ints, empty and nested containers, tuples)
and on the raw report objects of the 13 determinism jobs.
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
# surrogate code points, plus anything else hypothesis draws
AWKWARD = '"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600\ud800\udfff'
TEXT = st.text(st.sampled_from(AWKWARD) | st.characters(blacklist_categories=()), max_size=12)
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

"""tools/stages.py runs in-process and reports every stage.

The tool wraps the bindings in its CUTS table (fcrystal's
build_kummer_crystal, standard_vfilt and graded, cli._make_objects,
cli.graded, cli.shifted_exactness and cli._emit, vfilt.graded, the
private vfilt._sweep, check_specializing and check_super, and the
to_json of GradedReport and AxiomReport) and runs the benchmark's
setup_corpus, setup_jobs, setup_heavy and POLE_WINDOW, so a rename on
either side breaks it; these smoke tests run one timed round and one
profiled round of each workload's seed-1 block.  The tool must put every binding back,
and one failed op check must fail its verdict.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

STAGES_PY = Path(__file__).resolve().parent.parent / "tools" / "stages.py"


def _load(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("stages_tool", STAGES_PY)
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    return stages


def _bindings(stages):
    return [(owner, name, getattr(owner, name)) for cut in stages.CUTS.values() for owner, name in cut]


def _restored(bindings):
    return all(getattr(owner, name) is fn for owner, name, fn in bindings)


def test_stages_tool_times_and_counts_every_stage(capsys, monkeypatch):
    stages = _load(monkeypatch)
    bindings = _bindings(stages)
    assert stages.main(["--rounds", "1", "--calls"]) == 0
    assert _restored(bindings)
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] and out["crystals"] == 40
    assert list(out["stages_ms"]) == list(out["calls"]) == list(stages.STAGES)
    assert len(stages.STAGES) == 5
    assert all(calls > 0 for calls in out["calls"].values()), out["calls"]
    assert out["calls_sum"] == sum(out["calls"].values())
    assert out["graded_levels"] > 0 and out["other_ms"] >= 0
    assert out["graded_calls_per_level"] == round(out["calls"]["graded"] / out["graded_levels"], 1)


def test_stages_tool_cuts_the_pole_jobs_and_reproduces_their_reports(capsys, monkeypatch):
    stages = _load(monkeypatch)
    bindings = _bindings(stages)
    assert stages.main(["--workload", "jobs", "--rounds", "1", "--calls"]) == 0
    assert _restored(bindings)
    out = json.loads(capsys.readouterr().out)
    # 2 primes x (split, mc, depth) x (check, vfilt), each passing the benchmark's check
    assert out["workload"] == "jobs" and out["ops"] == 12 and out["reproduced"]
    assert list(out["stages_ms"]) == list(out["calls"]) == list(stages.JOB_STAGES)
    assert stages.JOB_STAGES == stages.STAGES + ("shifted_exactness", "report")
    assert all(calls > 0 for calls in out["calls"].values()), out["calls"]
    assert out["calls_sum"] == sum(out["calls"].values()) and out["graded_levels"] > 0


def test_stages_tool_cuts_the_heavy_block_and_reproduces_its_reports(capsys, monkeypatch):
    stages = _load(monkeypatch)
    bindings = _bindings(stages)
    assert stages.main(["--workload", "heavy", "--rounds", "1", "--calls"]) == 0
    assert _restored(bindings)
    out = json.loads(capsys.readouterr().out)
    # 5 regular-rep jobs and 3 seeded low-rank ones, each with its own window
    assert out["workload"] == "heavy" and out["ops"] == 8 and out["reproduced"]
    assert out["window"] is None
    assert list(out["stages_ms"]) == list(out["calls"]) == list(stages.JOB_STAGES)
    # Kummer crystals only: no extension rule, so no exactness check
    assert out["calls"].pop("shifted_exactness") == 0
    assert all(calls > 0 for calls in out["calls"].values()), out["calls"]
    assert out["graded_levels"] > 0


@pytest.mark.parametrize("workload, op_class, verdict", [("corpus", "CrystalOp", "all_pass"), ("jobs", "CliOp", "reproduced"), ("heavy", "CliOp", "reproduced")])
def test_one_failed_op_check_fails_the_verdict(capsys, monkeypatch, workload, op_class, verdict):
    stages = _load(monkeypatch)
    bindings = _bindings(stages)
    cls = getattr(sys.modules["workloads"], op_class)
    check, seen = cls.check, []

    def fails_once(op, result):
        ok, digest = check(op, result)
        seen.append(op)
        return ok and len(seen) > 1, digest

    monkeypatch.setattr(cls, "check", fails_once)
    assert stages.main(["--workload", workload, "--rounds", "1"]) == 1
    assert len(seen) > 1 and _restored(bindings)
    assert json.loads(capsys.readouterr().out)[verdict] is False

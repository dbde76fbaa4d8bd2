"""tools/stages.py runs in-process and reports every stage.

The tool imports the private vfilt._sweep, cli._parser, cli._FLAGS,
cli._make_objects and cli._emit, and the benchmark's CrystalOp,
setup_corpus, setup_jobs and POLE_WINDOW, so a rename on either side
breaks it; these smoke tests run one timed round and one profiled round
of each workload's seed-1 block.
"""

import importlib.util
import json
import sys
from pathlib import Path

STAGES_PY = Path(__file__).resolve().parent.parent / "tools" / "stages.py"


def _load(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("stages_tool", STAGES_PY)
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    return stages


def test_stages_tool_times_and_counts_every_stage(capsys, monkeypatch):
    stages = _load(monkeypatch)
    assert stages.main(["--rounds", "1", "--calls"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] and out["crystals"] == 40
    assert list(out["stages_ms"]) == list(out["calls"]) == list(stages.STAGES)
    assert len(stages.STAGES) == 5
    assert all(calls > 0 for calls in out["calls"].values()), out["calls"]
    assert out["calls_sum"] == sum(out["calls"].values())
    assert out["graded_levels"] > 0
    assert out["graded_calls_per_level"] == round(out["calls"]["graded"] / out["graded_levels"], 1)


def test_stages_tool_cuts_the_pole_jobs_and_reproduces_their_reports(capsys, monkeypatch):
    stages = _load(monkeypatch)
    assert stages.main(["--workload", "jobs", "--rounds", "1", "--calls"]) == 0
    out = json.loads(capsys.readouterr().out)
    # 2 primes x (split, mc, depth) x (check, vfilt), each printing what cli.main prints
    assert out["workload"] == "jobs" and out["ops"] == 12 and out["reproduced"]
    assert list(out["stages_ms"]) == list(out["calls"]) == list(stages.JOB_STAGES)
    assert stages.JOB_STAGES == stages.STAGES + ("shifted_exactness", "report")
    assert all(calls > 0 for calls in out["calls"].values()), out["calls"]
    assert out["calls_sum"] == sum(out["calls"].values()) and out["graded_levels"] > 0

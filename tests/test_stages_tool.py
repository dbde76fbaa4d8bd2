"""tools/stages.py runs in-process and reports every stage.

The tool imports the private vfilt._sweep and the benchmark's CrystalOp
and setup_corpus, so a rename on either side breaks it; this smoke test
runs one timed round and one profiled round of the seed-1 block.
"""

import importlib.util
import json
import sys
from pathlib import Path

STAGES_PY = Path(__file__).resolve().parent.parent / "tools" / "stages.py"


def test_stages_tool_times_and_counts_every_stage(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("stages_tool", STAGES_PY)
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    assert stages.main(["--rounds", "1", "--calls"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"] and out["crystals"] == 40
    assert list(out["stages_ms"]) == list(out["calls"]) == list(stages.STAGES)
    assert len(stages.STAGES) == 5
    assert all(calls > 0 for calls in out["calls"].values()), out["calls"]
    assert out["calls_sum"] == sum(out["calls"].values())
    assert out["graded_levels"] > 0
    assert out["graded_calls_per_level"] == round(out["calls"]["graded"] / out["graded_levels"], 1)

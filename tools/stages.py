"""Per-stage times of one seeded `corpus` block, in-process, as JSON.

    python3 tools/stages.py [--seed 1] [--rounds 15] [--calls]

The block is the first block of the benchmark's `corpus` workload
(perfbench/workloads.setup_corpus at the seed): 40 Kummer crystals,
each graded and checked on [-64, 64).  Each round runs every crystal
through the stages of one benchmark op, timing each stage on its own:

  build    build_kummer_crystal and standard_vfilt;
  graded   graded() on the window;
  sweep    the spanning sweep the checkers share;
  A1-A4    check_specializing on that report and sweep;
  SS1-SS3  check_super on the same.

A stage's time is its sum over the block; the JSON gives each stage's
minimum over the rounds, in ms (round-to-round spread on a shared host
is large, so compare minima), and the number of levels the block grades.
With --calls, one more round runs under cProfile, one profiler per
stage, and the JSON adds each stage's number of function calls over the
block (the stage's own calls, without the profiler's) and the graded
stage's calls per graded level; the counts do not depend on the
machine.  fcrystal is imported from src/ next to this file; the
standard library is all it needs.  Every crystal must pass all seven
checks, or the script exits 1.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fcrystal  # noqa: E402
import fcrystal.samples  # noqa: E402,F401  (setup_corpus reads fc.samples)
from fcrystal.vfilt import _sweep  # noqa: E402
from workloads import CrystalOp, setup_corpus  # noqa: E402

STAGES = ("build", "graded", "sweep", "A1-A4", "SS1-SS3")
NO_PROFILE = nullcontext()


def run_op(op, window):
    """One benchmark op, paused after each stage; the graded stage yields
    its number of levels and the last stage whether all seven checks
    passed."""
    spec = fcrystal.standard_vfilt(fcrystal.build_kummer_crystal(op.rep, op.ctx))
    yield
    report = fcrystal.graded(spec, window)
    yield len(report.levels)
    sweep = _sweep(spec, window)
    yield
    spec_checks = fcrystal.check_specializing(spec, window, None, report, sweep)
    yield
    super_checks = fcrystal.check_super(spec, window, report, sweep)
    yield spec_checks.all_pass and super_checks.all_pass


def one_round(block, window, profiles=None):
    """Each stage's time over the block, in seconds, the number of graded
    levels, and False if a check failed.  profiles, when given, maps each
    stage to the cProfile.Profile that runs during it."""
    profiles = profiles or {}
    total = dict.fromkeys(STAGES, 0.0)
    levels = 0
    ok = True
    for op in block:
        steps = run_op(op, window)
        for stage in STAGES:
            t0 = perf_counter()
            with profiles.get(stage, NO_PROFILE):
                got = next(steps)
            total[stage] += perf_counter() - t0
            if stage == "graded":
                levels += got
        ok = ok and got  # the last stage's: whether the checks passed
    return total, levels, ok


def stage_calls(profile):
    """The function calls a profiled stage made: every call cProfile
    recorded but the op's own resumptions and the profiler's exit.  The
    raw entries are read, one per code object: pstats keys them on
    (file, line, name), under which every dataclass __init__ is one
    entry that keeps only one class's count."""
    calls = 0
    for entry in profile.getstats():
        code = entry.code  # a code object, or a builtin's name
        if isinstance(code, str):
            skip = "_lsprof.Profiler" in code
        else:
            skip = code is run_op.__code__ or code.co_filename == cProfile.__file__
        if not skip:
            calls += entry.callcount
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--calls", action="store_true", help="add per-stage call counts from one profiled round")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    block = setup_corpus(fcrystal, args.seed).blocks[0]
    window = CrystalOp.WINDOW
    best = dict.fromkeys(STAGES, float("inf"))
    all_ok = True
    for _ in range(args.rounds):
        total, levels, ok = one_round(block, window)
        all_ok = all_ok and ok
        for stage in STAGES:
            best[stage] = min(best[stage], total[stage])
    out = {
        "workload": "corpus",
        "seed": args.seed,
        "crystals": len(block),
        "window": list(window),
        "rounds": args.rounds,
        "python": platform.python_version(),
        "all_pass": all_ok,
        "graded_levels": levels,
        "stages_ms": {stage: round(best[stage] * 1e3, 1) for stage in STAGES},
        "sum_of_minima_ms": round(sum(best.values()) * 1e3, 1),
    }
    if args.calls:
        profiles = {stage: cProfile.Profile() for stage in STAGES}
        _, _, ok = one_round(block, window, profiles)
        out["all_pass"] = all_ok = all_ok and ok
        out["calls"] = {stage: stage_calls(profiles[stage]) for stage in STAGES}
        out["calls_sum"] = sum(out["calls"].values())
        out["graded_calls_per_level"] = round(out["calls"]["graded"] / levels, 1)
    print(json.dumps(out, indent=2))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

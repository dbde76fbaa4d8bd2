"""Per-stage times of one seeded benchmark block, in-process, as JSON.

    python3 tools/stages.py [--workload corpus|jobs] [--seed 1] [--rounds 15] [--calls]

With --workload corpus (the default) the block is the first block of the
benchmark's `corpus` workload (perfbench/workloads.setup_corpus at the
seed): 40 Kummer crystals, each graded and checked on [-64, 64).  Each
round runs every crystal through the stages of one benchmark op, timing
each stage on its own:

  build    build_kummer_crystal and standard_vfilt;
  graded   graded() on the window;
  sweep    the spanning sweep the checkers share;
  A1-A4    check_specializing on that report and sweep;
  SS1-SS3  check_super on the same.

With --workload jobs the block is the pole `check` and `vfilt` ops of
the first block of the `jobs` workload (setup_jobs at the seed): the
split, mc and depth-grading extensions over F_5 and F_7 on [-16, 16).
Each op is the CLI job cut at the same stages, with two more:

  build              argv parsed as cli.main parses it, the extension
                     and its filtration (cli._make_objects);
  shifted_exactness  the exactness report of a `check` job;
  report             the result dict and its JSON report (cli._emit).

A stage's time is its sum over the block; the JSON gives each stage's
minimum over the rounds, in ms (round-to-round spread on a shared host
is large, so compare minima), and the number of levels the block grades.
With --calls, one more round runs under cProfile, one profiler per
stage, and the JSON adds each stage's number of function calls over the
block (the stage's own calls, without the profiler's) and the graded
stage's calls per graded level; the counts do not depend on the
machine.  fcrystal is imported from src/ next to this file; the
standard library is all it needs.  Every crystal must pass all seven
checks, and every job must print the bytes and exit code that cli.main
gives it, or the script exits 1.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import platform
import sys
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fcrystal  # noqa: E402
import fcrystal.samples  # noqa: E402,F401  (setup_corpus reads fc.samples)
from fcrystal import cli  # noqa: E402
from fcrystal.vfilt import EXACTNESS_RULES, _sweep  # noqa: E402
from workloads import POLE_WINDOW, CrystalOp, setup_corpus, setup_jobs  # noqa: E402

STAGES = ("build", "graded", "sweep", "A1-A4", "SS1-SS3")
JOB_STAGES = STAGES + ("shifted_exactness", "report")
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


def job_args(argv):
    """argv parsed as cli.main parses it: a flag of the command left out
    takes its default."""
    args = cli._parser().parse_args(argv)
    for flag, settings in cli._FLAGS.items():
        if getattr(args, flag[2:], 0) is None:
            setattr(args, flag[2:], settings.get("default"))
    return args


def run_job(op, window):
    """One pole `check` or `vfilt` job on its window (the one its argv
    names), cut as run_op cuts a crystal op; the last stage yields
    (exit code, stdout) as cli.main would give them."""
    args = job_args(op.argv)
    _, spec, meta = cli._make_objects(args)  # no pole job takes --shift
    yield
    report = fcrystal.graded(spec, window)
    yield len(report.levels)
    sweep = _sweep(spec, window)
    yield
    spec_checks = fcrystal.check_specializing(spec, window, args.depth, report, sweep)
    yield
    checks = spec_checks.merge(fcrystal.check_super(spec, window, report, sweep))
    yield
    check_job = args.command == "check"
    exactness = fcrystal.shifted_exactness(spec, window) if check_job and spec.rule in EXACTNESS_RULES else None
    yield
    result = {"kind": meta["kind"], "filtration": spec.to_json()}
    if not check_job:
        result["jumps"] = [fcrystal.level_json(n, spec.den) for n in spec.ijumps(window)]
        result["graded"] = report.to_json(spec)
    result.update(checks=checks.to_json(), all_pass=checks.all_pass)
    if exactness is not None:
        result["exactness"] = exactness
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli._emit(args, args.command, result, 0 if checks.all_pass else 1)
    yield code, out.getvalue()


def one_round(block, window, profiles=None, stages=STAGES, run=run_op):
    """Each stage's time over the block, in seconds, the number of graded
    levels, and each op's last yield: for a crystal whether its checks
    passed, for a job its (exit code, stdout).  profiles, when given,
    maps each stage to the cProfile.Profile that runs during it."""
    profiles = profiles or {}
    total = dict.fromkeys(stages, 0.0)
    levels = 0
    lasts = []
    for op in block:
        steps = run(op, window)
        for stage in stages:
            t0 = perf_counter()
            with profiles.get(stage, NO_PROFILE):
                got = next(steps)
            total[stage] += perf_counter() - t0
            if stage == "graded":
                levels += got
        lasts.append(got)
    return total, levels, lasts


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
            skip = code in (run_op.__code__, run_job.__code__) or code.co_filename == cProfile.__file__
        if not skip:
            calls += entry.callcount
    return calls


def pole_jobs(seed):
    """The pole `check` and `vfilt` ops of the first `jobs` block."""
    block = setup_jobs(fcrystal, seed).blocks[0]
    return [op for op in block if op.name.startswith("pole_") and op.name.endswith(("_check", "_vfilt"))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("corpus", "jobs"), default="corpus")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--calls", action="store_true", help="add per-stage call counts from one profiled round")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.workload == "corpus":
        block = setup_corpus(fcrystal, args.seed).blocks[0]
        window, stages, run = CrystalOp.WINDOW, STAGES, run_op
        expected = [True] * len(block)  # every crystal passes its checks
        size, verdict = "crystals", "all_pass"
    else:
        block = pole_jobs(args.seed)
        window, stages, run = (-POLE_WINDOW, POLE_WINDOW), JOB_STAGES, run_job
        expected = [op.run() for op in block]  # cli.main's (exit code, stdout)
        size, verdict = "ops", "reproduced"
    best = dict.fromkeys(stages, float("inf"))
    all_ok = True
    for _ in range(args.rounds):
        total, levels, lasts = one_round(block, window, None, stages, run)
        all_ok = all_ok and lasts == expected
        for stage in stages:
            best[stage] = min(best[stage], total[stage])
    out = {
        "workload": args.workload,
        "seed": args.seed,
        size: len(block),
        "window": list(window),
        "rounds": args.rounds,
        "python": platform.python_version(),
        verdict: all_ok,
        "graded_levels": levels,
        "stages_ms": {stage: round(best[stage] * 1e3, 1) for stage in stages},
        "sum_of_minima_ms": round(sum(best.values()) * 1e3, 1),
    }
    if args.calls:
        profiles = {stage: cProfile.Profile() for stage in stages}
        _, _, lasts = one_round(block, window, profiles, stages, run)
        out[verdict] = all_ok = all_ok and lasts == expected
        out["calls"] = {stage: stage_calls(profiles[stage]) for stage in stages}
        out["calls_sum"] = sum(out["calls"].values())
        out["graded_calls_per_level"] = round(out["calls"]["graded"] / levels, 1)
    print(json.dumps(out, indent=2))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

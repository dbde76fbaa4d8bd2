"""Per-stage times of one seeded benchmark block, in-process, as JSON.

    python3 tools/stages.py [--workload corpus|jobs|heavy] [--seed 1] [--rounds 15] [--calls]

The tool runs the benchmark's own ops.  A stage is a set of cut points,
the library bindings in CUTS, wrapped while the tool runs so that a call
adds its time to the stage (a cut point called inside another counts as
the outer one's) and restored on exit.  Ops look the library up through
module objects at call time (perfbench/workloads.py), and check_axioms
calls _sweep and both checkers as vfilt globals, so the wrappers see it.

--workload corpus (the default) runs the first block of the benchmark's
`corpus` workload at the seed: 40 Kummer crystals graded and checked on
[-64, 64), cut at the first five stages.  --workload jobs runs the pole
`check` and `vfilt` ops of the first `jobs` block (cli.main on split, mc
and depth-grading extensions over F_5 and F_7 on [-16, 16)), cut at all
seven.  --workload heavy runs the whole first `heavy` block: its 8 CLI
ops (recover and vfilt on regular and seeded low-rank reps over F_64,
F_125 and F_49, each with its own window, so "window" reads null), cut
at all seven.  Each round times op.run() for every op and nothing else.  A
stage's time is its sum over the block; other_ms is the ops' time
outside every stage (for a job: argv parsing, the result dict).  The
JSON gives each minimum over the rounds, in ms (round-to-round spread on
a shared host is large, so compare minima).  Untimed, each result goes
through op.check, the benchmark's exact check: `all_pass` (corpus) and
`reproduced` (jobs) hold when every op passed it in every round with the
same output digest each time; else the script exits 1.  --calls adds a
round with one cProfile profiler per stage, enabled inside its calls,
and prints each stage's function calls over the block and the graded
stage's calls per level; the counts do not depend on the machine.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fcrystal  # noqa: E402
import fcrystal.samples  # noqa: E402,F401  (setup_corpus reads fc.samples)
from fcrystal import cli, vfilt  # noqa: E402
from fcrystal.vfilt import AxiomReport, GradedReport  # noqa: E402
from workloads import POLE_WINDOW, setup_corpus, setup_heavy, setup_jobs  # noqa: E402

# stage -> the (owner, attribute) bindings it times
CUTS = {
    "build": ((fcrystal, "build_kummer_crystal"), (fcrystal, "standard_vfilt"), (cli, "_make_objects")),
    "graded": ((fcrystal, "graded"), (cli, "graded"), (vfilt, "graded")),
    "sweep": ((vfilt, "_sweep"),),
    "A1-A4": ((vfilt, "check_specializing"),),
    "SS1-SS3": ((vfilt, "check_super"),),
    "shifted_exactness": ((cli, "shifted_exactness"),),
    "report": ((cli, "_emit"), (GradedReport, "to_json"), (AxiomReport, "to_json")),
}
JOB_STAGES = tuple(CUTS)
STAGES = JOB_STAGES[:5]
NO_PROFILE = nullcontext()


@contextmanager
def cut_points(stages):
    """Every cut point of the stages wrapped, and restored on exit; yields the
    tally: each stage's seconds, the levels graded, each stage's profiler."""
    tally = SimpleNamespace(seconds=dict.fromkeys(stages, 0.0), levels=0, profiles={}, running=False)

    def wrap(stage, fn):
        def timed(*args, **kwargs):
            if tally.running:  # inside another cut point's call
                return fn(*args, **kwargs)
            tally.running, t0 = True, perf_counter()
            try:
                with tally.profiles.get(stage, NO_PROFILE):
                    out = fn(*args, **kwargs)
            finally:
                tally.seconds[stage] += perf_counter() - t0
                tally.running = False
            if stage == "graded":
                tally.levels += len(out.levels)
            return out
        return timed

    saved = []
    try:
        for stage in stages:
            for owner, name in CUTS[stage]:
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrap(stage, saved[-1][2]))
        yield tally
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def one_round(block, tally, digests):
    """Run each op once, timing only op.run(); return the seconds outside
    every stage and whether each op passed its check with its first digest."""
    tally.seconds = dict.fromkeys(tally.seconds, 0.0)
    tally.levels = 0
    ran, ok = 0.0, True
    for i, op in enumerate(block):
        t0 = perf_counter()
        result = op.run()
        ran += perf_counter() - t0
        passed, digest = op.check(result)
        ok = ok and passed and digests.setdefault(i, digest) == digest
    return ran - sum(tally.seconds.values()), ok


def stage_calls(profile):
    """The calls cProfile recorded in a stage, less the tool's and the
    profiler's own.  Raw entries, one per code object: pstats keys on (file,
    line, name), which merges every dataclass __init__ into one count."""
    own = (__file__, cProfile.__file__)
    return sum(
        entry.callcount
        for entry in profile.getstats()  # entry.code: a code object, or a builtin's name
        if not ("_lsprof.Profiler" in entry.code if isinstance(entry.code, str) else entry.code.co_filename in own)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("corpus", "jobs", "heavy"), default="corpus")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--calls", action="store_true", help="add per-stage call counts from one profiled round")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.workload == "corpus":
        block = setup_corpus(fcrystal, args.seed).blocks[0]
        window, stages, size, verdict = block[0].WINDOW, STAGES, "crystals", "all_pass"
    elif args.workload == "jobs":
        block = [
            op for op in setup_jobs(fcrystal, args.seed).blocks[0]
            if op.name.startswith("pole_") and op.name.endswith(("_check", "_vfilt"))
        ]
        window, stages, size, verdict = (-POLE_WINDOW, POLE_WINDOW), JOB_STAGES, "ops", "reproduced"
    else:
        block = setup_heavy(fcrystal, args.seed).blocks[0]
        window, stages, size, verdict = None, JOB_STAGES, "ops", "reproduced"
    best = dict.fromkeys(stages + ("other",), float("inf"))
    digests, all_ok = {}, True
    with cut_points(stages) as tally:
        for _ in range(args.rounds):
            other, ok = one_round(block, tally, digests)
            all_ok = all_ok and ok
            for stage, seconds in [*tally.seconds.items(), ("other", other)]:
                best[stage] = min(best[stage], seconds)
        levels = tally.levels
        if args.calls:
            tally.profiles = {stage: cProfile.Profile() for stage in stages}
            all_ok = one_round(block, tally, digests)[1] and all_ok
    out = {
        "workload": args.workload,
        "seed": args.seed,
        size: len(block),
        "window": window and list(window),
        "rounds": args.rounds,
        "python": platform.python_version(),
        verdict: all_ok,
        "graded_levels": levels,
        "stages_ms": {stage: round(best[stage] * 1e3, 1) for stage in stages},
        "sum_of_minima_ms": round(sum(best[stage] for stage in stages) * 1e3, 1),
        "other_ms": round(best["other"] * 1e3, 1),
    }
    if args.calls:
        out["calls"] = {stage: stage_calls(tally.profiles[stage]) for stage in stages}
        out["calls_sum"] = sum(out["calls"].values())
        out["graded_calls_per_level"] = round(out["calls"]["graded"] / levels, 1)
    print(json.dumps(out, indent=2))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

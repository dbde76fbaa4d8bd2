"""fcrystal benchmark: one workload, one seed, one caller at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else.  The loop is closed with a single caller:
each op starts when the previous one has been checked.  Whole blocks of
ops run until ``--seconds`` have passed, so every run of a workload does
the same mix of work.

``--trace 0`` prints the end-to-end metrics.  It runs ``WORKERS`` worker
processes of this script one after another, each for a share of
``--seconds``; only one of them runs at any time.  Set-up (a fresh import
of the library, input generation and cache warm-up) is repeated at least
``SETUP_MIN_REPEATS`` times and for ``SETUP_MIN_SECONDS`` across them,
and its median reported.  All its times are reference times (see
``speed.py``): wall time rescaled to a fixed machine speed, so that a
slow phase of the shared host does not read as a slower program.  The
raw wall-clock figures are in the ``detail`` line.

``--trace 1`` prints the per-layer metrics of the first block, in this
process: it runs the block untraced, then again under the tracer, and
requires both passes to produce identical output digests.  Counts repeat
exactly for a seed.

Lines before the last one are informational JSON (the stamp and details);
the last line is the result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import namedtuple
from pathlib import Path
from time import perf_counter

from speed import SpeedMeter
from tracer import Tracer
from workloads import SETUPS, sha

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN_REPEATS = 3  # set-up runs at least this often,
SETUP_MIN_SECONDS = 1.0  # and until it has taken this long in all
WORKERS = 3  # processes that share an untraced run, one after another
SUBMODULES = ("cli", "crystal", "errors", "field", "functors", "linalg", "samples", "series", "vfilt")

# start and end are marks: (perf_counter(), time spent sampling speed)
Record = namedtuple("Record", "name key start end ok digest")
# an untraced op's reference and wall seconds
Timed = namedtuple("Timed", "name key reference wall ok digest")


def plain_mark():
    return perf_counter(), 0.0


class Library:
    """A freshly imported fcrystal package plus its submodules."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [n for n in sys.modules if n == "fcrystal" or n.startswith("fcrystal.")]:
            del sys.modules[name]
        self.package = importlib.import_module("fcrystal")
        origin = Path(self.package.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"fcrystal imported from {origin}, not from {SRC}")
        self.modules = {"fcrystal": self.package}
        for name in SUBMODULES:
            self.modules[name] = importlib.import_module(f"fcrystal.{name}")

    def __getattr__(self, name):
        # ops call the library through here at call time, so a tracer
        # installed later is seen; submodules first, then the package
        modules = self.__dict__["modules"]
        if name in modules:
            return modules[name]
        return getattr(modules["fcrystal"], name)


def run_block(block, seen, records, mark, sizes=None):
    """Run one block of ops, appending a Record for each."""
    for op in block:
        try:
            start = mark()
            result = op.run()
            end = mark()
            ok, digest = op.check(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            now = mark()
            records.append(Record(op.name, op.key, now, now, False, None))
            continue
        first = seen.setdefault(op.key, digest)
        if first != digest:
            print(f"output of {op.key!r} changed between repeats", file=sys.stderr)
            ok = False
        if not ok:
            print(f"check failed: {op.key!r}", file=sys.stderr)
        if sizes is not None and hasattr(op, "size"):
            sizes.append(op.size(result))
        records.append(Record(op.name, op.key, start, end, ok, digest))


def commit_of(root: Path) -> str:
    """HEAD of a git checkout, read without running git; 'none' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over the library's sources: names the code outside a git checkout."""
    return sha("".join(sha(path.read_bytes()) for path in sorted((SRC / "fcrystal").glob("*.py"))))


def stamp(args, tracing_overhead_s) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_of(ROOT),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tracing_overhead_s": tracing_overhead_s,
    }


def medians(records, by: str, field: str) -> dict:
    """Median of one timing field over the passing repeats, per op key or name."""
    times = {}
    for r in records:
        if r.ok:
            times.setdefault(getattr(r, by), []).append(getattr(r, field))
    return {k: statistics.median(v) for k, v in sorted(times.items())}


def measure_worker(args) -> dict:
    """One worker's share of an untraced run, as a JSON-ready dict.

    Sets up until its share of the set-ups (``--worker N``) and of
    SETUP_MIN_SECONDS have passed, then runs whole blocks for --seconds,
    all under a SpeedMeter; each op's time is reported as reference and as
    wall time.
    """
    meter = SpeedMeter()
    with meter:
        setups = []
        while len(setups) < args.setups or meter.wall(setups[0][0], setups[-1][1]) < SETUP_MIN_SECONDS / WORKERS:
            start = meter.mark()
            lib = Library()
            workload = SETUPS[args.workload](lib, args.seed)
            setups.append((start, meter.mark()))

        seen, records = {}, []
        start = perf_counter()
        blocks = 0
        while blocks == 0 or perf_counter() - start < args.seconds:
            run_block(workload.blocks[blocks % len(workload.blocks)], seen, records, meter.mark)
            blocks += 1
        wall = perf_counter() - start
    return {
        "ops": [
            Timed(r.name, r.key, meter.reference(r.start, r.end), meter.wall(r.start, r.end), r.ok, r.digest)
            for r in records
        ],
        "setups": [(meter.reference(a, b), meter.wall(a, b)) for a, b in setups],
        "blocks": blocks,
        "wall_s": wall,
        "inputs_digest": workload.inputs_digest,
        "kernel_median_s": statistics.median(meter.durations),
        "speed_samples": len(meter.durations),
        "sampling_share": meter.spent / (perf_counter() - setups[0][0][0]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(args):
    """Untraced run: WORKERS processes in turn, each measuring --seconds / WORKERS.

    An op's speed differs from process to process by up to a tenth, beyond
    what the SpeedMeter sees, and some of it is fixed for the process's
    life; spreading a run over several processes averages that out.  Every
    time is a reference time.  Each op repeats several times in a run and
    counts with its median over all workers.
    """
    shares = []
    for _ in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
               "--worker", str(-(-SETUP_MIN_REPEATS // WORKERS))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        share = json.loads(proc.stdout)
        share["ops"] = [Timed(*op) for op in share["ops"]]
        shares.append(share)

    records = [op for share in shares for op in share["ops"]]
    digests = {}
    for i, r in enumerate(records):
        if r.ok and digests.setdefault(r.key, r.digest) != r.digest:
            print(f"output of {r.key!r} differs between workers", file=sys.stderr)
            records[i] = r._replace(ok=False)
    inputs = {share["inputs_digest"] for share in shares}
    if len(inputs) != 1:
        raise RuntimeError("workers generated different inputs from one seed")

    ref = medians(records, "key", "reference")
    raw = medians(records, "key", "wall")
    setups = [t for share in shares for t in share["setups"]]
    setup_times = [ref_s for ref_s, _ in setups]
    failed = sum(1 for r in records if not r.ok)
    times = [r.reference for r in records if r.ok]
    detail = {
        "ops": len(records),
        "ops_failed": failed,
        "ops_failed_ratio": failed / len(records),
        "distinct_ops": len(ref),
        "workers": WORKERS,
        "blocks": sum(share["blocks"] for share in shares),
        "wall_s": sum(share["wall_s"] for share in shares),
        "busy_s": sum(times),
        "setup_runs_s": setup_times,
        "inputs_digest": inputs.pop(),
        "outputs_digest": _outputs_digest(records),
        "op_median_s": medians(records, "name", "reference"),
        "op_samples": len(times),
        "kernel_median_s": [share["kernel_median_s"] for share in shares],
        "speed_samples": sum(share["speed_samples"] for share in shares),
        "sampling_share": max(share["sampling_share"] for share in shares),
        "raw_ops_per_s": len(raw) / sum(raw.values()),
        "raw_op_p50_ms": 1000.0 * statistics.median(raw.values()),
        "raw_setup_s": statistics.median(raw_s for _, raw_s in setups),
        "raw_op_median_s": medians(records, "name", "wall"),
    }
    if len(times) >= 100:  # ten samples beyond the 90th percentile
        detail["op_p90_ms"] = 1000.0 * statistics.quantiles(times, n=10)[-1]
    metrics = {
        "ops_per_s": (len(ref) / sum(ref.values()), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(ref.values()), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (max(share["peak_rss_mib"] for share in shares), "MiB"),
    }
    return records, metrics, detail


def _outputs_digest(records) -> str:
    return sha("".join(sorted({r.digest for r in records if r.digest})))


def measure_traced(args):
    """Traced run of the first block, after an untraced pass of the same block.

    A traced op whose output digest differs from its untraced run fails.
    """
    lib = Library()
    tracer = Tracer(lib.modules)
    tracer.install()
    try:
        workload = SETUPS[args.workload](lib, args.seed)
    finally:
        tracer.uninstall()
    make_field_setup_s = tracer.span("field.make_field")[1]
    tracer.reset()
    block = workload.blocks[0]

    plain_seen, plain = {}, []
    t0 = perf_counter()
    run_block(block, plain_seen, plain, plain_mark)
    plain_wall = perf_counter() - t0

    traced_seen, traced, sizes = {}, [], []
    tracer.install()
    try:
        t0 = perf_counter()
        run_block(block, traced_seen, traced, plain_mark, sizes)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()

    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced)) if a.digest != b.digest]
    for i in mismatched:
        print(f"traced output differs: {traced[i].key!r}", file=sys.stderr)
        traced[i] = traced[i]._replace(ok=False)
    records = plain + traced
    op_time = sum(r.end[0] - r.start[0] for r in traced)
    metrics = layer_metrics(tracer, make_field_setup_s, op_time, traced_wall - plain_wall, sizes)
    detail = {
        "ops": len(block),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "digest_mismatches": len(mismatched),
        "inputs_digest": workload.inputs_digest,
        "outputs_digest": _outputs_digest(plain),
    }
    return records, metrics, detail


def layer_metrics(tr, make_field_setup_s, op_time, overhead_s, sizes):
    """Per-layer metrics named in BENCHMARK.json, from one traced block."""
    c = tr.counts
    m = {}

    def calls(name, span):
        m[name] = (tr.span(span)[0], "count")

    def self_s(name, *spans):
        m[name] = (sum(tr.span(s)[2] for s in spans), "s")

    mul = tr.leaf("field.FieldCtx.mul")
    m["field.mul_calls"] = (mul[0], "count")
    m["field.mul_s"] = (mul[1], "s")
    for op in ("pow", "frob", "inv"):
        m[f"field.{op}_calls"] = (tr.leaf(f"field.FieldCtx.{op}")[0], "count")
    calls("field.saturate_calls", "field.saturate_fixed_points")
    self_s("field.saturate_self_s", "field.saturate_fixed_points")
    tried = c["field.tower_degrees_tried"]
    m["field.tower_degrees_tried"] = (tried, "count")
    m["field.saturation_hit_ratio"] = (
        tr.span("field.saturate_fixed_points")[0] / tried if tried else 0.0,
        "ratio",
    )
    m["field.make_field_s"] = (make_field_setup_s + tr.span("field.make_field")[1], "s")

    calls("linalg.rref_calls", "linalg.rref")
    self_s("linalg.rref_self_s", "linalg.rref")
    m["linalg.rref_cells"] = (c["linalg.rref_cells"], "count")
    calls("linalg.kernel_calls", "linalg.kernel")
    calls("linalg.express_calls", "linalg.express")
    calls("linalg.is_invertible_calls", "linalg.is_invertible")
    self_s("linalg.is_invertible_self_s", "linalg.is_invertible")
    calls("linalg.rref_int_calls", "linalg.rref_int")
    self_s("linalg.rref_int_self_s", "linalg.rref_int")
    m["linalg.rref_int_cells"] = (c["linalg.rref_int_cells"], "count")
    calls("linalg.kernel_int_calls", "linalg.kernel_int")

    m["series.laurent_created"] = (tr.leaf("series.LaurentSeries.__init__")[0], "count")
    calls("series.frob_calls", "series.LaurentSeries.frob")
    self_s("series.frob_self_s", "series.LaurentSeries.frob")
    calls("series.sub_calls", "series.LaurentSeries.sub")
    calls("series.parse_calls", "series.parse_series")

    calls("crystal.weight_decompose_calls", "crystal.weight_decompose")
    self_s("crystal.weight_decompose_self_s", "crystal.weight_decompose")
    k_tried, k_hit = c["crystal.weight_kernels_tried"], c["crystal.weight_kernels_hit"]
    m["crystal.weight_kernels_tried"] = (k_tried, "count")
    m["crystal.weight_kernels_hit"] = (k_hit, "count")
    m["crystal.weight_kernel_hit_ratio"] = (k_hit / k_tried if k_tried else 0.0, "ratio")
    self_s("crystal.frobenius_on_weights_self_s", "crystal.frobenius_on_weights")
    calls("crystal.ext_apply_F_calls", "crystal.ExtensionModule.apply_F")

    calls("vfilt.graded_calls", "vfilt.graded")
    self_s("vfilt.graded_self_s", "vfilt.graded")
    m["vfilt.graded_levels"] = (c["vfilt.graded_levels"], "count")
    calls("vfilt.graded_coords_calls", "vfilt.FiltrationSpec.graded_coords")
    self_s("vfilt.graded_coords_self_s", "vfilt.FiltrationSpec.graded_coords")
    self_s("vfilt.check_specializing_self_s", "vfilt.check_specializing")
    self_s("vfilt.check_super_self_s", "vfilt.check_super")
    m["vfilt.sections_checked"] = (c["vfilt.sections_checked"], "count")
    self_s("vfilt.compare_self_s", "vfilt.compare")
    self_s("vfilt.shifted_exactness_self_s", "vfilt.shifted_exactness")

    calls("functors.functor_G_calls", "functors.functor_G")
    self_s("functors.functor_G_self_s", "functors.functor_G")
    self_s("functors.functor_F_self_s", "functors.functor_F")
    self_s("functors.recover_rep_self_s", "functors.recover_rep")
    self_s("functors.rep_isomorphic_self_s", "functors.rep_isomorphic")
    self_s("functors.nearby_self_s", "functors.nearby_unipotent", "functors.nearby_full")
    self_s("functors.vanishing_self_s", "functors.vanishing")
    self_s("functors.gluing_self_s", "functors.gluing_data")

    m["cli.main_s"] = (tr.span("cli.main")[1], "s")
    m["cli.self_s"] = (tr.layer_self_s("cli"), "s")
    m["cli.report_bytes"] = (sum(sizes), "B")

    for layer in ("field", "linalg", "series", "crystal", "vfilt", "functors"):
        m[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    m["trace.coverage"] = (tr.covered_s / op_time if op_time else 0.0, "ratio")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run as one of measure()'s workers, with this many set-ups
    ap.add_argument("--worker", dest="setups", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "fcrystal" / "__init__.py").is_file():
        print(f"error: no fcrystal sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in SETUPS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(SETUPS)}", file=sys.stderr)
        return 2

    if args.setups is not None:
        print(json.dumps(measure_worker(args)))
        return 0
    records, metrics, detail = (measure_traced if args.trace else measure)(args)
    overhead = metrics["trace.overhead_s"][0] if args.trace else None
    failed = sum(1 for r in records if not r.ok)
    print(json.dumps({"stamp": stamp(args, overhead)}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's tracer, counters and seeding.

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default) it runs ``run.py --trace 1``
twice with one seed and once with another, and asserts that

* every op passed its exact check, and the traced pass produced the same
  output digests as the untraced pass;
* every count repeats exactly between the two runs with one seed;
* the other seed generated different inputs, and its checks pass too;
* each per-layer metric is nonzero on the workload ``SHOULD_MOVE`` names
  for it;
* on ``heavy``: two ``graded`` calls per ``vfilt`` job (``cmd_vfilt`` grades,
  then ``check_axioms`` grades again) and three ``weight_decompose`` calls
  per ``recover`` job, which only hold if name-imported bindings are
  patched too.

Before that it checks in-process that installing the tracer leaves no
module binding of a public layer function unwrapped.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_A, SEED_B = 11, 12

# per-layer metric -> workloads it should move (and so be nonzero on)
SHOULD_MOVE = {
    "field.mul_calls": ("corpus", "heavy"),
    "field.mul_s": ("corpus", "heavy"),
    "field.pow_calls": ("corpus", "heavy"),
    "field.frob_calls": ("corpus", "heavy"),
    "field.inv_calls": ("corpus", "heavy"),
    "field.saturate_calls": ("tower",),
    "field.saturate_self_s": ("tower",),
    "field.tower_degrees_tried": ("tower",),
    "field.saturation_hit_ratio": ("tower",),
    "field.make_field_s": ("tower",),
    "linalg.rref_calls": ("heavy",),
    "linalg.rref_self_s": ("heavy",),
    "linalg.rref_cells": ("heavy",),
    "linalg.kernel_calls": ("heavy",),
    "linalg.express_calls": ("heavy",),
    "linalg.is_invertible_calls": ("corpus",),
    "linalg.is_invertible_self_s": ("corpus",),
    "linalg.rref_int_calls": ("tower",),
    "linalg.rref_int_self_s": ("tower",),
    "linalg.rref_int_cells": ("tower",),
    "linalg.kernel_int_calls": ("tower",),
    "series.laurent_created": ("corpus",),
    "series.frob_calls": ("corpus",),
    "series.frob_self_s": ("corpus",),
    "series.sub_calls": ("corpus",),
    "series.parse_calls": ("jobs",),
    "crystal.weight_decompose_calls": ("heavy",),
    "crystal.weight_decompose_self_s": ("heavy",),
    "crystal.weight_kernels_tried": ("heavy",),
    "crystal.weight_kernels_hit": ("heavy",),
    "crystal.weight_kernel_hit_ratio": ("heavy",),
    "crystal.frobenius_on_weights_self_s": ("heavy",),
    "crystal.ext_apply_F_calls": ("jobs",),
    "vfilt.graded_calls": ("corpus", "heavy"),
    "vfilt.graded_self_s": ("corpus", "heavy"),
    "vfilt.graded_levels": ("corpus", "heavy"),
    "vfilt.graded_coords_calls": ("corpus", "heavy"),
    "vfilt.graded_coords_self_s": ("corpus", "heavy"),
    "vfilt.check_specializing_self_s": ("corpus",),
    "vfilt.check_super_self_s": ("corpus",),
    "vfilt.sections_checked": ("corpus",),
    "vfilt.compare_self_s": ("jobs",),
    "vfilt.shifted_exactness_self_s": ("jobs",),
    "functors.functor_G_calls": ("tower",),
    "functors.functor_G_self_s": ("tower",),
    "functors.functor_F_self_s": ("tower",),
    "functors.recover_rep_self_s": ("heavy",),
    "functors.rep_isomorphic_self_s": ("heavy",),
    "functors.nearby_self_s": ("jobs",),
    "functors.vanishing_self_s": ("jobs",),
    "functors.gluing_self_s": ("jobs",),
    "cli.main_s": ("jobs", "heavy"),
    "cli.self_s": ("jobs", "heavy"),
    "cli.report_bytes": ("jobs", "heavy"),
    "field.self_s": ("tower",),
    "linalg.self_s": ("corpus", "heavy", "tower"),
    "series.self_s": ("corpus", "heavy"),
    "crystal.self_s": ("heavy",),
    "vfilt.self_s": ("corpus", "heavy", "jobs"),
    "functors.self_s": ("tower",),
    "trace.coverage": ("corpus", "heavy", "tower", "jobs"),
}

TIME_UNITS = ("s", "ratio")  # machine-dependent, or derived from times


def run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    return detail, json.loads(lines[-1])


def counts(result: dict) -> dict:
    """Metrics that must repeat exactly: counts and ratios of counts."""
    out = {}
    for name, m in result["metrics"].items():
        if m["unit"] not in TIME_UNITS or name.endswith("_ratio"):
            out[name] = m["value"]
    return out


def check_wrapping():
    import run as bench
    from tracer import LAYERS, Tracer

    lib = bench.Library()
    public = {}
    for layer in LAYERS:
        mod = lib.modules[layer]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and callable(obj) and not isinstance(obj, type) \
                    and getattr(obj, "__module__", None) == mod.__name__:
                public[id(obj)] = f"{layer}.{attr}"
    tracer = Tracer(lib.modules)
    tracer.install()
    try:
        left = [f"{name}.{attr} is still {public[id(obj)]}"
                for name, mod in lib.modules.items()
                for attr, obj in vars(mod).items() if id(obj) in public]
        field_ctx = lib.modules["field"].FieldCtx
        bare = [m for m in ("mul", "inv", "pow", "frob") if not hasattr(getattr(field_ctx, m), "__wrapped__")]
    finally:
        tracer.uninstall()
    assert not left, left
    assert not bare, f"FieldCtx methods not wrapped: {bare}"
    assert lib.modules["cli"].graded is lib.modules["vfilt"].graded, "uninstall left a wrapper"
    print(f"wrapping: {len(public)} public layer functions, every binding patched")


def selftest(workload: str):
    detail_a, a1 = run(workload, SEED_A)
    _, a2 = run(workload, SEED_A)
    detail_b, b = run(workload, SEED_B)
    for res in (a1, a2, b):
        assert res["correct"] and res["failed"] == 0, (workload, res["attempted"], res["failed"])
    ca1, ca2 = counts(a1), counts(a2)
    diff = {k: (ca1[k], ca2[k]) for k in ca1 if ca1[k] != ca2[k]}
    assert not diff, f"{workload}: counts differ between two runs of one seed: {diff}"
    assert detail_a["inputs_digest"] != detail_b["inputs_digest"], f"{workload}: seed does not reach the inputs"
    zero = [name for name, wls in SHOULD_MOVE.items()
            if workload in wls and not a1["metrics"][name]["value"]]
    assert not zero, f"{workload}: metrics that should move read 0: {zero}"
    missing = set(SHOULD_MOVE) - set(a1["metrics"])
    assert not missing, f"metrics not reported: {missing}"
    if workload == "heavy":
        m = a1["metrics"]
        # 5 vfilt jobs and 3 recover jobs per block
        assert m["vfilt.graded_calls"]["value"] == 2 * 5, m["vfilt.graded_calls"]
        assert m["crystal.weight_decompose_calls"]["value"] == 3 * 3 + 5, m["crystal.weight_decompose_calls"]
    print(f"{workload}: ok ({len(ca1)} counts repeat, {a1['attempted']} ops, "
          f"overhead {a1['metrics']['trace.overhead_s']['value']:.3f} s)")


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) or ["corpus", "jobs", "tower", "heavy"]
    check_wrapping()
    for w in workloads:
        selftest(w)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic batch front door.

One subcommand per pipeline stage; every run prints a single JSON
report on stdout (diagnostics go to stderr) carrying the resolved job
parameters, the result, the tool version, and a sha256 digest of the
canonical serialization.  Identical jobs produce byte-identical
reports: indented JSON with sorted keys, byte for byte what
``json.dumps(indent=2, sort_keys=True)`` prints.  The argument parser
is built once per process, on the first call of ``main``.

Exit codes: 0 all checks pass, 1 check failures, 2 invalid input,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from random import Random

from . import __version__
from .crystal import (
    CyclicRep,
    ExtensionModule,
    build_extension,
    build_kummer_crystal,
    sol_extension,
)
from .errors import BoundExceededError, CapExceededError, InvalidInputError
from .field import DEFAULT_SATURATION_CAP, is_prime, make_field
from .functors import (
    CGObject,
    fg_roundtrip,
    functor_F,
    gf_roundtrip,
    gluing_data,
    naturality_check_F,
    nearby_full,
    nearby_unipotent,
    recover_rep,
    rep_isomorphic,
    sol_crystal,
    vanishing,
)
from .samples import random_object, random_rep, random_rep_morphism
from .series import level_json, parse_series
from .vfilt import (
    EXACTNESS_RULES,
    check_axioms,
    check_specializing,
    compare,
    graded,
    mc_depth_grading,
    mc_vfilt,
    pullback_filtration,
    shifted_exactness,
    shifted_filtration,
    split_vfilt,
    standard_vfilt,
)

_BUILTIN_REPS = ("trivial", "companion", "regular")


def resolve_m(p: int, d: int, m=None) -> int:
    """Smallest m with d | p^m - 1 unless m is forced explicitly."""
    if m is not None:
        if d > 1 and pow(p, m, d) != 1:
            raise InvalidInputError(f"d={d} does not divide p^m-1 for p={p}, m={m}")
        return m
    mm = 1
    while d > 1 and (p**mm - 1) % d:
        mm += 1
        if mm > 64:
            raise InvalidInputError(f"no field of degree <= 64 contains the {d}-th roots of unity")
    return mm


def _read_json(source: str):
    """Parse --rep as a JSON literal or as the path of a JSON file."""
    try:
        text = source if source.strip().startswith("{") else Path(source).read_text()
        return json.loads(text)
    except OSError as err:
        raise InvalidInputError(f"cannot read --rep {source}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"--rep is not valid JSON: {err}") from err


def _key(data, key: str):
    """data[key] for a JSON object; a missing key is invalid input."""
    if not isinstance(data, dict) or key not in data:
        raise InvalidInputError(f"JSON input needs an object with key {key!r}")
    return data[key]


def _rep_from_json(data, p: int) -> CyclicRep:
    """The representation {"d", "mat", optional "p"} of a JSON object:
    d, p and every entry JSON integers, mat a list of lists."""
    d, mat, p = _key(data, "d"), _key(data, "mat"), data.get("p", p)
    for name, value in (("d", d), ("p", p)):
        if type(value) is not int:
            raise InvalidInputError(f"representation {name} must be an integer, not {value!r}")
    if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
        raise InvalidInputError("representation mat must be a list of lists")
    if len(mat) > _RANGE["rank"][1]:
        raise BoundExceededError(f"representation rank={len(mat)} must be <= {_RANGE['rank'][1]}")
    if any(type(x) is not int for row in mat for x in row):
        raise InvalidInputError("representation mat entries must be integers")
    return CyclicRep(d, p, tuple(map(tuple, mat)))


def _field(args, d=None):
    """The job's field, recorded as its m: the prime field or --m for an
    extension (d None), else the smallest holding the d-th roots of unity."""
    ctx = make_field(args.p, (args.m or 1) if d is None else resolve_m(args.p, d, args.m))
    args.resolved_m = ctx.m
    return ctx


def _load_rep(args) -> CyclicRep:
    name = args.rep or "trivial"
    d = args.d
    if name in _BUILTIN_REPS:
        if d is None:
            d = 1 if name == "trivial" else 3
        if name == "trivial":
            return CyclicRep.trivial(d, args.p, args.rank)
        if name == "companion":
            return CyclicRep.companion(d, args.p)
        return CyclicRep.regular(d, args.p)
    data = _read_json(name)
    rep = _rep_from_json(data, args.p)
    if d is not None and rep.d != d:
        raise InvalidInputError(f"--d {d} conflicts with representation d={rep.d}")
    _bound_d(args, rep.d, f"representation d={rep.d}")
    return rep


def _job_echo(args, extra=None) -> dict:
    out = {
        "p": args.p,
        "m": getattr(args, "resolved_m", args.m),
        "d": args.d,
        "rep": args.rep,
        "c": args.c,
        "window": args.window,
        "cap": args.cap,
        "seed": args.seed,
    }
    if extra:
        out.update(extra)
    return {k: v for k, v in out.items() if v is not None}


def _emit(args, command: str, result: dict, code: int, extra_job=None) -> int:
    report = {
        "command": command,
        "job": _job_echo(args, extra_job),
        "result": result,
        "version": __version__,
    }
    canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
    report["digest"] = hashlib.sha256(canon.encode()).hexdigest()
    sys.stdout.write(_pretty(report) + "\n")
    return code


def _pretty(x, ind: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` for str-keyed JSON
    values without floats; ``indent`` sends the stdlib to its pure-Python
    encoder, which is twice as slow as these joins."""
    if isinstance(x, str):
        return _quote(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = ind + "  "
        return "[" + inner + ("," + inner).join([_pretty(v, inner) for v in x]) + ind + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = ind + "  "
        items = [_quote(k) + ": " + _pretty(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _target(args):
    """The job's module: the extension twisted by --c, else the Kummer
    crystal of --rep."""
    if args.c is not None and args.rep is not None:
        raise InvalidInputError("--rep and --c are mutually exclusive")
    if args.c is not None:
        ctx = _field(args)
        return build_extension(ctx, parse_series(ctx, args.c))
    rep = _load_rep(args)
    return build_kummer_crystal(rep, _field(args, rep.d))


def _describe(obj) -> dict:
    if isinstance(obj, ExtensionModule):
        return {"kind": "extension", "n": obj.n, "split": obj.split}
    return {"kind": "crystal", "d": obj.d, "rank": obj.rank}


def _make_objects(args):
    """Resolve the target module and its filtration from the flags."""
    obj = _target(args)
    if not isinstance(obj, ExtensionModule):
        spec = standard_vfilt(obj)
    elif obj.split:
        spec = split_vfilt(obj)
    elif obj.n == 0:
        raise InvalidInputError("a simple pole gives n = 0, which no filtration rule covers")
    elif obj.n % args.p == 0:
        spec = mc_depth_grading(obj)
    else:
        spec = mc_vfilt(obj)
    return obj, spec, _describe(obj)


def _window(args):
    """The level window [-N, N), checked before any object is built: a
    degree-d cover puts up to d * 2N jumps on it.  A --rep literal's d
    meets the same bound when it is read."""
    args.level_window = (-args.window, args.window)
    if args.d is not None:
        _bound_d(args, args.d, f"--d {args.d}")
    return args.level_window


def _bound_d(args, d: int, name: str) -> None:
    """Bound the cover degree d, called name in the message, as --d is
    bounded: by _RANGE["d"], and by d * window once the command has read
    its window."""
    most = _RANGE["d"][1]
    if d > most:
        raise BoundExceededError(f"{name} must be <= {most}")
    if getattr(args, "level_window", None) and d * args.window > _GRID_BOUND:
        raise BoundExceededError(
            f"{name} times --window {args.window} is {d * args.window}, must be <= {_GRID_BOUND}"
        )


def cmd_build(args) -> int:
    obj = _target(args)
    result = _describe(obj)
    result["object"] = obj.to_json()
    return _emit(args, "build", result, 0)


def cmd_vfilt(args) -> int:
    win = _window(args)
    obj, spec, meta = _make_objects(args)
    rep = graded(spec, win)
    checks = check_axioms(spec, win, depth=args.depth, graded_report=rep)
    result = {
        "kind": meta["kind"],
        "filtration": spec.to_json(),
        "jumps": [level_json(r) for r in spec.jumps(win)],
        "graded": rep.to_json(),
        "checks": checks.to_json(),
        "all_pass": checks.all_pass,
    }
    return _emit(args, "vfilt", result, 0 if checks.all_pass else 1)


def cmd_graded(args) -> int:
    win = _window(args)
    obj, spec, meta = _make_objects(args)
    rep = graded(spec, win)
    ok = rep.all_frobenius_invertible() and rep.all_t_invertible()
    result = {"kind": meta["kind"], "graded": rep.to_json(), "all_invertible": ok}
    return _emit(args, "graded", result, 0 if ok else 1)


def cmd_check(args) -> int:
    win = _window(args)
    obj, spec, meta = _make_objects(args)
    if args.shift:
        spec = shifted_filtration(spec, args.shift)
    checks = check_axioms(spec, win, depth=args.depth)
    result = {
        "kind": meta["kind"],
        "filtration": spec.to_json(),
        "checks": checks.to_json(),
        "all_pass": checks.all_pass,
    }
    if spec.rule in EXACTNESS_RULES:
        result["exactness"] = shifted_exactness(spec, win)
    return _emit(args, "check", result, 0 if checks.all_pass else 1)


def cmd_compare(args) -> int:
    if args.e is None and args.shift is None:
        raise InvalidInputError("compare needs --e or --shift")
    win = _window(args)
    if args.e is not None:
        rep = _load_rep(args)
        de = rep.d * args.e
        if de % args.p == 0:
            raise InvalidInputError(f"d*e={de} must stay prime to p={args.p}")
        ctx = _field(args, de)
        kc1 = build_kummer_crystal(rep, ctx)
        kc2 = build_kummer_crystal(CyclicRep(de, rep.p, rep.mat), ctx)
        verdict = compare(standard_vfilt(kc1), standard_vfilt(kc2), win)
        result = {"presentations": [rep.d, de], "compare": verdict}
    else:
        obj, spec, meta = _make_objects(args)
        verdict = compare(spec, shifted_filtration(spec, args.shift), win)
        result = {"shift": args.shift, "compare": verdict}
    return _emit(args, "compare", result, 0 if verdict["verdict"] == "equal" else 1)


def cmd_pullback(args) -> int:
    win = _window(args)
    obj, spec, meta = _make_objects(args)
    pb = pullback_filtration(spec, args.dprime)
    checks = check_specializing(pb, win, depth=args.depth)
    result = {
        "kind": meta["kind"],
        "filtration": pb.to_json(),
        "jumps": [level_json(r) for r in pb.jumps(win)],
        "checks": checks.to_json(),
        "all_pass": checks.all_pass,
    }
    return _emit(args, "pullback", result, 0 if checks.all_pass else 1)


def cmd_nearby(args) -> int:
    obj, spec, meta = _make_objects(args)
    if args.full:
        cg = nearby_full(spec)
        result = {"kind": meta["kind"], "nearby": cg.to_json()}
        return _emit(args, "nearby", result, 0)
    psi = nearby_unipotent(spec)
    result = {
        "kind": meta["kind"],
        "nearby": psi.to_json(),
        "saturated_dimension": psi.saturated_dimension(args.cap),
    }
    return _emit(args, "nearby", result, 0)


def cmd_vanishing(args) -> int:
    obj, spec, meta = _make_objects(args)
    van = vanishing(spec)
    result = {"kind": meta["kind"], "vanishing": van.to_json()}
    return _emit(args, "vanishing", result, 0 if van.commutes else 1)


def cmd_recover(args) -> int:
    rep = _load_rep(args)
    ctx = _field(args, rep.d)
    kc = build_kummer_crystal(rep, ctx)
    rec = recover_rep(kc, args.cap)
    iso = rep_isomorphic(rep, rec, ctx)
    result = {
        "input": rep.to_json(),
        "recovered": rec.to_json(),
        "isomorphic": iso,
    }
    return _emit(args, "recover", result, 0 if iso else 1)


def cmd_sol(args) -> int:
    obj = _target(args)
    if isinstance(obj, ExtensionModule):
        rep = sol_extension(obj)
        result = {
            "kind": "extension",
            "dimension": rep.dimension,
            "obstruction": rep.obstruction,
        }
    else:
        rep = sol_crystal(obj)
        result = {"kind": "crystal", "dimension": rep.dimension}
    return _emit(args, "sol", result, 0)


def _is_element(x) -> bool:
    """A JSON field element: an integer or a list of integer coefficients."""
    return type(x) is int or isinstance(x, list) and all(type(c) is int for c in x)


def _roundtrip_from_file(args) -> dict:
    entries = _read_json(args.rep)
    if isinstance(entries, dict):
        entries = [entries]
    counters = {"pass": 0, "fail": 0, "rejected": 0}
    for entry in entries:
        try:
            if not isinstance(entry, dict):
                raise InvalidInputError("entry is not a JSON object")
            if "mat" in entry:
                rep = _rep_from_json(entry, args.p)
                ctx = make_field(rep.p, resolve_m(rep.p, rep.d, args.m))
                verdict = gf_roundtrip(rep, ctx, args.cap)
            elif "classes" in entry:
                d, classes = _key(entry, "d"), _key(entry, "classes")
                if type(d) is not int or d < 1:
                    raise InvalidInputError(f"graded object d must be a positive integer, not {d!r}")
                _bound_d(args, d, f"graded object d={d}")
                if not isinstance(classes, list):
                    raise InvalidInputError("graded object classes must be a list")
                for cls in classes:
                    a, dim, mat = _key(cls, "a"), _key(cls, "dim"), _key(cls, "C")
                    if type(a) is not int or not 0 <= a < d or type(dim) is not int or dim < 0:
                        raise InvalidInputError(f"class a={a!r} dim={dim!r} is not a class of d={d}")
                    if not isinstance(mat, list) or not all(
                        isinstance(row, list) and all(map(_is_element, row)) for row in mat
                    ):
                        raise InvalidInputError(
                            f"class a={a} C must be a list of lists of integers or integer lists"
                        )
                ctx = make_field(args.p, resolve_m(args.p, d, args.m))
                dims = [0] * d
                mats = [()] * d
                for cls in classes:
                    a = cls["a"]
                    dims[a] = cls["dim"]
                    mats[a] = tuple(tuple(ctx.el(x) for x in row) for row in cls["C"])
                obj = CGObject(ctx, d, tuple(dims), tuple(mats))
                verdict = fg_roundtrip(obj, args.cap)
            else:
                raise InvalidInputError("entry is neither a representation nor a graded object")
        except InvalidInputError:
            counters["rejected"] += 1
            continue
        counters["pass" if verdict["status"] == "pass" else "fail"] += 1
    return counters


def cmd_roundtrip(args) -> int:
    if args.rep is not None and not args.rep.strip().startswith("{") and args.rep not in _BUILTIN_REPS:
        counters = _roundtrip_from_file(args)
        result = {"source": "file", "counts": counters}
        code = 1 if counters["fail"] else (2 if counters["rejected"] else 0)
        return _emit(args, "roundtrip", result, code)
    rng = Random(args.seed)
    ds = [args.d] if args.d else [d for d in (2, 3, 4, 6) if d % args.p]
    reps = {"pass": 0, "fail": 0}
    objs = {"pass": 0, "fail": 0}
    nat = {"pass": 0, "fail": 0}
    per = max(1, args.count // len(ds))
    for d in ds:
        ctx = make_field(args.p, resolve_m(args.p, d, args.m))
        for _ in range(per):
            rep = random_rep(ctx, d, rng, max_rank=4)
            v = gf_roundtrip(rep, ctx, args.cap)
            reps["pass" if v["status"] == "pass" else "fail"] += 1
        for _ in range(per):
            obj = random_object(ctx, d, rng, max_rank=3)
            v = fg_roundtrip(obj, args.cap)
            objs["pass" if v["status"] == "pass" else "fail"] += 1
        for _ in range(max(1, per // 4)):
            r1 = random_rep(ctx, d, rng, max_rank=3)
            f = random_rep_morphism(r1, r1, rng)
            v = naturality_check_F(r1, r1, f, ctx)
            nat["pass" if v["status"] == "pass" else "fail"] += 1
    result = {
        "source": "sampled",
        "ds": ds,
        "per_d": per,
        "reps": reps,
        "objects": objs,
        "naturality": nat,
    }
    failures = reps["fail"] + objs["fail"] + nat["fail"]
    return _emit(args, "roundtrip", result, 1 if failures else 0)


def cmd_glue(args) -> int:
    triple = gluing_data(_target(args))
    result = {"triple": triple.to_json()}
    return _emit(args, "glue", result, 0 if triple.consistent else 1)


class _Parser(argparse.ArgumentParser):
    """Usage errors print the usage text, the message and the JSON error line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _print_error(f"{self.prog}: error: {message}", "invalid", message, None)
        self.exit(2)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; it holds no command functions, so
    ``main`` finds ``cmd_<command>`` on the module when it runs."""
    common = _Parser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    common.add_argument("--m", type=int, default=None, help="field degree; minimal when omitted")
    common.add_argument("--d", type=int, default=None, help="cover degree / group order")
    common.add_argument("--rep", type=str, default=None, help="trivial|companion|regular, a JSON literal, or a file path")
    common.add_argument("--rank", type=int, default=1, help="rank for the trivial representation")
    common.add_argument("--c", type=str, default=None, help="extension class series, e.g. '3t^-2+t'")
    common.add_argument("--window", type=int, default=64, help="level window half-width N for [-N, N)")
    common.add_argument("--cap", type=int, default=DEFAULT_SATURATION_CAP, help="saturation degree cap")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    common.add_argument("--depth", type=int, default=None, help="depth override for the ideal-power check")

    ap = _Parser(prog="fcrystal", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[common])
    sub.add_parser("vfilt", parents=[common])
    sub.add_parser("graded", parents=[common])

    p_check = sub.add_parser("check", parents=[common])
    p_check.add_argument("--shift", type=int, default=0, help="check the filtration shifted this much")

    p_cmp = sub.add_parser("compare", parents=[common])
    p_cmp.add_argument("--e", type=int, default=None, help="compare against the degree-d*e presentation")
    p_cmp.add_argument("--shift", type=int, default=None, help="compare against the shifted filtration")

    p_pb = sub.add_parser("pullback", parents=[common])
    p_pb.add_argument("--dprime", type=int, required=True, help="degree of the fresh cover")

    p_nb = sub.add_parser("nearby", parents=[common])
    p_nb.add_argument("--full", action="store_true", help="assemble all fractional pieces, not just level 0")

    sub.add_parser("vanishing", parents=[common])
    sub.add_parser("recover", parents=[common])
    sub.add_parser("sol", parents=[common])

    p_rt = sub.add_parser("roundtrip", parents=[common])
    p_rt.add_argument("--count", type=int, default=24, help="budget per order d: max(1, count // #orders) cases of each round trip, 1/4 as many naturality checks")

    sub.add_parser("glue", parents=[common])
    return ap


def _print_error(line, kind, err, profile):
    """The message line, then the JSON error line, both on stderr."""
    print(line, file=sys.stderr)
    error = {"kind": kind, "message": str(err), "profile": profile}
    print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)


# the valid range (least, most) of each integer flag that has one, None
# where a side is open; a flag the command lacks or the user left unset
# reads None.  The upper bounds are checked before any matrix is built:
# a regular rep is d x d, a trivial one rank x rank, the level grid
# grows with window, and roundtrip runs count cases per order.
_RANGE = {
    "window": (1, 1024),
    "m": (1, None),
    "d": (None, 256),
    "rank": (None, 64),
    "depth": (0, None),
    "count": (1, 1024),
    "e": (1, None),
    "cap": (1, None),
}
# the largest d * window that a command reading the window accepts
_GRID_BOUND = 2048


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if not is_prime(args.p):
            raise InvalidInputError(f"p={args.p} is not prime")
        for flag, (least, most) in _RANGE.items():
            value = getattr(args, flag, None)
            if value is None:
                continue
            if least is not None and value < least:
                raise InvalidInputError(f"--{flag} {value} must be >= {least}")
            if most is not None and value > most:
                raise BoundExceededError(f"--{flag} {value} must be <= {most}")
        return globals()[f"cmd_{args.command}"](args)
    except InvalidInputError as err:
        kind = "bound" if isinstance(err, BoundExceededError) else "invalid"
        _print_error(f"error: {err}", kind, err, None)
        return 2
    except CapExceededError as err:
        _print_error(f"resource cap exceeded: {err}", "cap", err, err.profile)
        return 3


if __name__ == "__main__":
    sys.exit(main())

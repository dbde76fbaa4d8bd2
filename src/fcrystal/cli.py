"""Deterministic batch front door.

One subcommand per pipeline stage; every run prints a single JSON
report on stdout (diagnostics go to stderr) carrying the resolved job
parameters, the result, the tool version, and a sha256 digest of the
canonical serialization.  Identical jobs produce byte-identical
reports: indented JSON with sorted keys, byte for byte what
``json.dumps(indent=2, sort_keys=True)`` prints, written by ``_pretty``
with one ``%`` template per dict shape.  The argument parser is built
once per process, on the first call of ``main``.

Exit codes: 0 all checks pass, 1 check failures, 2 invalid input,
3 resource cap exceeded, 4 an internal error (a fault of the program).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import traceback
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
    extension_vfilt,
    graded,
    pullback_filtration,
    shifted_exactness,
    shifted_filtration,
    standard_vfilt,
)

_BUILTIN_REPS = ("trivial", "companion", "regular")

# Every input from outside the program, by the name its messages give it:
# its type and its least and most value, None where a side is open.  A
# type is int, list, the keys a JSON object must have, or for a matrix (a
# list of lists) the words naming its entries.  The upper bounds hold
# before any matrix is built or divisor tried: a regular rep is d x d, a
# trivial one rank x rank, the level grid grows with the window, roundtrip
# runs count cases per order, and is_prime tries divisors up to sqrt(p).
# A _PRIME row must also be prime, and a _DEGREE row, a cover degree,
# meets the grid rule below.
_PRIME = (int, None, 2**31 - 1)
_DEGREE = (int, 1, 256)
_RANK = (int, None, 64)
_INPUTS = {
    "--p": _PRIME,
    "--m": (int, 1, None),
    "--window": (int, 1, 1024),
    "--d": _DEGREE,
    "--rank": _RANK,
    "--cap": (int, 1, None),
    "--seed": (int, None, None),
    "--depth": (int, 0, None),
    "--shift": (int, None, None),
    "--e": (int, 1, None),
    "--dprime": (int, None, None),
    "--count": (int, 1, 1024),
    "d*e": _DEGREE,
    "representation": (("d", "mat"), None, None),
    "representation d": _DEGREE,
    "representation p": _PRIME,
    "representation mat": ("integers", None, None),
    "representation rank": _RANK,
    "graded object": (("d", "classes"), None, None),
    "graded object d": _DEGREE,
    "graded object classes": (list, None, None),
    "class": (("a", "dim", "C"), None, None),
    "class a": (int, 0, None),  # and below the d of its object
    "class dim": (int, 0, None),
    "class C": ("integers or integer lists", None, None),
}
# Each command's grammar: the flags it takes, without their "--"; any
# other flag is a usage error.  The target flags name the module, a --rep
# (with --d, and --rank for the trivial rep) or the extension class --c.
# _FLAGS gives each flag's argparse settings, _INPUTS its type if an int.
_TARGET = "p m d rep rank c"
_COMMANDS = {
    "build": _TARGET,
    "vfilt": _TARGET + " window depth",
    "graded": _TARGET + " window",
    "check": _TARGET + " window depth shift",
    "compare": _TARGET + " window e shift",
    "pullback": _TARGET + " window depth dprime",
    "nearby": _TARGET + " full cap",
    "vanishing": _TARGET,
    "recover": "p m d rep rank cap",
    "sol": _TARGET,
    "roundtrip": "p m d rep seed count cap",
    "glue": _TARGET,
}
# the flag pairs a command refuses together, as it reads only the first
_EXCLUSIVE = {
    "compare": ("e c", "e shift"),
    "nearby": ("full cap",),
    "roundtrip": ("rep seed", "rep count", "rep d"),
}
_FLAGS = {
    "--p": dict(required=True, help="characteristic (prime)"),
    "--m": dict(help="field degree; minimal when omitted"),
    "--d": dict(help="cover degree / group order"),
    "--rep": dict(help="trivial|companion|regular, a JSON literal, or a file path"),
    "--rank": dict(help="rank of the trivial representation; 1 when omitted"),
    "--c": dict(help="extension class series, e.g. '3t^-2+t'"),
    "--window": dict(default=64, help="level window half-width N for [-N, N)"),
    "--cap": dict(default=DEFAULT_SATURATION_CAP, help="saturation degree cap"),
    "--seed": dict(default=0, help="seed of the sampled cases"),
    "--depth": dict(help="depth override for the ideal-power check"),
    "--shift": dict(help="shift of the filtration checked, or compared against"),
    "--e": dict(help="compare against the degree-d*e presentation"),
    "--dprime": dict(required=True, help="degree of the fresh cover"),
    "--full": dict(action="store_true", help="assemble all fractional pieces, not just level 0"),
    "--count": dict(default=24, help="budget per order d: max(1, count // #orders) cases of each round trip, 1/4 as many naturality checks"),
}
# the commands that read the level window [-N, N), where a degree-d cover
# puts up to d * 2N jumps, and the largest d * N they accept
_WINDOWED = {c for c, names in _COMMANDS.items() if "window" in names.split()}
_GRID_BOUND = 2048


def _check(name, value, args=None, most=None):
    """value, if the row of _INPUTS called name admits it; else
    InvalidInputError for a wrong type or a value below the least, or
    BoundExceededError above the most (the argument most, where the bound
    depends on another input) or, for a cover degree d of a job whose command reads the
    window, above _GRID_BOUND for d * window.  An unset flag reads None
    and passes."""
    kind, least, row_most = row = _INPUTS[name]
    if isinstance(kind, tuple):
        for key in kind:
            if not isinstance(value, dict) or key not in value:
                raise InvalidInputError(f"JSON input needs an object with key {key!r}")
    elif kind is list and not isinstance(value, list):
        raise InvalidInputError(f"{name} must be a list")
    elif isinstance(kind, str):
        if not isinstance(value, list) or not all(isinstance(line, list) for line in value):
            raise InvalidInputError(f"{name} must be a list of lists")
        flat = [x for line in value for x in line]
        if kind != "integers":  # an element may be its list of coefficients
            flat = [c for x in flat for c in (x if isinstance(x, list) else [x])]
        if any(type(x) is not int for x in flat):
            raise InvalidInputError(f"{name} entries must be {kind}")
    flag = name.startswith("--")
    if kind is not int or flag and value is None:
        return value
    if type(value) is not int:
        raise InvalidInputError(f"{name} must be an integer, not {value!r}")
    label = f"{name} {value}" if flag else f"{name}={value}"
    most = row_most if most is None else most
    if least is not None and value < least:
        raise InvalidInputError(f"{label} must be >= {least}")
    if most is not None and value > most:
        raise BoundExceededError(f"{label} must be <= {most}")
    if row is _DEGREE and args is not None and args.command in _WINDOWED and value * args.window > _GRID_BOUND:
        raise BoundExceededError(
            f"{label} times --window {args.window} is {value * args.window}, must be <= {_GRID_BOUND}"
        )
    if row is _PRIME and not is_prime(value):
        raise InvalidInputError(f"p={value} is not prime")
    return value


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
    except ValueError as err:  # also bytes not UTF-8, and integers past the int-string limit
        raise InvalidInputError(f"--rep is not valid JSON: {err}") from err


def _rep_from_json(data, args) -> CyclicRep:
    """The representation {"d", "mat", optional "p"} of a JSON object."""
    _check("representation", data)
    p = _check("representation p", data.get("p", args.p))
    mat = _check("representation mat", data["mat"])
    _check("representation rank", len(mat))
    return CyclicRep(_check("representation d", data["d"], args), p, tuple(map(tuple, mat)))


def _field(args, d=None):
    """The job's field, recorded as its m: the prime field or --m for an
    extension (d None), else the smallest holding the d-th roots of unity."""
    ctx = make_field(args.p, (args.m or 1) if d is None else resolve_m(args.p, d, args.m))
    args.resolved_m = ctx.m
    return ctx


def _load_rep(args) -> CyclicRep:
    name = args.rep or "trivial"
    d = args.d
    if args.rank is not None and name != "trivial":
        raise InvalidInputError("--rank needs --rep trivial")
    if name in _BUILTIN_REPS:
        if d is None:
            d = 1 if name == "trivial" else 3
        if name == "trivial":
            return CyclicRep.trivial(d, args.p, 1 if args.rank is None else args.rank)
        if name == "companion":
            return CyclicRep.companion(d, args.p)
        return CyclicRep.regular(d, args.p)
    rep = _rep_from_json(_read_json(name), args)
    if d is not None and rep.d != d:
        raise InvalidInputError(f"--d {d} conflicts with representation d={rep.d}")
    return rep


def _emit(args, command: str, result: dict, code: int) -> int:
    job = {"p": args.p, "m": getattr(args, "resolved_m", args.m), "d": args.d, "rep": args.rep}
    # every job echoes --window, --cap and --seed, at their defaults where
    # its command takes none: the pinned report digests cover those bytes
    for name in ("c", "window", "cap", "seed"):
        job[name] = getattr(args, name, _FLAGS["--" + name].get("default"))
    report = {
        "command": command,
        "job": {k: v for k, v in job.items() if v is not None},
        "result": result,
        "version": __version__,
    }
    canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
    report["digest"] = hashlib.sha256(canon.encode()).hexdigest()
    sys.stdout.write(_pretty(report) + "\n")
    return code


def _pretty(x, ind: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` for str-keyed JSON
    values without floats, in half the time of the stdlib's ``indent``
    encoder (pure Python in CPython 3.11).

    A dict is ``template % values``: one template per key tuple and
    indentation, built on the first dict of that shape and kept for this
    call only, holds the sorted quoted keys (``%`` doubled) and a ``%s``
    per value.  Values of type str, int, bool and None, in a dict or a
    list, are written inline; any other value, subclasses included, goes
    through the inner ``pretty``.  Lists and tuples are joins."""
    templates = {}

    def pretty(x, ind):
        if isinstance(x, dict):
            if not x:
                return "{}"
            shape = (ind, *x)
            try:
                template, keys = templates[shape]
            except KeyError:
                keys = sorted(x)
                fields = ("," + ind + "  ").join([_quote(k).replace("%", "%%") + ": %s" for k in keys])
                template = "{" + ind + "  " + fields + ind + "}"
                templates[shape] = template, keys
            inner = ind + "  "
            values = []
            for k in keys:
                v = x[k]
                t = type(v)
                if t is int:
                    values.append(v)  # %s prints an int as int.__repr__ does
                elif t is str:
                    values.append(_quote(v))
                elif v is None:
                    values.append("null")
                elif t is bool:
                    values.append("true" if v else "false")
                else:
                    values.append(pretty(v, inner))
            return template % tuple(values)
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            inner = ind + "  "
            items = []  # the dict loop's leaf tests again: a shared helper was 25% slower
            for v in x:
                t = type(v)
                if t is int:
                    items.append(int.__repr__(v))
                elif t is str:
                    items.append(_quote(v))
                elif v is None:
                    items.append("null")
                elif t is bool:
                    items.append("true" if v else "false")
                else:
                    items.append(pretty(v, inner))
            return "[" + inner + ("," + inner).join(items) + ind + "]"
        if isinstance(x, str):
            return _quote(x)
        if x is None or x is True or x is False:
            return "null" if x is None else "true" if x else "false"
        if isinstance(x, int):
            return int.__repr__(x)
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    return pretty(x, ind)


def _target(args):
    """The job's module: the extension twisted by --c, else the Kummer
    crystal of --rep."""
    if args.c is not None:
        for name in ("rep", "d", "rank"):
            if getattr(args, name) is not None:
                raise InvalidInputError(f"--{name} and --c are mutually exclusive")
        ctx = _field(args)
        try:
            c = parse_series(ctx, args.c)
        except ValueError as err:  # its own InvalidInputError, or an integer past the int-string limit
            raise InvalidInputError(str(err)) from err
        return build_extension(ctx, c)
    rep = _load_rep(args)
    return build_kummer_crystal(rep, _field(args, rep.d))


def _describe(obj) -> dict:
    if isinstance(obj, ExtensionModule):
        return {"kind": "extension", "n": obj.n, "split": obj.split}
    return {"kind": "crystal", "d": obj.d, "rank": obj.rank}


def _make_objects(args):
    """The filtration of the target module and the module's kind."""
    obj = _target(args)
    if not isinstance(obj, ExtensionModule):
        return standard_vfilt(obj), "crystal"
    return extension_vfilt(obj), "extension"


def cmd_build(args) -> int:
    obj = _target(args)
    return _emit(args, "build", {**_describe(obj), "object": obj.to_json()}, 0)


def cmd_vfilt(args) -> int:
    win = (-args.window, args.window)
    spec, kind = _make_objects(args)
    rep = graded(spec, win)
    checks = check_axioms(spec, win, depth=args.depth, graded_report=rep)
    result = {
        "kind": kind,
        "filtration": spec.to_json(),
        "jumps": [level_json(n, spec.den) for n in spec.ijumps(win)],
        "graded": rep.to_json(spec),
        "checks": checks.to_json(),
        "all_pass": checks.all_pass,
    }
    return _emit(args, "vfilt", result, 0 if checks.all_pass else 1)


def cmd_graded(args) -> int:
    win = (-args.window, args.window)
    spec, kind = _make_objects(args)
    rep = graded(spec, win)
    ok = rep.all_frobenius_invertible() and rep.all_t_invertible()
    result = {"kind": kind, "graded": rep.to_json(spec), "all_invertible": ok}
    return _emit(args, "graded", result, 0 if ok else 1)


def cmd_check(args) -> int:
    win = (-args.window, args.window)
    spec, kind = _make_objects(args)
    if args.shift:
        spec = shifted_filtration(spec, args.shift)
    checks = check_axioms(spec, win, depth=args.depth)
    result = {
        "kind": kind,
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
    win = (-args.window, args.window)
    if args.e is not None:
        rep = _load_rep(args)
        de = _check("d*e", rep.d * args.e, args)
        if de % args.p == 0:
            raise InvalidInputError(f"d*e={de} must stay prime to p={args.p}")
        ctx = _field(args, de)
        kc1 = build_kummer_crystal(rep, ctx)
        kc2 = build_kummer_crystal(CyclicRep(de, rep.p, rep.mat), ctx)
        verdict = compare(standard_vfilt(kc1), standard_vfilt(kc2), win)
        result = {"presentations": [rep.d, de], "compare": verdict}
    else:
        spec, _ = _make_objects(args)
        verdict = compare(spec, shifted_filtration(spec, args.shift), win)
        result = {"shift": args.shift, "compare": verdict}
    return _emit(args, "compare", result, 0 if verdict["verdict"] == "equal" else 1)


def cmd_pullback(args) -> int:
    win = (-args.window, args.window)
    spec, kind = _make_objects(args)
    pb = pullback_filtration(spec, args.dprime)
    checks = check_specializing(pb, win, depth=args.depth)
    result = {
        "kind": kind,
        "filtration": pb.to_json(),
        "jumps": [level_json(n, pb.den) for n in pb.ijumps(win)],
        "checks": checks.to_json(),
        "all_pass": checks.all_pass,
    }
    return _emit(args, "pullback", result, 0 if checks.all_pass else 1)


def cmd_nearby(args) -> int:
    spec, kind = _make_objects(args)
    result = {"kind": kind}
    if args.full:
        result["nearby"] = nearby_full(spec).to_json()
    else:
        psi = nearby_unipotent(spec)
        result.update(nearby=psi.to_json(), saturated_dimension=psi.saturated_dimension(args.cap))
    return _emit(args, "nearby", result, 0)


def cmd_vanishing(args) -> int:
    spec, kind = _make_objects(args)
    van = vanishing(spec)
    result = {"kind": kind, "vanishing": van.to_json()}
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


def _roundtrip_entry(entry, args) -> dict:
    """The round trip of one --rep entry: a representation, or a graded
    object {"d", "classes": [{"a", "dim", "C"}, ...]}."""
    if not (isinstance(entry, dict) and "classes" in entry):
        rep = _rep_from_json(entry, args)
        return gf_roundtrip(rep, make_field(rep.p, resolve_m(rep.p, rep.d, args.m)), args.cap)
    _check("graded object", entry)
    d = _check("graded object d", entry["d"], args)
    ctx = make_field(args.p, resolve_m(args.p, d, args.m))
    dims, mats = [0] * d, [()] * d
    for cls in _check("graded object classes", entry["classes"]):
        _check("class", cls)
        a = _check("class a", cls["a"], most=d - 1)
        dims[a] = _check("class dim", cls["dim"])
        mats[a] = tuple(tuple(map(ctx.el, row)) for row in _check("class C", cls["C"]))
    return fg_roundtrip(CGObject(ctx, d, tuple(dims), tuple(mats)), args.cap)


def cmd_roundtrip(args) -> int:
    if args.rep in _BUILTIN_REPS:
        raise InvalidInputError(
            f"roundtrip samples its cases without --rep, which takes a file or a JSON literal, not {args.rep}"
        )
    if args.rep is not None:
        entries = _read_json(args.rep)
        counters = {"pass": 0, "fail": 0, "rejected": 0}
        for entry in entries if isinstance(entries, list) else [entries]:
            try:
                status = "pass" if _roundtrip_entry(entry, args)["status"] == "pass" else "fail"
            except InvalidInputError:
                status = "rejected"
            counters[status] += 1
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
    """The parser, built on first use from _COMMANDS and _FLAGS; it holds
    no command functions, so ``main`` finds ``cmd_<command>`` on the
    module when it runs.  No abbreviations: an unread --c must not pass
    for --cap or --count.  Every flag parses to None when it is not given;
    ``main`` fills in the defaults once it has seen which were."""
    ap = _Parser(prog="fcrystal", description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, names in _COMMANDS.items():
        parser = sub.add_parser(command, allow_abbrev=False)
        for flag in ("--" + name for name in names.split()):
            settings = {**_FLAGS[flag], "default": None}
            parser.add_argument(flag, **({"type": int} if flag in _INPUTS else {}), **settings)
    return ap


def _print_error(line, kind, err, profile):
    """The message line, then the JSON error line, both on stderr."""
    print(line, file=sys.stderr)
    error = {"kind": kind, "message": str(err), "profile": profile}
    print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    given = {name for name, value in vars(args).items() if value is not None}
    for flag, settings in _FLAGS.items():
        if getattr(args, flag[2:], 0) is None:  # a flag of the command, left out
            setattr(args, flag[2:], settings.get("default"))
    try:
        for name in _INPUTS:  # in table order, --p first
            if name.startswith("--"):
                _check(name, getattr(args, name[2:], None), args)
        for pair in _EXCLUSIVE.get(args.command, ()):
            first, second = pair.split()
            if first in given and second in given:
                raise InvalidInputError(f"--{first} and --{second} are mutually exclusive")
        return globals()[f"cmd_{args.command}"](args)
    except InvalidInputError as err:
        kind = "bound" if isinstance(err, BoundExceededError) else "invalid"
        _print_error(f"error: {err}", kind, err, None)
        return 2
    except CapExceededError as err:
        _print_error(f"resource cap exceeded: {err}", "cap", err, err.profile)
        return 3
    except Exception as err:  # a fault of the program, never a failed check
        at = traceback.extract_tb(err.__traceback__)[-1]  # where it was raised
        what = f"{type(err).__name__}: {err} (in {at.name}, {Path(at.filename).name}:{at.lineno})"
        _print_error(f"internal error: {what}", "internal", what, None)
        return 4


if __name__ == "__main__":
    sys.exit(main())

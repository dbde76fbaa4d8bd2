"""In-process tracer for the fcrystal layers, installed from outside.

The library has no instrumentation of its own, so the tracer patches it:
every public function of the layer modules becomes a span, and a few hot
methods become counted leaves.

* A span records calls, total time and self time (total minus the time
  of the spans it called).  Spans are aggregated by name as they close;
  no per-call record is kept.
* A leaf (``FieldCtx.mul`` and friends, ``LaurentSeries.__init__``)
  records a call count and summed duration only.  Leaves are too hot for
  the span stack, so their time stays inside the enclosing span's self
  time.
* Hooks read sizes off arguments and results (matrix cells, saturation
  degrees tried, weight kernels hit, graded levels, sections checked).

Every module binding of a wrapped function is patched, not only the
defining one: ``functors`` imports ``weight_decompose`` by name, ``cli``
imports ``graded`` and ``check_axioms`` by name, and the package
re-exports almost everything.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

LAYERS = ("field", "linalg", "series", "crystal", "vfilt", "functors", "cli")

# (module, class, method) wrapped as counted leaves
LEAVES = (
    ("field", "FieldCtx", "mul"),
    ("field", "FieldCtx", "inv"),
    ("field", "FieldCtx", "pow"),
    ("field", "FieldCtx", "frob"),
    ("series", "LaurentSeries", "__init__"),
)

# (module, class, method) wrapped as spans
METHOD_SPANS = (
    ("series", "LaurentSeries", "frob"),
    ("series", "LaurentSeries", "sub"),
    ("crystal", "ExtensionModule", "apply_F"),
    ("vfilt", "FiltrationSpec", "graded_coords"),
)


def _cells(mat) -> int:
    return len(mat) * (len(mat[0]) if mat else 0)


def _hook_rref(counts, args, result, error):
    counts["linalg.rref_cells"] += _cells(args[1])


def _hook_rref_int(counts, args, result, error):
    counts["linalg.rref_int_cells"] += _cells(args[0])


def _hook_saturate(counts, args, result, error):
    profile = result.profile if error is None else getattr(error, "profile", ())
    counts["field.tower_degrees_tried"] += len(profile)


def _hook_weight_decompose(counts, args, result, error):
    counts["crystal.weight_kernels_tried"] += args[0].d
    if error is None:
        counts["crystal.weight_kernels_hit"] += len(result.bases)


def _hook_graded(counts, args, result, error):
    if error is None:
        counts["vfilt.graded_levels"] += len(result.levels)


def _hook_check_specializing(counts, args, result, error):
    if error is None:
        counts["vfilt.sections_checked"] += result.checks["A1"].info.get("sections", 0)


HOOKS = {
    "linalg.rref": _hook_rref,
    "linalg.rref_int": _hook_rref_int,
    "field.saturate_fixed_points": _hook_saturate,
    "crystal.weight_decompose": _hook_weight_decompose,
    "vfilt.graded": _hook_graded,
    "vfilt.check_specializing": _hook_check_specializing,
}


class Tracer:
    """Span and leaf statistics for one freshly imported fcrystal."""

    def __init__(self, modules: dict):
        self.modules = modules  # "fcrystal" and each submodule name -> module
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.leaves = {}  # name -> [calls, total_s]
        self.counts = Counter()
        self.covered_s = 0.0  # time inside outermost spans
        self._stack = []  # child time of each open span
        self._patches = []  # (owner, attr, original)

    def reset(self):
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0]
        for rec in self.leaves.values():
            rec[:] = [0, 0.0]
        self.counts.clear()
        self.covered_s = 0.0

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        stack = self._stack
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            error = result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    tracer.covered_s += dur
                if hook is not None:
                    hook(counts, args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn):
        rec = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            rec[1] += perf_counter() - t0
            rec[0] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                originals[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj))
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for kind, table in ((self._leaf, LEAVES), (self._span, METHOD_SPANS)):
            for layer, cls_name, meth in table:
                cls = getattr(self.modules[layer], cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, kind(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- readout ------------------------------------------------------------

    def span(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])

    def leaf(self, name):
        return self.leaves.get(name, [0, 0.0])

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(rec[2] for name, rec in self.spans.items() if name.startswith(prefix))

"""No test-only code in src/: every definition there has a caller there.

An AST walk of src/fcrystal collects each function, class and method
definition and every name the package reads.  A method is read through
an attribute (x.name); anything else through a bare name or, for a
module's function, an attribute (linalg.name).  A definition counts as
used when some such read sits outside its own body.  Imports are not
reads, so a re-export in __init__ keeps nothing alive.  Matching is by
name alone, so the guard can miss a dead definition that shares its
name with a live one, but it never flags a live one.

The exceptions are the names that only readers outside src/ use and
that must stay; KEEP lists each with its reader.  The cmd_* functions
are looked up by name when the CLI dispatches, and dunder methods are
called by the language.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fcrystal"

# "module.qualname" -> the reader outside src/ that keeps it
KEEP = {
    "vfilt.FiltrationSpec.jumps": "acceptance criteria 8 and 9",
    "vfilt.FiltrationSpec.graded_labels": "acceptance criteria 8 and 9",
    "vfilt.graded_frobenius_map": "acceptance criteria 8 and 9",
    "field.FieldCtx.elements": "the acceptance battery",
    "field.SemilinearOperator.apply": "the acceptance battery",
    "series.LaurentSeries.same_values": "the acceptance battery",
    "vfilt.FiltrationSpec.graded_coords": "perfbench/tracer.py patches it through the class __dict__",
    "vfilt.GradedLevel.level": "perfbench/workloads.py",
    "functors.naturality_check_G": "the README",
    "vfilt.delta_vfilt": "the README",
    "vfilt.mc_vfilt": "acceptance criterion 8 and the README",
    "vfilt.mc_depth_grading": "acceptance criterion 9",
    "cli._Parser.error": "argparse, whose ArgumentParser.error it overrides",
}


def _exempt(name):
    return name.startswith("cmd_") or (name.startswith("__") and name.endswith("__"))


class _Scan(ast.NodeVisitor):
    """Definitions as (qualname, name, node, is a method) and reads as
    (name, read through an attribute, the definitions around the read)."""

    def __init__(self, module):
        self.module = module
        self.defs = []
        self.reads = []
        self._stack = []  # enclosing definition nodes

    def _define(self, node):
        names = [d.name for d in self._stack] + [node.name]
        method = bool(self._stack) and isinstance(self._stack[-1], ast.ClassDef)
        self.defs.append((".".join([self.module] + names), node.name, node, method))
        for dec in node.decorator_list:
            self.visit(dec)
        self._stack.append(node)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self._stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node):
        self.reads.append((node.id, False, tuple(self._stack)))

    def visit_Attribute(self, node):
        self.reads.append((node.attr, True, tuple(self._stack)))
        self.visit(node.value)


def _unread():
    """The qualnames of the definitions in src/ that src/ never reads."""
    defs, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(), str(path)))
        defs += scan.defs
        reads += scan.reads
    readers = {}  # (name, through an attribute) -> the stacks around its reads
    for name, attr, stack in reads:
        readers.setdefault((name, attr), []).append(stack)
    out = []
    for qualname, name, node, method in defs:
        stacks = readers.get((name, True), []) + ([] if method else readers.get((name, False), []))
        if not _exempt(name) and all(node in stack for stack in stacks):
            out.append(qualname)
    return sorted(out)


def test_every_src_definition_has_a_src_caller():
    unread = [q for q in _unread() if q not in KEEP]
    assert not unread, f"defined in src/ but read only from outside it: {unread}"


def test_every_kept_name_is_defined_and_unread_in_src():
    # an entry whose name gained a src/ caller, or left src/, goes too
    assert sorted(KEEP) == [q for q in _unread() if q in KEEP]


def test_every_src_import_is_read():
    # __init__'s imports are the package's exports, so it is left out
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    assert not unread, f"imported in src/ and never read: {unread}"

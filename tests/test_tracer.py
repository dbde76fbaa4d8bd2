"""The bench tracer still finds every layer method it patches.

perfbench/tracer.py wraps a few methods through ``cls.__dict__``; a
refactor that moves or deletes one of them breaks ``--trace 1`` runs.
This installs the tracer over the already-imported package, runs one
CLI job and one direct graded_coords call, and uninstalls it again.
"""

import importlib
import importlib.util
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from fcrystal import build_extension, cli, make_field, mc_vfilt, parse_series

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ARGV = ["check", "--p", "5", "--c", "t^-2", "--window", "4"]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@contextmanager
def _traced():
    tracer_mod = _tracer_module()
    modules = {"fcrystal": importlib.import_module("fcrystal")}
    for layer in tracer_mod.LAYERS:
        modules[layer] = importlib.import_module(f"fcrystal.{layer}")
    tracer = tracer_mod.Tracer(modules)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_counts_series_frobenius(capsys):
    code = cli.main(ARGV)
    plain = capsys.readouterr().out
    ctx = make_field(5, 1)
    spec = mc_vfilt(build_extension(ctx, parse_series(ctx, "t^-2")))
    with _traced() as tracer:
        assert cli.main(ARGV) == code
        # graded() reads its matrices through _level_coords, so the
        # graded_coords span is reached by a direct call
        assert spec.graded_coords(spec.module.delta_monomial(1), Fraction(-1)) == [ctx.one]
    assert capsys.readouterr().out == plain
    spans = (
        "series.LaurentSeries.frob",
        "crystal.ExtensionModule.apply_F",
        "vfilt.FiltrationSpec.graded_coords",
        "cli.main",
    )
    for name in spans:
        assert tracer.span(name)[0] > 0, name
    assert tracer.leaf("series.LaurentSeries.__init__")[0] > 0
    assert not hasattr(cli.main, "__wrapped__")  # uninstalled


def test_tracer_sees_commands_after_the_parser_is_built(capsys):
    """The parser is built once per process.  If it held the command
    functions (``set_defaults(func=...)``), a tracer installed after the
    first ``main`` call would never see ``cli.cmd_check`` run."""
    cli.main(ARGV)
    assert cli._parser.cache_info().currsize == 1
    with _traced() as tracer:
        cli.main(ARGV)
    capsys.readouterr()
    assert tracer.span("cli.cmd_check")[0] == 1
    assert tracer.span("cli.cmd_check")[1] > 0

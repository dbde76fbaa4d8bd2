"""The bench tracer still finds every layer method it patches.

perfbench/tracer.py wraps a few methods through ``cls.__dict__``; a
refactor that moves or deletes one of them breaks ``--trace 1`` runs.
This installs the tracer over the already-imported package, runs one
CLI job and uninstalls it again.
"""

import importlib
import importlib.util
from pathlib import Path

from fcrystal import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ARGV = ["check", "--p", "5", "--c", "t^-2", "--window", "4"]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_counts_series_frobenius(capsys):
    code = cli.main(ARGV)
    plain = capsys.readouterr().out
    tracer_mod = _tracer_module()
    modules = {"fcrystal": importlib.import_module("fcrystal")}
    for layer in tracer_mod.LAYERS:
        modules[layer] = importlib.import_module(f"fcrystal.{layer}")
    tracer = tracer_mod.Tracer(modules)
    tracer.install()
    try:
        assert cli.main(ARGV) == code
    finally:
        tracer.uninstall()
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

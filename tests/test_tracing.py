"""The benchmark's tracer (``perfbench/tracing.py``, behind ``--trace 1``)
patches names of the package from outside; a renamed or deleted target
breaks it without breaking any kernel test, so this test installs it."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import laxlab
from laxlab import ncexpr

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_module_and_uninstalls():
    for info in pkgutil.iter_modules(laxlab.__path__):
        importlib.import_module(f"laxlab.{info.name}")
    original = ncexpr.normalize
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert ncexpr.normalize is not original
    finally:
        tracer.uninstall()
    assert ncexpr.normalize is original

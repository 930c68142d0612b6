"""The benchmark's per-layer tracer still finds every name it wraps.

`bench/tracing.py` patches named pathint functions and methods; a renamed
or deleted one makes `install` fail.  The benchmark's own tests
(`python3 -m pytest -q bench`) are outside this suite, so this checks the
names here.
"""

import importlib.util
from pathlib import Path

import pathint
import pathint.cli  # noqa: F401  (the tracer wraps cli.main)
from pathint import homotopy


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_traced_name():
    tracing = _tracing_module()
    originals = {fn: getattr(homotopy, fn) for mod, fn in tracing.SPANNED
                 if mod == "homotopy"}
    square_tuple = pathint.Digraph.__dict__["is_square_tuple"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(homotopy, name) is not fn for name, fn in originals.items())
        assert pathint.Digraph.__dict__["is_square_tuple"] is not square_tuple
    finally:
        tracer.uninstall()
    assert all(getattr(homotopy, name) is fn for name, fn in originals.items())
    assert pathint.Digraph.__dict__["is_square_tuple"] is square_tuple

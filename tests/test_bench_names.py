"""The benchmark's span tracer must find every name its metrics refer to.

``perfbench/tracing.py`` reports a renamed or deleted function as absent and
its metric then reads zero; this test makes such a rename fail here first.
The tracer is loaded from its source without importing the ``perfbench``
directory as a package and without writing anything there.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         mod.__dict__)
    return mod


def test_every_traced_name_exists():
    tracing = _load_tracing()
    modules = {name: importlib.import_module(f"qbdtail.{name}")
               for name in tracing.LAYERS}
    main = modules["cli"].main
    tracer = tracing.Tracer()
    tracer.install(modules)
    assert modules["cli"].main is not main
    try:
        absent = tracer.absent()
    finally:
        tracer.uninstall()
    assert modules["cli"].main is main
    assert absent == []

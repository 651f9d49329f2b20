"""The benchmark's traced run looks up every function of its LAYERS table
by name when it starts; a function that is renamed or deleted here would
stop it.  This reads perfbench/tracing.py and changes nothing there."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"ncpiv.{layer}.{fn}"
        for layer, fns in tracing.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"ncpiv.{layer}"), fn, None))
    ]
    assert tracing.LAYERS and not missing

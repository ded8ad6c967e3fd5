"""The benchmark's tracer rebinds package names; each must still exist.

``perfbench/tracing.py`` wraps names as bound in the calling modules.  A
renamed or deleted name breaks every traced benchmark run, which otherwise
only the slow ``perfbench/test_smoke.py`` would show.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_the_tracer_installs():
    tracing = _tracing()
    bindings = [(module, attr) for module, names in tracing._SPANNED.items() for attr in names]
    bindings += [(module, "QHatEvaluator") for module in tracing._QHAT_USERS]
    missing = [f"{module}.{attr}" for module, attr in bindings
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    minimize = importlib.import_module("kreinact.minimize")
    before = minimize.action
    with tracing.Tracer().installed():
        assert minimize.action is not before
    assert minimize.action is before

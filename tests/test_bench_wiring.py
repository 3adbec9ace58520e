"""The benchmark's tracer patches each layer where the program binds it.

``bench/tracing.py`` names every traced function by the module and
attribute its callers use.  A refactor that stops binding one of them
leaves that layer untraced without any error, so this test reads the
list (and changes nothing) and fails on a name no module binds.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# Names the tracer still lists although the program no longer binds them.
UNBOUND = {"condreg.cli.column_stats", "condreg.ols.expand", "condreg.selection.fit"}


def _wraps():
    spec = importlib.util.spec_from_file_location("condreg_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_tracer_names_only_bound_layers():
    wraps = _wraps()
    assert wraps
    unbound = {
        f"{module}.{attr}"
        for module, attr, _, _ in wraps
        if not hasattr(importlib.import_module(module), attr)
    }
    assert unbound <= UNBOUND

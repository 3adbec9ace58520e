"""The on-demand stubs that cli and relations bind for the functions they call.

A stub imports its module only when it is called, so a misspelt module or
name would fail only at its first call.  These tests resolve every stub
without running a command, and check that reading one imports nothing.
"""

import importlib

import condreg
from condreg import cli, relations
from conftest import modules_after

# Every stub runs this code; a resolved function does not.
STUB_CODE = condreg.on_demand("ols", "fit").__code__
PATCH_POINTS = {
    cli: ["dumps_report", "fit", "load_csv", "model_section", "new_document", "parse_formula", "pearson_matrix",
          "plot_tsv", "quartiles", "write_text_atomic"],
    relations: ["fit"],
}


def _stubs(module):
    return {name: value for name, value in vars(module).items() if getattr(value, "__code__", None) is STUB_CODE}


def test_every_stub_resolves_to_the_function_it_names():
    for module, names in PATCH_POINTS.items():
        stubs = _stubs(module)
        assert sorted(stubs) == names
        for name, stub in stubs.items():
            assert stub.__name__ == name and stub.__module__.startswith("condreg.")
            target = getattr(importlib.import_module(stub.__module__), name)
            assert callable(target) and target.__name__ == name
            assert getattr(target, "__code__", None) is not STUB_CODE


def test_reading_a_patch_point_loads_no_analysis_module_and_no_numpy():
    reads = "; ".join(f"module.{name}" for name in PATCH_POINTS[cli])
    code = (
        "import condreg.cli as module\n"
        f"{reads}\n"
        "import condreg.relations as module\n"
        "module.fit\n"
        "assert hasattr(module, 'fit')"
    )
    assert modules_after(code) == [["condreg.cli", "condreg.defaults", "condreg.errors", "condreg.relations"], False]

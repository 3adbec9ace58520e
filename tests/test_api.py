"""The package's public surface: every exported name exists, listed once, in
order, and is imported from its module only when first read."""

import condreg
from conftest import modules_after


def test_every_export_resolves():
    assert [name for name in condreg.__all__ if not hasattr(condreg, name)] == []


def test_exports_are_sorted_without_duplicates():
    assert condreg.__all__ == sorted(set(condreg.__all__))


def test_every_export_is_listed_by_dir():
    """In a fresh interpreter, before any name is read; listing loads nothing."""
    code = "import condreg\nassert not set(condreg.__all__) - set(dir(condreg)), dir(condreg)"
    assert modules_after(code) == [[], False]


def test_import_loads_no_submodule():
    assert modules_after("import condreg") == [[], False]

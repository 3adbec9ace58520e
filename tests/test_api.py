"""The package's public surface: every exported name exists, listed once, in order."""

import condreg


def test_every_export_resolves():
    assert [name for name in condreg.__all__ if not hasattr(condreg, name)] == []


def test_exports_are_sorted_without_duplicates():
    assert condreg.__all__ == sorted(set(condreg.__all__))

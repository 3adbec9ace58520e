"""Atomic report writes (a failed write leaves the old file and no temp
file) and the text rendering of the correlation table."""

import os

import numpy as np
import pytest

from condreg import Dataset, pearson_matrix
from condreg.cli import main
from condreg.report import format_number, new_document, render_text, write_text_atomic


@pytest.fixture
def refused_rename(monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)


def test_failed_rename_keeps_the_old_file(tmp_path, refused_rename):
    target = tmp_path / "report.json"
    target.write_text("previous\n", encoding="utf-8")
    with pytest.raises(OSError, match="rename refused"):
        write_text_atomic(str(target), "new\n")
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_cli_out_survives_a_failed_rename(tmp_path, refused_rename, capsys):
    data = tmp_path / "data.csv"
    data.write_text("u,v\n1,2\n3,5\n4,4\n", encoding="utf-8")
    target = tmp_path / "summary.json"
    target.write_text("previous\n", encoding="utf-8")
    code = main(["summary", f"--data={data}", f"--out={target}"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error[io]: rename refused"]
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "summary.json"]


def test_write_replaces_the_old_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("previous\n", encoding="utf-8")
    write_text_atomic(str(target), "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_correlation_table_keeps_every_cell_apart():
    # Negative r at 12 digits and p in e-notation are the widest cells.
    rng = np.random.default_rng(77)
    a, b, c = rng.normal(size=(3, 12))
    d = Dataset({"a": a, "b": b - 0.6 * a, "a_long_name": a + 1e-4 * c})
    report = pearson_matrix(d)
    doc = new_document("corr", correlation={"names": list(report.names), "n": report.n,
                                            "r": report.r, "p": report.p})
    lines = render_text(doc).splitlines()
    table = lines[lines.index("correlation:") + 1:]
    k = len(report.names)
    assert table[0].split() == list(report.names)
    assert len(table) == 1 + 2 * k
    assert len({len(line) for line in table}) == 1
    for i, name in enumerate(report.names):
        r_row, p_row = table[1 + 2 * i].split(), table[2 + 2 * i].split()
        assert len(r_row) == len(p_row) == k + 1
        assert r_row == [name, *(format_number(v) for v in report.r[i])]
        assert p_row == ["p", *("—" if i == j else format_number(v) for j, v in enumerate(report.p[i]))]

"""Atomic report writes: a failed write leaves the old file and no temp file."""

import os

import pytest

from condreg.cli import main
from condreg.report import write_text_atomic


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

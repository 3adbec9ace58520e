"""Atomic report writes (a failed write, or an error while the report is
formed, leaves the old file and no temp file; a FIFO is written in
place, a descriptor alias through its descriptor, and a symlink
followed), pieces written as they are formed in bounded writes, the
text rendering of the correlation table, the row formatter that prints
a float array in one piece, and the column table that prints a list of
records a row at a time."""

import math
import os
import stat
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condreg import Dataset, pearson_matrix, report
from condreg.cli import main
from condreg.report import (
    ColumnTable,
    dumps_report,
    format_number,
    format_row,
    new_document,
    plot_tsv,
    render_text,
    report_pieces,
    write_text_atomic,
)


@pytest.fixture
def refused_rename(monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)


def test_failed_rename_keeps_the_old_file(tmp_path, refused_rename):
    target = tmp_path / "report.json"
    target.write_text("previous\n", encoding="utf-8")
    with pytest.raises(OSError, match="rename refused"):
        write_text_atomic(str(target), ["new\n"])
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


def test_text_that_cannot_be_encoded_keeps_the_old_file(tmp_path):
    # the lone surrogate sits in the second chunk, after the first was written
    target = tmp_path / "report.json"
    target.write_text("previous\n", encoding="utf-8")
    text = "a" * (report._WRITE_CHARS + 10) + "\ud800\n"
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(str(target), [text])
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_long_text_is_written_whole(tmp_path):
    target = tmp_path / "report.json"
    text = "".join(f"{i},é—\n" for i in range(3 * report._WRITE_CHARS // 8))
    assert len(text) > 2 * report._WRITE_CHARS
    write_text_atomic(str(target), [text])
    assert target.read_bytes() == text.encode("utf-8")


def test_write_replaces_the_old_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("previous\n", encoding="utf-8")
    write_text_atomic(str(target), ["new\n"])
    assert target.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_an_error_while_the_report_is_formed_keeps_the_old_file(tmp_path):
    # the first piece is written before the unserializable value is reached
    target = tmp_path / "report.json"
    target.write_text("previous\n", encoding="utf-8")
    doc = {"head": "x" * (2 * report._WRITE_CHARS), "tail": object()}
    with pytest.raises(TypeError, match="cannot serialize object"):
        write_text_atomic(str(target), report_pieces(doc))
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_short_pieces_are_gathered_and_a_long_one_is_sliced():
    limit = report._WRITE_CHARS
    pieces = ["a" * 10] * 3 + ["b" * (2 * limit + 5), "c" * (limit - 1), "d" * 2]
    writes = []
    report.write_chunks(SimpleNamespace(write=writes.append), iter(pieces))
    assert writes == ["a" * 30, "b" * limit, "b" * limit, "b" * 5, "c" * (limit - 1), "d" * 2]


def test_writing_a_wide_correlation_report_holds_a_small_part_of_it(tmp_path):
    """The report is written as it is formed: joining its pieces, as
    dumps_report does, held about twice its length.  What is left are the
    rows still to come, each keeping the cells mirrored from the rows
    above (about a quarter of each matrix's cells at the peak)."""
    rng = np.random.default_rng(300)
    data = Dataset({f"c{j}": rng.normal(size=40) for j in range(300)})
    corr = pearson_matrix(data)
    doc = new_document("corr", correlation={"names": list(corr.names), "n": corr.n, "r": corr.r, "p": corr.p})
    target = tmp_path / "corr.json"
    tracemalloc.start()
    try:
        write_text_atomic(str(target), report_pieces(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    length = target.stat().st_size
    assert length > 4_000_000
    assert peak < 0.5 * length
    assert target.read_text(encoding="utf-8") == dumps_report(doc)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_target_is_written_in_place(tmp_path):
    target = tmp_path / "report.fifo"
    os.mkfifo(target)
    received = []
    reader = threading.Thread(target=lambda: received.append(target.read_bytes()), daemon=True)
    reader.start()
    lines = [f"{i},é\n" for i in range(report._WRITE_CHARS // 2)]
    pieces = ["".join(lines), *lines]  # one piece longer than a write, then many short ones
    text = "".join(pieces)
    write_text_atomic(str(target), iter(pieces))
    reader.join(timeout=30)
    assert received == [text.encode("utf-8")]
    assert stat.S_ISFIFO(os.stat(target).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


def test_a_symlink_is_followed_and_kept(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("previous\n", encoding="utf-8")
    link = tmp_path / "latest.json"
    link.symlink_to(target)
    write_text_atomic(str(link), ["new\n"])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latest.json", "report.json"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("through_link", [False, True])
def test_a_descriptor_alias_is_written_at_the_descriptors_offset(tmp_path, through_link):
    """/dev/fd/N names a descriptor this process holds open: the text goes
    through it, after what was written to it before and before what follows,
    as a shell's ``> f.txt`` asks, and no file is renamed over f.txt."""
    target = tmp_path / "f.txt"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        path = f"/dev/fd/{fd}"
        if through_link:
            (tmp_path / "link").symlink_to(path)
            path = str(tmp_path / "link")
        os.write(fd, b"before\n")
        write_text_atomic(path, ["report\n"])
        os.write(fd, b"after\n")
    finally:
        os.close(fd)
    assert target.read_bytes() == b"before\nreport\nafter\n"
    assert target.is_file() and not target.is_symlink()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_closed_descriptor_is_an_error_naming_the_path(tmp_path, capsys):
    fd = os.open(tmp_path, os.O_RDONLY)
    os.close(fd)
    data = tmp_path / "data.csv"
    data.write_text("u,v\n1,2\n3,5\n", encoding="utf-8")
    assert main(["summary", f"--data={data}", f"--out=/dev/fd/{fd}"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error[io]: [Errno 9] Bad file descriptor: '/dev/fd/{fd}'"]


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


EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, -1e-320, 1.0 / 3.0, -2.0 / 3.0,
         1e22, -123456789012345.0, 1e-5, 9.99999999999e-5, 1e300]


def _with(matrix, index, value):
    """A copy of matrix with one entry set."""
    out = matrix.copy()
    out[index] = value
    return out


# Symmetric bit for bit, with a 0.0 pair, subnormals and twelve-digit ties.
SYMMETRIC = np.array([
    [1.0, 0.0, -0.25, 1.0 / 3.0],
    [0.0, 5e-324, -2.0 / 3.0, 1e22],
    [-0.25, -2.0 / 3.0, 0.0, 9.99999999999e-5],
    [1.0 / 3.0, 1e22, 9.99999999999e-5, -123456789012345.0],
])
ROW_ARRAYS = {
    "edges": np.array(EDGES),
    "float32": np.array([math.nan, math.inf, -0.0, 1e-40, 1.0 / 3.0, 3.4e38], dtype=np.float32),
    "float16": np.array([0.1, -65504.0, 6e-8], dtype=np.float16),
    "int": np.array([1, -2, 0, 10**15, -(2**62)]),
    "2-D": np.array(EDGES[:12]).reshape(3, 4),
    "2-D float32": np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
    "symmetric": SYMMETRIC,
    "symmetric float32": SYMMETRIC.astype(np.float32),
    "symmetric but for a signed zero": _with(SYMMETRIC, (0, 1), -0.0),
    "asymmetric by one ulp": _with(SYMMETRIC, (1, 3), np.nextafter(SYMMETRIC[3, 1], math.inf)),
    "symmetric with NaN and inf": _with(_with(_with(SYMMETRIC, (0, 2), math.nan), (2, 0), math.nan),
                                        (3, 3), -math.inf),
    "non-square": SYMMETRIC[:3],
    "empty": np.array([]),
    "empty int": np.array([], dtype=int),
    "empty 2-D": np.zeros((2, 0)),
}


def _generic(values):
    """The array as nested lists of numpy scalars, which take the entry-by-entry path."""
    return [_generic(row) for row in values] if values.ndim > 1 else list(values)


@pytest.mark.parametrize("name", list(ROW_ARRAYS))
def test_array_rows_print_as_the_entry_by_entry_path(name):
    values = ROW_ARRAYS[name]
    for doc in ({"v": values}, {"a": {"b": [values, values]}}):
        generic = {"v": _generic(values)} if "v" in doc else {"a": {"b": [_generic(values)] * 2}}
        assert dumps_report(doc) == dumps_report(generic)
    if values.ndim == 1:
        assert format_row(values) == [format_number(v) for v in values]


def test_empty_arrays_print_brackets():
    assert dumps_report({"v": np.array([])}) == '{\n  "v": []\n}\n'
    assert dumps_report({"v": np.zeros((2, 0))}) == '{\n  "v": [\n    [],\n    []\n  ]\n}\n'


def test_float_rows_print_twelve_digits_and_null():
    doc = {"v": np.array([math.nan, -0.0, 1.0 / 3.0, -math.inf])}
    assert dumps_report(doc) == '{\n  "v": [\n    null,\n    -0,\n    0.333333333333,\n    null\n  ]\n}\n'


def test_correlation_table_rows_print_as_the_entry_by_entry_path():
    # bitwise symmetric pairs take the mirrored path; the others do not
    for r, p in [
        (np.array(EDGES[:9]).reshape(3, 3), np.array(EDGES[6:15]).reshape(3, 3)),
        *((ROW_ARRAYS[name][:3, :3], ROW_ARRAYS[name][1:, 1:]) for name in ROW_ARRAYS if name.startswith("sym")),
        (ROW_ARRAYS["asymmetric by one ulp"][1:, 1:], ROW_ARRAYS["symmetric but for a signed zero"][:3, :3]),
    ]:
        fast = {"names": ["a", "b", "c"], "n": 9, "r": r, "p": p}
        generic = {**fast, "r": _generic(r), "p": _generic(p)}
        text = render_text(new_document("corr", correlation=fast))
        assert text == render_text(new_document("corr", correlation=generic))
        rows = text.splitlines()[3:]
        assert [row.split()[1 + i] for i, row in enumerate(rows[2::2])] == ["—"] * 3


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-2.3e-308, 2.3e-308)), min_size=1, max_size=40))
def test_finite_rows_print_through_one_template_as_entry_by_entry(values):
    # subnormals, -0.0 and every exponent go through the one %.12g template
    assert format_row(np.array(values)) == [format_number(v) for v in values]


def test_tsv_rows_print_as_the_entry_by_entry_path():
    sweep = np.column_stack([np.linspace(-1.0, 1.0, 5), [math.nan, 1e-320, -0.0, 1.0 / 7.0, math.inf]])
    tuples = [tuple(row) for row in sweep]
    text = plot_tsv(["sweep"], ["x", "y"], sweep)
    assert text == plot_tsv(["sweep"], ["x", "y"], tuples)
    assert text.splitlines()[2:] == ["-1\tnull", "-0.5\t9.99988867183e-321", "0\t-0",
                                     "0.5\t0.142857142857", "1\tnull"]


# Every kind of value a table cell may hold, edge cases drawn often.
CELLS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(),
    st.integers(-(10**20), 10**20),
    st.none(),
    st.booleans(),
    st.text(st.sampled_from(['"', "\\", "\n", "%", "{", "}", "é", "—", "\x00", "a", "😀"]), max_size=6),
)


@st.composite
def tables(draw):
    """Columns of one length: float arrays (the format_row path), int
    arrays, or lists of any cells."""
    keys = draw(st.lists(st.text(st.sampled_from(["k", '"', "%", "s", "{", "é", "\\"]), max_size=3),
                         min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 5))
    columns = {}
    for key in keys:
        kind = draw(st.sampled_from(["float", "int", "any"]))
        if kind == "float":
            values = draw(st.lists(st.one_of(st.sampled_from(EDGES), st.floats()), min_size=rows, max_size=rows))
            columns[key] = np.array(values, dtype=float)
        elif kind == "int":
            columns[key] = np.array(draw(st.lists(st.integers(-(2**62), 2**62), min_size=rows, max_size=rows)))
        else:
            columns[key] = draw(st.lists(CELLS, min_size=rows, max_size=rows))
    return columns


@given(tables())
def test_column_table_prints_as_its_list_of_dicts(columns):
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    table = ColumnTable(columns)
    for fast, generic in [
        ({"t": table}, {"t": records}),
        ({"a": {"b": [1, table]}, "c": "x"}, {"a": {"b": [1, records]}, "c": "x"}),
    ]:
        assert dumps_report(fast) == dumps_report(generic)
        assert render_text(fast) == render_text(generic)


def test_column_table_columns_share_one_length():
    with pytest.raises(ValueError, match="differ in length"):
        ColumnTable({"a": [1, 2], "b": np.array([1.0])})

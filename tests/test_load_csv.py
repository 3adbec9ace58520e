"""load_csv's vectorized pass against the row-by-row parser as the oracle:
the same names, bit-identical columns, the same dropped count, or the same
exception class, message and line, for every input."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreg import dataset, load_csv
from condreg.dataset import _load_rows
from condreg.errors import CsvParseError, EmptyDataError


def _outcome(parse, raw, delimiter, header):
    try:
        d, dropped = parse(raw, delimiter, header)
    except Exception as exc:  # the oracle's exceptions are part of its result
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))
    columns = [d.column(name).tobytes() for name in d.names]
    return ("loaded", d.names, dropped, columns, d.fingerprint)


def _assert_same(raw, delimiter=",", header=True):
    assert _outcome(load_csv, raw, delimiter, header) == _outcome(_load_rows, raw, delimiter, header)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PAD = st.sampled_from(["", " ", "  ", "\t", " "])
NUMBER = st.one_of(
    FINITE.map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.6f}"),
    FINITE.map(lambda v: f"{v:e}"),
    st.integers(-(10**20), 10**20).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:+g}"),
)
CELL = st.one_of(
    NUMBER,
    st.tuples(PAD, NUMBER, PAD).map("".join),
    st.sampled_from(["", " ", "NA", "nan", "-nan", "inf", "-Infinity", "1e400", "1_0", '"1.5"', '"2', "x"]),
)
BLANK_LINE = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def csv_inputs(draw):
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    header = draw(st.booleans())
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    lines = []
    if header:
        lines.append(delimiter.join(draw(st.sampled_from([["a", "b", "c", "d"], [" y", "x1 ", "x2", "x3"]]))[:k]))
    for _ in range(n):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(BLANK_LINE))
            continue
        width = k if draw(st.integers(0, 9)) else draw(st.integers(1, k + 1))  # short or long rows
        lines.append(delimiter.join(draw(st.lists(CELL, min_size=width, max_size=width))))
    if draw(st.booleans()):
        lines.insert(0, draw(BLANK_LINE))
    end = "\r\n" if draw(st.integers(0, 7)) == 0 else "\n"
    text = end.join(lines) + draw(st.sampled_from(["", end, end + end]))
    return text.encode("utf-8"), delimiter, header


@settings(max_examples=300)
@given(csv_inputs())
def test_matches_row_parser(case):
    _assert_same(*case)


@pytest.mark.parametrize(
    "raw",
    [
        b"a,b\n1,2\n\n   \n3,4\n",
        b"\n\na,b\n1,2\n",
        b"a,b\nnan,1\n-Infinity,2\n1e400,3\n4,5\n",
        b"a\n1_0\n0x10\n2\n",
        b"a,b\n1,NA\n2,\n3,4\n",
        b"a,b\n1,2\n3\n",
        b"a,b\n1,2,3\n4,5,6\n",
        b"a,b\n1,2\n#3,4\n",
        b"\xef\xbb\xbfa,b\n1,2\n",
        b"a,b\n1\xc2\xa0,2\n\xef\xbc\x91,3\n",
        b"a,b\n1\x00,2\n3,4\n",
        b"a,b\n\x0b1,2\n3,4\x0c\n",
        b"a,b\n1,2\n\xff\n",
        b"a,b\r1,2\r3,4\r",
        b"a,b\n1,2\r3,4\n",
        b"a,b\r\r\n1,2\r\r\n3,4\r\r\n",
        b"a,b\r\n1,\r\n3,4\r\n",
        b"a,b\r\n1,2\r\n\r\n3,4",
        b'a,b\n"1",2\n3,4\n',
        b'"a\nb"\n1\n2\n',
        b"a,a\n1,2\n",
        b"a,\n1,2\n",
        b"a,b\nnan,nan\n",
        b"1,2\n3,4\n",
        b"a,b\n1,2\n3,\n",
        b"a,b\n1,2\n,4\n",
        b"a,b\n1,,2\n",
        b"a,b\n1, 2\n3,  \n",
        b"a;b\n1 ;\t2\n \t; 4\n",
        b"a\tb\n1 \t2\n3\t \n",
        b"1,2\n3,4\n5,",
        b",2\n3,4\n",
        pytest.param(b"a,b\n" + b"1.5,-2e3\n" * 5000 + b"3,\n", id="empty-cell-in-last-of-5001-rows"),
    ],
)
def test_edge_inputs_match_row_parser(raw):
    for delimiter in ",;\t":
        _assert_same(raw, delimiter)
        _assert_same(raw, delimiter, header=False)


@pytest.mark.parametrize(
    "raw, delimiter, header, expected",
    [
        (b"y,x\n1,2\n\n3,-1e400\n5,6\n", ",", True, (["y", "x"], 2, 1)),
        (b"\n \n\ty\n1\n", ",", True, (["y"], 1, 0)),
        (b"y, x\n1, 2\n 3 ,\t4\n", ",", True, (["y", "x"], 2, 0)),
        (b"y\tx\n1 \t2\n", "\t", True, (["y", "x"], 1, 0)),
        (b" \n1;2;3\n4;5;1e400", ";", False, (["x1", "x2", "x3"], 1, 1)),
        (b"y,x\r\n1,2\r\n\r\n3, 4 \r\n5,1e400\r\n", ",", True, (["y", "x"], 2, 1)),
    ],
)
def test_plain_input_never_reaches_the_row_parser(monkeypatch, raw, delimiter, header, expected):
    def refuse(*args):
        raise AssertionError("row parser called")

    monkeypatch.setattr(dataset, "_load_rows", refuse)
    d, dropped = load_csv(raw, delimiter=delimiter, header=header)
    assert (d.names, d.n, dropped) == expected


@pytest.mark.parametrize(
    "raw, delimiter, header",
    [
        (b"a,b\n1,2\n3,NA\n", ",", True),
        (b"a,b\n1,2\n3,nan\n", ",", True),
        (b"a,b\n1,2\n3,4\xc2\xa0\n", ",", True),
    ],
)
def test_unusable_cell_declines_before_loadtxt(monkeypatch, raw, delimiter, header):
    def refuse(*args, **kwargs):
        raise AssertionError("loadtxt called")

    monkeypatch.setattr(dataset.np, "loadtxt", refuse)
    _assert_same(raw, delimiter, header)


@pytest.mark.parametrize("raw", [b"a,b\n", b"a,b\n\n  \n", b"a,b"])
def test_header_only_is_empty_data_without_a_warning(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataError):
            load_csv(raw)


@pytest.mark.parametrize(
    "raw, line",
    [
        (b"\xff\xfea,b\n1,2\n", 1),
        (b"a,b\n1,2\n3,\xe94\n", 3),
        (b'a,b\n"1\n\xc0",2\n', 3),
    ],
)
def test_byte_that_is_not_utf8_is_a_parse_error_on_its_line(raw, line):
    for parse in (load_csv, _load_rows):
        with pytest.raises(CsvParseError, match="is not UTF-8") as caught:
            parse(raw, ",", True)
        assert caught.value.line == line


@pytest.mark.parametrize("delimiter", ["", ";;", b","])
def test_delimiter_must_be_one_character_before_reading(delimiter):
    class Unread:
        def read(self):
            raise AssertionError("source read")

    with pytest.raises(ValueError, match="delimiter must be one character"):
        load_csv(Unread(), delimiter=delimiter)


def test_plain_input_peaks_below_three_times_its_size():
    """The fast path holds the parsed array and the columns, no n-sized scratch besides."""
    rows = np.random.default_rng(1).uniform(-1.0, 1.0, (20_000, 6))
    raw = ("a,b,c,d,e,f\n" + "".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in rows)).encode()
    tracemalloc.start()
    try:
        load_csv(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(raw)

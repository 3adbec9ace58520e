"""The cache of parsed inputs against ``dataset.load_csv`` as the oracle.

A hit gives the parser's names, n, dropped count and column bytes; an
input that changed is a miss; an entry that fails a check is a miss and
is written again; a cache directory that cannot be used leaves every
output as it was and holds nothing; a parse error is raised as the
parser raises it and stores nothing; the directory stays within its
size bound.
"""

import json
import os
import threading

import numpy as np
import pytest

from condreg import cache, cachestore, dataset
from condreg.cli import main
from conftest import modules_after

THRESHOLD = cache.THRESHOLD_BLOCKS * dataset._BLOCK_BYTES


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache directory of this test's own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "condreg"


@pytest.fixture
def parses(monkeypatch):
    """How many times the cache's load_csv has called the parser."""
    calls = []
    parse = dataset.load_csv
    monkeypatch.setattr(dataset, "load_csv", lambda *a, **k: calls.append(1) or parse(*a, **k))
    return calls


def _csv(path, rows=None, seed=0, extra=b""):
    """A CSV above the cache's threshold: Y and x1 of numbers, ``rows`` first."""
    rng = np.random.default_rng(seed)
    lines = [b"Y,x1\n", *(rows or [])]
    size = sum(map(len, lines)) + len(extra)
    while size <= THRESHOLD:
        y, x = rng.standard_normal(2).tolist()
        lines.append(f"{y!r},{x:.6f}\n".encode())
        size += len(lines[-1])
    path.write_bytes(b"".join(lines) + extra)
    return path


def _load(path, loader=cache.load_csv, delimiter=","):
    with open(path, "rb") as handle:
        return loader(handle, delimiter=delimiter)


def _outcome(loaded):
    data, dropped = loaded
    return data.names, data.n, dropped, [data.column(name).tobytes() for name in data.names]


def _entries(directory):
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


# -0.0, the smallest subnormal, a subnormal near the normal range, the
# largest double, and a row the parser drops
SPECIAL = [b"-0.0,5e-324\n", b"2.2250738585072e-309,-1.7976931348623157e308\n", b"NA,1\n"]


def test_a_hit_is_the_parse_bit_for_bit(tmp_path, cache_dir, parses):
    path = _csv(tmp_path / "in.csv", SPECIAL)
    expected = _outcome(_load(path, dataset.load_csv))
    parses.clear()
    assert _outcome(_load(path)) == expected  # a miss, stored
    assert (len(parses), len(_entries(cache_dir))) == (1, 1)
    hit = _load(path)
    assert _outcome(hit) == expected and len(parses) == 1
    assert hit[1] == 1 and np.signbit(hit[0].column("Y")[0])
    assert all(not hit[0].column(name).flags.writeable for name in hit[0].names)


def test_one_changed_byte_is_a_miss(tmp_path, cache_dir, parses):
    path = _csv(tmp_path / "in.csv")
    _load(path)
    raw = bytearray(path.read_bytes())
    raw[-2] = ord("7") if raw[-2] != ord("7") else ord("3")
    path.write_bytes(bytes(raw))
    assert _outcome(_load(path)) == _outcome(_load(path, dataset.load_csv))
    assert len(parses) == 3  # the first miss, this miss and the oracle
    assert len(_entries(cache_dir)) == 2


def test_the_delimiter_is_part_of_the_key(tmp_path, cache_dir, parses):
    path = tmp_path / "in.csv"
    path.write_bytes(b"Y\n" + b"1.5\n" * (THRESHOLD // 4 + 1))  # one column either way
    assert _outcome(_load(path)) == _outcome(_load(path, delimiter=";"))
    assert len(parses) == 2 and len(_entries(cache_dir)) == 2


def test_a_row_parsed_input_is_stored_under_all_its_bytes(tmp_path, cache_dir, parses):
    """A quote late in the file sends the parser back to its start; the
    entry is still keyed by the whole file, so the next read hits."""
    path = _csv(tmp_path / "in.csv", extra=b'"1.5",2\n')
    expected = _outcome(_load(path))
    assert _outcome(_load(path)) == expected and len(parses) == 1


def test_a_file_changed_after_the_lookup_is_stored_under_its_new_bytes(tmp_path, cache_dir, parses, monkeypatch):
    path = _csv(tmp_path / "in.csv")
    old, new = path.read_bytes(), path.read_bytes().replace(b"Y,x1", b"Y,x2")
    read_entry = cachestore._read_entry

    def changing(entry):
        found = read_entry(entry)
        path.write_bytes(new)  # same length: the open handle reads the new bytes
        return found

    monkeypatch.setattr(cachestore, "_read_entry", changing)
    assert _load(path)[0].names == ["Y", "x2"]
    monkeypatch.setattr(cachestore, "_read_entry", read_entry)
    assert _load(path)[0].names == ["Y", "x2"] and len(parses) == 1  # a hit
    path.write_bytes(old)
    assert _load(path)[0].names == ["Y", "x1"] and len(parses) == 2  # a miss


def _truncate(entry):
    entry.write_bytes(entry.read_bytes()[:-1])


def _pad(entry):
    entry.write_bytes(entry.read_bytes() + b"\0")


def _flip_a_value(entry):
    raw = bytearray(entry.read_bytes())
    raw[-3] ^= 1
    entry.write_bytes(bytes(raw))


def _bad_magic(entry):
    entry.write_bytes(b"x" + entry.read_bytes()[1:])


def _bad_header(entry):
    magic, digest, header, values = entry.read_bytes().split(b"\n", 3)
    entry.write_bytes(b"\n".join([magic, digest, header[:-1], values]))


def _wrong_n(entry):
    magic, digest, header, values = entry.read_bytes().split(b"\n", 3)
    fields = json.loads(header)
    fields["n"] -= 1
    entry.write_bytes(b"\n".join([magic, digest, json.dumps(fields).encode(), values]))


def _rename_a_column(entry):
    entry.write_bytes(entry.read_bytes().replace(b'"x1"', b'"x2"', 1))


def _bad_digest(entry):
    raw = entry.read_bytes()
    at = len(cachestore.MAGIC)
    entry.write_bytes(raw[:at] + (b"0" if raw[at : at + 1] != b"0" else b"1") + raw[at + 1 :])


def _empty(entry):
    entry.write_bytes(b"")


@pytest.mark.parametrize(
    "damage", [_truncate, _pad, _flip_a_value, _bad_magic, _bad_header, _wrong_n, _rename_a_column, _bad_digest, _empty]
)
def test_a_damaged_entry_is_a_miss_and_is_written_again(tmp_path, cache_dir, parses, damage):
    path = _csv(tmp_path / "in.csv", SPECIAL)
    expected = _outcome(_load(path))
    (entry,) = cache_dir.iterdir()
    intact = entry.read_bytes()
    damage(entry)
    assert _outcome(_load(path)) == expected and len(parses) == 2
    assert entry.read_bytes() == intact
    assert _outcome(_load(path)) == expected and len(parses) == 2


def _cannot_be_made(tmp_path, monkeypatch):
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    return None


def _foreign_owned(tmp_path, monkeypatch):
    directory = tmp_path / "xdg" / "condreg"
    directory.mkdir(parents=True, mode=0o700)
    uid = os.geteuid()
    monkeypatch.setattr(os, "geteuid", lambda: uid + 1)
    return directory


def _writable_by(mode):
    def make(tmp_path, monkeypatch):
        directory = tmp_path / "xdg" / "condreg"
        directory.mkdir(parents=True)
        directory.chmod(mode)
        return directory

    make.__name__ = f"_mode_{mode:o}"
    return make


def _unwritable(tmp_path, monkeypatch):
    directory = _writable_by(0o500)(tmp_path, monkeypatch)
    if os.access(directory, os.W_OK):
        pytest.skip("this user may write to a directory of mode 0500")
    return directory


def _write_fails(tmp_path, monkeypatch):
    """A usable directory where the entry's temporary file cannot be made."""
    directory = tmp_path / "xdg" / "condreg"
    directory.mkdir(parents=True, mode=0o700)
    path = _csv(tmp_path / "in.csv")
    with open(path, "rb") as handle:
        key = cachestore._input_key(cachestore._prefix(","), handle)
    (directory / f".{key}.{os.getpid()}.tmp").mkdir()
    return directory


@pytest.mark.parametrize(
    "unusable", [_cannot_be_made, _foreign_owned, _writable_by(0o770), _writable_by(0o707), _unwritable, _write_fails]
)
def test_an_unusable_cache_leaves_the_outputs_and_holds_nothing(tmp_path, monkeypatch, capsys, unusable):
    path = _csv(tmp_path / "in.csv")
    out = tmp_path / "out.json"

    def reports():
        for argv in (["summary"], ["fit", "--formula=Y ~ x1"]):
            assert main([*argv, f"--data={path}", f"--out={out}"]) == 0
            yield out.read_bytes()

    with monkeypatch.context() as patch:
        patch.setattr(cache, "THRESHOLD_BLOCKS", 10**9)
        parsed = list(reports())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    directory = unusable(tmp_path, monkeypatch)
    before = _entries(directory) if directory else []
    assert list(reports()) == parsed
    assert capsys.readouterr().err == ""
    if directory is not None:
        assert _entries(directory) == before


def test_a_malformed_csv_is_the_parsers_error_warm_or_cold_and_is_not_stored(tmp_path, cache_dir, capsys):
    good = _csv(tmp_path / "good.csv")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(good.read_bytes() + b"1,2,3\n")
    line = good.read_bytes().count(b"\n") + 1
    errors = []
    for _ in range(2):  # cold, then with the good file's entry in place
        assert main(["summary", f"--data={good}", f"--out={tmp_path / 'out.json'}"]) == 0
        assert main(["summary", f"--data={bad}", f"--out={tmp_path / 'out.json'}"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [f"error[csv-parse]: line {line}: expected 2 fields, found 3\n"] * 2
    assert len(_entries(cache_dir)) == 1


def _entry(directory, path):
    with open(path, "rb") as handle:
        return directory / cachestore._input_key(cachestore._prefix(","), handle)


def test_the_cache_stays_within_its_bound_least_recently_used_first(tmp_path, cache_dir, parses, monkeypatch):
    paths = [_csv(tmp_path / f"in{i}.csv", seed=i) for i in range(8)]
    entries = [_entry(cache_dir, path) for path in paths]
    for i, path in enumerate(paths):
        if i == 4:  # a hit makes entry 1 the most recently used
            assert _outcome(_load(paths[1])) == _outcome(_load(paths[1], dataset.load_csv))
        _load(path)
        os.utime(entries[i], (i, i))  # in the order stored, older than any hit
        if i == 0:
            monkeypatch.setattr(cachestore, "PARSE_CACHE_BYTES", 3 * entries[0].stat().st_size + 100)
        assert sum(p.stat().st_size for p in cache_dir.iterdir()) <= cachestore.PARSE_CACHE_BYTES
        assert len(_entries(cache_dir)) == min(i + 1, 3)
    assert _entries(cache_dir) == sorted(entries[i].name for i in (1, 6, 7))


def test_an_entry_larger_than_the_bound_is_not_stored(tmp_path, cache_dir, monkeypatch):
    monkeypatch.setattr(cachestore, "PARSE_CACHE_BYTES", 1000)
    _load(_csv(tmp_path / "in.csv"))
    assert _entries(cache_dir) == []


def test_small_files_and_fifos_are_parsed_without_the_cache(tmp_path, cache_dir, parses):
    small = tmp_path / "small.csv"
    small.write_bytes(b"Y,x1\n1,2\n3,4\n")
    assert _load(small)[0].n == 2
    raw = _csv(tmp_path / "large.csv").read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
    writer.start()
    try:
        assert _outcome(_load(fifo)) == _outcome(_load(tmp_path / "large.csv", dataset.load_csv))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert len(parses) == 3 and not cache_dir.exists()


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
def test_only_an_input_above_the_threshold_loads_the_store(tmp_path, large):
    path = _csv(tmp_path / "in.csv") if large else tmp_path / "in.csv"
    if not large:
        path.write_bytes(b"Y,x1\n1,2\n3,4\n")
    argv = ["summary", f"--data={path}", f"--out={tmp_path / 'out.json'}"]
    loaded, _ = modules_after(f"import condreg.cli\nassert condreg.cli.main({argv!r}) == 0")
    assert "condreg.cache" in loaded
    assert ("condreg.cachestore" in loaded) is large

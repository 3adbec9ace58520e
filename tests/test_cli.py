"""Contract tests for the command-line driver: exit codes, error lines,
byte-identical reports, and the numbers in them against lstsq oracles."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from condreg.cli import main

RESPONSE = "Y"


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _write_csv(path, columns):
    """repr text, which the CLI parses back to the same doubles."""
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    return _write_lines(path, [",".join(names)] + [",".join(repr(float(v)) for v in row) for row in rows])


@pytest.fixture
def signal(tmp_path):
    """60 rows: Y = 1 + 2a - 1.5b + 0.8ab + noise, an unrelated c, and a
    constant k that makes any model with an intercept rank deficient."""
    rng = np.random.default_rng(6021)
    n = 60
    a, b, c = rng.normal(size=(3, n))
    y = 1.0 + 2.0 * a - 1.5 * b + 0.8 * a * b + rng.normal(size=n)
    data = {RESPONSE: y, "a": a, "b": b, "c": c, "k": np.full(n, 3.0)}
    return _write_csv(tmp_path / "signal.csv", data), data


def _column(data, label):
    col = np.ones(len(data[RESPONSE]))
    if label != "(intercept)":
        for factor in label.split(":"):
            name, _, power = factor.partition("^")
            col = col * data[name] ** int(power or 1)
    return col


def _oracle(data, labels):
    """lstsq coefficients, R^2, and textbook se/p for an intercept model."""
    X = np.column_stack([_column(data, label) for label in labels])
    y = data[RESPONSE]
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ coef
    rss = float(resid @ resid)
    n, p = X.shape
    r2 = 1.0 - rss / float(((y - y.mean()) ** 2).sum())
    se = np.sqrt(np.diag(rss / (n - p) * np.linalg.inv(X.T @ X)))
    pvals = 2.0 * scipy.stats.t.sf(np.abs(coef / se), n - p)
    return coef, r2, pvals


def _run(args, out):
    code = main([*args, f"--out={out}"])
    return code, out.read_bytes() if out.exists() else None


def _run_twice(tmp_path, args):
    first_code, first = _run(args, tmp_path / "first.json")
    second_code, second = _run(args, tmp_path / "second.json")
    assert first_code == second_code == 0
    assert first == second
    return json.loads(first)


def _terms(formula):
    return [t.strip() for t in formula.split("~")[1].split("+")]


def test_fit_report_matches_oracle(tmp_path, signal):
    path, data = signal
    report = _run_twice(tmp_path, ["fit", f"--data={path}", "--formula=Y ~ a + b + c + a:b"])
    rows = report["model"]["coefficients"]
    labels = [row["term"] for row in rows]
    assert labels == ["(intercept)", "a", "b", "c", "a:b"]
    coef, r2, pvals = _oracle(data, labels)
    np.testing.assert_allclose([row["coef"] for row in rows], coef, rtol=1e-10)
    np.testing.assert_allclose([row["p"] for row in rows], pvals, rtol=1e-9)
    assert report["model"]["stats"]["r2"] == pytest.approx(r2, abs=1e-12)


def test_subset_ranks_and_skips(tmp_path, signal):
    path, data = signal
    pool = "a,b,c,k,a:b,b^2,zz"
    report = _run_twice(
        tmp_path, ["subset", f"--data={path}", "--response=Y", f"--pool={pool}", "--size=2"]
    )
    # oracle ranking over the five usable terms: R^2 descending
    usable = ["a", "b", "c", "a:b", "b^2"]
    scores = {}
    for i, first in enumerate(usable):
        for second in usable[i + 1:]:
            scores[(first, second)] = _oracle(data, ["(intercept)", first, second])[1]
    ranked = report["ranked"]
    got = [tuple(_terms(entry["formula"])) for entry in ranked]
    assert [set(pair) for pair in got] == [
        set(pair) for pair in sorted(scores, key=scores.get, reverse=True)
    ]
    assert got[:3] == [("a", "b"), ("a", "b^2"), ("a", "a:b")]
    for pair, entry in zip(got, ranked):
        key = pair if pair in scores else pair[::-1]
        assert entry["r2"] == pytest.approx(scores[key], abs=1e-12)
    deficient = "design matrix is rank deficient (dependent column: (intercept))"
    unknown = "predictor 'zz' not in dataset"
    assert report["skipped"] == [
        {"terms": ["a", "k"], "reason": deficient},
        {"terms": ["a", "zz"], "reason": unknown},
        {"terms": ["b", "k"], "reason": deficient},
        {"terms": ["b", "zz"], "reason": unknown},
        {"terms": ["c", "k"], "reason": deficient},
        {"terms": ["c", "zz"], "reason": unknown},
        {"terms": ["k", "zz"], "reason": unknown},
        {"terms": ["k", "a:b"], "reason": deficient},
        {"terms": ["k", "b^2"], "reason": deficient},
        {"terms": ["zz", "a:b"], "reason": unknown},
        {"terms": ["zz", "b^2"], "reason": unknown},
    ]


def test_stepwise_removal_sequence(tmp_path, signal):
    path, data = signal
    start = "Y ~ a + b + c + a:b + a^2 + b^2"
    report = _run_twice(
        tmp_path, ["stepwise", f"--data={path}", f"--formula={start}", "--no-hierarchy"]
    )
    # oracle: drop the largest p above 0.05 and refit until none is left
    terms = _terms(start)
    removed = []
    while True:
        _, _, pvals = _oracle(data, ["(intercept)"] + terms)
        worst = int(np.argmax(pvals[1:]))
        if pvals[1 + worst] <= 0.05:
            break
        removed.append((terms[worst], pvals[1 + worst]))
        terms = terms[:worst] + terms[worst + 1:]
    assert [step["removed"] for step in report["steps"]] == [label for label, _ in removed]
    assert [label for label, _ in removed] == ["c", "a^2", "b^2"]
    np.testing.assert_allclose([step["p"] for step in report["steps"]], [p for _, p in removed], rtol=1e-9)
    final = report["final"]["coefficients"]
    assert [row["term"] for row in final] == ["(intercept)"] + terms
    coef, r2, _ = _oracle(data, ["(intercept)"] + terms)
    np.testing.assert_allclose([row["coef"] for row in final], coef, rtol=1e-10)
    assert report["final"]["stats"]["r2"] == pytest.approx(r2, abs=1e-12)


def test_corr_on_constant_column_is_a_data_error(tmp_path, signal, capsys):
    path, _ = signal
    code = main(["corr", f"--data={path}", f"--out={tmp_path / 'corr.json'}"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[degenerate-column]: ")
    assert not (tmp_path / "corr.json").exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_ellipse_rejects_non_positive_points(tmp_path, signal, capsys, points):
    path, _ = signal
    code = main(
        ["ellipse", f"--data={path}", "--x=a", "--y=b", f"--points={points}",
         f"--plot-out={tmp_path / 'ellipse.tsv'}", f"--out={tmp_path / 'ellipse.json'}"]
    )
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error[degenerate-ellipse]: a boundary needs at least 1 point, got {points}"]
    assert not (tmp_path / "ellipse.tsv").exists()


@pytest.fixture
def two_unusable(tmp_path):
    """Eight rows of three columns; rows 3 and 6 have an NA and an empty cell."""
    rng = np.random.default_rng(314)
    rows = [[repr(float(v)) for v in rng.normal(size=3)] for _ in range(8)]
    rows[2][1] = "NA"
    rows[5][0] = ""
    return _write_lines(tmp_path / "unusable.csv", ["u,v,w"] + [",".join(row) for row in rows])


def test_summary_counts_dropped_rows(tmp_path, two_unusable):
    report = _run_twice(tmp_path, ["summary", f"--data={two_unusable}"])
    assert report["dropped_rows"] == 2
    assert report["n"] == 6
    assert list(report["columns"]) == ["u", "v", "w"]


def test_corr_skips_dropped_rows(tmp_path, two_unusable):
    report = _run_twice(tmp_path, ["corr", f"--data={two_unusable}"])
    # the corr report has no dropped_rows field; n shows the two are gone
    assert report["correlation"]["n"] == 6
    assert report["correlation"]["names"] == ["u", "v", "w"]


@pytest.mark.parametrize("command", ["summary", "corr"])
def test_ragged_row_is_a_csv_parse_error(tmp_path, capsys, command):
    path = _write_lines(tmp_path / "ragged.csv", ["u,v", "1,2", "3,4", "5,6", "7", "8,9"])
    code = main([command, f"--data={path}", f"--out={tmp_path / 'out.json'}"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[csv-parse]: line 5: ")
    assert not (tmp_path / "out.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, condreg.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

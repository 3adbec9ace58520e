"""Contract tests for the command-line driver: exit codes, error lines,
byte-identical reports, and the numbers in them against lstsq oracles."""

import gc
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from condreg import FittedModel, ModelSpec, cli, dataset, full_quadratic_terms, load_csv, pearson_matrix, report
from condreg.cli import main
from condreg.defaults import MAX_PLOT_POINTS
from conftest import modules_after

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


def test_fit_of_a_tiny_response_matches_the_unscaled_oracle(tmp_path, signal):
    """A response of order 1e-170 has squares below the smallest double;
    its t, p and R^2 are those of the same data at order 1."""
    path, data = signal
    tiny = {**data, RESPONSE: data[RESPONSE] * 1e-170}
    tiny_path = _write_csv(tmp_path / "tiny.csv", tiny)
    report = _run_twice(tmp_path, ["fit", f"--data={tiny_path}", "--formula=Y ~ a + b"])
    rows = report["model"]["coefficients"]
    coef, r2, pvals = _oracle(data, ["(intercept)", "a", "b"])
    np.testing.assert_allclose([row["coef"] for row in rows], coef * 1e-170, rtol=1e-10)
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
    deficient = "design matrix is rank deficient (dependent column: k)"
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


def test_subset_builds_no_object_per_candidate(tmp_path, monkeypatch):
    """Best subset of 3 from a 27-term pool: 2,925 candidates, one
    ModelSpec and one FittedModel (the best model, for its advisories),
    and a ranked table that costs as many _pieces calls as an empty one."""
    rng = np.random.default_rng(27)
    names = [f"x{i}" for i in range(1, 7)]
    columns = {name: rng.normal(size=60) for name in names}
    path = _write_csv(tmp_path / "pool.csv", {RESPONSE: columns["x1"] + rng.normal(size=60), **columns})
    pool = ",".join(term.label for term in full_quadratic_terms(names))
    built, documents, emitted = [], [], []
    spec_check, model_init, new, emit = ModelSpec.__post_init__, FittedModel.__init__, cli.new_document, report._pieces
    monkeypatch.setattr(ModelSpec, "__post_init__", lambda self: built.append(type(self)) or spec_check(self))
    monkeypatch.setattr(FittedModel, "__init__", lambda self, *a, **k: built.append(type(self)) or model_init(self, *a, **k))
    monkeypatch.setattr(cli, "new_document", lambda *a, **k: documents.append(new(*a, **k)) or documents[-1])
    argv = ["subset", f"--data={path}", "--response=Y", f"--pool={pool}", "--size=3"]
    assert main([*argv, f"--out={tmp_path / 'report.json'}"]) == 0
    assert built == [ModelSpec, FittedModel]
    (doc,) = documents
    assert doc["ranked"].n_rows + len(doc["skipped"]) == 2925
    monkeypatch.setattr(report, "_pieces", lambda *args: emitted.append(1) or emit(*args))
    counts = []
    empty = report.ColumnTable({key: [] for key in doc["ranked"].columns})
    for ranked in (doc["ranked"], empty):
        emitted.clear()
        report.dumps_report({**doc, "ranked": ranked})
        counts.append(len(emitted))
    assert counts[0] == counts[1]


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


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """Neither the import nor any command that fits a model loads scipy."""
    commands = [
        ["fit", f"--data={SURVEY}", "--formula=Y ~ x1 + x2 + x1:x2"],
        ["stepwise", f"--data={SURVEY}", "--formula=Y ~ quad(x1,x2) + x3"],
        ["subset", f"--data={SURVEY}", "--response=Y", "--pool=x1,x2,x3,x1:x2,x1^2", "--size=2"],
        ["bridge", f"--data={SURVEY}", "--response=Y", "--predictors=x1,x2", "--target=x1"],
        ["residualize", f"--data={SURVEY}", "--target=x1", "--others=x2,x3"],
    ]
    commands = [argv + [f"--out={tmp_path / argv[0]}.json"] for argv in commands]
    code = (
        "import sys, condreg.cli\n"
        "print('scipy' in sys.modules)\n"
        f"print([condreg.cli.main(argv) for argv in {commands!r}])\n"
        "print('scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", "[0, 0, 0, 0, 0]", "False"]
    assert all((tmp_path / f"{argv[0]}.json").exists() for argv in commands)


def test_a_module_that_fails_to_import_is_a_classified_error(tmp_path):
    """A command imports numpy when it runs; a numpy that cannot be
    imported is one error[import] line and exit 1, and --help, which
    loads no numpy, still works."""
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text('raise ImportError("numpy is broken here")\n')
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), *sys.path])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "condreg.cli", *argv], env=env,
                              capture_output=True, text=True, cwd=tmp_path)

    out = run("summary", f"--data={SURVEY}", f"--out={tmp_path / 'summary.json'}")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.splitlines() == ["error[import]: numpy is broken here"]
    assert not (tmp_path / "summary.json").exists()
    helped = run("--help")
    assert helped.returncode == 0 and "Traceback" not in helped.stderr


@pytest.fixture
def overflowing(tmp_path):
    """Column a squares past the largest double; b is ordinary."""
    columns = {"a": [1e200, -1e200, 3e200, 5.0], "b": [1.0, 2.0, 4.0, 3.0]}
    return _write_csv(tmp_path / "overflow.csv", columns), columns


def test_huge_values_are_correlated_and_summarized_without_warnings(tmp_path, overflowing):
    path, columns = overflowing
    # correlation is scale free, so the rescaled data is the oracle
    want = np.corrcoef([np.array(columns["a"]) / 1e200, columns["b"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _run_twice(tmp_path, ["corr", f"--data={path}"])
        with open(path, "rb") as handle:
            r = pearson_matrix(load_csv(handle)[0]).r
        summary = _run_twice(tmp_path, ["summary", f"--data={path}"])
    np.testing.assert_allclose(report["correlation"]["r"], want, rtol=1e-12)
    np.testing.assert_allclose(r, want, rtol=1e-12)
    assert summary["columns"]["a"]["variance"] is None  # inf, written as null
    assert summary["columns"]["b"]["variance"] == pytest.approx(np.var(columns["b"], ddof=1))


def test_ellipse_of_huge_values_says_the_covariance_overflows(tmp_path, overflowing, capsys):
    path, _ = overflowing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ellipse", f"--data={path}", "--x=a", "--y=b",
                     f"--plot-out={tmp_path / 'e.tsv'}", f"--out={tmp_path / 'e.json'}"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error[degenerate-ellipse]: (a, b) sample covariance overflows; rescale the columns"
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--response=Y", "--predictors=a,b", "--target=a"], "bridge needs --data/--response/"),
        (["--a1=1", "--a2=2", "--r=0.5"], "reconstruction mode needs all of"),
    ],
)
def test_bridge_checks_its_arguments(tmp_path, capsys, args, message):
    code = main(["bridge", *args, f"--out={tmp_path / 'bridge.json'}"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error[assignment]: {message}")
    assert not (tmp_path / "bridge.json").exists()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SURVEY = os.path.join(GOLDEN, "survey.csv")
CODED_ACTION = ["action", "--formula=SDH ~ Pb + Cd + Pb:Cd", "--allow-saturated",
                f"--data={os.path.join(GOLDEN, 'coded.csv')}", "--f1=Pb", "--f2=Cd"]

# Where a setting can come from, highest precedence first.
LEVELS = ["flag", "config", "env", "default"]


def _layered(tmp_path, monkeypatch, key, flag, level, win, lose):
    """Global and command arguments that put ``win`` at ``level`` and
    ``lose`` at every lower level, so the report shows which one was read."""
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    top, extra = [], []
    for rank, layer in enumerate(LEVELS[:-1]):
        if rank < LEVELS.index(level):
            continue
        value = win if layer == level else lose
        if layer == "flag":
            extra.append(f"{flag}={value}")
            continue
        path = tmp_path / f"{layer}.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        if layer == "config":
            top.append(f"--config={path}")
        else:
            monkeypatch.setenv("CONDREG_CONFIG", str(path))
    return top, extra


# key: flag, command, winning and losing values, what the report shows,
# and what it shows for the winning value and for the built-in default.
SETTINGS = {
    "alpha": ("--alpha", ["stepwise", f"--data={SURVEY}", "--formula=Y ~ quad(x1,x2) + x3"],
              0.7, 0.55, lambda report: len(report["steps"]), 0, 2),
    "correlation_threshold": (None, ["fit", f"--data={SURVEY}", "--formula=Y ~ x1 + x2"],
                              0.8, 0.5, lambda report: report["warnings"][1:],
                              ["correlation: |r(x1, x2)| = 0.838 exceeds 0.8"],
                              ["correlation: |r(x1, x2)| = 0.838 exceeds 0.7"]),
    "antagonism_tolerance": ("--control-tolerance", CODED_ACTION, 0.001, 0.5,
                             lambda report: report["action"]["label"], "less-than-additive", "antagonism"),
}


@pytest.mark.parametrize(
    "key, level",
    [(key, level) for key in SETTINGS for level in LEVELS if level != "flag" or SETTINGS[key][0]],
)
def test_setting_precedence(tmp_path, monkeypatch, key, level):
    flag, argv, win, lose, shown, shown_win, shown_default = SETTINGS[key]
    top, extra = _layered(tmp_path, monkeypatch, key, flag, level, win, lose)
    out = tmp_path / "report.json"
    assert main([*top, *argv, *extra, f"--out={out}"]) == 0
    assert shown(json.loads(out.read_text(encoding="utf-8"))) == (
        shown_default if level == "default" else shown_win
    )


# Every command whose report lists correlation warnings.
CORRELATION_WARNED = [
    ["fit", f"--data={SURVEY}", "--formula=Y ~ x1 + x2"],
    ["stepwise", f"--data={SURVEY}", "--formula=Y ~ quad(x1,x2) + x3"],
    ["subset", f"--data={SURVEY}", "--response=Y", "--pool=x1,x2,x3", "--size=2"],
]


@pytest.mark.parametrize("argv", CORRELATION_WARNED, ids=lambda argv: argv[0])
def test_every_correlation_warning_reads_the_configured_threshold(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"correlation_threshold": 0.5}), encoding="utf-8")
    report = _run_twice(tmp_path, [f"--config={config}", *argv])
    assert [w for w in report["warnings"] if w.startswith("correlation")] == [
        "correlation: |r(x1, x2)| = 0.838 exceeds 0.5"
    ]


@pytest.mark.parametrize("threshold, cautions", [(0.9, []), (0.5, [("x2", 0.838)])])
def test_conditional_cautions_read_the_configured_threshold(tmp_path, monkeypatch, threshold, cautions):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"correlation_threshold": threshold}), encoding="utf-8")
    report = _run_twice(tmp_path, [f"--config={config}", "conditional", f"--data={SURVEY}",
                                   "--formula=Y ~ quad(x1,x2)", "--target=x1", "--fix=x2=q25"])
    assert [(c["predictor"], round(c["r"], 3)) for c in report["conditional"]["cautions"]] == cautions


def test_fix_summarises_only_the_columns_fixed_at_a_preset(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no --fix names a preset, so no column needs a summary")

    monkeypatch.setattr(cli, "quartiles", refuse)
    for argv in (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0.25"],
                 ["effect", *SATURATED_CODED, "--target=Pb", "--fix=Cd=-0.5", "--at=0.2"],
                 ["action", *SATURATED_CODED, "--f1=Pb", "--f2=Cd"]):
        assert main(argv) == 0
    summarised = []

    def spy(d, names=None):
        summarised.append(names)
        return dataset.quartiles(d, names)

    monkeypatch.setattr(cli, "quartiles", spy)
    assert main(["conditional", f"--data={SURVEY}", "--formula=Y ~ quad(x1,x2) + x3", "--target=x1",
                 "--fix=x2=q25,x3=1.5"]) == 0
    # a name the model does not use is refused before any column is summarised
    assert main(["conditional", f"--data={SURVEY}", "--formula=Y ~ x1 + x2", "--target=x1",
                 "--fix=x2=mean,x9=max"]) == 2
    assert summarised == [["x2"]]
    assert capsys.readouterr().err.splitlines() == ["error[assignment]: fixed assignment has superfluous entries: ['x9']"]


@pytest.mark.parametrize("value", ["0.1", "1.0"])
def test_a_constant_predictor_keeps_the_other_correlation_warnings(tmp_path, monkeypatch, value):
    # k is constant whether or not its float mean rounds to its value, and
    # either way the x1-x2 pair keeps its warning
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    with open(SURVEY, encoding="utf-8") as handle:
        header, *rows = handle.read().splitlines()
    path = _write_lines(tmp_path / "survey-k.csv", [header + ",k"] + [row + "," + value for row in rows])
    report = _run_twice(tmp_path, ["fit", f"--data={path}", "--formula=Y ~ 0 + x1 + x2 + k"])
    assert [w for w in report["warnings"] if w.startswith("correlation")] == [
        "correlation: |r(x1, x2)| = 0.838 exceeds 0.7"
    ]


def test_fit_where_r_is_undefined_has_no_correlation_warning(tmp_path, monkeypatch, signal):
    # a constant column, and n = 2 < 3: r is undefined, so the fit is
    # reported without a correlation warning rather than refused
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    path, _ = signal
    two_rows = _write_lines(tmp_path / "two.csv", ["Y,x1,x2", "1,2,5", "3,1,7"])
    for argv, n in ((["fit", f"--data={path}", "--formula=Y ~ 0 + a + k"], 60),
                    (["fit", f"--data={two_rows}", "--formula=Y ~ 0 + x1 + x2", "--allow-saturated"], 2)):
        report = _run_twice(tmp_path, argv)
        assert report["model"]["stats"]["n"] == n
        assert not [w for w in report["warnings"] if w.startswith("correlation:")]


@pytest.mark.parametrize("level", LEVELS)
def test_delimiter_precedence(tmp_path, monkeypatch, level):
    # Only the delimiter the file is written with parses it: under any other
    # every row is one non-numeric cell and the command exits 1.
    delimiter = "," if level == "default" else ";"
    path = _write_lines(tmp_path / "data.csv", [delimiter.join(row) for row in
                                                [("u", "v"), ("1", "2"), ("3", "5"), ("4", "4")]])
    top, extra = _layered(tmp_path, monkeypatch, "delimiter", "--delimiter", level, ";", "|")
    report = _run_twice(tmp_path, [*top, "summary", f"--data={path}", *extra])
    assert list(report["columns"]) == ["u", "v"]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"alpha": 0.1, "colour": "red"}', "unknown config keys ['colour']"),
        ("{alpha: 1", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"alpha": "abc"}', "config key 'alpha' must be a number, got 'abc'"),
        ('{"level": null}', "config key 'level' must be a number, got None"),
        ('{"delimiter": 5}', "config key 'delimiter' must be one character, got 5"),
        ('{"delimiter": "ab"}', "config key 'delimiter' must be one character, got 'ab'"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_bad_config_is_a_config_error(tmp_path, monkeypatch, capsys, text, message, source):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    top = [f"--config={path}"] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("CONDREG_CONFIG", str(path))
    code = main([*top, "summary", f"--data={SURVEY}", f"--out={tmp_path / 'out.json'}"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[config]: ")
    assert message in lines[0]
    assert not (tmp_path / "out.json").exists()


def test_config_delimiter_is_checked_by_a_command_that_reads_no_data(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    config = tmp_path / "config.json"
    config.write_text('{"delimiter": "ab"}', encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["bridge", "--a1=1", "--a2=2", "--c12=0.3", "--c21=0.2", "--r=0.4", f"--out={out}"]
    assert main([f"--config={config}", *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error[config]: config key 'delimiter' must be one character, got 'ab'"
    ]
    assert not out.exists()


@pytest.mark.parametrize("argv, files", [
    (["corr"], ["--out"]),
    (["ellipse", "--x=c0", "--y=c1", "--points=5000"], ["--plot-out", "--out"]),
], ids=["corr", "ellipse"])
def test_output_without_a_file_reaches_stdout_in_bounded_chunks(tmp_path, monkeypatch, argv, files):
    """A report or plot given no file goes to standard output in writes of
    at most 65,536 characters, which join to the text the file would hold."""
    rng = np.random.default_rng(11)
    data = _write_csv(tmp_path / "wide.csv", {f"c{j}": rng.normal(size=10) for j in range(60)})
    argv = [argv[0], f"--data={data}", *argv[1:]]
    assert main([*argv, *(f"{flag}={tmp_path / flag[2:]}" for flag in files)]) == 0
    expected = "".join((tmp_path / flag[2:]).read_text(encoding="utf-8") for flag in files)
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(argv) == 0
    assert len(writes) > len(files) and max(map(len, writes)) <= 65536
    assert "".join(writes) == expected


@pytest.mark.parametrize("threshold", ["NaN", "-1", "1.5"])
def test_correlation_threshold_outside_the_unit_interval_is_a_config_error(tmp_path, monkeypatch, capsys, threshold):
    # NaN would silence every correlation warning, and -1 raise one for every pair
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    config = tmp_path / "config.json"
    config.write_text(f'{{"correlation_threshold": {threshold}}}', encoding="utf-8")
    out = tmp_path / "out.json"
    assert main([f"--config={config}", "fit", f"--data={SURVEY}", "--formula=Y ~ x1 + x2", f"--out={out}"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error[config]: config key 'correlation_threshold' must lie in [0, 1], got {float(threshold)}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("threshold, warned", [(0, True), (1, False)])
def test_correlation_threshold_may_be_either_bound(tmp_path, monkeypatch, threshold, warned):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"correlation_threshold": threshold}), encoding="utf-8")
    report = _run_twice(tmp_path, [f"--config={config}", "fit", f"--data={SURVEY}", "--formula=Y ~ x1 + x2"])
    assert any(w.startswith("correlation: |r(x1, x2)|") for w in report["warnings"]) is warned


def test_missing_config_file_is_an_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    code = main([f"--config={tmp_path / 'absent.json'}", "summary", f"--data={SURVEY}"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[io]: ")


# Constant columns of seven rows: the mean of 0.1s rounds away from 0.1, that of 1.0s does not.
CONSTANTS = ["0.1", "1.0"]
ZERO_VARIANCE = "error[degenerate-column]: column 'a' has zero variance"
SUBNORMAL = "coefficient of 'x1' leaves the double range; rescale its column"


@pytest.fixture
def hostile_files(tmp_path):
    (tmp_path / "utf16.csv").write_bytes(b"\xff\xfeu,v\n1,2\n")
    (tmp_path / "late-byte.csv").write_bytes(b"u,v\n1,2\n3,4\n5,\xe96\n")
    (tmp_path / "header-only.csv").write_bytes(b"u,v\n")
    # each column's sum of squares, 4e616, is past the largest double
    (tmp_path / "huge.csv").write_bytes(b"Y,x1\n1e308,-1e308\n-1e308,1e308\n1e308,1e308\n-1e308,-1e308\n")
    # x1 is subnormal, so its coefficient, about 1e310, is past the largest double
    (tmp_path / "subnormal.csv").write_bytes(b"Y,x1\n1,1e-310\n2,2e-310\n3,3.1e-310\n4,4e-310\n5,5.2e-310\n")
    for value in CONSTANTS:
        rows = [f"{value},{i % 3},{i * i % 7}" for i in range(7)]
        (tmp_path / f"const-{value}.csv").write_text("\n".join(["a,b,Y", *rows]) + "\n", encoding="utf-8")
    return tmp_path


SATURATED_CODED = ["--formula=SDH ~ Pb + Cd + Pb:Cd", "--allow-saturated",
                   f"--data={os.path.join(GOLDEN, 'coded.csv')}"]

ACTION_SURVEY = [f"--data={SURVEY}", "--formula=Y ~ x1 + x2 + x1:x2", "--f1=x1", "--f2=x2"]
PUBLISHED_CODED = ["--formula=SDH ~ Pb + Cd + Pb:Cd", "--coef=693,-4.7,4.49,43.92"]
BRIDGE_GIVEN = ["--a1=1", "--a2=2", "--c12=0.5", "--c21=0.5"]

# argv ({dir} names the fixture directory) -> exit status and error line
HOSTILE = [
    (["summary", f"--data={SURVEY}", "--delimiter=;;"], 2,
     "error[value]: delimiter must be one character, got ';;'"),
    (["summary", f"--data={SURVEY}", "--delimiter="], 2,
     "error[value]: delimiter must be one character, got ''"),
    (["summary", "--data={dir}/utf16.csv"], 1, "error[csv-parse]: line 1: byte 0xff is not UTF-8"),
    (["corr", "--data={dir}/late-byte.csv"], 1, "error[csv-parse]: line 4: byte 0xe9 is not UTF-8"),
    (["summary", "--data={dir}/header-only.csv"], 1, "error[empty-data]: "),
    (["summary", "--data={dir}"], 1, "error[io]: "),
    (["fit", "--data={dir}/absent.csv", "--formula=Y ~ x1"], 1, "error[io]: "),
    (["ellipse", f"--data={SURVEY}", "--x=x1", "--y=x2", "--level=1.5"], 2,
     "error[value]: level must lie in (0, 1), got 1.5"),
    (["ellipse", f"--data={SURVEY}", "--x=x1", "--y=x2", "--points=0"], 2, "error[degenerate-ellipse]: "),
    (["ellipse", f"--data={SURVEY}", "--x=x1", "--y=x2", f"--points={MAX_PLOT_POINTS + 1}"], 2,
     f"error[degenerate-ellipse]: a boundary takes at most {MAX_PLOT_POINTS} points, got {MAX_PLOT_POINTS + 1}"),
    (["ellipse", f"--data={SURVEY}", "--x=x1", "--y=x2", "--points=1000000000000000"], 2,
     f"error[degenerate-ellipse]: a boundary takes at most {MAX_PLOT_POINTS} points, got 1000000000000000"),
    (["ellipse", f"--data={SURVEY}", "--x=x1", "--y=x1"], 2, "error[degenerate-ellipse]: "),
    *[(argv + ["--data={dir}/huge.csv"], 2, f"error[scale]: sum of squares of column {column!r} overflows; rescale it")
      for argv, column in [(["fit", "--formula=Y ~ x1"], "x1"), (["stepwise", "--formula=Y ~ x1"], "x1"),
                           (["subset", "--response=Y", "--pool=x1", "--size=1"], "x1"),
                           (["bridge", "--response=Y", "--predictors=x1", "--target=x1"], "Y")]],
    *[(argv + [f"--data={{dir}}/const-{value}.csv"], 1, ZERO_VARIANCE)
      for value in CONSTANTS
      for argv in (["corr"], ["bridge", "--response=Y", "--predictors=a,b", "--target=b"],
                   ["ellipse", "--x=a", "--y=b"], ["ellipse", "--x=b", "--y=a"])],
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0", "--sweep=0:1:x"], 2,
     "error[formula]: bad --sweep value: "),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0", f"--sweep=0:1:{MAX_PLOT_POINTS + 1}"], 2,
     f"error[formula]: --sweep takes at most {MAX_PLOT_POINTS} steps, got {MAX_PLOT_POINTS + 1}"),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0", "--sweep=0:1:1000000000000000"], 2,
     f"error[formula]: --sweep takes at most {MAX_PLOT_POINTS} steps, got 1000000000000000"),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=median"], 2,
     "error[assignment]: unknown preset 'median' for 'Cd'"),
    # a name the model does not use: one error whether its value is a preset or a number
    (["effect", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0,zz=mean", "--at=0"], 2,
     "error[assignment]: fixed assignment has superfluous entries: ['zz']"),
    (["effect", *SATURATED_CODED, "--target=Pb", "--at=0", "--fix=Cd=0,zz=3"], 2,
     "error[assignment]: fixed assignment has superfluous entries: ['zz']"),
    (["fit", f"--data={os.path.join(GOLDEN, 'coded.csv')}", "--formula=SDH ~ Pb + Cd + Pb:Cd"], 2,
     "error[saturated]: model has 4 parameters for 4 observations (dof=0), so it fits the data exactly;"
     " pass --allow-saturated to permit an exact fit"),
    (["subset", f"--data={SURVEY}", "--response=Y", "--pool=x1,x2", "--size=-1"], 2, "error[search]: "),
    (["fit", f"--data={SURVEY}", "--formula=Y ~"], 2, "error[formula]: "),
    (["action", *SATURATED_CODED, "--f1=Pb", "--f2=Cd", "--levels=Pb=1"], 2,
     "error[assignment]: --levels expects name=low:high"),
    (["corr", f"--data={SURVEY}", "--cols=x1,zz"], 1, "error[unknown-column]: "),
    (["conditional", "--formula=Y ~ x + x^2", "--coef=nan,1,inf", "--target=x", "--sweep=0:1:3"], 2,
     "error[assignment]: coefficients must be finite numbers"),
    (["fit", f"--data={SURVEY}", "--formula=Y ~ x1 + Y"], 2,
     "error[response-term]: term 'Y' uses the response 'Y'"),
    (["fit", f"--data={SURVEY}", "--formula=Y ~ x1 + Y^2"], 2,
     "error[response-term]: term 'Y^2' uses the response 'Y'"),
    (["stepwise", f"--data={SURVEY}", "--formula=Y ~ x1 + x2 + x1:Y"], 2,
     "error[response-term]: term 'Y:x1' uses the response 'Y'"),
    (["subset", f"--data={SURVEY}", "--response=Y", "--pool=Y,x1", "--size=1"], 2,
     "error[response-term]: term 'Y' uses the response 'Y'"),
    (["conditional", "--formula=SDH ~ Pb + Cd + Pb:Cd", "--coef=1,2", "--target=Pb", "--fix=Cd=0"], 2,
     "error[assignment]: expected 4 coefficients for this model, got 2"),
    (["action", *ACTION_SURVEY, "--alpha=2"], 2, "error[model]: alpha must lie in (0, 1), got 2.0"),
    (["action", *ACTION_SURVEY, "--alpha=nan"], 2, "error[model]: alpha must lie in (0, 1), got nan"),
    (["action", *ACTION_SURVEY, "--control-tolerance=nan"], 2,
     "error[model]: control tolerance must be >= 0, got nan"),
    (["action", *ACTION_SURVEY, "--control-tolerance=-1"], 2,
     "error[model]: control tolerance must be >= 0, got -1.0"),
    (["action", *ACTION_SURVEY, "--levels=x1=nan:1"], 2,
     "error[assignment]: levels of 'x1' must be finite numbers, got [nan, 1.0]"),
    (["action", *ACTION_SURVEY, "--levels=x9=0:1"], 2,
     "error[assignment]: level assignment has superfluous entries: ['x9']"),
    (["action", "--formula=SDH ~ Pb + Cd + Pb:Cd", "--coef=693,-4.7,4.49,43.92", "--f1=Pb", "--f2=Cd",
      "--levels=Pb=1:1"], 2, "error[assignment]: levels of 'Pb' must differ, got [1.0, 1.0]"),
    (["action", *SATURATED_CODED, "--f1=Pb", "--f2=Cd", "--fix=Pb=inf"], 2,
     "error[assignment]: fixed value for 'Pb' must be a finite number, got inf"),
    (["action", *SATURATED_CODED, "--f1=Pb", "--f2=Cd", "--fix=zz=3"], 2,
     "error[assignment]: fixed assignment has superfluous entries: ['zz']"),
    (["action", *SATURATED_CODED, "--f1=Pb", "--f2=Cd", "--fix=Pb=3"], 2,
     "error[assignment]: varied predictor 'Pb' must not be fixed"),
    (["action", "--formula=Y ~ a + b + a:b + c", "--coef=1,2,3,4,5", "--f1=a", "--f2=b"], 2,
     "error[assignment]: fixed assignment missing predictors: ['c']"),
    (["fit", f"--data={SURVEY}", "--formula=Y ~ quad(x1,x1)"], 2,
     "error[formula]: duplicate predictor name 'x1' in quad()"),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=inf"], 2,
     "error[assignment]: fixed value for 'Cd' must be a finite number, got inf"),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=nan"], 2,
     "error[assignment]: fixed value for 'Cd' must be a finite number, got nan"),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0", "--sweep=nan:1:2"], 2,
     "error[formula]: --sweep bounds must be finite numbers, got nan:1.0"),
    (["effect", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0", "--at=nan"], 2,
     "error[assignment]: effect point must be a finite number, got nan"),
    (["effect", *SATURATED_CODED, "--target=Pb", "--at=0", "--fix=Cd=-inf"], 2,
     "error[assignment]: fixed value for 'Cd' must be a finite number, got -inf"),
    (["conditional", "--formula=Y ~ a + b + b^2", "--coef=1,2,3,4", "--target=a", "--fix=b=1e200"], 2,
     "error[assignment]: term 'b^2' at b=1e+200 leaves the double range"),
    (["action", "--formula=Y ~ a + b + a:b + a^2", "--coef=1,2,3,4,5", "--f1=a", "--f2=b",
      "--levels=a=0:1e200"], 2, "error[assignment]: term 'a^2' at a=1e+200 leaves the double range"),
    (["effect", "--formula=Y ~ a + b + c + b:c", "--coef=1,2,3,4,5", "--target=a", "--at=0",
      "--fix=b=1e200,c=1e200"], 2, "error[assignment]: term 'b:c' at b=1e+200, c=1e+200 leaves the double range"),
    # every term is finite, but a reading formed from them is not
    (["conditional", "--formula=Y ~ a + b + a:b", "--coef=1,1e308,1,1e308", "--target=a", "--fix=b=10"], 2,
     "error[assignment]: section along 'a' at b=10.0 leaves the double range"),
    (["conditional", "--formula=Y ~ x1 + x1^2", "--coef=1,2,3", "--target=x1", "--sweep=-1e308:1e308:3"], 2,
     "error[formula]: --sweep span -1e+308:1e+308 leaves the double range"),
    (["conditional", "--formula=Y ~ x1 + x1^2", "--coef=1,2,3", "--target=x1", "--sweep=-1e200:1e200:3"], 2,
     "error[assignment]: section along 'x1' at x1=-1e+200 leaves the double range"),
    (["effect", "--formula=Y ~ x1 + x1^2", "--coef=1,2,3", "--target=x1", "--at=1e308"], 2,
     "error[assignment]: unit effect of 'x1' at x1=1e+308 leaves the double range"),
    (["action", "--formula=Y ~ a + b + a:b", "--f1=a", "--f2=b", "--coef=1,1e308,1e308,1"], 2,
     "error[assignment]: combined action of 'a' and 'b' leaves the double range"),
    (["action", "--formula=Y ~ a + b + a:b", "--coef=1,1,1,1", "--f1=a", "--f2=b", "--levels=a=-1e308:1e308"], 2,
     "error[assignment]: combined action of 'a' and 'b' leaves the double range"),
    (["action", *ACTION_SURVEY, "--levels=x1=0:1e160"], 2,
     "error[assignment]: variance of the gap of 'x1' and 'x2' leaves the double range"),
    *[(argv + ["--data={dir}/subnormal.csv"], 2, f"error[scale]: {error}")
      for argv, error in [(["fit", "--formula=Y ~ x1"], SUBNORMAL), (["stepwise", "--formula=Y ~ x1"], SUBNORMAL),
                          (["conditional", "--formula=Y ~ x1", "--target=x1"], SUBNORMAL),
                          (["residualize", "--target=Y", "--others=x1"], SUBNORMAL),
                          (["bridge", "--response=Y", "--predictors=x1", "--target=x1"],
                           "slope of 'Y' on 'x1' leaves the double range; rescale 'x1'")]],
    (["corr", f"--data={SURVEY}", "--cols=x1,x1"], 1, "error[schema]: duplicate column name 'x1'"),
    # the reconstruction mode of bridge: inputs must be finite, |r| <= 1, and b1, b2 within the double range
    (["bridge", *BRIDGE_GIVEN, "--r=nan"], 2, "error[assignment]: r must be a finite number, got nan"),
    (["bridge", "--r=0.3", *BRIDGE_GIVEN, "--a1=inf"], 2, "error[assignment]: a1 must be a finite number, got inf"),
    (["bridge", *BRIDGE_GIVEN, "--r=2"], 2, "error[assignment]: r must lie in [-1, 1], got 2.0"),
    (["bridge", "--a1=1e308", "--a2=-1e308", "--c12=5", "--c21=5", "--r=0.3"], 2,
     "error[assignment]: reconstructed b1 leaves the double range"),
    # a name given twice, or a protected term the start model does not have
    (["conditional", *PUBLISHED_CODED, "--target=Pb", "--fix=Cd=1", "--fix=Cd=-1"], 2,
     "error[assignment]: --fix names 'Cd' twice"),
    (["conditional", *PUBLISHED_CODED, "--target=Pb", "--fix=Cd=1,Cd=-1"], 2,
     "error[assignment]: --fix names 'Cd' twice"),
    (["action", *PUBLISHED_CODED, "--f1=Pb", "--f2=Cd", "--levels=Pb=-1:1", "--levels=Pb=0:5"], 2,
     "error[assignment]: --levels names 'Pb' twice"),
    (["stepwise", f"--data={SURVEY}", "--formula=Y ~ x1 + x2 + x3", "--protect=zz,x1^2"], 2,
     "error[model]: protected terms not in the start model: ['zz', 'x1^2']"),
    # malformed arguments
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd"], 2,
     "error[assignment]: --fix expects name=value, got 'Cd'"),
    (["conditional", "--formula=SDH ~ Pb + Cd + Pb:Cd", "--target=Pb", "--fix=Cd=0", "--coef=1,x,3,4"], 2,
     "error[assignment]: --coef must be comma-separated numbers: "),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0", "--sweep=0:1"], 2,
     "error[formula]: --sweep expects min:max:steps"),
    (["conditional", *SATURATED_CODED, "--target=Pb", "--fix=Cd=0", "--sweep=0:1:0"], 2,
     "error[formula]: --sweep needs at least one step"),
    (["bridge", f"--data={SURVEY}", "--response=Y", "--target=x1", "--predictors=,"], 2,
     "error[formula]: expected a comma-separated name list"),
    (["action", *SATURATED_CODED, "--f1=Pb", "--f2=Cd", "--levels=Pb=a:b"], 2, "error[assignment]: bad --levels value: "),
    (["action", *SATURATED_CODED, "--f1=Pb", "--f2=Cd", "--levels=Pb"], 2,
     "error[assignment]: --levels expects name=low:high, got 'Pb'"),
]


@pytest.mark.parametrize("argv, status, error", HOSTILE, ids=[" ".join(case[0][:1] + case[0][-1:]) for case in HOSTILE])
def test_hostile_argv_gives_one_classified_error(hostile_files, monkeypatch, capsys, argv, status, error):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    out = hostile_files / "out"
    argv = [arg.format(dir=hostile_files) for arg in argv]
    extra = [f"--plot-out={out}.tsv"] if argv[0] in ("ellipse", "conditional") else []
    assert main([*argv, *extra, f"--out={out}.json"]) == status
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(error)
    assert "Traceback" not in captured.err and captured.out == ""
    assert not os.path.exists(f"{out}.json")


@pytest.mark.parametrize("value", CONSTANTS)
def test_summary_of_a_constant_column_gives_its_value_and_variance_zero(tmp_path, hostile_files, value):
    report = _run_twice(tmp_path, ["summary", f"--data={hostile_files}/const-{value}.csv"])
    assert report["columns"]["a"] == dict.fromkeys(["min", "q25", "mean", "q75", "max"], float(value)) | {
        "variance": 0
    }


@pytest.mark.parametrize("alpha", [7, 0])
def test_configured_alpha_outside_unit_interval_is_refused_by_action(tmp_path, monkeypatch, capsys, alpha):
    monkeypatch.delenv("CONDREG_CONFIG", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": alpha}), encoding="utf-8")
    out = tmp_path / "out.json"
    assert main([f"--config={config}", "action", *ACTION_SURVEY, f"--out={out}"]) == 2
    error = f"error[model]: alpha must lie in (0, 1), got {float(alpha)}"
    assert capsys.readouterr().err.splitlines() == [error]
    assert not out.exists()
    # the pair the refused alpha would have relabelled
    assert main(["action", *ACTION_SURVEY, f"--out={out}"]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["action"]["label"] == "additive"


def test_sweep_reaches_the_cap():
    assert len(cli._parse_sweep(f"-1:1:{MAX_PLOT_POINTS}")) == MAX_PLOT_POINTS


def test_help_loads_neither_numpy_nor_an_analysis_module():
    code = "import condreg.cli\ntry:\n    condreg.cli.main(['--help'])\nexcept SystemExit:\n    pass"
    assert modules_after(code) == [["condreg.cli", "condreg.defaults", "condreg.errors"], False]


ANALYSIS = {"condreg.conditional", "condreg.geometry", "condreg.relations", "condreg.selection"}


@pytest.mark.parametrize("argv, analysis, numpy, unloaded", [
    (["corr", f"--data={SURVEY}"], set(), True, []),
    (["fit", f"--data={SURVEY}", "--formula=Y ~ x1 + x2"], {"condreg.selection"}, True, []),
    (["bridge", "--a1=1", "--a2=2", "--c12=0.3", "--c21=0.2", "--r=0.4"], {"condreg.relations"}, False, []),
    (["ellipse", f"--data={SURVEY}", "--x=x1", "--y=x2", "--points=4"],
     {"condreg.geometry"}, True, ["condreg.ols", "condreg.terms"]),
    (["summary", f"--data={SURVEY}"], set(), True, ["numpy.ma"]),
], ids=["corr", "fit", "bridge-reconstruction", "ellipse", "summary"])
def test_command_loads_only_the_analysis_modules_it_calls(tmp_path, argv, analysis, numpy, unloaded):
    argv = [*argv, f"--out={tmp_path / 'out.json'}"]
    loaded, numpy_loaded, *watched = modules_after(
        f"import condreg.cli\nassert condreg.cli.main({argv!r}) == 0", watched=["numpy", *unloaded]
    )
    assert ANALYSIS & set(loaded) == analysis
    assert numpy_loaded is numpy
    assert not any(watched)


def test_a_name_patched_before_the_first_command_is_the_one_called(tmp_path):
    """The benchmark's tracer patches names such as ``load_csv`` on the cli
    module before any command has run; each command must call the patch."""
    argv = ["corr", f"--data={SURVEY}", f"--out={tmp_path / 'out.json'}"]
    code = (
        "import condreg.cli as cli\n"
        "calls = []\n"
        "load, write = cli.load_csv, cli.write_text_atomic\n"
        "cli.load_csv = lambda *a, **k: calls.append('load_csv') or load(*a, **k)\n"
        "cli.write_text_atomic = lambda *a: calls.append('write_text_atomic') or write(*a)\n"
        f"assert cli.main({argv!r}) == 0\n"
        "assert calls == ['load_csv', 'write_text_atomic'], calls"
    )
    loaded, _ = modules_after(code)
    assert "condreg.dataset" in loaded


def test_the_console_script_is_cli_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
    with open(pyproject, "rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["condreg"]
    module, _, name = entry.partition(":")
    assert getattr(__import__(module, fromlist=[name]), name) is cli.run


@pytest.mark.parametrize("argv, status", [
    (["summary", f"--data={SURVEY}", "--out={tmp}/out.json"], 0),
    (["summary", "--data={tmp}/absent.csv", "--out={tmp}/out.json"], 1),
    (["--help"], 0),
    (["fit"], 2),
], ids=["command", "failed-command", "help", "usage-error"])
def test_run_exits_with_mains_status_and_leaves_the_heap_frozen(tmp_path, capsys, argv, status):
    """run is what the installed command and ``python -m condreg.cli`` call:
    argparse's own exits as well as main's leave every object frozen, out of
    reach of the exit-time collections."""
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run(argv)
        assert exited.value.code == status
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_main_leaves_the_heap_unfrozen(tmp_path):
    before = gc.get_freeze_count()
    assert main(["summary", f"--data={SURVEY}", f"--out={tmp_path / 'out.json'}"]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("out", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1"])
def test_out_naming_standard_output_appends_to_the_redirected_file(tmp_path, out):
    """``condreg ... --out=/dev/stdout >> f.txt`` appends to f.txt: the report
    goes through the descriptor, and no new file is renamed over f.txt."""
    if not os.path.exists(out):
        pytest.skip(f"{out} does not exist on this system")
    target = tmp_path / "f.txt"
    target.write_bytes(b"earlier line\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with open(target, "ab") as stdout:
        done = subprocess.run([sys.executable, "-m", "condreg.cli", "summary", f"--data={SURVEY}", f"--out={out}"],
                              env=env, stdout=stdout, stderr=subprocess.PIPE, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, b"")
    with open(os.path.join(GOLDEN, "summary.json"), "rb") as golden:
        assert target.read_bytes() == b"earlier line\n" + golden.read()
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

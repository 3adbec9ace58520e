"""Golden reports: every subcommand's output, in both formats, byte for byte.

Each case runs ``condreg.cli.main`` on the CSV files in ``tests/golden/``
and compares the report (``<case>.json`` or ``<case>.txt``) and, where the
command writes one, its plot or column TSV (``<case>.tsv``) with the stored
files.  A change that moves any printed digit fails here, with one
exception: a two-predictor bridge prints ``reconstruction_discrepancy``,
which is zero in exact arithmetic and so shows only rounding noise.  Any
change to how the slopes are summed moves it, so its value is held below
``NOISE_BOUND`` instead of compared digit for digit.
"""

import gc
import re
import warnings
from pathlib import Path

import pytest

from condreg import cache, cli, dataset
from condreg.cli import main
from condreg.report import dumps_report

GOLDEN = Path(__file__).with_name("golden")

SATURATED = ["--formula=SDH ~ Pb + Cd + Pb:Cd", "--allow-saturated", "--data={coded}"]

# case -> argv; {coded} and {survey} name the input files, {tsv} the plot
# or column output.
CASES = {
    "fit": ["fit", "--data={survey}", "--formula=Y ~ x1 + x2 + x1:x2"],
    "conditional": ["conditional", *SATURATED, "--target=Pb", "--fix=Cd=0.25",
                    "--sweep=-1:1:5", "--plot-out={tsv}"],
    "conditional-presets": ["conditional", "--data={survey}", "--formula=Y ~ quad(x1,x2)",
                            "--target=x1", "--fix=x2=q25"],
    "conditional-coef": ["conditional", "--formula=SDH ~ Pb + Cd + Pb:Cd",
                         "--coef=693,-4.7,-0.5,43.3", "--target=Cd", "--fix=Pb=1"],
    "effect": ["effect", *SATURATED, "--target=Pb", "--fix=Cd=-0.5", "--at=0.2"],
    "bridge": ["bridge", "--data={survey}", "--response=Y", "--predictors=x1,x2", "--target=x1"],
    "bridge-three": ["bridge", "--data={survey}", "--response=Y", "--predictors=x1,x2,x3",
                     "--target=x2", "--expected-sign=1"],
    "bridge-coded": ["bridge", "--data={coded}", "--response=SDH", "--predictors=Pb,Cd",
                     "--target=Pb"],
    "bridge-reconstruction": ["bridge", "--a1=579", "--a2=52.5", "--c12=0.316",
                              "--c21=1.683", "--r=0.729"],
    "residualize": ["residualize", "--data={survey}", "--target=x1", "--others=x2,x3",
                    "--column-out={tsv}"],
    "stepwise": ["stepwise", "--data={survey}", "--formula=Y ~ quad(x1,x2) + x3"],
    "subset": ["subset", "--data={survey}", "--response=Y", "--pool=x1,x2,x3,x1:x2,x1^2",
               "--size=2"],
    "subset-skipped": ["subset", "--data={survey}", "--response=Y", "--pool=x1,x2,zz", "--size=2"],
    "ellipse": ["ellipse", "--data={coded}", "--x=Pb", "--y=Cd", "--points=8",
                "--plot-out={tsv}"],
    "ellipse-survey": ["ellipse", "--data={survey}", "--x=x1", "--y=x2", "--level=0.9",
                       "--points=6", "--plot-out={tsv}"],
    "action": ["action", *SATURATED, "--f1=Pb", "--f2=Cd"],
    "corr": ["corr", "--data={survey}"],
    "summary": ["summary", "--data={survey}"],
    "summary-coded": ["summary", "--data={coded}"],
}

SUFFIX = {"json": ".json", "text": ".txt"}

NOISE = re.compile(rb'(reconstruction_discrepancy"?:? =? ?)(-?[0-9.e+-]+)')
NOISE_BOUND = 1e-12


def _without_noise(report: bytes) -> bytes:
    """The report with every noise value bounded and then blanked."""

    def blank(match: re.Match) -> bytes:
        assert abs(float(match.group(2))) <= NOISE_BOUND, match.group(0)
        return match.group(1) + b"<noise>"

    return NOISE.sub(blank, report)


def case_argv(case: str, directory: Path, inputs: Path = GOLDEN) -> list[str]:
    paths = {"coded": inputs / "coded.csv", "survey": inputs / "survey.csv", "tsv": directory / f"{case}.tsv"}
    return [arg.format(**paths) for arg in CASES[case]]


def run_case(case: str, fmt: str, directory: Path, inputs: Path = GOLDEN) -> tuple[int, bytes, bytes | None]:
    """Exit code, report bytes and TSV bytes (None if none is written)."""
    tsv = directory / f"{case}.tsv"
    report = directory / f"{case}{SUFFIX[fmt]}"
    code = main([*case_argv(case, directory, inputs), f"--format={fmt}", f"--out={report}"])
    return code, report.read_bytes(), tsv.read_bytes() if tsv.exists() else None


def _assert_golden(case: str, fmt: str, outcome: tuple[int, bytes, bytes | None]) -> None:
    code, report, tsv = outcome
    assert code == 0
    stored = (GOLDEN / f"{case}{SUFFIX[fmt]}").read_bytes()
    assert _without_noise(report) == _without_noise(stored)
    stored_tsv = GOLDEN / f"{case}.tsv"
    assert tsv == (stored_tsv.read_bytes() if stored_tsv.exists() else None)


@pytest.mark.parametrize("fmt", list(SUFFIX))
@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_golden(tmp_path, case, fmt):
    _assert_golden(case, fmt, run_case(case, fmt, tmp_path))


def test_reports_are_the_goldens_from_a_cold_and_then_a_warm_cache(tmp_path, monkeypatch):
    """Every case, run twice on one cache directory: the first run parses
    and stores each input, the second reads them back and parses none.
    The inputs are the golden CSVs padded with blank lines, which the
    parser skips and do not count as dropped, past the cache's threshold."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    padding = (b" " * 1023 + b"\n") * (cache.THRESHOLD_BLOCKS * dataset._BLOCK_BYTES // 1024 + 1)
    for name in ("coded.csv", "survey.csv"):
        (inputs / name).write_bytes((GOLDEN / name).read_bytes() + padding)

    def refuse(*args, **kwargs):
        raise AssertionError("an input was parsed again")

    for warm in (False, True):
        if warm:
            monkeypatch.setattr(dataset, "load_csv", refuse)
        for case in CASES:
            for fmt in SUFFIX:
                _assert_golden(case, fmt, run_case(case, fmt, tmp_path, inputs))
    assert len(list((tmp_path / "xdg" / "condreg").iterdir())) == 2


@pytest.mark.parametrize("case", list(CASES))
def test_a_streamed_report_is_the_text_dumps_report_forms(tmp_path, monkeypatch, capsys, case):
    """A command writes its JSON report as it is formed, to --out and to
    standard output alike; either way the text is dumps_report's."""
    documents = []
    new = cli.new_document
    monkeypatch.setattr(cli, "new_document", lambda *a, **k: documents.append(new(*a, **k)) or documents[-1])
    code, written, _ = run_case(case, "json", tmp_path)
    assert (code, main(case_argv(case, tmp_path))) == (0, 0)
    to_file, to_stdout = documents
    assert written == dumps_report(to_file).encode("utf-8")
    assert capsys.readouterr().out == dumps_report(to_stdout)


def test_every_case_has_its_files_and_no_file_is_orphaned():
    """Each case has a stored .json and .txt; every other stored file is
    an input CSV or the TSV a case writes."""
    reports = {f"{case}{suffix}" for case in CASES for suffix in SUFFIX.values()}
    stored = {path.name for path in GOLDEN.iterdir()}
    assert reports <= stored
    others = {name for name in stored - reports if not name.endswith(".csv")}
    assert {name for name in others if not (name.endswith(".tsv") and name[:-4] in CASES)} == set()


def test_every_file_a_command_writes_is_closed_before_main_returns(tmp_path):
    """The installed command freezes the heap before it exits (``cli.run``),
    and a frozen file object is never finalized: had a handle only a
    reference cycle kept alive, its buffered text would be lost.  Every
    case writes its report, plot or column file and closes it in main."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        codes = [run_case(case, "json", tmp_path)[0] for case in CASES]
        gc.collect()
    assert codes == [0] * len(CASES)
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

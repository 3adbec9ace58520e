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

import re
from pathlib import Path

import pytest

from condreg.cli import main

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


def run_case(case: str, fmt: str, directory: Path) -> tuple[int, bytes, bytes | None]:
    """Exit code, report bytes and TSV bytes (None if none is written)."""
    paths = {
        "coded": GOLDEN / "coded.csv",
        "survey": GOLDEN / "survey.csv",
        "tsv": directory / f"{case}.tsv",
    }
    report = directory / f"{case}{SUFFIX[fmt]}"
    argv = [arg.format(**paths) for arg in CASES[case]]
    code = main([*argv, f"--format={fmt}", f"--out={report}"])
    tsv = paths["tsv"].read_bytes() if paths["tsv"].exists() else None
    return code, report.read_bytes(), tsv


@pytest.mark.parametrize("fmt", list(SUFFIX))
@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_golden(tmp_path, case, fmt):
    code, report, tsv = run_case(case, fmt, tmp_path)
    assert code == 0
    stored = (GOLDEN / f"{case}{SUFFIX[fmt]}").read_bytes()
    assert _without_noise(report) == _without_noise(stored)
    stored_tsv = GOLDEN / f"{case}.tsv"
    assert tsv == (stored_tsv.read_bytes() if stored_tsv.exists() else None)


def test_every_case_has_its_files_and_no_file_is_orphaned():
    """Each case has a stored .json and .txt; every other stored file is
    an input CSV or the TSV a case writes."""
    reports = {f"{case}{suffix}" for case in CASES for suffix in SUFFIX.values()}
    stored = {path.name for path in GOLDEN.iterdir()}
    assert reports <= stored
    others = {name for name in stored - reports if not name.endswith(".csv")}
    assert {name for name in others if not (name.endswith(".tsv") and name[:-4] in CASES)} == set()

"""Seeded workloads: fixture CSVs, the condreg command script, and the checks.

Each workload builds its input files from a seed, lists the ``condreg``
commands one pass runs, and checks every report a command writes against
an independent oracle (``numpy.linalg.lstsq``, ``numpy.quantile``,
``numpy.corrcoef``, ``scipy.special.stdtr`` or closed forms).  The
program under test only ever sees the generated files.

Why these four workloads: each one makes a different layer dominate.

* ``large-n``  CSV parsing, design expansion and the QR in ``ols.fit``
  (a few deep fits at n = 200,000), plus whole-column summaries.
* ``search``   the candidate loop in ``selection`` (2,925 shallow fits).
* ``coded-design``  interpreter start and imports: every command's
  compute takes microseconds on the paper's 4-cell design.
* ``corr-wide``  scalar p-values in ``stats`` and serialization in
  ``report`` (19,900 p-values, a report of more than 1 MB).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import stdtr


class CheckError(Exception):
    """A report disagrees with its oracle."""


@dataclass
class Command:
    """One ``condreg`` invocation and the files it must write."""

    label: str
    args: list[str]
    outputs: list[str]
    check: Callable[[dict], None]


@dataclass
class Fixture:
    """Generated inputs plus what the checks need to know about them."""

    directory: Path
    info: dict
    truth: dict = field(default_factory=dict)


def _fixed6(values: np.ndarray) -> np.ndarray:
    """Round to 6 decimals so that '%.6f' text parses back to the same double."""
    return np.round(values * 1e6) / 1e6


def _write_csv(path: Path, names: list[str], columns: list[np.ndarray], formats: list[str]) -> int:
    rows = zip(*(col.tolist() for col in columns))
    template = ",".join(formats)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(names) + "\n")
        handle.writelines(template.format(*row) + "\n" for row in rows)
    return path.stat().st_size


def _term_column(data: dict[str, np.ndarray], label: str, n: int) -> np.ndarray:
    """Design column for a report label such as '(intercept)', 'x1:x2' or 'x1^2'."""
    col = np.ones(n)
    if label == "(intercept)":
        return col
    for factor in label.split(":"):
        name, _, power = factor.partition("^")
        col = col * data[name] ** int(power or 1)
    return col


def _design(data: dict[str, np.ndarray], labels: list[str]) -> np.ndarray:
    n = len(next(iter(data.values())))
    return np.column_stack([_term_column(data, label, n) for label in labels])


def _close(what: str, got, want, rtol: float = 1e-9, atol: float = 0.0) -> None:
    got_arr = np.asarray(got, dtype=float)
    want_arr = np.asarray(want, dtype=float)
    if got_arr.shape != want_arr.shape or not np.allclose(
        got_arr, want_arr, rtol=rtol, atol=atol, equal_nan=True
    ):
        worst = np.max(np.abs(got_arr - want_arr)) if got_arr.shape == want_arr.shape else "shape"
        raise CheckError(f"{what}: report disagrees with the oracle (max gap {worst})")


def _expect(what: str, condition: bool) -> None:
    if not condition:
        raise CheckError(what)


def _check_coefficients(data: dict[str, np.ndarray], model: dict, what: str) -> list[str]:
    """The model section's coefficients against an lstsq refit; returns its labels."""
    rows = model["coefficients"]
    labels = [row["term"] for row in rows]
    coef = [row["coef"] for row in rows]
    design = _design(data, labels)
    oracle = np.linalg.lstsq(design, data[model["response"]], rcond=None)[0]
    scale = float(np.max(np.abs(oracle)))
    _close(f"{what} coefficients", coef, oracle, rtol=1e-8, atol=1e-9 * scale)
    return labels


def _check_summary(data: dict[str, np.ndarray], names: list[str]) -> Callable[[dict], None]:
    def check(report: dict) -> None:
        columns = report["columns"]
        _expect("summary columns", list(columns) == names)
        _expect("summary n", report["n"] == len(data[names[0]]))
        _expect("summary dropped rows", report["dropped_rows"] == 0)
        for name in names:
            col, got = data[name], columns[name]
            want = [col.min(), np.quantile(col, 0.25), col.mean(), np.quantile(col, 0.75), col.max(), col.var(ddof=1)]
            keys = ["min", "q25", "mean", "q75", "max", "variance"]
            _close(f"summary of {name}", [got[k] for k in keys], want, rtol=1e-10, atol=1e-12)

    return check


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------

LARGE_N_FORMULA = "Y ~ quad(x1,x2,x3,x4,x5)"
# Terms with a nonzero generating coefficient; the other 12 of the 20
# full-quadratic terms get exactly zero, so stepwise always makes 12 rounds.
LARGE_N_TRUE = {
    "x1": 0.8, "x2": -0.6, "x3": 0.5, "x4": 0.4,
    "x1:x2": 0.7, "x2:x3": -0.5, "x1^2": 0.9, "x4^2": -0.3,
}


def _quad_labels(names: list[str]) -> list[str]:
    return (
        names
        + [f"{a}:{b}" for a, b in itertools.combinations(names, 2)]
        + [f"{name}^2" for name in names]
    )


def make_large_n(rng: np.random.Generator, directory: Path, rows: int = 200_000) -> Fixture:
    names = [f"x{i}" for i in range(1, 6)]
    data = {name: _fixed6(rng.uniform(-1.0, 1.0, rows)) for name in names}
    coefficients = {"(intercept)": 2.0}
    coefficients.update(
        {label: value * float(rng.uniform(0.8, 1.2)) for label, value in LARGE_N_TRUE.items()}
    )
    # Noise orthogonal to the whole full-quadratic design: every sub-model
    # that keeps the true terms fits them exactly and the null terms at zero.
    full = _design(data, ["(intercept)"] + _quad_labels(names))
    noise = rng.standard_normal(rows)
    noise -= full @ np.linalg.lstsq(full, noise, rcond=None)[0]
    labels = list(coefficients)
    data["Y"] = _design(data, labels) @ np.array([coefficients[k] for k in labels]) + noise
    path = directory / "large_n.csv"
    size = _write_csv(path, ["Y"] + names, [data["Y"]] + [data[k] for k in names], ["{!r}"] + ["{:.6f}"] * 5)
    info = {"file": path.name, "rows": rows, "columns": 6, "bytes": size, "coefficients": coefficients, "noise_sd": 1.0}
    return Fixture(directory, info, {"data": data, "true_terms": set(LARGE_N_TRUE)})


def script_large_n(fx: Fixture, out: Path) -> list[Command]:
    data = fx.truth["data"]
    csv = str(fx.directory / fx.info["file"])

    def check_fit(report: dict) -> None:
        labels = _check_coefficients(data, report["model"], "fit")
        _expect("fit terms", labels == ["(intercept)"] + _quad_labels([f"x{i}" for i in range(1, 6)]))

    def check_stepwise(report: dict) -> None:
        labels = _check_coefficients(data, report["final"], "stepwise final")
        kept = {_canonical(label) for label in labels[1:]}
        _expect("stepwise kept exactly the generating terms", kept == {_canonical(t) for t in fx.truth["true_terms"]})
        _expect("stepwise rounds", len(report["steps"]) == 20 - len(LARGE_N_TRUE))

    return [
        Command("fit", ["fit", f"--data={csv}", f"--formula={LARGE_N_FORMULA}", f"--out={out / 'fit.json'}"],
                ["fit.json"], check_fit),
        Command("stepwise", ["stepwise", f"--data={csv}", f"--formula={LARGE_N_FORMULA}", f"--out={out / 'stepwise.json'}"],
                ["stepwise.json"], check_stepwise),
        Command("summary", ["summary", f"--data={csv}", f"--out={out / 'summary.json'}"],
                ["summary.json"], _check_summary(data, ["Y"] + [f"x{i}" for i in range(1, 6)])),
    ]


def _canonical(label: str) -> str:
    return ":".join(sorted(label.split(":")))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

SEARCH_NAMES = [f"x{i}" for i in range(1, 7)]
SEARCH_POOL = _quad_labels(SEARCH_NAMES)  # 27 terms
SEARCH_SIZE = 3


def make_search(rng: np.random.Generator, directory: Path, rows: int = 5_000) -> Fixture:
    data = {name: _fixed6(rng.standard_normal(rows)) for name in SEARCH_NAMES}
    coefficients = {"(intercept)": 1.0, "x1": 1.2, "x2:x3": -0.8, "x4^2": 0.5}
    labels = list(coefficients)
    data["Y"] = _design(data, labels) @ np.array([coefficients[k] for k in labels]) + rng.standard_normal(rows)
    path = directory / "search.csv"
    size = _write_csv(path, ["Y"] + SEARCH_NAMES, [data["Y"]] + [data[k] for k in SEARCH_NAMES], ["{!r}"] + ["{:.6f}"] * 6)
    info = {"file": path.name, "rows": rows, "columns": 7, "bytes": size, "coefficients": coefficients, "noise_sd": 1.0,
            "pool": len(SEARCH_POOL), "subset_size": SEARCH_SIZE}
    return Fixture(directory, info, {"data": data})


def script_search(fx: Fixture, out: Path) -> list[Command]:
    data = fx.truth["data"]
    csv = str(fx.directory / fx.info["file"])

    def check_subset(report: dict) -> None:
        ranked, skipped = report["ranked"], report["skipped"]
        _expect("ranked + skipped = C(27, 3)", len(ranked) + len(skipped) == math.comb(len(SEARCH_POOL), SEARCH_SIZE))
        r2 = [entry["r2"] for entry in ranked]
        _expect("ranking by R^2", all(a >= b for a, b in zip(r2, r2[1:])))
        labels = ["(intercept)"] + [t.strip() for t in ranked[0]["formula"].split("~")[1].split("+")]
        design = _design(data, labels)
        y = data["Y"]
        resid = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        oracle = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
        _close("top subset R^2", r2[0], oracle, rtol=1e-9)

    return [
        Command("subset", ["subset", f"--data={csv}", "--response=Y", f"--pool={','.join(SEARCH_POOL)}",
                           f"--size={SEARCH_SIZE}", f"--out={out / 'subset.json'}"],
                ["subset.json"], check_subset),
    ]


# ---------------------------------------------------------------------------
# coded-design
# ---------------------------------------------------------------------------

# The paper's 4-cell design: SDH at coded Pb, Cd = +-1.
CODED_CELLS = [(-1.0, -1.0, 737.1), (1.0, -1.0, 639.9), (-1.0, 1.0, 658.3), (1.0, 1.0, 736.7)]
CODED_FORMULA = "SDH ~ Pb + Cd + Pb:Cd"


def make_coded_design(rng: np.random.Generator, directory: Path) -> Fixture:
    order = rng.permutation(len(CODED_CELLS))
    cells = [CODED_CELLS[i] for i in order]
    data = {name: np.array([cell[j] for cell in cells]) for j, name in enumerate(["Pb", "Cd", "SDH"])}
    path = directory / "coded.csv"
    size = _write_csv(path, ["Pb", "Cd", "SDH"], [data["Pb"], data["Cd"], data["SDH"]], ["{!r}"] * 3)
    # Seeded query points, and a consistent (a, c, r) set for reconstruction mode.
    fix_cd = round(float(rng.uniform(-1.0, 1.0)), 3)
    at_pb = round(float(rng.uniform(-1.0, 1.0)), 3)
    r = round(float(rng.uniform(-0.9, 0.9)), 3)
    ratio = float(rng.uniform(0.5, 2.0))
    recon = {"a1": round(float(rng.uniform(-10, 10)), 3), "a2": round(float(rng.uniform(-10, 10)), 3),
             "c12": r * ratio, "c21": r / ratio, "r": r}
    info = {"file": path.name, "rows": 4, "columns": 3, "bytes": size, "row_order": order.tolist(),
            "fix_Cd": fix_cd, "at_Pb": at_pb, "reconstruction": recon}
    return Fixture(directory, info, {"data": data})


def script_coded_design(fx: Fixture, out: Path) -> list[Command]:
    data = fx.truth["data"]
    csv = str(fx.directory / fx.info["file"])
    cd, at, recon = fx.info["fix_Cd"], fx.info["at_Pb"], fx.info["reconstruction"]
    # Closed form for the saturated 2x2 fit on +-1 coding.
    y = {(pb, c): v for pb, c, v in CODED_CELLS}
    b0 = sum(y.values()) / 4
    b_pb = sum(pb * v for (pb, _), v in y.items()) / 4
    b_cd = sum(c * v for (_, c), v in y.items()) / 4
    b_x = sum(pb * c * v for (pb, c), v in y.items()) / 4

    def section(pb: float) -> float:
        return b0 + b_cd * cd + (b_pb + b_x * cd) * pb

    model = ["--formula=" + CODED_FORMULA, "--allow-saturated", f"--data={csv}"]

    def check_fit(report: dict) -> None:
        coef = {row["term"]: row["coef"] for row in report["model"]["coefficients"]}
        for pb, c, value in CODED_CELLS:
            fitted = coef["(intercept)"] + coef["Pb"] * pb + coef["Cd"] * c + coef["Cd:Pb"] * pb * c
            _close(f"saturated fit at cell ({pb:g}, {c:g})", fitted, value, rtol=1e-11)

    def check_conditional(report: dict) -> None:
        _close("conditional poly", report["conditional"]["poly"], [section(0.0), b_pb + b_x * cd], rtol=1e-10, atol=1e-9)
        sweep = report["sweep"]
        _close("sweep x", [p["x"] for p in sweep], np.linspace(-1, 1, 5))
        _close("sweep y", [p["y"] for p in sweep], [section(x) for x in np.linspace(-1, 1, 5)], rtol=1e-10)

    def check_effect(report: dict) -> None:
        _close("unit effect", report["effect"]["unit_change"], section(at + 1) - section(at), rtol=1e-9, atol=1e-9)

    def check_action(report: dict) -> None:
        action = report["action"]
        _expect("action label", action["label"] == "antagonism")
        _close("action evidence", [action["cross_coef"], action["effect_1"], action["effect_2"], action["joint_effect"]],
               [b_x, y[(1, -1)] - y[(-1, -1)], y[(-1, 1)] - y[(-1, -1)], y[(1, 1)] - y[(-1, -1)]], rtol=1e-9, atol=1e-9)

    def check_bridge(report: dict) -> None:
        bridge = report["bridge"]
        design = _design(data, ["(intercept)", "Pb", "Cd"])
        mlr = np.linalg.lstsq(design, data["SDH"], rcond=None)[0]
        _close("bridge a, b, ac_sum", [bridge["a"], bridge["b"], bridge["ac_sum"]], [b_pb, mlr[1], b_pb], rtol=1e-9, atol=1e-9)

    def check_reconstruction(report: dict) -> None:
        denom = 1 - recon["r"] ** 2
        want = [(recon["a1"] - recon["a2"] * recon["c21"]) / denom, (recon["a2"] - recon["a1"] * recon["c12"]) / denom]
        got = report["reconstruction"]
        _close("reconstructed b1, b2", [got["b1"], got["b2"]], want, rtol=1e-9)

    def check_ellipse(report: dict) -> None:
        shape = report["ellipse"]
        _close("ellipse center", shape["center"], [data["Pb"].mean(), data["Cd"].mean()], atol=1e-12)
        _close("ellipse shape", shape["shape"], np.cov(data["Pb"], data["Cd"]), rtol=1e-10, atol=1e-12)
        _close("ellipse threshold", shape["threshold"], -2.0 * math.log1p(-0.95), rtol=1e-10)

    recon_args = [f"--{key}={recon[key]!r}" for key in ("a1", "a2", "c12", "c21", "r")]
    return [
        Command("fit", ["fit", *model, f"--out={out / 'fit.json'}"], ["fit.json"], check_fit),
        Command("conditional", ["conditional", *model, "--target=Pb", f"--fix=Cd={cd!r}", "--sweep=-1:1:5",
                                f"--plot-out={out / 'conditional.tsv'}", f"--out={out / 'conditional.json'}"],
                ["conditional.json", "conditional.tsv"], check_conditional),
        Command("effect", ["effect", *model, "--target=Pb", f"--fix=Cd={cd!r}", f"--at={at!r}",
                           f"--out={out / 'effect.json'}"], ["effect.json"], check_effect),
        Command("action", ["action", *model, "--f1=Pb", "--f2=Cd", f"--out={out / 'action.json'}"],
                ["action.json"], check_action),
        Command("bridge", ["bridge", f"--data={csv}", "--response=SDH", "--predictors=Pb,Cd", "--target=Pb",
                           f"--out={out / 'bridge.json'}"], ["bridge.json"], check_bridge),
        Command("bridge-reconstruction", ["bridge", *recon_args, f"--out={out / 'reconstruction.json'}"],
                ["reconstruction.json"], check_reconstruction),
        Command("ellipse", ["ellipse", f"--data={csv}", "--x=Pb", "--y=Cd", f"--plot-out={out / 'ellipse.tsv'}",
                            f"--out={out / 'ellipse.json'}"], ["ellipse.json", "ellipse.tsv"], check_ellipse),
        Command("summary", ["summary", f"--data={csv}", f"--out={out / 'summary.json'}"],
                ["summary.json"], _check_summary(data, ["Pb", "Cd", "SDH"])),
    ]


# ---------------------------------------------------------------------------
# corr-wide
# ---------------------------------------------------------------------------


def make_corr_wide(rng: np.random.Generator, directory: Path, rows: int = 1_000, cols: int = 200) -> Fixture:
    # A few shared factors give the matrix real structure (|r| up to ~0.5).
    factors = rng.standard_normal((rows, 4))
    loadings = rng.uniform(-0.6, 0.6, (4, cols))
    values = _fixed6(factors @ loadings + rng.standard_normal((rows, cols)))
    names = [f"c{j}" for j in range(1, cols + 1)]
    path = directory / "corr_wide.csv"
    size = _write_csv(path, names, list(values.T), ["{:.6f}"] * cols)
    info = {"file": path.name, "rows": rows, "columns": cols, "bytes": size, "factors": 4, "loading_range": [-0.6, 0.6]}
    return Fixture(directory, info, {"values": values, "names": names})


def script_corr_wide(fx: Fixture, out: Path) -> list[Command]:
    values, names = fx.truth["values"], fx.truth["names"]
    csv = str(fx.directory / fx.info["file"])

    def check_corr(report: dict) -> None:
        section = report["correlation"]
        _expect("corr names", section["names"] == names)
        r_oracle = np.corrcoef(values, rowvar=False)
        _close("corr r", section["r"], r_oracle, rtol=1e-9, atol=1e-11)
        n = values.shape[0]
        with np.errstate(divide="ignore"):
            t = r_oracle * math.sqrt(n - 2) / np.sqrt(np.maximum(1.0 - r_oracle**2, 0.0))
        p_oracle = 2.0 * stdtr(n - 2, -np.abs(t))
        np.fill_diagonal(p_oracle, 1.0)
        # Six significant digits: condreg's own t tail loses accuracy as
        # |t| -> 0 (1 - x is formed by subtraction), up to 1.9e-7 relative
        # at 998 dof near t = 2.4e-7, and a 1,000 x 200 matrix can hold such a pair.
        _close("corr p", section["p"], p_oracle, rtol=1e-6, atol=1e-300)

    return [Command("corr", ["corr", f"--data={csv}", f"--out={out / 'corr.json'}"], ["corr.json"], check_corr)]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[..., Fixture]
    script: Callable[[Fixture, Path], list[Command]]
    toy: dict  # keyword arguments of ``make`` for the self-test's toy size


WORKLOADS = {
    w.name: w
    for w in [
        Workload("large-n", make_large_n, script_large_n, {"rows": 2_000}),
        Workload("search", make_search, script_search, {"rows": 200}),
        Workload("coded-design", make_coded_design, script_coded_design, {}),
        Workload("corr-wide", make_corr_wide, script_corr_wide, {"rows": 60, "cols": 12}),
    ]
}


def build(name: str, seed: int, directory: Path, toy: bool = False) -> Fixture:
    """Generate the workload's inputs under ``directory`` from ``seed``."""
    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return workload.make(rng, directory, **(workload.toy if toy else {}))


def check_report(command: Command, directory: Path) -> str | None:
    """None when every output exists and the report passes; else the reason."""
    for name in command.outputs:
        if not (directory / name).is_file():
            return f"{command.label}: wrote no {name}"
    try:
        report = json.loads((directory / command.outputs[0]).read_text(encoding="utf-8"))
        command.check(report)
    except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{command.label}: {type(exc).__name__}: {exc}"
    return None

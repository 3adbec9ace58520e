"""Command-line driver.

One subcommand per analysis: fit, conditional, effect, bridge,
residualize, stepwise, subset, ellipse, action, corr, summary.  Input is
CSV (header row, configurable delimiter); output is a deterministic JSON
report (schema "condreg/1") plus TSV plot data where applicable.

Exit codes: 0 success, 1 I/O or data error (any DataError), 2 model error.
Every failure prints a single ``error[<code>]: message`` line to stderr.

Defaults can come from a JSON config file (--config or $CONDREG_CONFIG);
flags override the file, the file overrides built-ins.  Recognized keys:
delimiter, alpha, level, correlation_threshold, antagonism_tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import conditional as cond
from . import geometry, relations, selection
from .dataset import (
    Dataset,
    column_stats,
    load_csv,
    pearson_matrix,
    quartiles,
)
from .errors import (
    AssignmentError,
    ConfigError,
    CondregError,
    DataError,
    EmptyDataError,
    FormulaError,
)
from .formula import parse_formula, print_formula
from .ols import FittedModel, fit, predict
from .report import (
    dumps_report,
    format_number,
    model_section,
    new_document,
    plot_tsv,
    write_text_atomic,
)
from .terms import Term

CONFIG_ENV = "CONDREG_CONFIG"
CONFIG_KEYS = {
    "delimiter",
    "alpha",
    "level",
    "correlation_threshold",
    "antagonism_tolerance",
}
DEFAULTS = {
    "delimiter": ",",
    "alpha": 0.05,
    "level": 0.95,
    "correlation_threshold": relations.DESTABILIZATION_THRESHOLD,
    "antagonism_tolerance": geometry.CONTROL_TOLERANCE,
}


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; expected {sorted(CONFIG_KEYS)}")
    return raw


def _setting(args: argparse.Namespace, config: dict, key: str):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return DEFAULTS[key]


def _load_data(args: argparse.Namespace, config: dict) -> tuple[Dataset, int]:
    if not args.data:
        raise EmptyDataError("this command needs --data")
    with open(args.data, "rb") as handle:
        return load_csv(handle, delimiter=str(_setting(args, config, "delimiter")))


def _parse_fixes(pairs: Sequence[str]) -> dict[str, float | str]:
    fixes: dict[str, float | str] = {}
    for chunk in pairs:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise AssignmentError(f"--fix expects name=value, got {item!r}")
            name, text = item.split("=", 1)
            name, text = name.strip(), text.strip()
            try:
                fixes[name] = float(text)
            except ValueError:
                fixes[name] = text  # preset, validated downstream
    return fixes


def _parse_coef(text: str, expected: int) -> np.ndarray:
    try:
        values = [float(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise AssignmentError(f"--coef must be comma-separated numbers: {exc}") from exc
    if len(values) != expected:
        raise AssignmentError(
            f"--coef supplied {len(values)} values but the model has {expected} parameters"
        )
    return np.array(values)


def _parse_terms(text: str) -> list[Term]:
    from .formula import _parse_term  # same syntax as formula terms

    terms: list[Term] = []
    for token in text.split(","):
        token = token.strip()
        if token:
            terms.append(_parse_term(token))
    if not terms:
        raise FormulaError("no terms given")
    return terms


def _obtain_model(args: argparse.Namespace, config: dict) -> tuple[FittedModel, Dataset | None]:
    """Fit from data, or wrap published coefficients when --coef is given."""
    spec = parse_formula(args.formula)
    if getattr(args, "coef", None):
        model = FittedModel.from_coefficients(spec, _parse_coef(args.coef, spec.n_parameters))
        data = None
        if args.data:
            data, _ = _load_data(args, config)
        return model, data
    data, _ = _load_data(args, config)
    return fit(data, spec, allow_saturated=getattr(args, "allow_saturated", False)), data


def _fixed_values(args, data: Dataset | None, model: FittedModel) -> dict[str, float]:
    fixes = _parse_fixes(args.fix or [])
    summary = quartiles(data) if data is not None else None
    return cond.resolve_assignment(fixes, summary)


def _correlations(data: Dataset | None, names: Sequence[str]):
    if data is None or len(names) < 2:
        return None
    try:
        return pearson_matrix(data, [n for n in names if n in data])
    except DataError:
        return None


def _finish(args: argparse.Namespace, doc: dict) -> int:
    if getattr(args, "format", "json") == "text":
        text = render_text(doc)
    else:
        text = dumps_report(doc)
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _write_plot(args: argparse.Namespace, text: str) -> None:
    if args.plot_out:
        write_text_atomic(args.plot_out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _flatten(prefix: str, obj: Any, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, lines)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _flatten(f"{prefix}[{i}]", value, lines)
    elif isinstance(obj, (float, np.floating)):
        lines.append(f"{prefix} = {format_number(obj)}")
    elif isinstance(obj, bool) or obj is None:
        lines.append(f"{prefix} = {json.dumps(obj)}")
    else:
        lines.append(f"{prefix} = {obj}")


def _correlation_table(section: dict) -> list[str]:
    names = section["names"]
    width = max(12, max(len(str(n)) for n in names) + 2)
    head = "".rjust(width) + "".join(str(n).rjust(width) for n in names)
    lines = [head]
    r, p = section["r"], section["p"]
    for i, name in enumerate(names):
        r_cells = "".join(format_number(r[i][j]).rjust(width) for j in range(len(names)))
        lines.append(str(name).rjust(width) + r_cells)
        p_cells = "".join(
            ("—" if i == j else format_number(p[i][j])).rjust(width)
            for j in range(len(names))
        )
        lines.append("p".rjust(width) + p_cells)
    return lines


def render_text(doc: dict) -> str:
    """Flat deterministic key = value rendering of a report document."""
    lines: list[str] = []
    for key, value in doc.items():
        if key == "correlation" and isinstance(value, dict) and "names" in value:
            lines.append("correlation:")
            lines.extend(_correlation_table(value))
        else:
            _flatten(key, value, lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args, config) -> int:
    spec = parse_formula(args.formula)
    data, dropped = _load_data(args, config)
    model = fit(data, spec, allow_saturated=args.allow_saturated)
    doc = new_document(
        "fit",
        formula=print_formula(spec),
        dropped_rows=dropped,
        model=model_section(model),
        warnings=selection.advisories(
            data, spec, float(_setting(args, config, "correlation_threshold"))
        ),
    )
    return _finish(args, doc)


def cmd_conditional(args, config) -> int:
    model, data = _obtain_model(args, config)
    fixed = _fixed_values(args, data, model)
    correlations = _correlations(data, model.spec.predictors)
    section = cond.derive(model, args.target, fixed, correlations=correlations)
    body: dict[str, Any] = {
        "target": section.target,
        "fixed": {name: fixed[name] for name in sorted(fixed)},
        "poly": list(section.poly),
        "cautions": [
            {"predictor": name, "r": r} for name, r in section.cautions
        ],
    }
    if section.degree <= 2:
        tc = cond.t_coefficients(model, args.target, fixed)
        body["t0"] = tc.t0
        body["t_linear"] = tc.t_linear
        body["t_quad"] = tc.t_quad
    doc = new_document("conditional", formula=print_formula(model.spec), conditional=body)
    if args.sweep:
        grid = _parse_sweep(args.sweep)
        rows = [(v, section(v)) for v in grid]
        doc["sweep"] = [{"x": v, "y": y} for v, y in rows]
        comments = [
            f"conditional response of {model.spec.response} vs {args.target}",
            "fixed: " + ", ".join(f"{k}={format_number(v)}" for k, v in sorted(fixed.items())),
        ]
        _write_plot(args, plot_tsv(comments, [args.target, model.spec.response], rows))
    return _finish(args, doc)


def _parse_sweep(text: str) -> np.ndarray:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise FormulaError("--sweep expects min:max:steps")
    try:
        lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError as exc:
        raise FormulaError(f"bad --sweep value: {exc}") from exc
    if steps < 1:
        raise FormulaError("--sweep needs at least one step")
    return np.linspace(lo, hi, steps)


def cmd_effect(args, config) -> int:
    model, data = _obtain_model(args, config)
    fixed = _fixed_values(args, data, model)
    change = cond.unit_effect(model, args.target, fixed, args.at)
    doc = new_document(
        "effect",
        formula=print_formula(model.spec),
        effect={
            "target": args.target,
            "at": args.at,
            "fixed": {name: fixed[name] for name in sorted(fixed)},
            "unit_change": change,
        },
    )
    return _finish(args, doc)


def cmd_bridge(args, config) -> int:
    reconstruction = [args.a1, args.a2, args.c12, args.c21, args.r]
    if any(value is not None for value in reconstruction):
        if any(value is None for value in reconstruction):
            raise AssignmentError(
                "reconstruction mode needs all of --a1 --a2 --c12 --c21 --r"
            )
        b1, b2 = relations.two_predictor_bridge(
            args.a1, args.a2, args.c12, args.c21, args.r
        )
        doc = new_document(
            "bridge",
            reconstruction={
                "a1": args.a1,
                "a2": args.a2,
                "c12": args.c12,
                "c21": args.c21,
                "r": args.r,
                "b1": b1,
                "b2": b2,
            },
        )
        return _finish(args, doc)

    data, _ = _load_data(args, config)
    predictors = _split_names(args.predictors)
    report = relations.bridge(
        data, args.response, predictors, args.target, expected_sign=args.expected_sign
    )
    findings = relations.detect_paradox(
        report,
        correlation_threshold=float(_setting(args, config, "correlation_threshold")),
    )
    doc = new_document(
        "bridge",
        bridge={
            "target": report.target,
            "a": report.a,
            "b": report.b,
            "slr": {name: report.slr[name] for name in sorted(report.slr)},
            "mlr": {name: report.mlr[name] for name in sorted(report.mlr)},
            "inter_predictor_slopes": [
                {"of": i, "on": j, "slope": report.c[(i, j)]}
                for (i, j) in sorted(report.c)
            ],
            "r": {name: report.r[name] for name in sorted(report.r)},
            "ac_sum": report.ac_sum,
            "sign_flip": report.sign_flip,
            "expectation_violation": report.expectation_violation,
            "reconstruction_discrepancy": report.reconstruction_discrepancy,
        },
        findings=[{"kind": f.kind, "message": f.message} for f in findings],
    )
    return _finish(args, doc)


def _split_names(text: str) -> list[str]:
    names = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not names:
        raise FormulaError("expected a comma-separated name list")
    return names


def cmd_residualize(args, config) -> int:
    data, _ = _load_data(args, config)
    others = (
        _split_names(args.others)
        if args.others
        else [name for name in data.names if name != args.target]
    )
    result = relations.residualize(data, args.target, others)
    doc = new_document(
        "residualize",
        residualize={
            "target": args.target,
            "others": others,
            "slopes": {name: result.slopes[name] for name in sorted(result.slopes)},
        },
    )
    if args.column_out:
        text = plot_tsv(
            [f"{args.target} with linear dependence on {', '.join(others)} removed"],
            [f"{args.target}_star"],
            [(value,) for value in result.column],
        )
        write_text_atomic(args.column_out, text)
    return _finish(args, doc)


def cmd_stepwise(args, config) -> int:
    data, _ = _load_data(args, config)
    start = parse_formula(args.formula)
    protected = _parse_terms(args.protect) if args.protect else []
    result = selection.backward_stepwise(
        data,
        start.response,
        start,
        alpha=float(_setting(args, config, "alpha")),
        protected=protected,
        enforce_hierarchy=not args.no_hierarchy,
    )
    doc = new_document(
        "stepwise",
        start=print_formula(start),
        steps=[
            {
                "removed": step.removed.label,
                "p": step.p_value,
                "terms_after": len(step.spec_after.terms),
                "r2_after": step.r2_after,
                "r2_adj_after": step.r2_adj_after,
            }
            for step in result.steps
        ],
        final=model_section(result.final),
        final_formula=print_formula(result.final.spec),
        warnings=result.warnings,
    )
    return _finish(args, doc)


def cmd_subset(args, config) -> int:
    data, _ = _load_data(args, config)
    pool = _parse_terms(args.pool)
    result = selection.best_subset(data, args.response, pool, args.size)
    doc = new_document(
        "subset",
        ranked=[
            {
                "formula": print_formula(entry.spec),
                "r2": entry.r2,
                "r2_adj": entry.r2_adj,
            }
            for entry in result.ranked
        ],
        skipped=[
            {"terms": list(labels), "reason": reason}
            for labels, reason in result.skipped
        ],
        warnings=result.warnings,
    )
    return _finish(args, doc)


def cmd_ellipse(args, config) -> int:
    data, _ = _load_data(args, config)
    level = float(_setting(args, config, "level"))
    shape = geometry.ellipse(data, args.x, args.y, level)
    points = geometry.boundary(shape, args.points)
    doc = new_document(
        "ellipse",
        ellipse={
            "pair": list(shape.pair),
            "center": [float(v) for v in shape.center],
            "shape": [[float(shape.shape[i, j]) for j in range(2)] for i in range(2)],
            "level": shape.level,
            "threshold": shape.threshold,
            "n": data.n,
        },
    )
    comments = [
        f"confidence ellipse boundary for ({args.x}, {args.y})",
        f"level = {format_number(level)}",
        f"threshold = {format_number(shape.threshold)}",
    ]
    _write_plot(args, plot_tsv(comments, [args.x, args.y], points))
    return _finish(args, doc)


def cmd_action(args, config) -> int:
    model, data = _obtain_model(args, config)
    levels = _parse_levels(args.levels or [])
    fixed = cond.resolve_assignment(
        _parse_fixes(args.fix or []), quartiles(data) if data is not None else None
    )
    tolerance = args.control_tolerance
    if tolerance is None:
        tolerance = float(_setting(args, config, "antagonism_tolerance"))
    result = geometry.classify_action(
        model,
        args.f1,
        args.f2,
        alpha=float(_setting(args, config, "alpha")),
        levels=levels,
        fixed=fixed,
        control_tolerance=tolerance,
    )
    doc = new_document(
        "action",
        formula=print_formula(model.spec),
        action={
            "factors": [args.f1, args.f2],
            "label": result.label,
            "cross_coef": result.cross_coef,
            "cross_p": result.cross_p,
            "effect_1": result.effect_1,
            "effect_2": result.effect_2,
            "joint_effect": result.joint_effect,
        },
    )
    return _finish(args, doc)


def _parse_levels(pairs: Sequence[str]) -> dict[str, tuple[float, float]]:
    levels: dict[str, tuple[float, float]] = {}
    for chunk in pairs:
        if "=" not in chunk:
            raise AssignmentError(f"--levels expects name=low:high, got {chunk!r}")
        name, text = chunk.split("=", 1)
        pieces = text.split(":")
        if len(pieces) != 2:
            raise AssignmentError(f"--levels expects name=low:high, got {chunk!r}")
        try:
            levels[name.strip()] = (float(pieces[0]), float(pieces[1]))
        except ValueError as exc:
            raise AssignmentError(f"bad --levels value: {exc}") from exc
    return levels


def cmd_corr(args, config) -> int:
    data, _ = _load_data(args, config)
    names = _split_names(args.cols) if args.cols else data.names
    report = pearson_matrix(data, names)
    doc = new_document(
        "corr",
        correlation={
            "names": list(report.names),
            "n": report.n,
            "r": [[float(v) for v in row] for row in report.r],
            "p": [[float(v) for v in row] for row in report.p],
        },
    )
    return _finish(args, doc)


def cmd_summary(args, config) -> int:
    data, dropped = _load_data(args, config)
    summary = quartiles(data)
    columns = {}
    for name in data.names:
        q = summary.columns[name]
        stats = column_stats(data, name)
        columns[name] = {
            "min": q.min,
            "q25": q.q25,
            "mean": q.mean,
            "q75": q.q75,
            "max": q.max,
            "variance": stats.variance,
        }
    doc = new_document(
        "summary", n=data.n, dropped_rows=dropped, columns=columns
    )
    return _finish(args, doc)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condreg",
        description="Fit polynomial-term linear models and interpret them through "
        "conditional response functions, coefficient bridges, and domain geometry.",
    )
    parser.add_argument("--config", help="JSON config file (or $CONDREG_CONFIG)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, data_required=True):
        p.add_argument("--data", required=data_required, help="input CSV path")
        p.add_argument("--delimiter", help="CSV delimiter (default ',')")
        p.add_argument("--out", help="write the JSON report here (atomic)")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", help="report format"
        )

    p = sub.add_parser("fit", help="fit a model and report coefficients")
    common(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--allow-saturated", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("conditional", help="one-factor conditional response")
    common(p, data_required=False)
    p.add_argument("--formula", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--fix", action="append", help="name=value or name=preset (repeatable)")
    p.add_argument("--sweep", help="min:max:steps grid for plot data")
    p.add_argument("--coef", help="published coefficients, comma separated")
    p.add_argument("--allow-saturated", action="store_true")
    p.add_argument("--plot-out", help="write sweep TSV here")
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("effect", help="unit-change effect at a point")
    common(p, data_required=False)
    p.add_argument("--formula", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--fix", action="append")
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--coef")
    p.add_argument("--allow-saturated", action="store_true")
    p.set_defaults(func=cmd_effect)

    p = sub.add_parser("bridge", help="SLR vs MLR coefficient bridge")
    common(p, data_required=False)
    p.add_argument("--response")
    p.add_argument("--predictors", help="comma-separated predictor names")
    p.add_argument("--target")
    p.add_argument("--expected-sign", type=int, choices=(-1, 1))
    p.add_argument("--a1", type=float, help="reconstruction: SLR slope of Y on x1")
    p.add_argument("--a2", type=float, help="reconstruction: SLR slope of Y on x2")
    p.add_argument("--c12", type=float, help="reconstruction: slope of x1 on x2")
    p.add_argument("--c21", type=float, help="reconstruction: slope of x2 on x1")
    p.add_argument("--r", type=float, help="reconstruction: correlation of x1, x2")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("residualize", help="strip a predictor of co-predictor structure")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--others", help="comma-separated co-predictors (default: all)")
    p.add_argument("--column-out", help="write the residualized column as TSV")
    p.set_defaults(func=cmd_residualize)

    p = sub.add_parser("stepwise", help="backward stepwise elimination")
    common(p)
    p.add_argument("--formula", required=True, help="start model")
    p.add_argument("--alpha", type=float)
    p.add_argument("--protect", help="comma-separated terms never to remove")
    p.add_argument("--no-hierarchy", action="store_true")
    p.set_defaults(func=cmd_stepwise)

    p = sub.add_parser("subset", help="exhaustive best-subset search")
    common(p)
    p.add_argument("--response", required=True)
    p.add_argument("--pool", required=True, help="comma-separated candidate terms")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_subset)

    p = sub.add_parser("ellipse", help="confidence ellipse for a predictor pair")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--level", type=float)
    p.add_argument("--points", type=int, default=360)
    p.add_argument("--plot-out", help="write the boundary polyline TSV here")
    p.set_defaults(func=cmd_ellipse)

    p = sub.add_parser("action", help="combined-action classification")
    common(p, data_required=False)
    p.add_argument("--formula", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--levels", action="append", help="name=low:high (default -1:1)")
    p.add_argument("--fix", action="append", help="pin further predictors")
    p.add_argument("--coef")
    p.add_argument("--allow-saturated", action="store_true")
    p.add_argument("--control-tolerance", type=float)
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("corr", help="Pearson correlation matrix with p-values")
    common(p)
    p.add_argument("--cols", help="comma-separated column subset")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("summary", help="per-column quartiles and moments")
    common(p)
    p.set_defaults(func=cmd_summary)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.cmd == "bridge" and args.a1 is None and not all(
            [args.data, args.response, args.predictors, args.target]
        ):
            raise AssignmentError(
                "bridge needs --data/--response/--predictors/--target"
                " (or the full --a1/--a2/--c12/--c21/--r reconstruction set)"
            )
        return args.func(args, config)
    except DataError as exc:
        print(f"error[{exc.code}]: {_one_line(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {_one_line(exc)}", file=sys.stderr)
        return 1
    except CondregError as exc:
        print(f"error[{exc.code}]: {_one_line(exc)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error[value]: {_one_line(exc)}", file=sys.stderr)
        return 2


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())

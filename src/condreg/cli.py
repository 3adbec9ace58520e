"""Command-line driver.

One subcommand per analysis: fit, conditional, effect, bridge,
residualize, stepwise, subset, ellipse, action, corr, summary.  Input is
CSV (header row, configurable delimiter); output is a deterministic JSON
report (schema "condreg/1") plus TSV plot data where applicable.  A JSON
report is written as it is formed, its pieces going straight into the
--out file or standard output, so its text is never held whole; a text
report, whose correlation table needs every cell's width first, and a
TSV file are formed whole and written as one piece.

Exit codes: 0 success, 1 I/O or data error (any DataError), 2 model error.
Every failure prints a single ``error[<code>]: message`` line to stderr.

The installed ``condreg`` command and ``python -m condreg.cli`` call
:func:`run`, which calls :func:`main` and exits with its code (argparse
exits 0 after --help and 2 on a usage error).  Just before that exit it
freezes the heap (``gc.freeze``), so the interpreter's exit-time
collections, which would traverse every object numpy, argparse and the
command made, skip them; atexit handlers, stream flushes and profiler
output run as usual.  Every file a command writes is closed before main
returns, since a frozen file object is never finalized.  main itself
leaves the heap as it is, for callers that go on running.

Defaults can come from a JSON config file (--config or $CONDREG_CONFIG);
flags override the file, the file overrides built-ins.  Recognized keys:
delimiter, alpha, level, correlation_threshold, antagonism_tolerance (the
default of --control-tolerance).  correlation_threshold is the |r| above
which every command's correlation warnings (fit, stepwise, subset),
conditional's cautions and bridge's high-correlation findings are
raised.  Every value in the file is checked when it is loaded, whether
or not the command reads it: an unknown key, a delimiter that is not one
character, a numeric setting whose value is not a number, or a
correlation_threshold that is NaN or outside [0, 1], is a config error.
Each setting is resolved once, before the command runs.

Parsed inputs are cached per user (:mod:`condreg.cache`).  A ``--data``
file of more than 768 KiB is looked up by a BLAKE2b-256 hash of its
bytes, taken together with the parser's source, numpy's version and the
delimiter; a hit reads the parsed columns back instead of parsing the
file again, and a miss parses it and stores them.  A miss costs about a
quarter more than a parse, so the cache pays for a file only when it is
read again.  The cache lives in
``$XDG_CACHE_HOME/condreg`` (``~/.cache/condreg`` when that is unset)
and holds at most ``defaults.PARSE_CACHE_BYTES`` (512 MiB), the least
recently used entries going first.  ``rm -r ~/.cache/condreg`` clears
it.  Reports, dropped-row counts and errors are the same with the cache
cold, warm or unusable.

Modules load on first use.  The functions of other modules that the
commands call are bound here as on-demand stubs (:func:`condreg.on_demand`),
so importing this module, reading any of its names and ``--help`` load
neither numpy nor any analysis module.  Besides this module, defaults,
errors and report (which imports no numpy), a command loads only the
modules it calls when it runs:

    bridge --a1 ... --r            relations, and no numpy
    corr, summary                  cache, dataset, stats
    ellipse                        cache, dataset, stats, geometry
    bridge --data, residualize     cache, dataset, stats, ols, terms, relations
    fit, stepwise, subset          cache, dataset, stats, formula, ols, terms, selection
    conditional, effect, action    dataset, stats, formula, ols, terms, conditional;
                                   with --data also cache, action also geometry,
                                   conditional --data also selection

and a command whose ``--data`` file is over the cache's threshold also
cachestore.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Iterable, NoReturn, Sequence

from . import on_demand
from .defaults import CONTROL_TOLERANCE, DESTABILIZATION_THRESHOLD, MAX_PLOT_POINTS
from .errors import (
    AssignmentError,
    ConfigError,
    CondregError,
    DataError,
    EmptyDataError,
    FormulaError,
    SaturatedModelError,
)

if TYPE_CHECKING:
    import numpy as np

    from .dataset import Dataset
    from .ols import FittedModel
    from .terms import ModelSpec

# The functions the commands call as globals of this module; dumps_report,
# which no command calls, stays for the callers that read it here.
# bench/tracing.py and the tests patch them here.  Each is an on-demand
# stub, which imports its module only when called, so whatever is bound
# here when a command runs, a stub or a patch, is the function called.
# Every other name a command needs it imports itself.
load_csv = on_demand("cache", "load_csv")
pearson_matrix = on_demand("dataset", "pearson_matrix")
quartiles = on_demand("dataset", "quartiles")
parse_formula = on_demand("formula", "parse_formula")
fit = on_demand("ols", "fit")
dumps_report = on_demand("report", "dumps_report")
model_section = on_demand("report", "model_section")
new_document = on_demand("report", "new_document")
plot_tsv = on_demand("report", "plot_tsv")
write_text_atomic = on_demand("report", "write_text_atomic")


CONFIG_ENV = "CONDREG_CONFIG"
DEFAULTS = {
    "delimiter": ",",
    "alpha": 0.05,
    "level": 0.95,
    "correlation_threshold": DESTABILIZATION_THRESHOLD,
    "antagonism_tolerance": CONTROL_TOLERANCE,
}
# Settings whose flag has another name than the config key.
FLAG_NAMES = {"antagonism_tolerance": "control_tolerance"}


def _load_config(path: str | None) -> dict:
    """The config file's settings: the delimiter as given, every other value as a float."""
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
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; expected {sorted(DEFAULTS)}")
    config = {}
    for key, value in raw.items():
        if key == "delimiter":
            if not (isinstance(value, str) and len(value) == 1):
                raise ConfigError(f"config key 'delimiter' must be one character, got {value!r}")
            config[key] = value
            continue
        try:
            config[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from exc
    threshold = config.get("correlation_threshold", 0.0)
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"config key 'correlation_threshold' must lie in [0, 1], got {threshold}")
    return config


def _resolve_settings(args: argparse.Namespace, config: dict) -> None:
    """Fill every setting no flag gave from the config file, else the default."""
    for key, default in DEFAULTS.items():
        name = FLAG_NAMES.get(key, key)
        if getattr(args, name, None) is None:
            setattr(args, name, config.get(key, default))


def _load_data(args: argparse.Namespace) -> tuple[Dataset, int]:
    if not args.data:
        raise EmptyDataError("this command needs --data")
    with open(args.data, "rb") as handle:
        return load_csv(handle, delimiter=args.delimiter)


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
            if name in fixes:
                raise AssignmentError(f"--fix names {name!r} twice")
            try:
                fixes[name] = float(text)
            except ValueError:
                fixes[name] = text  # preset, validated downstream
    return fixes


def _parse_coef(text: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise AssignmentError(f"--coef must be comma-separated numbers: {exc}") from exc


def _obtain_model(args: argparse.Namespace) -> tuple[FittedModel, Dataset | None]:
    """Fit from data, or wrap published coefficients when --coef is given."""
    from .ols import FittedModel

    spec = parse_formula(args.formula)
    if args.coef:
        model = FittedModel.from_coefficients(spec, _parse_coef(args.coef))
        data = None
        if args.data:
            data, _ = _load_data(args)
        return model, data
    data, _ = _load_data(args)
    return _fit(args, data, spec), data


def _fit(args: argparse.Namespace, data: Dataset, spec: ModelSpec) -> FittedModel:
    """fit, for a command that takes --allow-saturated: its refusal of an
    exact fit names the flag."""
    try:
        return fit(data, spec, allow_saturated=args.allow_saturated)
    except SaturatedModelError as exc:
        raise SaturatedModelError(f"{exc}; pass --allow-saturated to permit an exact fit") from None


def _fixed_values(args, data: Dataset | None, spec: ModelSpec, varied: Sequence[str]) -> dict[str, float]:
    """The --fix values.  Where one is a preset, they are first checked as
    a point of ``spec`` with ``varied`` free, so that a name the model does
    not use is refused alike whether its value is a number or a preset."""
    from . import conditional as cond

    fixes = _parse_fixes(args.fix or [])
    presets = [name for name, value in fixes.items() if isinstance(value, str)]
    summary = None
    if presets:
        spec.check_point(varied, fixes)
        if data is not None:
            summary = quartiles(data, [name for name in presets if name in data.names])
    return cond.resolve_assignment(fixes, summary)


def _finish(args: argparse.Namespace, doc: dict) -> int:
    from .report import render_text, report_pieces

    _write(args.out, [render_text(doc)] if args.format == "text" else report_pieces(doc))
    return 0


def _write(path: str | None, pieces: Iterable[str]) -> None:
    """Write str pieces to path atomically, or to standard output, in bounded writes."""
    if path:
        write_text_atomic(path, pieces)
    else:
        from .report import write_chunks

        write_chunks(sys.stdout, pieces)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    from . import selection
    from .formula import print_formula

    spec = parse_formula(args.formula)
    data, dropped = _load_data(args)
    model = _fit(args, data, spec)
    doc = new_document(
        "fit",
        formula=print_formula(spec),
        dropped_rows=dropped,
        model=model_section(model),
        warnings=selection.advisories(data, spec, args.correlation_threshold),
    )
    return _finish(args, doc)


def cmd_conditional(args) -> int:
    from dataclasses import asdict

    from . import conditional as cond
    from .formula import print_formula
    from .report import format_number

    model, data = _obtain_model(args)
    fixed = _fixed_values(args, data, model.spec, (args.target,))
    correlations = []
    if data is not None:
        from . import selection

        correlations = selection.strong_correlations(
            data, model.spec.predictors, args.correlation_threshold
        )
    section = cond.derive(model, args.target, fixed, correlations=correlations)
    body: dict[str, Any] = {
        **asdict(section),
        "fixed": dict(sorted(fixed.items())),
        "cautions": [{"predictor": name, "r": r} for name, r in section.cautions],
    }
    if section.degree <= 2:
        body.update(asdict(cond.t_coefficients(section)))
    doc = new_document("conditional", formula=print_formula(model.spec), conditional=body)
    if args.sweep:
        import numpy as np

        grid = _parse_sweep(args.sweep)
        rows = np.column_stack((grid, section(grid)))
        doc["sweep"] = [{"x": v, "y": y} for v, y in rows.tolist()]
        comments = [
            f"conditional response of {model.spec.response} vs {args.target}",
            "fixed: " + ", ".join(f"{k}={format_number(v)}" for k, v in sorted(fixed.items())),
        ]
        _write(args.plot_out, [plot_tsv(comments, [args.target, model.spec.response], rows)])
    return _finish(args, doc)


def _parse_sweep(text: str) -> np.ndarray:
    import numpy as np

    pieces = text.split(":")
    if len(pieces) != 3:
        raise FormulaError("--sweep expects min:max:steps")
    try:
        lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError as exc:
        raise FormulaError(f"bad --sweep value: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise FormulaError(f"--sweep bounds must be finite numbers, got {lo}:{hi}")
    if not math.isfinite(hi - lo):
        raise FormulaError(f"--sweep span {lo}:{hi} leaves the double range")
    if steps < 1:
        raise FormulaError("--sweep needs at least one step")
    if steps > MAX_PLOT_POINTS:
        raise FormulaError(f"--sweep takes at most {MAX_PLOT_POINTS} steps, got {steps}")
    return np.linspace(lo, hi, steps)


def cmd_effect(args) -> int:
    from . import conditional as cond
    from .formula import print_formula

    model, data = _obtain_model(args)
    fixed = _fixed_values(args, data, model.spec, (args.target,))
    change = cond.unit_effect(model, args.target, fixed, args.at)
    doc = new_document(
        "effect",
        formula=print_formula(model.spec),
        effect={
            "target": args.target,
            "at": args.at,
            "fixed": dict(sorted(fixed.items())),
            "unit_change": change,
        },
    )
    return _finish(args, doc)


def cmd_bridge(args) -> int:
    from dataclasses import asdict

    from . import relations

    given = {"a1": args.a1, "a2": args.a2, "c12": args.c12, "c21": args.c21, "r": args.r}
    if any(value is not None for value in given.values()):
        if any(value is None for value in given.values()):
            raise AssignmentError(
                "reconstruction mode needs all of --a1 --a2 --c12 --c21 --r"
            )
        b1, b2 = relations.two_predictor_bridge(**given)
        doc = new_document("bridge", reconstruction={**given, "b1": b1, "b2": b2})
        return _finish(args, doc)
    if not all([args.data, args.response, args.predictors, args.target]):
        raise AssignmentError(
            "bridge needs --data/--response/--predictors/--target"
            " (or the full --a1/--a2/--c12/--c21/--r reconstruction set)"
        )

    data, _ = _load_data(args)
    predictors = _split_names(args.predictors)
    report = relations.bridge(
        data, args.response, predictors, args.target, expected_sign=args.expected_sign
    )
    findings = relations.detect_paradox(report, correlation_threshold=args.correlation_threshold)
    section: dict[str, Any] = {}
    for key, value in asdict(report).items():
        if key == "c":  # keyed by (of, on) pairs, which JSON cannot hold
            section["inter_predictor_slopes"] = [
                {"of": i, "on": j, "slope": slope} for (i, j), slope in sorted(value.items())
            ]
        else:
            section[key] = dict(sorted(value.items())) if isinstance(value, dict) else value
    doc = new_document(
        "bridge", bridge=section, findings=[asdict(finding) for finding in findings]
    )
    return _finish(args, doc)


def _split_names(text: str) -> list[str]:
    names = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not names:
        raise FormulaError("expected a comma-separated name list")
    return names


def cmd_residualize(args) -> int:
    from . import relations

    data, _ = _load_data(args)
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
            "slopes": dict(sorted(result.slopes.items())),
        },
    )
    if args.column_out:
        text = plot_tsv(
            [f"{args.target} with linear dependence on {', '.join(others)} removed"],
            [f"{args.target}_star"],
            result.column[:, None],
        )
        write_text_atomic(args.column_out, [text])
    return _finish(args, doc)


def cmd_stepwise(args) -> int:
    from . import selection
    from .formula import parse_terms, print_formula

    data, _ = _load_data(args)
    start = parse_formula(args.formula)
    protected = parse_terms(args.protect) if args.protect else []
    result = selection.backward_stepwise(
        data,
        start,
        alpha=args.alpha,
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
        warnings=selection.advisories(data, result.final.spec, args.correlation_threshold),
    )
    return _finish(args, doc)


def cmd_subset(args) -> int:
    from . import selection
    from .formula import parse_terms
    from .report import ColumnTable

    data, _ = _load_data(args)
    pool = parse_terms(args.pool)
    result = selection.best_subset(data, args.response, pool, args.size)
    doc = new_document(
        "subset",
        ranked=ColumnTable({"formula": result.formulas, "r2": result.r2, "r2_adj": result.r2_adj}),
        skipped=[
            {"terms": list(labels), "reason": reason}
            for labels, reason in result.skipped
        ],
        warnings=selection.advisories(data, result.best.spec, args.correlation_threshold),
    )
    return _finish(args, doc)


def cmd_ellipse(args) -> int:
    from dataclasses import asdict

    from . import geometry
    from .report import format_number

    data, _ = _load_data(args)
    shape = geometry.ellipse(data, args.x, args.y, args.level)
    points = geometry.boundary(shape, args.points)
    doc = new_document("ellipse", ellipse={**asdict(shape), "n": data.n})
    comments = [
        f"confidence ellipse boundary for ({args.x}, {args.y})",
        f"level = {format_number(args.level)}",
        f"threshold = {format_number(shape.threshold)}",
    ]
    _write(args.plot_out, [plot_tsv(comments, [args.x, args.y], points)])
    return _finish(args, doc)


def cmd_action(args) -> int:
    from dataclasses import asdict

    from . import geometry
    from .formula import print_formula

    model, data = _obtain_model(args)
    result = geometry.classify_action(
        model,
        args.f1,
        args.f2,
        alpha=args.alpha,
        levels=_parse_levels(args.levels or []),
        fixed=_fixed_values(args, data, model.spec, (args.f1, args.f2)),
        control_tolerance=args.control_tolerance,
    )
    doc = new_document(
        "action",
        formula=print_formula(model.spec),
        action={"factors": [args.f1, args.f2], **asdict(result)},
    )
    return _finish(args, doc)


def _parse_levels(pairs: Sequence[str]) -> dict[str, tuple[float, float]]:
    levels: dict[str, tuple[float, float]] = {}
    for chunk in pairs:
        if "=" not in chunk:
            raise AssignmentError(f"--levels expects name=low:high, got {chunk!r}")
        name, text = chunk.split("=", 1)
        name, pieces = name.strip(), text.split(":")
        if len(pieces) != 2:
            raise AssignmentError(f"--levels expects name=low:high, got {chunk!r}")
        if name in levels:
            raise AssignmentError(f"--levels names {name!r} twice")
        try:
            levels[name] = (float(pieces[0]), float(pieces[1]))
        except ValueError as exc:
            raise AssignmentError(f"bad --levels value: {exc}") from exc
    return levels


def cmd_corr(args) -> int:
    data, _ = _load_data(args)
    names = _split_names(args.cols) if args.cols else data.names
    report = pearson_matrix(data, names)
    doc = new_document(
        "corr",
        correlation={
            "names": list(report.names),
            "n": report.n,
            "r": report.r,
            "p": report.p,
        },
    )
    return _finish(args, doc)


def cmd_summary(args) -> int:
    from dataclasses import asdict

    data, dropped = _load_data(args)
    columns = {name: asdict(q) for name, q in quartiles(data).items()}
    doc = new_document("summary", n=data.n, dropped_rows=dropped, columns=columns)
    return _finish(args, doc)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condreg",
        description="Fit polynomial-term linear models and interpret them through "
        "conditional response functions, coefficient bridges, and domain geometry. "
        "A --data file over 768 KiB is parsed once and then read from a cache in "
        "$XDG_CACHE_HOME/condreg (default ~/.cache/condreg).",
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

    def model_source(p):
        """A model from --data and --formula, or from published --coef values."""
        p.add_argument("--formula", required=True)
        p.add_argument("--fix", action="append", help="name=value or name=preset (repeatable)")
        p.add_argument("--coef", help="published coefficients, comma separated")
        p.add_argument("--allow-saturated", action="store_true")

    p = sub.add_parser("fit", help="fit a model and report coefficients")
    common(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--allow-saturated", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("conditional", help="one-factor conditional response")
    common(p, data_required=False)
    model_source(p)
    p.add_argument("--target", required=True)
    p.add_argument("--sweep", help="min:max:steps grid for plot data")
    p.add_argument("--plot-out", help="write sweep TSV here")
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("effect", help="unit-change effect at a point")
    common(p, data_required=False)
    model_source(p)
    p.add_argument("--target", required=True)
    p.add_argument("--at", type=float, required=True)
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
    model_source(p)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--levels", action="append", help="name=low:high (default -1:1)")
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
        _resolve_settings(args, _load_config(args.config))
        return args.func(args)
    except DataError as exc:
        print(f"error[{exc.code}]: {_one_line(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {_one_line(exc)}", file=sys.stderr)
        return 1
    except ImportError as exc:
        print(f"error[import]: {_one_line(exc)}", file=sys.stderr)
        return 1
    except CondregError as exc:
        print(f"error[{exc.code}]: {_one_line(exc)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error[value]: {_one_line(exc)}", file=sys.stderr)
        return 2


def run(argv: Sequence[str] | None = None) -> NoReturn:
    """Run main and exit with its code, the heap frozen (see the module docstring).

    The freeze also precedes argparse's own exits, for --help and usage errors.
    """
    try:
        code = main(argv)
    finally:
        gc.freeze()
    sys.exit(code)


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    run()

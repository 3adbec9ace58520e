"""Benchmark of the condreg CLI: end-to-end passes and a traced in-process run.

Run from the repository root:

    python3 bench/run.py --workload large-n --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed`` into a scratch
directory under ``.bench_out/``.  The benchmark is a closed loop with one
client: each ``condreg`` command of the workload's script runs as a fresh
subprocess, one after another, and a pass is one run of the whole script.
Passes repeat until ``--seconds`` have elapsed (at least one pass).  Every
report is checked against an independent oracle on the first pass, and
every later pass must write byte-identical files.

``--trace 0`` reports the end-to-end metrics: wall and CPU seconds of a
pass, the peak RSS of its commands, and the start-up cost of
``condreg --help``.  The host is a few cores of a shared machine whose
speed drifts by 20% and more within minutes, so :class:`Calibration`, a
fixed task, runs in this process just before every command.  ``wall_s``,
``cpu_s`` and ``setup_s`` are the mean measured seconds times
``CALIBRATION_REFERENCE_S`` / (the mean calibration time of the same
phase): seconds on a host as fast as the one ``CALIBRATION_REFERENCE_S``
was taken on.  The unscaled times, their medians and the calibration
times are printed and recorded too.

``--trace 1`` runs the same script in this process, an untimed warm-up
pass and then untraced and traced passes in turn, and reports per-layer
self times and counters from :mod:`tracing`.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the fixture, the environment and every metric with its unit.  The
full record, and the spans of a traced run, are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = [
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
]
# One BLAS thread per process unless the caller says otherwise.  numpy and
# scipy each load their own OpenBLAS, whose default is a pool per library
# with one thread per CPU; on a 2-CPU machine those threads spin against
# each other, which made passes both slower and far noisier.  This must
# run before numpy is imported; child processes inherit it.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Near the median time of Calibration.measure on a 2-vCPU Intel Xeon VM
# with one BLAS thread (run means of 0.06 to 0.13 s as the host's load
# changed).  A constant, so that scaled times of two commits compare;
# changing it or the task rescales every time metric.
CALIBRATION_REFERENCE_S = 0.1
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "error_rate": "ratio"}


@dataclass
class Sample:
    """One finished subprocess."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


class Calibration:
    """A fixed task of CSV-like parsing and small QR factorizations.

    Its time tracks the host's speed for the kind of work condreg does,
    interpreted parsing and loops and single-threaded LAPACK.  Its inputs
    are fixed, so it does the same work on every commit.  Every array it
    makes is under glibc's 128 KiB mmap threshold: larger ones cost page
    faults or not depending on what this process freed before.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.lines = [",".join(f"{v:.6f}" for v in row) for row in rng.standard_normal((1000, 6)).tolist()]
        self.design = rng.standard_normal((400, 20))

    def measure(self) -> float:
        """Run the task once; returns its wall seconds."""
        # The task makes no reference cycles; with the collector off, its
        # time does not depend on how many objects this process holds.
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(20):
                np.asarray([[float(field) for field in line.split(",")] for line in self.lines])
            for _ in range(400):
                np.linalg.qr(self.design)
            return time.perf_counter() - start
        finally:
            gc.enable()


def program_env(root: Path) -> dict[str, str]:
    """The caller's environment with condreg's sources first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


LAUNCHER = Path(__file__).resolve().with_name("launch.py")


def spawn(args: list[str], env: dict[str, str], cwd: Path) -> Sample:
    """Run ``python -m condreg.cli ARGS`` through the launcher and collect its resource usage."""
    argv = [sys.executable, str(LAUNCHER), str(cwd / "stdout.txt"), str(cwd / "stderr.txt"),
            sys.executable, "-m", "condreg.cli", *args]
    launched = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, env=env, cwd=cwd, check=True)
    result = json.loads(launched.stdout)
    message = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
    return Sample(result["wall"], result["cpu"], result["rss_mb"], result["code"], message)


def _read_outputs(command: workloads.Command, directory: Path) -> list[bytes | None]:
    return [(directory / name).read_bytes() if (directory / name).is_file() else None for name in command.outputs]


def _clear_outputs(commands: list[workloads.Command], directory: Path) -> None:
    for command in commands:
        for name in command.outputs:
            (directory / name).unlink(missing_ok=True)


class Verifier:
    """Checks the first pass against the oracles and every later one against the first."""

    def __init__(self, commands: list[workloads.Command], directory: Path):
        self.commands = commands
        self.directory = directory
        self.reference: dict[str, list[bytes | None]] = {}
        self.verdict: dict[str, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, command: workloads.Command, problem: str | None) -> None:
        self.attempted += 1
        outputs = _read_outputs(command, self.directory)
        if command.label not in self.reference:
            self.reference[command.label] = outputs
            self.verdict[command.label] = problem or workloads.check_report(command, self.directory)
            problem = self.verdict[command.label]
        elif problem is None:
            if self.verdict[command.label] is not None:
                problem = f"{command.label}: first pass failed its check"
            elif outputs != self.reference[command.label]:
                problem = f"{command.label}: output differs from the first pass"
        if problem is not None:
            self.failures.append(problem)


def _median_and_tail(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f}"
    if n > 10:
        k = n - 10
        text += f", p{100 * k // n} {ordered[k - 1]:.4f}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f", n={n}"


def timed_run(name: str, fixture: workloads.Fixture, env: dict, workdir: Path, seconds: float,
              setup_repeats: int = SETUP_REPEATS) -> dict:
    """End-to-end passes of the workload's script, each command a subprocess."""
    out = workdir / "out"
    out.mkdir()
    commands = workloads.WORKLOADS[name].script(fixture, out)
    verifier = Verifier(commands, out)
    calibration = Calibration()
    calibration.measure()  # the first QR call loads LAPACK
    raw: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    setup_calibration, pass_calibration = [], []

    spawn(["--help"], env, workdir)  # the first start in a checkout compiles bytecode
    for _ in range(setup_repeats):
        setup_calibration.append(calibration.measure())
        sample = spawn(["--help"], env, workdir)
        verifier.attempted += 1
        if sample.code != 0 or not (workdir / "stdout.txt").read_text().startswith("usage: condreg"):
            verifier.failures.append(f"--help: exit {sample.code}: {sample.stderr}")
        raw["setup_s"].append(sample.wall)

    deadline = time.perf_counter() + seconds
    while not raw["wall_s"] or time.perf_counter() < deadline:
        _clear_outputs(commands, out)
        samples = []
        for command in commands:
            pass_calibration.append(calibration.measure())
            samples.append(spawn(command.args, env, workdir))
        raw["wall_s"].append(sum(s.wall for s in samples))
        raw["cpu_s"].append(sum(s.cpu for s in samples))
        raw["peak_rss_mb"].append(max(s.rss_mb for s in samples))
        for command, sample in zip(commands, samples):
            problem = f"{command.label}: exit {sample.code}: {sample.stderr}" if sample.code != 0 else None
            verifier.record(command, problem)

    # Means, not medians: the mean of a phase's times and the mean of the
    # calibrations spread over the same phase see the same host speed, so
    # their ratio cancels the drift; a median of either does not.
    rate = {"setup_s": CALIBRATION_REFERENCE_S / statistics.fmean(setup_calibration)}
    rate["wall_s"] = rate["cpu_s"] = CALIBRATION_REFERENCE_S / statistics.fmean(pass_calibration)
    metrics = {key: statistics.fmean(raw[key]) * rate.get(key, 1.0) for key in ("wall_s", "cpu_s", "setup_s")}
    metrics["peak_rss_mb"] = statistics.median(raw["peak_rss_mb"])
    notes = {f"{key} scaled": _median_and_tail([value * rate[key] for value in raw[key]]) for key in rate}
    notes.update({f"{key} unscaled": _median_and_tail(raw[key]) for key in raw})
    notes["calibration"] = (f"setup {statistics.fmean(setup_calibration):.4f} s, passes "
                            f"{statistics.fmean(pass_calibration):.4f} s, reference {CALIBRATION_REFERENCE_S} s")
    metrics["error_rate"] = len(verifier.failures) / verifier.attempted
    notes["error_rate"] = f"{len(verifier.failures)} of {verifier.attempted} commands failed"
    return {
        "metrics": {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in metrics.items()},
        "notes": notes,
        "unscaled": raw,
        "calibration_s": {"setup": setup_calibration, "passes": pass_calibration},
        "attempted": verifier.attempted,
        "failures": verifier.failures,
    }


def _in_process_pass(main, commands: list[workloads.Command], directory: Path, verifier: Verifier) -> float:
    """Run the script through ``condreg.cli.main`` here; returns the summed wall time."""
    _clear_outputs(commands, directory)
    wall = 0.0
    for command in commands:
        start = time.perf_counter()
        try:
            code = main(command.args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this command, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
        verifier.record(command, None if code == 0 else f"{command.label}: exit {code}")
    return wall


def traced_run(name: str, fixture: workloads.Fixture, env: dict, workdir: Path, seconds: float, root: Path,
               spans_path: Path | None = None) -> dict:
    """Per-layer metrics from a traced in-process run, plus the import breakdown."""
    imports = tracing.import_breakdown(env)
    sys.path.insert(0, str(root / "src"))
    from condreg import cli

    untraced_dir, traced_dir = workdir / "untraced", workdir / "traced"
    untraced_dir.mkdir()
    traced_dir.mkdir()
    script = workloads.WORKLOADS[name].script
    plain = Verifier(script(fixture, untraced_dir), untraced_dir)
    traced = Verifier(script(fixture, traced_dir), traced_dir)
    # An untimed untraced pass first: it pays the first-call costs, which would
    # otherwise land on one side of trace.overhead_s, and writes the reports
    # that every later pass, traced or not, must match byte for byte.
    _in_process_pass(cli.main, plain.commands, untraced_dir, plain)
    traced.reference, traced.verdict = plain.reference, plain.verdict
    tracer = tracing.Tracer()
    plain_walls, traced_walls, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        plain_walls.append(_in_process_pass(cli.main, plain.commands, untraced_dir, plain))
        tracer.pass_id = len(traced_walls)
        first = len(tracer.spans)
        tracer.install()
        try:
            traced_walls.append(_in_process_pass(cli.main, traced.commands, traced_dir, traced))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.pass_metrics(first))
    if spans_path is not None:
        tracer.write(spans_path)

    metrics: dict[str, tuple[float, str]] = {key: (value, "s") for key, value in imports.items()}
    for layer in tracing.TIMED:
        metrics[f"{layer}_s"] = (statistics.median(p.get(f"{layer}_s", 0.0) for p in per_pass), "s")
    for counter in tracing.COUNTERS:
        unit = "MB" if counter.endswith("_mb") else "bytes" if counter.endswith("_bytes") else "count"
        metrics[counter] = (statistics.median(p.get(counter, 0.0) for p in per_pass), unit)
    candidates = metrics["selection.candidates"][0]
    metrics["selection.useful_ratio"] = (metrics["selection.ranked"][0] / candidates if candidates else 0.0, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    metrics["trace.coverage"] = (
        statistics.median(p["top_level_s"] / wall for p, wall in zip(per_pass, traced_walls)), "ratio")
    failures = plain.failures + traced.failures
    return {
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "notes": {"passes": f"{len(plain_walls)} untraced and {len(traced_walls)} traced in-process passes",
                  "untraced_call_sites": ", ".join(tracer.missing) or "none",
                  "counter_hooks_failed": ", ".join(sorted(tracer.hook_errors)) or "none",
                  "in_process_wall_s": _median_and_tail(plain_walls),
                  "traced_wall_s": _median_and_tail(traced_walls)},
        "attempted": plain.attempted + traced.attempted,
        "failures": failures,
    }


def environment(env: dict[str, str]) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {key: env.get(key, "unset") for key in THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path, toy: bool = False,
        spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the full record."""
    env = program_env(root)
    fixture_dir = workdir / "fixture"
    fixture_dir.mkdir()
    fixture = workloads.build(name, seed, fixture_dir, toy=toy)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(env), "fixture": fixture.info}
    if trace:
        record.update(traced_run(name, fixture, env, workdir, seconds, root, spans_path))
    else:
        record.update(timed_run(name, fixture, env, workdir, seconds, SETUP_REPEATS if not toy else 1))
    return record


def summary_line(record: dict) -> dict:
    """The contract's final JSON object; error_rate travels as attempted/failed."""
    metrics = {key: value for key, value in record["metrics"].items() if key != "error_rate"}
    failed = len(record["failures"])
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "condreg" / "cli.py").is_file():
        print(f"error: no condreg sources under {root / 'src'}", file=sys.stderr)
        return 2
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=out_root))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), root, workdir,
                     spans_path=out_root / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (out_root / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("fixture " + json.dumps(record["fixture"]))
    print("environment " + json.dumps(record["environment"]))
    for key, note in record["notes"].items():
        print(f"  {key}: {note}")
    for key, metric in record["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

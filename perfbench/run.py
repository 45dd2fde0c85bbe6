#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the demon-ep command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop in this one process: one ``demon-ep`` command
after another, run in-process through ``demon_ep.cli.main(argv)`` on inputs
generated from ``--seed``.  A pass is the workload's fixed list of jobs; the
first pass warms up and fixes the reference outputs, then passes repeat until
``--seconds`` have elapsed.  Every job's output is checked.  With
``--trace 1`` the run times untraced passes for half the time and traced
passes (spans around each layer's public functions) for the other half, and
reports per-layer metrics instead of end-to-end ones.

Between jobs, at most every quarter second, the run times a fixed
calibration loop (:func:`calibrate`).  Each job's time divided by the mean
of the calibrations just before and just after it is its time in ``cal``
units.  On a shared host the speed of the CPU drifts by tens of percent over
seconds; the program and the loop slow down together, so times in ``cal``
units vary far less from run to run than raw times, and they are the gated
metrics.  Raw times are printed beside them.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent

#: end-to-end metrics in the final JSON line of an untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("wall_cal", "cal"),
    ("job_p50_cal", "cal"),
    ("peak_rss_mb", "MB"),
)

#: self times in the final JSON line of a traced run: the layers and functions
#: every workload runs.  The other self times are printed but left out, since
#: on a workload that never calls them they read exactly 0 on every run.
GATED_SELF = (
    ("cli", "dataio", "runner", "protocol", "statespace", "entropy")
    + ("cli.main", "dataio.load_config", "protocol.sigma_histogram")
    + tuple(f"entropy.{name}" for name in tracing.FUNCTIONS["entropy"])
)

#: per-layer metrics in the final JSON line of a traced run
PER_LAYER = tuple(
    [(f"{layer}.{name}.calls", "calls/job") for layer, names in tracing.FUNCTIONS.items() for name in names]
    + [(f"{layer}.calls", "calls/job") for layer in tracing.GROUPS]
    + [(f"{span}.{extra}", unit) for span, (extra, unit, _) in tracing.EXTRAS.items()]
    + [(f"{name}.self_s", "s/job") for name in GATED_SELF]
    + [("trace_overhead_frac", "frac")]
)

#: functions whose inclusive share of job time is printed for every workload
SHARES_SHOWN = (
    "runner.build_kernel", "runner.point_tables", "protocol.tables_from_conditionals",
    "protocol.sigma_histogram", "entropy.evaluate", "dataio.parse_table",
    "dataio.sweep_csv_text", "protocol.oracle_full_state",
)

SETUP_REPEATS = {False: 7, True: 2}
IMPORT_TIMER = "import time; t = time.perf_counter(); import demon_ep; print(time.perf_counter() - t)"

#: least time between two calibration readings, seconds
CALIBRATE_EVERY = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def set_up(args, src: Path, work: Path):
    """Import ``demon_ep`` in a fresh interpreter and write the inputs, several times.

    The child times its own import, so interpreter start-up is left out.
    Returns the jobs of the last repetition and every repetition's time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    times = []
    for rep in range(SETUP_REPEATS[args.tiny]):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=env, check=True, capture_output=True, text=True
        )
        start = time.perf_counter()
        dest = work / f"setup{rep}"
        jobs = workloads.generate(args.workload, args.seed, dest, args.tiny)
        times.append(float(child.stdout) + time.perf_counter() - start)
    return jobs, dest, times


# ---------------------------------------------------------------------------
# passes


def calibrate(rounds: int = 600) -> float:
    """Seconds taken by a fixed loop with the program's own cost profile.

    Each round masks, indexes and reduces an array shaped like a trajectory
    table, then formats a number: Python overhead around numpy calls on a
    few dozen entries, so host slowdowns hit the loop and the program alike.
    About 10 ms on an idle 2-core x86 box.
    """
    base = np.linspace(0.01, 1.0, 160).reshape(2, 2, 4, 2, 5)
    start = time.perf_counter()
    acc = 0.0
    for i in range(rounds):
        probs = base * (1.0 + i * 1e-6)
        kept = probs[probs > 0.5]
        acc += float(np.dot(kept, np.log(kept))) + float(np.einsum("nkcmf->", probs))
        acc += len(format(acc, ".17g")) + sum(divmod(i, 7))
    return time.perf_counter() - start


class Calibration:
    """Calibration readings taken between jobs, and job times in ``cal`` units."""

    def __init__(self):
        self.readings: list[float] = []
        self._last = -math.inf

    def between_jobs(self) -> int:
        """Calibrate if due; return the index of the latest reading."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY:
            self.readings.append(calibrate())
            self._last = time.perf_counter()
        return len(self.readings) - 1

    def close(self) -> None:
        """Take the reading that brackets the last job."""
        self.readings.append(calibrate())
        self._last = time.perf_counter()

    def scale(self, index: int) -> float:
        return (self.readings[index] + self.readings[index + 1]) / 2


def run_pass(jobs, cli, calibration, tracer=None):
    """Run every job once; return each job's latency, calibration index and output.

    ``cli.main`` is looked up per job so that an installed tracer sees it.
    """
    latencies, readings, raw = [], [], []
    for index, job in enumerate(jobs):
        readings.append(calibration.between_jobs())
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start_job(index)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(job.argv)
        except (Exception, SystemExit) as exc:  # a crashed job is a failed job
            code = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_job()
        raw.append((code, stdout.getvalue(), stderr.getvalue()))
    outputs = []
    for job, (code, stdout, stderr) in zip(jobs, raw):
        text = stdout
        if job.out is not None:
            try:
                text = job.out.read_text()
                job.out.unlink()
            except OSError:
                text = None
        outputs.append((code, text, stderr))
    return latencies, readings, outputs


class Checker:
    """Checks each job's output; identical bytes reuse the first verdict."""

    def __init__(self, jobs, validate_checks: int):
        self.jobs = jobs
        self.validate_checks = validate_checks
        self.reference: list[str | None] = [None] * len(jobs)
        self.verdict: list[list[str]] = [[] for _ in jobs]
        self.direct_sweep: list[str | None] = [None] * len(jobs)

    def check(self, index, code, text, stderr) -> list[str]:
        job = self.jobs[index]
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-300:]}"]
        if text is None:
            return ["no output file"]
        if self.reference[index] is None:
            self.reference[index] = text
            self.verdict[index] = self._content(job, text, self.direct_sweep[index])
        elif text != self.reference[index]:
            return ["output differs from the first pass"] + self._content(
                job, text, self.direct_sweep[index]
            )
        return self.verdict[index]

    def _content(self, job, text, direct) -> list[str]:
        if job.kind in ("sweep", "analyze"):
            problems = workloads.check_csv(text, job.points)
            if job.kind == "analyze" and text != direct:
                problems.append("analyze output differs from a direct sweep of its config")
            return problems
        if job.kind == "simulate":
            return workloads.check_simulate(text)
        return workloads.check_validate(text, self.validate_checks)


class Run:
    """Counts, failures and pass records of one benchmark run."""

    def __init__(self, jobs, cli, checker):
        self.jobs, self.cli, self.checker = jobs, cli, checker
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.outputs_by_phase: dict[str, list] = {}

    def passes(self, seconds, phase, tracer=None, totals=None):
        """Repeat passes until ``seconds`` elapse (at least one).

        Returns per-pass job latencies in seconds and in ``cal`` units.
        """
        calibration = Calibration()
        timed = []
        deadline = time.perf_counter() + seconds
        while not timed or time.perf_counter() < deadline:
            latencies, readings, outputs = run_pass(self.jobs, self.cli, calibration, tracer)
            if tracer is not None:
                self.last_spans = tracer.take()
                tracing.fold(self.last_spans, totals)
            timed.append((latencies, readings))
            self.record(outputs, phase)
        calibration.close()
        seconds_by_pass = [lat for lat, _ in timed]
        cal_by_pass = [
            [t / calibration.scale(k) for t, k in zip(lat, readings)] for lat, readings in timed
        ]
        self.calibration_s = statistics.median(calibration.readings)
        return seconds_by_pass, cal_by_pass

    def record(self, outputs, phase):
        self.outputs_by_phase.setdefault(phase, [o[1] for o in outputs])
        for index, (code, text, stderr) in enumerate(outputs):
            self.attempted += 1
            problems = self.checker.check(index, code, text, stderr)
            if problems:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{phase} job {index} ({self.jobs[index].kind}): {problems[:3]}")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_times, seconds_by_pass, cal_by_pass, jobs, run):
    points = sum(job.points for job in jobs)
    walls = [sum(p) for p in seconds_by_pass]
    latencies = [t for p in seconds_by_pass for t in p]
    cal_latencies = [t for p in cal_by_pass for t in p]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_cal": (statistics.median(sum(p) for p in cal_by_pass), "cal"),
        "job_p50_cal": (statistics.median(cal_latencies), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "calibration_ms": (run.calibration_s * 1e3, "ms"),
        "failed_frac": (run.failed / run.attempted, "frac"),
    }
    passes = f"median of {len(walls)} passes of {len(jobs)} jobs"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_cal": passes,
        "wall_s": passes,
        "job_p50_cal": f"{len(latencies)} samples",
        "job_p50_ms": f"{len(latencies)} samples",
        "calibration_ms": "median calibration reading; 1 cal is this long",
    }
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        metrics["job_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
        notes["job_p90_ms"] = f"{len(latencies)} samples"
    else:
        notes["job_p90_ms"] = f"not reported: {len(latencies)} samples, 100 needed"
    if points:
        metrics["points_per_s"] = (points * len(walls) / sum(walls), "1/s")
        notes["points_per_s"] = f"{points} bias points per pass"
    return metrics, notes


def per_layer(totals, traced_jobs, overhead, validate_names):
    """Per-job layer metrics from folded spans, plus each span's share of job time."""

    def per_job(name, key):
        return totals[name][key] / traced_jobs if name in totals else 0.0

    metrics = {"trace_overhead_frac": (overhead, "frac")}
    for layer, names in tracing.FUNCTIONS.items():
        for name in names:
            span = f"{layer}.{name}"
            metrics[f"{span}.calls"] = (per_job(span, "calls"), "calls/job")
            metrics[f"{span}.self_s"] = (per_job(span, "self_s"), "s/job")
        layer_self = sum(per_job(f"{layer}.{name}", "self_s") for name in names)
        metrics[f"{layer}.self_s"] = (layer_self, "s/job")
    for span, (extra, unit, _) in tracing.EXTRAS.items():
        metrics[f"{span}.{extra}"] = (per_job(span, extra), unit)
    for layer, names in tracing.GROUPS.items():
        members = [f"{layer}:{name}" for name in names]
        metrics[f"{layer}.calls"] = (sum(per_job(m, "calls") for m in members), "calls/job")
        metrics[f"{layer}.self_s"] = (sum(per_job(m, "self_s") for m in members), "s/job")
    metrics["validate.self_s"] = (sum(per_job(n, "self_s") for n in validate_names), "s/job")
    for name in validate_names:
        metrics[f"{name}.self_s"] = (per_job(name, "self_s"), "s/job")
    job_time = per_job(tracing.JOB_SPAN, "total_s")
    shares = {
        name: {key: per_job(name, key) / job_time for key in ("self_s", "total_s")}
        for name in totals
    }
    return metrics, shares


# ---------------------------------------------------------------------------
# environment


def environment(root: Path, src: Path, input_sha: str) -> dict:
    import numpy

    lines = {
        path.stem: len(path.read_text().splitlines())
        for path in sorted((src / "demon_ep").glob("*.py"))
    }
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "input_sha256": input_sha,
    }


# ---------------------------------------------------------------------------


def benchmark(args, root: Path, work: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    import demon_ep.cli
    import demon_ep.validate

    jobs, dest, setup_times = set_up(args, src, work)
    checker = Checker(jobs, len(demon_ep.validate.CHECKS))
    run = Run(jobs, demon_ep.cli, checker)

    # warm-up pass: fills lazy state, fixes reference outputs, gives analyze its direct sweeps
    for index, job in enumerate(jobs):
        if job.kind == "analyze":
            ref = dest / "out" / f"direct{index}.csv"
            with redirect_stdout(io.StringIO()):
                demon_ep.cli.main(["sweep", "--config", str(job.config), "--out", str(ref)])
            checker.direct_sweep[index] = ref.read_text()
    _, _, outputs = run_pass(jobs, demon_ep.cli, Calibration())
    run.record(outputs, "warm-up")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs_per_pass": len(jobs),
        "env": environment(root, src, workloads.input_hash(dest)),
    }
    if args.trace == 0:
        seconds_by_pass, cal_by_pass = run.passes(args.seconds, "timed")
        metrics, notes = end_to_end(setup_times, seconds_by_pass, cal_by_pass, jobs, run)
        gated = END_TO_END
        report["pass_walls_s"] = [sum(p) for p in seconds_by_pass]
    else:
        _, plain = run.passes(args.seconds / 2, "untraced")
        tracer = tracing.Tracer()
        totals = tracing.fold([])
        tracer.install()
        try:
            _, traced = run.passes(args.seconds / 2, "traced", tracer, totals)
        finally:
            tracer.uninstall()
        plain_walls = [sum(p) for p in plain]
        traced_walls = [sum(p) for p in traced]
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        traced_jobs = len(traced_walls) * len(jobs)
        metrics, shares = per_layer(
            totals, traced_jobs, overhead, tracing.validate_check_names(demon_ep.validate)
        )
        notes = {"trace_overhead_frac": f"traced {len(traced_walls)} vs untraced {len(plain_walls)} passes"}
        gated = PER_LAYER
        identical = run.outputs_by_phase["traced"] == run.outputs_by_phase["untraced"]
        if not identical:
            run.failed += 1
            run.failures.append("traced outputs differ from untraced outputs")
        report.update(
            absent=tracer.absent,
            traced_outputs_identical=identical,
            share_of_job=shares,
            pass_walls_cal={"untraced": plain_walls, "traced": traced_walls},
        )
        tracing.write_spans(run.last_spans, work.parent / f"spans-{args.workload}.jsonl")
    report.update(
        attempted=run.attempted, failed=run.failed, failures=run.failures,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes=notes,
    )
    report["final"] = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in gated},
    }
    return report


def print_report(report) -> None:
    print(f"perfbench workload={report['workload']} seed={report['seed']} trace={report['trace']}"
          f" seconds={report['seconds']} jobs_per_pass={report['jobs_per_pass']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, entry in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"metric {name} {entry['value']!r} {entry['unit']}" + (f"  ({note})" if note else ""))
    for name, note in report["notes"].items():
        if name not in report["metrics"]:
            print(f"metric {name} - ({note})")
    if report["trace"]:
        print(f"traced outputs identical to untraced: {report['traced_outputs_identical']}")
        print("absent functions: " + (", ".join(report["absent"]) or "none"))
        shares = report["share_of_job"]
        for name in SHARES_SHOWN:
            share = shares.get(name, {"self_s": 0.0, "total_s": 0.0})
            print(f"share {name} total {share['total_s']:.4f} self {share['self_s']:.4f}")
        top = sorted(shares.items(), key=lambda kv: -kv[1]["self_s"])[:10]
        print("largest self shares: " + ", ".join(f"{n} {v['self_s']:.3f}" for n, v in top))
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(report["final"]))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "demon_ep" / "__init__.py").is_file():
        print(f"perfbench: no demon_ep sources under {root / 'src'}", file=sys.stderr)
        return 2
    # expected on every physical backward build; not a finding of the benchmark
    warnings.filterwarnings("ignore", message="backward branch k=0")
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    saved_tempdir = tempfile.tempdir
    try:
        (work / "tmp").mkdir()
        tempfile.tempdir = str(work / "tmp")  # validate's scratch files stay in the checkout
        report = benchmark(args, root, work)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)
    (work_root / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

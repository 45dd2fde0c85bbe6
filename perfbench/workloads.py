"""Seeded inputs, job lists and output checks for the four workloads.

Every job is one ``demon-ep`` command line.  Inputs are drawn from the
workload seed only: physical-mode configurations whose error magnitudes are
the experiment's measured defaults scaled by a seeded factor in [0.5, 1.5]
(relaxation and diagnostic parameters drawn from fixed ranges), and bias
points on the documented -6...6 range.

The ``single_error`` choice changes how many trajectories are possible, and
with it the work per bias point by up to a factor of two.  So that runs with
different seeds do the same amount of work, each pass holds every choice
equally often, in seeded order, and the dense sweep always runs the full
error model.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("dense-sweep", "simulate-scan", "analyze-roundtrip", "validate-suite")

#: jobs per pass and grid step, full size and ``--tiny``
SIZES = {
    False: {"dense_step": 0.0025, "simulate_jobs": 40, "analyze_jobs": 8},
    True: {"dense_step": 0.25, "simulate_jobs": 3, "analyze_jobs": 2},
}

SINGLE_CHOICES = (
    "none", "eps_prep", "eps_read", "eps_feed", "eps_meas", "cavity_prep", "relax_atom",
    "relax_cavity",
)
#: measured defaults of the error model (README / ErrorModel)
DEFAULT_EPS = {"eps_prep": 0.1, "eps_read": 0.11, "eps_feed": 0.03}
DEFAULT_CONFUSION = {
    "eta_e_g": 0.05, "eta_e_f": 0.01, "eta_g_e": 0.02,
    "eta_g_f": 0.05, "eta_f_e": 0.0, "eta_f_g": 0.02,
}

CSV_HEADER = "dbeta_tilde,sigma1,sigma2,sigma3,sigma4,sigma5,sigma6,heat_C,mean_info,flags"
SIGMAS = tuple(f"sigma{i}" for i in range(1, 7))
#: sigma2 and sigma6 are the same quantity computed two ways
SIGMA26_RTOL = 1e-10
#: slack for sigma3 <= sigma4, sigma5 <= sigma4 and sigma >= 0
ORDER_TOL = 1e-9


@dataclass
class Job:
    """One command line plus what its output is checked against."""

    kind: str
    argv: list[str]
    points: int
    out: Path | None = None
    config: Path | None = None


def _config_text(rng: random.Random, single: str) -> str:
    lines = ["mode = physical", f"single_error = {single}"]
    for key, value in DEFAULT_EPS.items():
        lines.append(f"{key} = {value * rng.uniform(0.5, 1.5)!r}")
    for key, value in DEFAULT_CONFUSION.items():
        lines.append(f"{key} = {value * rng.uniform(0.5, 1.5)!r}")
    lines.append(f"relax_atom_prob = {rng.uniform(0.0, 0.1)!r}")
    lines.append(f"relax_cavity_prob = {rng.uniform(0.0, 0.02)!r}")
    lines.append(f"nbar_atoms = {rng.uniform(0.1, 0.4)!r}")
    lines.append(f"detect_eff = {rng.uniform(0.3, 1.0)!r}")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, dest: Path, tiny: bool = False) -> list[Job]:
    """Write the inputs of one pass under ``dest`` and return its jobs.

    Outputs go to ``dest/out``.  The analyze tables are produced by the
    package itself (conditional tables of a simulated run), so ``demon_ep``
    must be importable.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    size = SIZES[tiny]
    rng = random.Random(f"{workload}:{seed}")
    inputs, outputs = dest / "in", dest / "out"
    inputs.mkdir(parents=True)
    outputs.mkdir()

    def config(name: str, single: str = "none") -> Path:
        path = inputs / f"{name}.conf"
        path.write_text(_config_text(rng, single))
        return path

    def singles(count: int) -> list[str]:
        choices = []
        while len(choices) < count:
            block = list(SINGLE_CHOICES)
            rng.shuffle(block)
            choices += block
        return choices[:count]

    if workload == "dense-sweep":
        # the -6...6 grid in four quarter-range jobs of one config, so that
        # calibration readings bracket every second or so of sweeping
        step = size["dense_step"]
        params = _config_text(rng, "none")
        quarters = int(round(3.0 / step))
        jobs = []
        for j in range(4):
            count = quarters + (j == 3)
            start = -6.0 + 3.0 * j
            cfg = inputs / f"dense{j}.conf"
            cfg.write_text(
                params
                + f"dbeta_start = {start!r}\ndbeta_stop = {start + (count - 1) * step!r}\n"
                + f"dbeta_step = {step!r}\n"
            )
            out = outputs / f"dense{j}.csv"
            jobs.append(Job("sweep", ["sweep", "--config", str(cfg), "--out", str(out)], count, out, cfg))
        return jobs

    if workload == "simulate-scan":
        jobs = []
        for j, single in enumerate(singles(size["simulate_jobs"])):
            cfg = config(f"sim{j}", single)
            dbeta = round(rng.uniform(-6.0, 6.0), 6)
            out = outputs / f"sim{j}.txt"
            argv = ["simulate", "--config", str(cfg), "--dbeta", repr(dbeta), "--out", str(out)]
            jobs.append(Job("simulate", argv, 1, out, cfg))
        return jobs

    if workload == "analyze-roundtrip":
        jobs = []
        for j, single in enumerate(singles(size["analyze_jobs"])):
            cfg = config(f"ana{j}", single)
            fwd_path, bwd_path = inputs / f"fwd{j}.txt", inputs / f"bwd{j}.txt"
            _write_tables(cfg, fwd_path, bwd_path)
            out = outputs / f"ana{j}.csv"
            argv = ["analyze", str(fwd_path), str(bwd_path), "--config", str(cfg), "--out", str(out)]
            jobs.append(Job("analyze", argv, 49, out, cfg))
        return jobs

    # validate takes no input; the config it is given is loaded and ignored
    cfg = config("validate")
    return [Job("validate", ["validate", "--config", str(cfg)], 0)]


def _write_tables(cfg: Path, fwd_path: Path, bwd_path: Path) -> None:
    """Conditional tables of a simulated run (bias-independent, so dbeta = 0)."""
    import demon_ep as dep

    config = dep.load_config(cfg)
    model = config.build_error_model()
    gibbs = dep.GibbsSpec.from_dbeta(config.beta_cavity, 0.0)
    fwd = dep.forward_table(gibbs, model, mode=config.mode)
    bwd = dep.backward_table(
        gibbs, model, mode=config.mode, forward_pk=dep.branch_probability(fwd)
    )
    dep.write_table(dep.conditional_from_table(fwd), fwd_path)
    dep.write_table(dep.conditional_from_table(bwd), bwd_path)


def input_hash(dest: Path) -> str:
    """sha256 over the relative names and bytes of every input file."""
    digest = hashlib.sha256()
    root = dest / "in"
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is good


def _render(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".17g")


def check_csv(text: str, points: int) -> list[str]:
    """Sweep/analyze CSV: round-trip exact numbers and estimator invariants."""
    problems = []
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return [f"header {lines[0][:80]!r}"]
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if len(rows) != points:
        problems.append(f"{len(rows)} rows, expected {points}")
    for number, row in enumerate(rows, start=1):
        if len(row) != 10:
            problems.append(f"row {number}: {len(row)} fields")
            continue
        try:
            values = [float(field) for field in row[:9]]
        except ValueError:
            problems.append(f"row {number}: unparseable number")
            continue
        if [_render(v) for v in values] != row[:9]:
            problems.append(f"row {number}: numbers do not parse back bit-identically")
        s = dict(zip(SIGMAS, values[1:7]))
        problems += [f"row {number}: {p}" for p in _sigma_problems(s)]
    return problems


def _sigma_problems(s: dict) -> list[str]:
    problems = []
    if any(math.isnan(v) for v in s.values()):
        return ["NaN estimator"]
    s2, s6 = s["sigma2"], s["sigma6"]
    if math.isfinite(s2) and math.isfinite(s6):
        if abs(s2 - s6) > SIGMA26_RTOL * max(1.0, abs(s2)):
            problems.append(f"sigma2 {s2!r} != sigma6 {s6!r}")
    elif s2 != s6:
        problems.append(f"sigma2 {s2!r} != sigma6 {s6!r}")
    if math.isfinite(s["sigma4"]):
        for name in ("sigma3", "sigma5"):
            if s[name] > s["sigma4"] + ORDER_TOL:
                problems.append(f"{name} {s[name]!r} > sigma4 {s['sigma4']!r}")
    for name, value in s.items():
        if math.isfinite(value) and value < -ORDER_TOL:
            problems.append(f"{name} = {value!r} < 0")
    return problems


def check_simulate(text: str) -> list[str]:
    """The report carries all six estimator lines, each a number."""
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in SIGMAS:
            try:
                found[parts[0]] = float(parts[1])
            except ValueError:
                return [f"unparseable line {line!r}"]
    missing = [name for name in SIGMAS if name not in found]
    return [f"missing {', '.join(missing)}"] if missing else []


def check_validate(text: str, checks: int) -> list[str]:
    """One PASS line per registered check and nothing else."""
    lines = text.splitlines()
    problems = [f"not PASS: {line[:80]}" for line in lines if not line.startswith("PASS")]
    if len(lines) != checks:
        problems.append(f"{len(lines)} lines for {checks} checks")
    return problems

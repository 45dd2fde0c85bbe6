"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:backward branch k=0")


def _bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def test_declared_metrics_match_the_harness():
    end_to_end, per_layer = _declared()
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == dict(run.PER_LAYER)
    assert [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]] == list(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload):
    end_to_end, per_layer = _declared()
    lines, result = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    assert "metric failed_frac 0.0 frac" in lines
    assert all(v["value"] > 0 for v in result["metrics"].values())

    lines, result = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert "traced outputs identical to untraced: True" in lines
    assert result["metrics"]["cli.main.calls"]["value"] == 1.0


def test_corrupted_output_is_counted_as_failure(monkeypatch):
    import demon_ep.cli

    original = demon_ep.cli.sweep_csv_text

    def corrupt(results, *args, **kwargs):
        header, first, rest = original(results, *args, **kwargs).split("\n", 2)
        fields = first.split(",")
        fields[1] = fields[1] + "0"  # same number, different bytes
        return "\n".join([header, ",".join(fields), rest])

    monkeypatch.setattr(demon_ep.cli, "sweep_csv_text", corrupt)
    out = io.StringIO()
    with redirect_stdout(out):
        run.main(["--workload", "dense-sweep", "--seed", "1", "--seconds", "0", "--tiny"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def _sweep_csv(config_text: str, tmp_path: Path) -> str:
    import demon_ep.cli

    conf, out = tmp_path / "run.conf", tmp_path / "out.csv"
    conf.write_text(config_text)
    assert demon_ep.cli.main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("sigma2", "0.5", "!= sigma6"),
        ("sigma3", "1e300", "> sigma4"),
        ("sigma5", "1e300", "> sigma4"),
        ("sigma1", "-0.001", "< 0"),
        ("sigma1", "nan", "NaN"),
    ],
)
def test_csv_check_catches_broken_rows(tmp_path, column, value, message):
    text = _sweep_csv("mode = ideal\ndbeta_step = 1\n", tmp_path)
    assert workloads.check_csv(text, 13) == []
    header, first, rest = text.split("\n", 2)
    fields = first.split(",")
    fields[header.split(",").index(column)] = value
    problems = workloads.check_csv("\n".join([header, ",".join(fields), rest]), 13)
    assert any(message in p for p in problems), problems


def test_simulate_and_validate_checks():
    report = "".join(f"sigma{i} 0.{i}\n" for i in range(1, 7))
    assert workloads.check_simulate(report) == []
    assert workloads.check_simulate(report.replace("sigma4 0.4\n", "")) == ["missing sigma4"]
    assert workloads.check_validate("PASS  a: x\nPASS  b: y\n", 2) == []
    assert workloads.check_validate("PASS  a: x\nFAIL  b: y\n", 2) == ["not PASS: FAIL  b: y"]
    assert workloads.check_validate("PASS  a: x\n", 2) == ["1 lines for 2 checks"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, workload):
    hashes = []
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        workloads.generate(workload, seed, tmp_path / name, tiny=True)
        hashes.append(workloads.input_hash(tmp_path / name))
    assert hashes[0] == hashes[1] != hashes[2]


def test_tracer_restores_originals_and_records_absent_names(monkeypatch):
    import demon_ep.entropy
    import demon_ep.runner

    originals = (demon_ep.runner.run_sweep, demon_ep.runner.sigma_histogram)
    monkeypatch.setitem(
        tracing.FUNCTIONS, "runner", tracing.FUNCTIONS["runner"] + ("no_such_function",)
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert demon_ep.runner.run_sweep is not originals[0]
        # re-bound by ``from .protocol import sigma_histogram`` in runner and entropy
        assert demon_ep.runner.sigma_histogram is demon_ep.entropy.sigma_histogram
        assert demon_ep.runner.sigma_histogram is not originals[1]
    finally:
        tracer.uninstall()
    assert tracer.absent == ["runner.no_such_function"]
    assert (demon_ep.runner.run_sweep, demon_ep.runner.sigma_histogram) == originals


def test_self_time_excludes_children():
    spans = [
        ["job", -1, 0, 0.0, 10.0, None],
        ["a", 0, 0, 1.0, 6.0, None],
        ["b", 1, 0, 2.0, 3.0, None],
        ["b", 1, 0, 4.0, 5.5, None],
    ]
    totals = tracing.fold(spans)
    assert totals["job"]["self_s"] == 5.0
    assert totals["a"]["self_s"] == 2.5
    assert totals["b"]["calls"] == 2 and totals["b"]["self_s"] == 2.5


@pytest.mark.xfail(
    strict=True,
    reason="single-error sweeps outside the benchmark's parameter ranges give "
    "finite estimators below zero near dbeta_tilde = -6",
)
def test_positivity_outside_benchmark_ranges(tmp_path):
    text = _sweep_csv(
        "mode = physical\nsingle_error = relax_cavity\nrelax_cavity_prob = 0.05\n", tmp_path
    )
    assert workloads.check_csv(text, 49) == []

"""Acceptance criteria for the release: ten checks, one verdict line each.

Each test appends an ``AC<n> PASS/FAIL`` line to ``VERDICTS``; the conftest
hook echoes the collected lines after the pytest summary so a plain
``pytest`` run always shows the scoreboard.

AC1-AC6 and AC8 are invariants that ``demon-ep validate`` also certifies, so
they assert on the check of the same name in ``validate.CHECKS`` rather than
deriving it a second time.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from demon_ep import (
    GibbsSpec,
    RunConfig,
    build_kernel,
    conditional_from_table,
    parse_table,
    point_tables,
    run_analysis,
    run_sweep,
    serialize_table,
    simulate_report,
    sweep_csv_text,
    validate,
)

VERDICTS: list[str] = []

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "error_signatures.json").read_text()
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"AC{number} {'PASS' if ok else 'FAIL'} — {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _registry_verdict(number: int, label: str, within_s: float | None = None) -> None:
    """Verdict of the ``validate`` check called ``label``, optionally timed."""
    check = dict(validate.CHECKS)[label]
    start = time.perf_counter()
    ok, detail = check()
    elapsed = time.perf_counter() - start
    detail = f"{label}: {detail}"
    if within_s is not None:
        ok = ok and elapsed < within_s
        detail += f" ({elapsed * 1e3:.0f} ms, bound {within_s:g} s)"
    _verdict(number, ok, detail)


def _point(dbt: float, config: RunConfig = RunConfig()):
    """Estimators at one bias point: a one-point sweep."""
    return run_sweep(replace(config, dbeta_start=dbt, dbeta_stop=dbt))[0]


def test_ac1_ideal_estimators_agree_across_grid(quiet_backward):
    _registry_verdict(1, "estimator equivalence", within_s=1.0)


def test_ac2_memory_split_identity_on_random_circuits(quiet_backward):
    _registry_verdict(2, "sigma2 = sigma6 identity", within_s=10.0)


def test_ac3_high_bias_closed_form_and_asymptote(quiet_backward):
    _registry_verdict(3, "closed-form anchors")


def test_ac4_entropy_production_vanishes_at_matched_temperatures(quiet_backward):
    _registry_verdict(4, "closed-form anchors")


def test_ac5_detailed_and_integral_fluctuation_relations(quiet_backward):
    _registry_verdict(5, "fluctuation relation")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the forward exponential average only counts trajectories whose "
    "reversal the backward protocol can produce; for this feedback loop the "
    "backward run leaks weight onto forward-impossible records, so the "
    "average equals the reversal efficacy and stays below one",
)
def test_forward_exponential_average_reaches_unity(quiet_backward):
    # the average as the shipped `demon-ep simulate` diagnostic reports it
    label = "fluctuation average (forward ensemble)"
    report = simulate_report(RunConfig(), 0.0)
    (line,) = [row for row in report.splitlines() if row.startswith(label)]
    assert abs(float(line.removeprefix(label)) - 1.0) <= 1e-9


def test_ac6_second_law_for_every_error_configuration(quiet_backward):
    _registry_verdict(6, "second law")


def test_ac7_single_error_signatures_and_frozen_magnitudes(quiet_backward):
    ideal_pos = _point(6.0)
    ideal_neg = _point(-6.0)
    read_neg = _point(-6.0, RunConfig(mode="physical", single_error="eps_read"))
    feed_pos = _point(6.0, RunConfig(mode="physical", single_error="eps_feed"))
    meas_pos = _point(6.0, RunConfig(mode="physical", single_error="eps_meas"))
    sig_read = read_neg.sigma2 - ideal_neg.sigma2
    sig_feed = ideal_pos.sigma1 - feed_pos.sigma1
    meas_s3 = abs(meas_pos.sigma3 - ideal_pos.sigma3)
    meas_s2 = abs(meas_pos.sigma2 - ideal_pos.sigma2)
    ok = sig_read >= 0.01 and sig_feed >= 0.01 and meas_s3 > meas_s2

    # regression against frozen magnitudes for every error configuration
    worst = 0.0
    for label, per_bias in GOLDEN.items():
        config = RunConfig()
        if label == "full":
            config = RunConfig(mode="physical")
        elif label != "ideal":
            config = RunConfig(mode="physical", single_error=label)
        for dbt_text, fields in per_bias.items():
            result = _point(float(dbt_text), config)
            row = result.as_row()
            for name, frozen_text in fields.items():
                frozen = float(frozen_text)
                value = float(row[name])
                if math.isinf(frozen) or math.isinf(value):
                    if frozen != value:
                        worst = math.inf
                else:
                    worst = max(worst, abs(value - frozen))
    ok = ok and worst <= 1e-12
    _verdict(
        7, ok,
        f"readout error lifts sigma2(-6) by {sig_read:.3f}, feedback error "
        f"lowers sigma1(+6) by {sig_feed:.3f}, detection error moves sigma3 "
        f"further than sigma2 ({meas_s3:.3f} vs {meas_s2:.3f}); all frozen "
        f"magnitudes reproduced within {worst:.1e}",
    )


def test_ac8_trajectory_marginals_match_state_evolution(quiet_backward):
    _registry_verdict(8, "oracle consistency")


def test_ac9_serialized_tables_reproduce_the_direct_sweep(quiet_backward):
    config = RunConfig(mode="physical", dbeta_step=1.0)
    direct_csv = sweep_csv_text(run_sweep(config))
    # conditionals do not depend on the bias point
    gibbs = GibbsSpec.from_dbeta(config.beta_cavity, 0.0)
    fwd, bwd = point_tables(build_kernel(config), gibbs)
    fwd_text = serialize_table(conditional_from_table(fwd))
    bwd_text = serialize_table(conditional_from_table(bwd))
    reanalyzed = run_analysis(
        config,
        parse_table(io.StringIO(fwd_text), "forward-rows-initial"),
        parse_table(io.StringIO(bwd_text), "backward-rows-final"),
    )
    analyzed_csv = sweep_csv_text(reanalyzed)
    ok = analyzed_csv == direct_csv
    _verdict(
        9, ok,
        f"analyze on serialized conditional tables reproduces the direct "
        f"sweep byte for byte ({len(direct_csv.splitlines()) - 1} rows)",
    )


def test_ac10_cli_round_trip_and_exit_codes(tmp_path):
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "demon_ep", *argv],
            capture_output=True, text=True, timeout=300,
        )

    conf = tmp_path / "run.conf"
    conf.write_text("dbeta_step = 3\n")
    out = tmp_path / "sweep.csv"
    sweep = cli("sweep", "--config", str(conf), "--out", str(out))
    sweep_ok = sweep.returncode == 0 and out.read_text().startswith("dbeta_tilde,")
    usage = cli("sweep", "--no-such-flag")
    bad = tmp_path / "bad.txt"
    bad.write_text("state (0,0,0)\n(0,0) 0.4\n")
    data = cli("analyze", str(bad), "--forward-only")
    checks = cli("validate")
    ok = (
        sweep_ok
        and usage.returncode == 1
        and data.returncode == 2
        and checks.returncode == 0
    )
    _verdict(
        10, ok,
        f"exit codes: sweep {sweep.returncode}, bad flag {usage.returncode}, "
        f"corrupt table {data.returncode}, validate {checks.returncode} "
        "(expected 0/1/2/0)",
    )

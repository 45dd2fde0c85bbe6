"""The six entropy-production estimators and the fluctuation identities."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demon_ep.runner as runner
from demon_ep import (
    DEFAULT_DIMS,
    ESTIMATORS,
    EpColumns,
    EpResult,
    ErrorModel,
    GibbsSpec,
    RunConfig,
    backward_table,
    branch_probability,
    cli,
    entropy,
    evaluate,
    feedback_balance_residual,
    forward_table,
    gibbs_distribution,
    high_bias_asymptote,
    jarzynski_average,
    oracle_full_state,
    shannon_entropy,
    sigma1,
    sigma2,
    sigma3,
    sigma4,
    sigma5,
    sigma6,
    sigma_histogram,
    simulate_report,
    support_mismatch,
    sweep_csv_text,
)
from demon_ep.protocol import weigh_rows

from conftest import BETA_C


def _gibbs(dbt: float) -> GibbsSpec:
    return GibbsSpec.from_dbeta(BETA_C, dbt)


def _tables(dbt: float, model=None, mode="ideal"):
    gibbs = _gibbs(dbt)
    fwd = forward_table(gibbs, model, mode=mode)
    bwd = backward_table(gibbs, model, mode=mode, forward_pk=branch_probability(fwd))
    return fwd, bwd


# ---------------------------------------------------------------------------
# forward-only pieces


def _heat(fwd, from_atom: bool) -> float:
    """Average cavity heat, from the atom side or the photon side."""
    return evaluate(fwd, None, heat_from_atom=from_atom).heat_cavity


def test_mean_information_is_outcome_entropy():
    fwd, _ = _tables(3.0)
    pk = branch_probability(fwd)
    assert evaluate(fwd, None).mean_info == pytest.approx(shannon_entropy(pk), rel=1e-14)


def test_ideal_heat_equals_extraction_probability():
    # each read-1 run moves exactly one quantum into the cavity
    fwd, _ = _tables(6.0)
    pk = branch_probability(fwd)
    assert _heat(fwd, from_atom=False) == pytest.approx(pk[1], rel=1e-13)
    assert _heat(fwd, from_atom=True) == pytest.approx(pk[1], rel=1e-13)


def test_heat_sides_agree_when_labels_are_faithful():
    # gate failures change where the quantum goes but never mislabel it, so
    # the atom-side and photon-side accounts stay equal
    model = ErrorModel(
        eps_prep=0.0, confusion=np.eye(3), cavity_prep=np.eye(4, 5)
    )
    fwd, _ = _tables(2.0, model, mode="physical")
    assert _heat(fwd, from_atom=True) == pytest.approx(_heat(fwd, from_atom=False), abs=1e-13)


def test_heat_sides_differ_when_labels_lie():
    # detection confusion corrupts the recorded final atom level, and the
    # atom-side account is computed from the records
    fwd, _ = _tables(2.0, ErrorModel.single("eps_meas"), mode="physical")
    assert abs(_heat(fwd, from_atom=True) - _heat(fwd, from_atom=False)) > 1e-3
    # an atom decaying in flight sheds a quantum the cavity never received
    fwd, _ = _tables(2.0, ErrorModel(relax_atom_prob=0.2), mode="physical")
    assert abs(_heat(fwd, from_atom=True) - _heat(fwd, from_atom=False)) > 1e-3


def test_sigma1_closed_form():
    gibbs = _gibbs(6.0)
    fwd, _ = _tables(6.0)
    zeta = gibbs_distribution(gibbs.beta_qubit, levels=2)
    closed = gibbs.delta_beta * zeta[1] + shannon_entropy(zeta)
    assert sigma1(fwd) == pytest.approx(closed, abs=1e-12)
    assert sigma1(fwd) == pytest.approx(5.2465368007810982, abs=1e-12)


def test_feedback_signature_closed_form():
    # a failed exchange keeps the quantum on the atom: the extracted heat and
    # with it the atom-side entropy production scale by (1 - eps_feed)
    gibbs = _gibbs(6.0)
    model = ErrorModel.single("eps_feed")
    fwd, _ = _tables(6.0, model, mode="physical")
    zeta = gibbs_distribution(gibbs.beta_qubit, levels=2)
    closed = gibbs.delta_beta * zeta[1] * (1 - model.eps_feed) + shannon_entropy(zeta)
    assert sigma1(fwd) == pytest.approx(closed, rel=1e-12)


def test_readout_error_branch_distribution():
    # a failed pi-pulse leaves the memory set, so reading 0 requires both the
    # ground state and a successful transfer
    gibbs = _gibbs(-6.0)
    model = ErrorModel.single("eps_read")
    fwd, _ = _tables(-6.0, model, mode="physical")
    zeta = gibbs_distribution(gibbs.beta_qubit, levels=2)
    pk = branch_probability(fwd)
    assert pk[0] == pytest.approx(zeta[0] * (1 - model.eps_read), rel=1e-13)


# ---------------------------------------------------------------------------
# estimator equivalence and orderings


@pytest.mark.parametrize("dbt", [-6.0, -1.25, 0.0, 2.5, 6.0])
def test_all_estimators_coincide_in_ideal_mode(dbt):
    fwd, bwd = _tables(dbt)
    hist = sigma_histogram(fwd, bwd)
    values = [
        sigma1(fwd),
        sigma2(fwd),
        sigma3(fwd, bwd),
        sigma4(fwd, bwd),
        sigma5(hist),
        sigma6(fwd),
    ]
    assert max(values) - min(values) <= 1e-9
    assert min(values) >= -1e-12


def test_sigma2_equals_sigma6_under_errors():
    # marginalizing the memory and splitting off its mutual information are
    # two bookkeepings of the same divergence; they agree for any dynamics
    for model in (ErrorModel(), ErrorModel.single("eps_meas")):
        fwd, _ = _tables(1.5, model, mode="physical")
        assert sigma2(fwd) == pytest.approx(sigma6(fwd), abs=1e-12)


def test_coarse_graining_orders_divergences():
    # initial-state marginal and sigma binning are both coarse-grainings of
    # the full trajectory divergence
    fwd, bwd = _tables(3.0, ErrorModel.single("eps_feed"), mode="physical")
    hist = sigma_histogram(fwd, bwd)
    s3, s4, s5 = sigma3(fwd, bwd), sigma4(fwd, bwd), sigma5(hist)
    assert s3 <= s4 + 1e-12
    assert s5 <= s4 + 1e-12


# ---------------------------------------------------------------------------
# support mismatch and floors


def test_preparation_error_breaks_backward_support():
    fwd, bwd = _tables(1.0, ErrorModel.single("eps_prep"), mode="physical")
    missing = support_mismatch(fwd, bwd)
    assert missing  # forward runs whose reversal cannot occur
    assert all(t.n_qubit == 1 and t.k == 0 for t in missing)
    assert sigma4(fwd, bwd) == math.inf
    assert sigma3(fwd, bwd) == math.inf


def test_floor_regularizes_infinite_divergence():
    fwd, bwd = _tables(1.0, ErrorModel.single("eps_prep"), mode="physical")
    regularized = sigma4(fwd, bwd, floor=1e-12)
    assert math.isfinite(regularized)
    assert regularized > 0
    # a larger floor means a less surprising reverse: the bound tightens
    assert sigma4(fwd, bwd, floor=1e-6) < regularized


def test_ideal_mode_has_full_support():
    fwd, bwd = _tables(2.0)
    assert support_mismatch(fwd, bwd) == ()


# ---------------------------------------------------------------------------
# fluctuation identities


@pytest.mark.parametrize("dbt", [-6.0, 0.0, 1.0, 6.0])
def test_reversed_ensemble_average_is_unity(dbt):
    fwd, bwd = _tables(dbt)
    hist = sigma_histogram(fwd, bwd)
    assert jarzynski_average(hist, direction="reversed") == pytest.approx(
        1.0, abs=1e-12
    )


def test_forward_ensemble_average_equals_reversal_efficacy():
    # the forward exponential average reproduces exactly the backward weight
    # that lands on forward-possible trajectories
    gibbs = _gibbs(0.0)
    fwd, bwd = _tables(0.0)
    hist = sigma_histogram(fwd, bwd)
    pk = branch_probability(fwd)
    x = math.exp(-gibbs.beta_cavity)
    efficacy = pk[0] * (pk[0] + pk[1] * x)
    assert jarzynski_average(hist, direction="forward") == pytest.approx(
        efficacy, rel=1e-12
    )
    assert efficacy < 1.0


def test_asymptote_tracks_bias():
    assert high_bias_asymptote(_gibbs(6.0)) == pytest.approx(6 * BETA_C, rel=1e-14)
    assert high_bias_asymptote(_gibbs(-6.0)) == 0.0


def test_feedback_balance_holds_for_ideal_readout():
    gibbs = _gibbs(1.0)
    pre = oracle_full_state(gibbs, mode="ideal", stage="pre_feedback")
    post = oracle_full_state(gibbs, mode="ideal", stage="post_feedback")
    assert feedback_balance_residual(pre, post, gibbs) == pytest.approx(
        0.0, abs=1e-12
    )


def test_feedback_balance_survives_readout_errors():
    # a failed pi-pulse corrupts the memory record but touches neither the
    # qubit nor the cavity, so the balance for the exchange step still closes
    gibbs = _gibbs(1.0)
    model = ErrorModel.single("eps_read")
    pre = oracle_full_state(gibbs, model, mode="physical", stage="pre_feedback")
    post = oracle_full_state(gibbs, model, mode="physical", stage="post_feedback")
    assert feedback_balance_residual(pre, post, gibbs) == pytest.approx(
        0.0, abs=1e-12
    )


@pytest.mark.parametrize("name", ["eps_feed", "eps_prep", "cavity_prep"])
def test_feedback_balance_breaks_off_the_permutation_case(name):
    # the identity needs an exchange that permutes states of a thermal input;
    # a failing exchange or a non-thermal preparation each spoil it
    gibbs = _gibbs(1.0)
    model = ErrorModel.single(name)
    pre = oracle_full_state(gibbs, model, mode="physical", stage="pre_feedback")
    post = oracle_full_state(gibbs, model, mode="physical", stage="post_feedback")
    assert abs(feedback_balance_residual(pre, post, gibbs)) > 1e-3


# ---------------------------------------------------------------------------
# result assembly


def test_evaluate_populates_flags_on_support_mismatch():
    fwd, bwd = _tables(1.0, ErrorModel.single("eps_prep"), mode="physical")
    result = evaluate(fwd, bwd, sigma_histogram(fwd, bwd))
    assert any(flag.startswith("support:") for flag in result.flags)
    assert any("sigma4:infinite" == flag for flag in result.flags)


def test_evaluate_ideal_mode_is_clean():
    fwd, bwd = _tables(2.0)
    result = evaluate(fwd, bwd, sigma_histogram(fwd, bwd))
    assert result.flags == ()
    assert result.sigma1 == pytest.approx(result.sigma6, abs=1e-9)


def test_evaluate_without_backward_table_gives_the_forward_estimators():
    fwd, bwd = _tables(1.0, ErrorModel.single("eps_prep"), mode="physical")
    both = evaluate(fwd, bwd)
    forward = evaluate(fwd, None)
    for name in ("sigma1", "sigma2", "sigma6", "heat_cavity", "mean_info", "dbeta_tilde"):
        assert getattr(forward, name) == getattr(both, name), name
    assert all(math.isnan(x) for x in (forward.sigma3, forward.sigma4, forward.sigma5))
    # the support flag and sigma4's divergence need the backward table
    assert forward.flags == ()


def test_result_row_layout():
    fwd, bwd = _tables(0.5)
    row = evaluate(fwd, bwd, sigma_histogram(fwd, bwd)).as_row()
    assert list(row) == [
        "dbeta_tilde", "sigma1", "sigma2", "sigma3", "sigma4", "sigma5",
        "sigma6", "heat_C", "mean_info", "flags",
    ]
    assert row["dbeta_tilde"] == 0.5
    assert row["flags"] == ""


def test_estimator_table_order_and_backward_split():
    assert list(ESTIMATORS) == [f"sigma{n}" for n in range(1, 7)]
    references = {name: entry.reference for name, entry in ESTIMATORS.items()}
    assert references == {
        "sigma1": None, "sigma2": "thermal", "sigma3": "backward table",
        "sigma4": "backward table", "sigma5": "backward histogram", "sigma6": "thermal",
    }
    backward = [name for name, entry in ESTIMATORS.items() if entry.needs_backward]
    assert backward == ["sigma3", "sigma4", "sigma5"]


def test_a_block_builds_one_thermal_reference(monkeypatch):
    # sigma2 and sigma6 compare with the same reference, built once per block
    calls = []
    original = entropy._thermal_reference
    monkeypatch.setattr(entropy, "_thermal_reference",
                        lambda *args: calls.append(1) or original(*args))
    cond = forward_table(_gibbs(0.0)).conditionals
    rows = weigh_rows(cond, None, DEFAULT_DIMS, BETA_C, np.linspace(-6.0, 6.0, 64))
    results = entropy.evaluate_rows(rows)
    assert len(results) == 64 and len(calls) == 1


def test_a_block_builds_its_flag_text_once(monkeypatch):
    # every point of this block misses the same support, and the same
    # estimators diverge: its rows share one flags tuple
    calls = []
    original = entropy._support_flag
    monkeypatch.setattr(entropy, "_support_flag", lambda bad: calls.append(1) or original(bad))
    config = RunConfig(mode="physical")
    grid = np.linspace(-6.0, 6.0, 64)
    rows, hist = runner.checked_rows(runner.build_kernel(config), config, grid)
    results = entropy.evaluate_rows(rows, hist)
    assert len(results) == 64 and len(calls) == 1
    assert results.flags[0][0].startswith("support:")
    assert all(flags is results.flags[0] for flags in results.flags)


def test_columns_read_as_results():
    results = [
        EpResult(float(i), *(0.5 * i,) * 6, -1.0, 2.0, flags=("sigma4:infinite",) * (i % 2))
        for i in range(5)
    ]
    columns = EpColumns.stack(results)
    assert columns.numbers.shape == (9, 5) and len(columns) == 5
    assert list(columns) == results and [columns[i] for i in range(-5, 5)] == results * 2
    assert isinstance(columns[1:4], EpColumns) and list(columns[1:4]) == results[1:4]
    np.testing.assert_array_equal(columns.estimators, [[0.5 * i for i in range(5)]] * 6)


def test_readme_estimator_table_mirrors_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    rows = [line.split("|")[1:5] for line in lines if re.match(r"\| `sigma\d`", line)]
    mirrored = [[cell.strip() for cell in row] for row in rows]
    assert mirrored == [
        [f"`{name}`", e.trajectories, e.reference or "none", "yes" if e.needs_backward else "no"]
        for name, e in ESTIMATORS.items()
    ]


def _table_names(forward_only: bool) -> list[str]:
    return [name for name, e in ESTIMATORS.items() if not (forward_only and e.needs_backward)]


# each list that derives from the table, read back from what the package prints
def _csv_header(forward_only: bool, capsys) -> list[str]:
    return sweep_csv_text([], forward_only=forward_only).rstrip("\n").split(",")


def _simulate_lines(forward_only: bool, capsys) -> list[str]:
    lines = simulate_report(RunConfig(), 0.5).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("sigma1 "))
    return [line.split()[0] for line in lines[start:start + len(ESTIMATORS) + 1]]


def _forward_only_help(forward_only: bool, capsys) -> list[str]:
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    help_text = r"--forward-only compute only the forward-protocol estimators \((.*?)\)"
    names = re.search(help_text, text)
    return names.group(1).split(", ")


def _result_fields(forward_only: bool, capsys) -> list[str]:
    return [item.name for item in dataclasses.fields(EpResult)]


def _row_keys(forward_only: bool, capsys) -> list[str]:
    fwd, bwd = _tables(0.5)
    return list(evaluate(fwd, None if forward_only else bwd).as_row())


@pytest.mark.parametrize(
    "derived, forward_only, before, after",
    [
        (_csv_header, False, ["dbeta_tilde"], ["heat_C", "mean_info", "flags"]),
        (_csv_header, True, ["dbeta_tilde"], ["heat_C", "mean_info", "flags"]),
        (_simulate_lines, False, [], ["cavity"]),
        (_forward_only_help, True, [], []),
        (_result_fields, False, ["dbeta_tilde"], ["heat_cavity", "mean_info", "flags"]),
        (_row_keys, False, ["dbeta_tilde"], ["heat_C", "mean_info", "flags"]),
    ],
    ids=["csv", "csv-forward-only", "simulate", "analyze-help", "result-fields", "as-row"],
)
def test_every_estimator_list_follows_the_table(capsys, derived, forward_only, before, after):
    # the order of the table, and only its forward half where the backward run is absent
    assert derived(forward_only, capsys) == [*before, *_table_names(forward_only), *after]


# ---------------------------------------------------------------------------
# randomized second law


@settings(max_examples=20, deadline=None)
@given(
    dbt=st.floats(-6.0, 6.0),
    e1=st.floats(0.0, 0.25),
    e2=st.floats(0.0, 0.25),
    e3=st.floats(0.0, 0.25),
)
def test_finite_estimators_never_negative(dbt, e1, e2, e3):
    model = ErrorModel(eps_prep=e1, eps_read=e2, eps_feed=e3)
    fwd, bwd = _tables(dbt, model, mode="physical")
    result = evaluate(fwd, bwd, sigma_histogram(fwd, bwd))
    for value in (result.sigma1, result.sigma2, result.sigma3,
                  result.sigma4, result.sigma5, result.sigma6):
        if math.isfinite(value):
            assert value >= -1e-9

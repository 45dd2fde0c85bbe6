"""The six entropy-production estimators and the fluctuation identities."""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demon_ep.protocol as protocol
import demon_ep.runner as runner
import demon_ep.statespace as statespace
import demon_ep.validate as validate
from demon_ep import (
    DEFAULT_DIMS,
    ESTIMATORS,
    EpColumns,
    EpResult,
    ErrorModel,
    GibbsSpec,
    RunConfig,
    SystemDims,
    branch_probability,
    cli,
    entropy,
    evaluate,
    feedback_balance_residual,
    gibbs_distribution,
    high_bias_asymptote,
    jarzynski_rows,
    point_tables,
    shannon_entropy,
    sigma_histogram,
    simulate_report,
    sweep_csv_text,
)
from demon_ep.protocol import (
    HistogramRows,
    ProtocolKernel,
    histogram_rows,
    oracle_states,
    simulated_kernel,
    weigh_rows,
)

import pointwise_reference as reference
from conftest import BETA_C


def _gibbs(dbt: float) -> GibbsSpec:
    return GibbsSpec.from_dbeta(BETA_C, dbt)


def _tables(dbt: float, model=None, mode="ideal"):
    return point_tables(simulated_kernel(model, mode=mode), _gibbs(dbt))


def _oracle(gibbs: GibbsSpec, model=None, mode="ideal"):
    """The joint states just before and just after the feedback gate."""
    chain = simulated_kernel(model, mode=mode).chain
    return oracle_states(chain, gibbs, ("pre_feedback", "post_feedback"))


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
    s1 = evaluate(fwd, None).sigma1
    assert s1 == pytest.approx(closed, abs=1e-12)
    assert s1 == pytest.approx(5.2465368007810982, abs=1e-12)


def test_feedback_signature_closed_form():
    # a failed exchange keeps the quantum on the atom: the extracted heat and
    # with it the atom-side entropy production scale by (1 - eps_feed)
    gibbs = _gibbs(6.0)
    model = ErrorModel.single("eps_feed")
    fwd, _ = _tables(6.0, model, mode="physical")
    zeta = gibbs_distribution(gibbs.beta_qubit, levels=2)
    closed = gibbs.delta_beta * zeta[1] * (1 - model.eps_feed) + shannon_entropy(zeta)
    assert evaluate(fwd, None).sigma1 == pytest.approx(closed, rel=1e-12)


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
    result = evaluate(fwd, bwd, sigma_histogram(fwd, bwd))
    values = [getattr(result, name) for name in ESTIMATORS]
    assert max(values) - min(values) <= 1e-9
    assert min(values) >= -1e-12


def test_sigma2_equals_sigma6_under_errors():
    # marginalizing the memory and splitting off its mutual information are
    # two bookkeepings of the same divergence; they agree for any dynamics
    for model in (ErrorModel(), ErrorModel.single("eps_meas")):
        fwd, _ = _tables(1.5, model, mode="physical")
        result = evaluate(fwd, None)
        assert result.sigma2 == pytest.approx(result.sigma6, abs=1e-12)


def test_coarse_graining_orders_divergences():
    # initial-state marginal and sigma binning are both coarse-grainings of
    # the full trajectory divergence
    fwd, bwd = _tables(3.0, ErrorModel.single("eps_feed"), mode="physical")
    result = evaluate(fwd, bwd, sigma_histogram(fwd, bwd))
    s3, s4, s5 = result.sigma3, result.sigma4, result.sigma5
    assert s3 <= s4 + 1e-12
    assert s5 <= s4 + 1e-12


# ---------------------------------------------------------------------------
# support mismatch and floors


def test_preparation_error_breaks_backward_support():
    fwd, bwd = _tables(1.0, ErrorModel.single("eps_prep"), mode="physical")
    missing = reference.support_mismatch(fwd, bwd)
    assert missing  # forward runs whose reversal cannot occur
    assert all(n_q == 1 and k == 0 for n_q, k, *_ in missing)
    result = evaluate(fwd, bwd)
    assert result.flags[0].startswith(f"support:{len(missing)} ")
    assert result.sigma4 == math.inf
    assert result.sigma3 == math.inf


def test_floor_regularizes_infinite_divergence():
    fwd, bwd = _tables(1.0, ErrorModel.single("eps_prep"), mode="physical")
    hist = sigma_histogram(fwd, bwd)
    regularized = evaluate(fwd, bwd, hist, floor=1e-12).sigma4
    assert math.isfinite(regularized)
    assert regularized > 0
    # a larger floor means a less surprising reverse: the bound tightens
    assert evaluate(fwd, bwd, hist, floor=1e-6).sigma4 < regularized


def test_ideal_mode_has_full_support():
    fwd, bwd = _tables(2.0)
    assert reference.support_mismatch(fwd, bwd) == ()
    assert evaluate(fwd, bwd).flags == ()


#: the public entries that take a forward/backward table pair, and the
#: estimators and support flags read through them
PAIR_ENTRIES = {
    "evaluate": evaluate,
    "sigma_histogram": sigma_histogram,
    "sigma3": lambda fwd, bwd: evaluate(fwd, bwd).sigma3,
    "sigma4": lambda fwd, bwd: evaluate(fwd, bwd).sigma4,
    "support_mismatch": lambda fwd, bwd: evaluate(fwd, bwd).flags,
}


@pytest.mark.parametrize("entry", sorted(PAIR_ENTRIES))
def test_a_pair_of_tables_of_two_bias_points_is_rejected(entry):
    run = PAIR_ENTRIES[entry]
    kernel = simulated_kernel(ErrorModel(), mode="physical")
    f0, b0 = point_tables(kernel, _gibbs(0.0))
    f6, b6 = point_tables(kernel, _gibbs(6.0))
    with pytest.raises(ValueError, match=r"forward dbeta_tilde 0\.0, backward dbeta_tilde 6\.0$"):
        run(f0, b6)
    with pytest.raises(ValueError, match="^need one forward and one backward table$"):
        run(b0, f0)
    small, _ = point_tables(simulated_kernel(None, SystemDims(3, 4)), _gibbs(0.0))
    with pytest.raises(ValueError, match="^tables built over different spaces$"):
        run(small, _tables(0.0)[1])
    run(f0, b0)  # a matching pair passes


#: the public entry that takes one forward table, and the estimators read through it
SINGLE_ENTRIES = {
    "evaluate": lambda table: evaluate(table, None),
    "sigma1": lambda table: evaluate(table, None).sigma1,
    "sigma2": lambda table: evaluate(table, None).sigma2,
    "sigma6": lambda table: evaluate(table, None).sigma6,
}


@pytest.mark.parametrize("entry", sorted(SINGLE_ENTRIES))
def test_a_backward_table_is_rejected_as_the_forward_one(entry):
    run = SINGLE_ENTRIES[entry]
    fwd, bwd = _tables(0.0, ErrorModel(), mode="physical")
    with pytest.raises(ValueError, match="^need a forward table, got a backward one$"):
        run(bwd)
    run(fwd)  # the forward table passes


# ---------------------------------------------------------------------------
# fluctuation identities


def _block(dbeta, model=None, mode="ideal"):
    """Tables and histograms of an ideal (or given) kernel at the points ``dbeta``."""
    rows = weigh_rows(simulated_kernel(model, mode=mode), BETA_C, np.asarray(dbeta, dtype=float))
    return rows, histogram_rows(rows)


@pytest.mark.parametrize("dbt", [-6.0, 0.0, 1.0, 6.0])
def test_reversed_ensemble_average_is_unity(dbt):
    _, hists = _block([dbt])
    assert jarzynski_rows(hists, direction="reversed")[0] == pytest.approx(1.0, abs=1e-12)


def test_forward_ensemble_average_equals_reversal_efficacy():
    # the forward exponential average reproduces exactly the backward weight
    # that lands on forward-possible trajectories
    rows, hists = _block([0.0])
    pk = rows.pk[0]
    x = math.exp(-BETA_C)
    efficacy = pk[0] * (pk[0] + pk[1] * x)
    assert jarzynski_rows(hists, direction="forward")[0] == pytest.approx(efficacy, rel=1e-12)
    assert efficacy < 1.0


def test_fluctuation_average_of_a_row_reads_only_its_own_bins():
    # rows of a block have different bin counts; each row's average is the one
    # of its histogram alone, bit for bit, whatever padding the block adds
    _, hists = _block(RunConfig().grid(), ErrorModel(), "physical")
    assert len(set(hists.size.tolist())) > 1
    for direction in ("reversed", "forward"):
        block = jarzynski_rows(hists, direction)
        alone = [jarzynski_rows(HistogramRows.of(hists.row(r)), direction)[0]
                 for r in range(len(block))]
        assert block.tobytes() == np.array(alone).tobytes()
    with pytest.raises(ValueError, match="direction must be 'reversed' or 'forward'"):
        jarzynski_rows(hists, "sideways")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["ideal", "physical"])
def test_fluctuation_averages_are_finite_at_the_ends_of_the_bias_range(mode):
    # e^sigma overflows at |dbeta| >= 810 where p is tiny: a plain dot product
    # reads inf or nan there, at biases every command accepts
    config = RunConfig(mode=mode)
    grid = np.array([-812.0, -805.0, 805.0, 812.0])
    _, hists, _ = runner._run_block(runner.build_kernel(config), config, grid)
    neg, neg_in, pos_in, pos = range(4)  # the rows of the grid
    values = {(r, d): value for d in ("reversed", "forward")
              for r, value in enumerate(jarzynski_rows(hists, d).tolist())}
    assert all(math.isfinite(value) for value in values.values())
    if mode == "ideal":  # the detailed fluctuation relation holds at every bias
        assert values[neg, "reversed"] == pytest.approx(1.0, abs=1e-12)
        assert values[pos, "reversed"] == pytest.approx(1.0, abs=1e-12)
    else:  # saturated: the value at -805, and the forward one at +805
        for far, near, d in ((neg, neg_in, "reversed"), (neg, neg_in, "forward"),
                             (pos, pos_in, "forward")):
            assert values[far, d] == pytest.approx(values[near, d], rel=1e-13)


def test_asymptote_tracks_bias():
    assert high_bias_asymptote(_gibbs(6.0)) == pytest.approx(6 * BETA_C, rel=1e-14)
    assert high_bias_asymptote(_gibbs(-6.0)) == 0.0


def test_feedback_balance_holds_for_ideal_readout():
    gibbs = _gibbs(1.0)
    pre, post = _oracle(gibbs)
    assert feedback_balance_residual(pre, post, gibbs) == pytest.approx(
        0.0, abs=1e-12
    )


def test_feedback_balance_survives_readout_errors():
    # a failed pi-pulse corrupts the memory record but touches neither the
    # qubit nor the cavity, so the balance for the exchange step still closes
    gibbs = _gibbs(1.0)
    pre, post = _oracle(gibbs, ErrorModel.single("eps_read"), "physical")
    assert feedback_balance_residual(pre, post, gibbs) == pytest.approx(
        0.0, abs=1e-12
    )


@pytest.mark.parametrize("name", ["eps_feed", "eps_prep", "cavity_prep"])
def test_feedback_balance_breaks_off_the_permutation_case(name):
    # the identity needs an exchange that permutes states of a thermal input;
    # a failing exchange or a non-thermal preparation each spoil it
    gibbs = _gibbs(1.0)
    pre, post = _oracle(gibbs, ErrorModel.single(name), "physical")
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
    cond = simulated_kernel(None).forward_cond
    kernel = ProtocolKernel(DEFAULT_DIMS, cond, None)
    rows = weigh_rows(kernel, BETA_C, np.linspace(-6.0, 6.0, 64))
    results = entropy.evaluate_rows(rows)
    assert len(results) == 64 and len(calls) == 1


def test_a_block_builds_each_shared_quantity_once(monkeypatch):
    # one block weighs its Gibbs weights, sums its final states and copies each
    # table to label order once; every stage then reads those same arrays
    config = RunConfig(mode="physical")
    kernel = runner.build_kernel(config)
    grid = np.linspace(-6.0, 6.0, 64)
    gibbs_calls, final_calls, readers = [], [], {}
    original_gibbs = statespace.extended_gibbs
    for module in (statespace, protocol, entropy):
        monkeypatch.setattr(module, "extended_gibbs",
                            lambda *args: gibbs_calls.append(1) or original_gibbs(*args))
    original_final = entropy.final_state_rows
    monkeypatch.setattr(entropy, "final_state_rows",
                        lambda forward: final_calls.append(1) or original_final(forward))
    for name in ("forward_labels", "backward_labels"):
        cached = getattr(protocol.TableRows, name)

        def read(rows, name=name, cached=cached):
            labels, caller = cached.__get__(rows), sys._getframe(1).f_code.co_name
            readers.setdefault(name, {}).setdefault(caller, set()).add(id(labels))
            return labels

        monkeypatch.setattr(protocol.TableRows, name, property(read))
    weigh_rows(kernel, config.beta_cavity, grid)
    weighing = len(gibbs_calls)
    readers.clear()
    rows, _, results = runner._run_block(kernel, config, grid)
    assert len(results) == 64 and len(final_calls) == 1
    assert len(gibbs_calls) == 2 * weighing  # the weighing above, then the block's own
    for name in ("forward_labels", "backward_labels"):
        assert {"check_rows", "histogram_rows", "_sigma4_rows", "_mismatch_rows"} <= set(
            readers[name]
        )
        assert set.union(*readers[name].values()) == {id(getattr(rows, name))}


@pytest.mark.parametrize("config", [validate.IDEAL, *validate.PHYSICALS],
                         ids=["ideal", "physical", *validate.SINGLE_ERRORS])
def test_sigma2_reads_each_branch_state_off_the_final_states(config):
    # sigma2 and sigma6 share one final-state sum; its branch slices are the
    # branch sums over the initial levels, bit for bit
    rows, _, _ = runner._run_block(runner.build_kernel(config), config, config.grid())
    _assert_branch_states_are_final_state_slices(rows)


def test_sigma2_reads_each_branch_state_off_the_final_states_of_random_circuits():
    cond, beta_cavity, dbeta = next(validate._circuit_blocks())
    rows = weigh_rows(ProtocolKernel(DEFAULT_DIMS, cond, None), beta_cavity, dbeta)
    assert len(rows.dbeta) == runner.BLOCK_POINTS
    _assert_branch_states_are_final_state_slices(rows)


def _assert_branch_states_are_final_state_slices(rows):
    final_state = entropy.EstimatorInputs(rows).final_state
    for k in range(2):
        branch = rows.forward[:, :, k].sum(axis=(1, 2))
        assert final_state[:, :, k].tobytes() == branch.tobytes()


def test_a_block_builds_its_flag_text_once(monkeypatch):
    # every point of this block misses the same support, and the same
    # estimators diverge: its rows share one flags tuple
    calls = []
    original = entropy._support_flag
    monkeypatch.setattr(entropy, "_support_flag", lambda bad: calls.append(1) or original(bad))
    config = RunConfig(mode="physical")
    grid = np.linspace(-6.0, 6.0, 64)
    _, _, results = runner._run_block(runner.build_kernel(config), config, grid)
    assert len(results) == 64 and len(calls) == 1
    assert results.flags[0][0].startswith("support:")
    assert all(flags is results.flags[0] for flags in results.flags)


def test_columns_read_as_results():
    results = [
        EpResult(float(i), *(0.5 * i,) * 6, -1.0, 2.0, flags=("sigma4:infinite",) * (i % 2))
        for i in range(5)
    ]
    columns = reference.columns(results)
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
    return sweep_csv_text(reference.columns([], forward_only)).rstrip("\n").split(",")


def _simulate_lines(forward_only: bool, capsys) -> list[str]:
    lines = simulate_report(RunConfig(), 0.5).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("sigma1 "))
    return [line.split()[0] for line in lines[start:start + len(ESTIMATORS) + 1]]


def _forward_only_help(forward_only: bool, capsys) -> list[str]:
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    help_text = r"backward .* without it only the forward-protocol estimators \((.*?)\)"
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

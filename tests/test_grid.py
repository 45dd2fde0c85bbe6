"""The block evaluator against the point-by-point reference, byte for byte."""

from __future__ import annotations

import dataclasses
import io
import re
import warnings

import numpy as np
import pytest

import demon_ep.runner as runner
import pointwise_reference as reference
from demon_ep import (
    EpColumns,
    GibbsSpec,
    RunConfig,
    conditional_from_table,
    evaluate,
    parse_table,
    point_tables,
    run_analysis,
    run_sweep,
    serialize_table,
    sigma1,
    sigma2,
    sigma3,
    sigma4,
    sigma5,
    sigma6,
    sigma_grid,
    sigma_histogram,
    support_mismatch,
    sweep_csv_text,
)
from demon_ep.entropy import evaluate_rows
from demon_ep.protocol import (
    ProtocolKernel,
    branch_probability,
    check_rows,
    final_state_marginal,
    histogram_rows,
    weigh_rows,
)
from demon_ep.statespace import DEFAULT_DIMS, extended_gibbs


def _reference_csv(config: RunConfig, kernel=None, forward_only: bool = False) -> str:
    kernel = runner.build_kernel(config) if kernel is None else kernel
    return sweep_csv_text(reference.run(kernel, config), forward_only=forward_only)


def _random_physical(seed: int, **extra) -> RunConfig:
    rng = np.random.default_rng(seed)
    return RunConfig(
        mode="physical",
        eps_prep=0.1 * rng.uniform(0.5, 1.5),
        eps_read=0.11 * rng.uniform(0.5, 1.5),
        eps_feed=0.03 * rng.uniform(0.5, 1.5),
        relax_atom_prob=rng.uniform(0.0, 0.3),
        relax_cavity_prob=rng.uniform(0.0, 0.05),
        **extra,
    )


CASES = {
    "ideal": RunConfig(),
    "physical": RunConfig(mode="physical"),
    "idealized_backward": RunConfig(mode="physical", idealized_backward=True),
    "floor": RunConfig(mode="physical", floor=1e-12),
    "cavity_heat": RunConfig(mode="physical", heat_from_atom=False),
    "sigma_tol_0": RunConfig(mode="physical", sigma_tol=0.0),
    "sigma_tol_1e-6": RunConfig(mode="physical", sigma_tol=1e-6),
    "ideal_sigma_tol_1e-6": RunConfig(sigma_tol=1e-6),
    # 161 points: two full blocks and a short one
    "not_a_block_multiple": RunConfig(mode="physical", dbeta_step=0.075),
    # the qubit prior underflows: support and flags change inside one block
    "underflow": RunConfig(dbeta_start=-1000, dbeta_stop=-700, dbeta_step=2.5),
    "underflow_physical": RunConfig(
        mode="physical", dbeta_start=-1000, dbeta_stop=-700, dbeta_step=2.5
    ),
    # near zero bias sigma values a hair apart chain past sigma_tol from their
    # anchor, so the anchored bins differ from bins split at wide gaps only
    "chained_bins": RunConfig(
        mode="physical", sigma_tol=1e-6, dbeta_start=-2e-6, dbeta_stop=2e-6, dbeta_step=1e-7
    ),
    **{f"random_{seed}": _random_physical(seed, dbeta_step=0.1) for seed in range(4)},
    "random_floor": _random_physical(7, floor=1e-12, heat_from_atom=False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_the_point_by_point_reference(case):
    config = CASES[case]
    assert sweep_csv_text(run_sweep(config)) == _reference_csv(config)


def test_underflow_grid_changes_support_inside_a_block():
    results = run_sweep(CASES["underflow_physical"])
    assert len(results) == 121
    flags = {result.flags for result in results[:runner.BLOCK_POINTS]}
    assert len(flags) > 1


def _tables(config: RunConfig):
    gibbs = GibbsSpec.from_dbeta(config.beta_cavity, 0.0)
    fwd, bwd = point_tables(runner.build_kernel(config), gibbs)
    return conditional_from_table(fwd), conditional_from_table(bwd)


@pytest.mark.parametrize("case", ["physical", "random_1"])
def test_analysis_matches_the_reference(case):
    config = CASES[case]
    forward, backward = _tables(config)
    both = sweep_csv_text(run_analysis(config, forward, backward))
    assert both == _reference_csv(config, runner.measured_kernel(forward, backward))
    alone = sweep_csv_text(run_analysis(config, forward), forward_only=True)
    expected = _reference_csv(config, runner.measured_kernel(forward, None), forward_only=True)
    assert alone == expected


def _single_points(kernel, config: RunConfig) -> list:
    """:func:`evaluate` at each point of the configured grid, one call per point."""
    results = []
    for dbeta in config.grid().tolist():
        fwd, bwd = point_tables(kernel, GibbsSpec.from_dbeta(config.beta_cavity, dbeta))
        hist = None if bwd is None else sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        results.append(
            evaluate(fwd, bwd, hist, floor=config.floor, heat_from_atom=config.heat_from_atom)
        )
    return results


def _bits(result) -> tuple:
    """A result's numbers as bytes (NaN and the sign of zero included), and its flags."""
    *numbers, flags = dataclasses.astuple(result)
    return np.array(numbers).tobytes(), flags


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_are_the_single_point_results(case):
    config = CASES[case]
    results = run_sweep(config)
    singles = _single_points(runner.build_kernel(config), config)
    assert len(results) == len(singles)
    assert [_bits(result) for result in results] == [_bits(single) for single in singles]
    assert _bits(results[-1]) == _bits(singles[-1])
    assert [_bits(result) for result in results[3:5]] == [_bits(s) for s in singles[3:5]]


@pytest.mark.parametrize("case", ["physical", "random_1"])
def test_forward_only_analysis_rows_are_the_single_point_results(case):
    config = CASES[case]
    forward, _ = _tables(config)
    results = run_analysis(config, forward)
    singles = _single_points(runner.measured_kernel(forward, None), config)
    assert [_bits(result) for result in results] == [_bits(single) for single in singles]
    # sigma3-sigma5 are NaN without a backward table: only the forward-only layout holds them
    with pytest.raises(ValueError, match="sigma3 is NaN at dbeta_tilde -6;.*forward_only=True"):
        sweep_csv_text(results)


def test_csv_of_single_results_equals_the_csv_of_their_columns():
    # support and flags change inside a block on this grid
    config = CASES["underflow_physical"]
    singles = _single_points(runner.build_kernel(config), config)
    text = sweep_csv_text(singles)
    assert text == sweep_csv_text(EpColumns.stack(singles)) == sweep_csv_text(run_sweep(config))


def _assert_histograms_match(kernel, config: RunConfig) -> None:
    grid = config.grid()
    rows = weigh_rows(
        kernel.forward_cond, kernel.backward_cond, kernel.dims, config.beta_cavity, grid
    )
    hist = histogram_rows(rows, config.sigma_tol)
    for r, dbeta in enumerate(grid):
        gibbs = GibbsSpec.from_dbeta(config.beta_cavity, float(dbeta))
        fwd, bwd = reference.point_tables(kernel, gibbs)
        expected = reference.sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        for name in ("sigma", "p_forward", "p_backward"):  # every bit, sign of zero too
            assert getattr(hist.row(r), name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("case", ["chained_bins", "sigma_tol_0", "underflow_physical"])
def test_block_histograms_match_the_reference(case):
    config = CASES[case]
    _assert_histograms_match(runner.build_kernel(config), config)


def test_negative_zero_table_entries_keep_their_sign():
    # "-0" parses to -0.0; a bin of such weights must sum to -0.0 as the loop did
    config = RunConfig(mode="physical", dbeta_step=0.5)
    forward, backward = _tables(config)
    text = re.sub(r"(?<= )0(?=[ \n])", "-0", serialize_table(backward))
    backward = parse_table(io.StringIO(text), "backward-rows-final")
    assert np.signbit(backward.values[backward.values == 0.0]).any()
    kernel = runner.measured_kernel(forward, backward)
    _assert_histograms_match(kernel, config)
    expected = _reference_csv(config, kernel)
    assert sweep_csv_text(run_analysis(config, forward, backward)) == expected


@pytest.mark.parametrize(
    "case", ["ideal", "physical", "random_2", "underflow_physical", "chained_bins"]
)
def test_single_point_functions_match_the_reference(case):
    config = CASES[case]
    kernel = runner.build_kernel(config)
    for dbeta in config.grid()[::7]:
        gibbs = GibbsSpec.from_dbeta(config.beta_cavity, float(dbeta))
        fwd, bwd = point_tables(kernel, gibbs)
        ref_fwd, ref_bwd = reference.point_tables(kernel, gibbs)
        for new, old in ((fwd, ref_fwd), (bwd, ref_bwd)):
            np.testing.assert_array_equal(new.probs, old.probs)
            assert (new.prior_mass, new.unlabeled_mass, new.demon_reset_prob) == (
                old.prior_mass, old.unlabeled_mass, old.demon_reset_prob
            )
        pk = branch_probability(fwd)
        np.testing.assert_array_equal(pk, reference.branch_probability(ref_fwd))
        np.testing.assert_array_equal(
            sigma_grid(gibbs, pk, kernel.dims), reference.sigma_grid(gibbs, pk, kernel.dims)
        )
        np.testing.assert_array_equal(
            final_state_marginal(fwd), np.transpose(fwd.probs.sum(axis=(0, 2)), (1, 0, 2))
        )
        hist = sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        ref_hist = reference.sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        for name in ("sigma", "p_forward", "p_backward"):
            np.testing.assert_array_equal(getattr(hist, name), getattr(ref_hist, name))
        pairs = [
            (sigma1(fwd), reference.sigma1(fwd)),
            (sigma1(fwd, from_atom=False), reference.sigma1(fwd, from_atom=False)),
            (sigma2(fwd, 1e-12), reference.sigma2(fwd, 1e-12)),
            (sigma3(fwd, bwd), reference.sigma3(fwd, bwd)),
            (sigma4(fwd, bwd), reference.sigma4(fwd, bwd)),
            (sigma5(hist), reference.sigma5(hist)),
            (sigma6(fwd), reference.sigma6(fwd)),
            (evaluate(fwd, None, heat_from_atom=False).heat_cavity, reference.cavity_heat(fwd)),
            (evaluate(fwd, None).mean_info, reference.mean_information(fwd)),
        ]
        for new, old in pairs:
            assert new == old or (np.isnan(new) and np.isnan(old))
        assert support_mismatch(fwd, bwd) == reference.support_mismatch(fwd, bwd)
        assert sweep_csv_text([evaluate(fwd, bwd, hist)]) == sweep_csv_text(
            [reference.evaluate(fwd, bwd, hist)]
        )
        assert _bits(evaluate(fwd, None)) == _bits(reference.evaluate(fwd, None))


# ---------------------------------------------------------------------------
# rows with their own kernel and cavity temperature, as validate's circuits


def _random_circuits(seed: int, count: int = runner.BLOCK_POINTS):
    """Forward conditionals, beta_C and dbeta of ``count`` random circuits.

    Every fourth circuit never reaches (m_Q=1, k=0), as the physical register
    cannot, so the block mixes forward supports.
    """
    rng = np.random.default_rng(seed)
    full, init = DEFAULT_DIMS.dim_cavity_full, DEFAULT_DIMS.dim_cavity_init
    cond = rng.random((count, 2, 2, full, 2, init))
    cond[::4, 1, 0] = 0.0
    cond /= cond.sum(axis=(1, 2, 3), keepdims=True)
    return cond, rng.uniform(0.2, 3.0, count), rng.uniform(-6.0, 6.0, count)


@pytest.mark.parametrize("heat_from_atom", [True, False])
def test_rows_with_their_own_kernel_and_cavity_temperature_match_each_circuit(heat_from_atom):
    cond, beta_cavity, dbeta = _random_circuits(11)
    rows = weigh_rows(cond, None, DEFAULT_DIMS, beta_cavity, dbeta)
    check_rows(rows)
    singles, references = [], []
    for r in range(len(cond)):
        kernel = ProtocolKernel(DEFAULT_DIMS, cond[r], None)
        gibbs = GibbsSpec.from_dbeta(float(beta_cavity[r]), float(dbeta[r]))
        fwd, _ = point_tables(kernel, gibbs)
        assert rows.forward[r].tobytes() == fwd.probs.tobytes()
        singles.append(evaluate(fwd, None, heat_from_atom=heat_from_atom))
        ref_fwd, _ = reference.point_tables(kernel, gibbs)
        references.append(reference.evaluate(ref_fwd, None, heat_from_atom=heat_from_atom))
    # sigma1, sigma2, sigma6, heat_C and mean_info, each at %.17g
    block = sweep_csv_text(evaluate_rows(rows, heat_from_atom=heat_from_atom), forward_only=True)
    assert block == sweep_csv_text(singles, forward_only=True)
    assert block == sweep_csv_text(references, forward_only=True)


def test_extended_gibbs_on_a_column_matches_each_row():
    beta = np.random.default_rng(5).uniform(-3.0, 6.0, runner.BLOCK_POINTS)
    beta[:3] = (1e-12, 60.0, 700.0)
    column = extended_gibbs(beta[:, None], 4, 5)
    assert column.shape == (len(beta), 5)
    for r, b in enumerate(beta.tolist()):
        assert column[r].tobytes() == extended_gibbs(b, 4, 5).tobytes()
        assert column[r].tobytes() == reference.extended_gibbs(b, 4, 5).tobytes()


# ---------------------------------------------------------------------------
# checks fire for the first failing point, with the loop's warnings


def _outcome(run):
    """(error message or None, warnings) of a run, RuntimeWarnings aside."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            run()
            error = None
        except ValueError as exc:
            error = str(exc)
    return error, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize(
    "grid",
    [(0.0, 1000.0, 1000.0), (0.0, 1000.0, 10.0)],
    ids=["second-point", "second-block"],
)
def test_the_first_failing_point_raises_the_loops_message(grid):
    start, stop, step = grid
    config = RunConfig(dbeta_start=start, dbeta_stop=stop, dbeta_step=step)
    failing = int(np.argmax(config.grid() > 813))  # exp(-beta_Q) overflows past here
    assert failing // runner.BLOCK_POINTS == (0 if step == 1000.0 else 1)
    error, _ = _outcome(lambda: run_sweep(config))
    expected, _ = _outcome(lambda: reference.run(runner.build_kernel(config), config))
    assert error == expected == "forward table: mass nan is not finite"


def _shrunk(table, factor: float):
    """A table whose stochastic sums are off by ``1 - factor``, as measured tables are."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the table's own soft warning
        return type(table)(
            table.row_labels, table.col_labels, table.values * factor, table.orientation
        )


def test_soft_mass_warnings_match_the_loop_one_for_one():
    config = RunConfig(mode="physical", dbeta_step=0.125)  # 97 points, two blocks
    forward, backward = (_shrunk(t, 1.0 - 2e-7) for t in _tables(config))
    kernel = runner.measured_kernel(forward, backward)
    error, caught = _outcome(lambda: run_analysis(config, forward, backward))
    expected_error, expected = _outcome(lambda: reference.run(kernel, config))
    assert error is expected_error is None
    assert len(caught) >= len(config.grid())
    assert caught == expected


def test_a_negative_table_entry_fails_at_the_loops_point():
    # every table warns of its shrunk mass; one negative conditional grows with
    # the bias and first fails the forward table check in the second block
    config = RunConfig(mode="physical", dbeta_step=0.125)  # 97 points, two blocks
    kernel = runner.build_kernel(config)
    failing = 70
    gibbs = GibbsSpec.from_dbeta(config.beta_cavity, float(config.grid()[failing]))
    excited = reference.gibbs_distribution(gibbs.beta_qubit, 2)[1]
    ground = reference.gibbs_distribution(gibbs.beta_cavity, kernel.dims.dim_cavity_init)[0]
    fcond = kernel.forward_cond * (1.0 - 2e-7)
    outcome = tuple(np.argwhere(fcond[..., 1, 0] == 0.0)[0])  # (m_Q, k, m_C) never reached
    fcond[outcome + (1, 0)] = -1.001e-15 / (excited * ground)  # from n_Q = 1, n_C = 0
    kernel = runner.ProtocolKernel(kernel.dims, fcond, kernel.backward_cond)
    error, caught = _outcome(lambda: runner._run(kernel, config))
    expected_error, expected = _outcome(lambda: reference.run(kernel, config))
    assert error == expected_error == "negative trajectory probability"
    assert len(caught) == 2 * failing  # forward table and histogram, per passing point
    assert caught == expected


def test_a_negative_histogram_weight_fails_as_in_the_loop():
    # backward weights of -1e-16 pass the table check (-1e-15) but not the
    # histogram's: the point's table warnings come first, then its error
    config = RunConfig(mode="physical")
    kernel = runner.build_kernel(config)
    bcond = np.where(kernel.backward_cond == 0.0, -1e-16, kernel.backward_cond)
    bcond[:, :, 1, 0] = 0.0  # the physical register still holds no (m_Q=1, k=0)
    kernel = runner.ProtocolKernel(kernel.dims, kernel.forward_cond * (1.0 - 2e-7), bcond)
    error, caught = _outcome(lambda: runner._run(kernel, config))
    expected_error, expected = _outcome(lambda: reference.run(kernel, config))
    assert error == expected_error == "negative histogram weight"
    assert caught == expected and caught

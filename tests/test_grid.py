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
    GibbsSpec,
    RunConfig,
    conditional_from_table,
    evaluate,
    parse_table,
    point_tables,
    run_analysis,
    run_sweep,
    serialize_table,
    sigma_grid,
    sigma_histogram,
    sweep_csv_text,
)
from demon_ep.entropy import FORWARD_COLUMNS, evaluate_rows
from demon_ep.protocol import (
    ProtocolKernel,
    SigmaHistogram,
    TableRows,
    branch_probability,
    check_rows,
    final_state_rows,
    histogram_rows,
    weigh_rows,
)
from demon_ep.statespace import DEFAULT_DIMS, extended_gibbs


def _reference_csv(config: RunConfig, kernel=None) -> str:
    kernel = runner.build_kernel(config) if kernel is None else kernel
    results = reference.columns(reference.run(kernel, config), kernel.backward_cond is None)
    return sweep_csv_text(results)


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
    # BLOCK_POINTS + 1 points: one past a block boundary
    "one_past_a_block": RunConfig(mode="physical", dbeta_step=12 / runner.BLOCK_POINTS),
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
    # faithful readout: the (dq, dc, k) classes (0, 0, 0) and (-1, 0, 1) have sigma
    # -ln p(k=0) and -beta_Q - ln p(k=1), equal to rounding, so every row has a
    # bin of two classes and bins its labels
    "cavity_prep": RunConfig(mode="physical", single_error="cavity_prep"),
    "relax_cavity": RunConfig(mode="physical", single_error="relax_cavity",
                              relax_cavity_prob=0.02),
    **{f"random_{seed}": _random_physical(seed, dbeta_step=0.1) for seed in range(4)},
    "random_floor": _random_physical(7, floor=1e-12, heat_from_atom=False),
}


@pytest.mark.parametrize("case, block", [
    # a case at the configured block size keeps its name, other sizes say theirs
    pytest.param(case, block, id=case if block == runner.BLOCK_POINTS else f"{case}@{block}")
    for case in sorted(CASES) for block in sorted({1, 64, 128, runner.BLOCK_POINTS})
])
def test_sweep_matches_the_point_by_point_reference(monkeypatch, case, block):
    # a row runs the same code in a block of any size
    config = CASES[case]
    monkeypatch.setattr(runner, "BLOCK_POINTS", block)
    assert sweep_csv_text(run_sweep(config)) == _reference_csv(config)


def _table_bits(table) -> tuple:
    """A table's probs and masses as bytes, its labels and its conditionals."""
    masses = np.array([table.prior_mass, table.unlabeled_mass,
                       np.nan if table.demon_reset_prob is None else table.demon_reset_prob])
    return (table.probs.tobytes(), masses.tobytes(), table.direction, table.gibbs,
            table.dims, table.conditionals.tobytes())


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_tables_of_a_row_are_the_point_tables(case):
    config = CASES[case]
    kernel = runner.build_kernel(config)
    grid = config.grid()
    rows = weigh_rows(kernel, config.beta_cavity, grid)
    for r, dbeta in enumerate(grid.tolist()):
        expected = point_tables(kernel, GibbsSpec.from_dbeta(config.beta_cavity, dbeta))
        assert [_table_bits(t) for t in rows.tables(r)] == [_table_bits(t) for t in expected]


def test_a_single_point_keeps_the_given_qubit_temperature():
    config = CASES["physical"]
    kernel = runner.build_kernel(config)
    dbeta = -1.0
    beta_qubit = np.nextafter(config.beta_cavity * (1.0 - dbeta), np.inf)
    gibbs = GibbsSpec(beta_qubit, config.beta_cavity, dbeta)
    assert gibbs.beta_qubit != config.beta_cavity * (1.0 - dbeta)  # one bit apart
    tables = point_tables(kernel, gibbs)
    assert tables[0].gibbs.beta_qubit == beta_qubit
    expected = reference.point_tables(kernel, gibbs)
    assert [_table_bits(t) for t in tables] == [_table_bits(t) for t in expected]
    from_dbeta = point_tables(kernel, GibbsSpec.from_dbeta(config.beta_cavity, dbeta))
    assert tables[0].probs.tobytes() != from_dbeta[0].probs.tobytes()


def test_the_tables_of_a_row_run_the_table_checks():
    config = CASES["physical"]
    kernel = runner.build_kernel(config)
    shrunk = ProtocolKernel(kernel.dims, kernel.forward_cond * (1.0 - 2e-7), None)
    rows = weigh_rows(shrunk, config.beta_cavity, config.grid())
    with pytest.warns(UserWarning, match="^forward table: mass off by"):
        rows.tables(3)


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
    alone = sweep_csv_text(run_analysis(config, forward))
    assert alone == _reference_csv(config, runner.measured_kernel(forward, None))


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
    # sigma3-sigma5 are NaN without a backward table: the results carry the forward-only layout
    assert results.forward_only
    header = sweep_csv_text(results).split("\n", 1)[0]
    assert header == ",".join(FORWARD_COLUMNS)


def test_forward_only_marks_every_block_and_slice():
    edge = runner.BLOCK_POINTS
    # 2 * edge - 7 points: two blocks, and a slice across their edge
    config = RunConfig(mode="physical", dbeta_step=12 / (2 * edge - 8))
    forward, _ = _tables(config)
    results = run_analysis(config, forward)
    assert len(results) > runner.BLOCK_POINTS
    assert results.forward_only and results[edge - 4:edge + 6].forward_only
    header = sweep_csv_text(results[edge - 4:edge + 6]).split("\n", 1)[0]
    assert header == ",".join(FORWARD_COLUMNS)
    swept = run_sweep(config)
    assert not swept.forward_only and not swept[edge - 4:edge + 6].forward_only


def _assert_histograms_match(kernel, config: RunConfig) -> None:
    grid = config.grid()
    rows = weigh_rows(kernel, config.beta_cavity, grid)
    hist = histogram_rows(rows, config.sigma_tol)
    for r, dbeta in enumerate(grid):
        gibbs = GibbsSpec.from_dbeta(config.beta_cavity, float(dbeta))
        fwd, bwd = reference.point_tables(kernel, gibbs)
        expected = reference.sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        for name in ("sigma", "p_forward", "p_backward"):  # every bit, sign of zero too
            assert getattr(hist.row(r), name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize(
    "case", ["cavity_prep", "chained_bins", "relax_cavity", "sigma_tol_0", "underflow_physical"]
)
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


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_a_tolerance_below_zero_or_nan_is_rejected(tol):
    # a NaN tolerance opened a bin at every label and passed the histogram's
    # "strictly increasing beyond tolerance" check: the ideal model at dbeta
    # 0.75 gave 8 bins, each sigma value four times, where the default gives 2
    config = RunConfig()
    fwd, bwd = point_tables(runner.build_kernel(config),
                            GibbsSpec.from_dbeta(config.beta_cavity, 0.75))
    hist = sigma_histogram(fwd, bwd)
    assert hist.sigma.size == 2
    message = r"\Asigma tolerance must be a non-negative number, got "
    with pytest.raises(ValueError, match=message):
        sigma_histogram(fwd, bwd, tol=tol)
    with pytest.raises(ValueError, match=message):
        histogram_rows(TableRows.of(fwd, bwd), tol)
    with pytest.raises(ValueError, match=message):
        SigmaHistogram(hist.sigma, hist.p_forward, hist.p_backward, tol)


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
            final_state_rows(fwd.probs[None])[0],
            np.transpose(fwd.probs.sum(axis=(0, 2)), (1, 0, 2)),
        )
        hist = sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        ref_hist = reference.sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        for name in ("sigma", "p_forward", "p_backward"):
            np.testing.assert_array_equal(getattr(hist, name), getattr(ref_hist, name))
        result, forward = evaluate(fwd, bwd, hist), evaluate(fwd, None)
        photon_side = evaluate(fwd, None, heat_from_atom=False)
        pairs = [
            (forward.sigma1, reference.sigma1(fwd)),
            (photon_side.sigma1, reference.sigma1(fwd, from_atom=False)),
            (evaluate(fwd, None, floor=1e-12).sigma2, reference.sigma2(fwd, 1e-12)),
            (result.sigma3, reference.sigma3(fwd, bwd)),
            (result.sigma4, reference.sigma4(fwd, bwd)),
            (result.sigma5, reference.sigma5(hist)),
            (forward.sigma6, reference.sigma6(fwd)),
            (photon_side.heat_cavity, reference.cavity_heat(fwd)),
            (forward.mean_info, reference.mean_information(fwd)),
        ]
        for new, old in pairs:
            assert new == old or (np.isnan(new) and np.isnan(old))
        expected = reference.evaluate(fwd, bwd, hist)
        assert result.flags == expected.flags
        assert sweep_csv_text(reference.columns([result])) == sweep_csv_text(
            reference.columns([expected])
        )
        assert _bits(forward) == _bits(reference.evaluate(fwd, None))


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
    rows = weigh_rows(ProtocolKernel(DEFAULT_DIMS, cond, None), beta_cavity, dbeta)
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
    block = sweep_csv_text(evaluate_rows(rows, heat_from_atom=heat_from_atom))
    assert block == sweep_csv_text(reference.columns(singles, forward_only=True))
    assert block == sweep_csv_text(reference.columns(references, forward_only=True))


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
    # at a step of 640 / BLOCK_POINTS, 813 lies 1.27 blocks in: the second block
    [(0.0, 1000.0, 1000.0), (0.0, 1000.0, 640.0 / runner.BLOCK_POINTS)],
    ids=["second-point", "second-block"],
)
def test_the_first_failing_point_raises_the_loops_message(monkeypatch, grid):
    # a config with these ends is rejected when built, so the overflowing
    # points reach both evaluators through the grid of a valid config
    start, stop, step = grid
    points = start + step * np.arange(round((stop - start) / step) + 1)
    monkeypatch.setattr(RunConfig, "grid", lambda self: points)
    config = RunConfig()
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


def _table_warnings(caught):
    """The loop's warnings without those of its histograms, which a block does
    not check again: they re-sum the forward weights its table check summed."""
    return [(category, message) for category, message in caught
            if not message.startswith("sigma histogram")]


def test_soft_mass_warnings_match_the_loop_one_for_one():
    config = RunConfig(mode="physical", dbeta_step=0.125)  # 97 points, two blocks
    forward, backward = (_shrunk(t, 1.0 - 2e-7) for t in _tables(config))
    kernel = runner.measured_kernel(forward, backward)
    error, caught = _outcome(lambda: run_analysis(config, forward, backward))
    expected_error, expected = _outcome(lambda: reference.run(kernel, config))
    assert error is expected_error is None
    assert len(caught) >= len(config.grid())
    assert caught == _table_warnings(expected)  # so the block gives none of the others


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
    assert len(caught) == failing  # the forward table's, once per passing point
    assert caught == _table_warnings(expected)


def test_backward_entries_the_table_check_admits_change_no_estimator():
    # backward weights of -1e-16 pass the table check (-1e-15); the bins that
    # sum them give sigma5 what the zero entries give, infinities and flags too
    config = RunConfig(mode="physical")
    kernel = runner.build_kernel(config)
    bcond = np.where(kernel.backward_cond == 0.0, -1e-16, kernel.backward_cond)
    bcond[:, :, 1, 0] = 0.0  # the physical register still holds no (m_Q=1, k=0)
    negative = runner.ProtocolKernel(kernel.dims, kernel.forward_cond, bcond)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results, expected = runner._run(negative, config), runner._run(kernel, config)
    assert np.isinf(expected.estimators).any()
    np.testing.assert_allclose(results.estimators, expected.estimators, rtol=0, atol=1e-12)
    assert results.flags == expected.flags

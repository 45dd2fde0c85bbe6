"""Forward/backward trajectory tables and the stochastic-entropy histogram."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demon_ep import (
    DEFAULT_DIMS,
    ENCODINGS,
    AtomLevel,
    ErrorModel,
    GibbsSpec,
    RunConfig,
    SigmaHistogram,
    apply,
    branch_probability,
    conditional_from_table,
    evaluate,
    gibbs_distribution,
    marginalize,
    measured_kernel,
    point_tables,
    prepare_register,
    sigma_grid,
    sigma_histogram,
)
import demon_ep.channels as channels
import demon_ep.entropy as entropy
import demon_ep.protocol as protocol
import demon_ep.runner as runner
from demon_ep.protocol import (
    TableRows,
    _point_rows,
    check_rows,
    final_state_rows,
    histogram_rows,
    oracle_states,
    simulated_kernel,
    weigh_rows,
)
from demon_ep.statespace import extended_gibbs

from conftest import BETA_C

INIT = DEFAULT_DIMS.dim_cavity_init
FULL = DEFAULT_DIMS.dim_cavity_full


def _gibbs(dbt: float) -> GibbsSpec:
    return GibbsSpec.from_dbeta(BETA_C, dbt)


def _qubit_thermal(gibbs: GibbsSpec) -> np.ndarray:
    return gibbs_distribution(gibbs.beta_qubit, levels=2)


def _tables(gibbs: GibbsSpec, model=None, mode="ideal"):
    """The forward and backward tables at ``gibbs`` of the model's kernel."""
    return point_tables(simulated_kernel(model, mode=mode), gibbs)


# ---------------------------------------------------------------------------
# trajectory labels


def test_sigma_is_two_point_energy_plus_surprisal():
    gibbs = _gibbs(2.0)
    sigma = sigma_grid(gibbs, np.array([0.3, 0.7]))
    assert sigma.shape == (2, 2, INIT, 2, FULL)
    # no energy change: sigma is the outcome surprisal alone
    flat = (0, 0, 2, 0, 2)  # (n_Q, k, n_C, m_Q, m_C)
    assert sigma[flat] == pytest.approx(-math.log(0.3))
    # one quantum moved from qubit to cavity
    swap = (1, 1, 2, 0, 3)
    expected = gibbs.delta_beta - math.log(0.7)
    assert sigma[swap] == pytest.approx(expected, rel=1e-14)


def test_sigma_infinite_on_unused_branch():
    sigma = sigma_grid(_gibbs(0.0), np.array([0.0, 1.0]))
    assert sigma[0, 0, 0, 0, 0] == math.inf


# ---------------------------------------------------------------------------
# ideal forward tables


def test_ideal_forward_support_and_weights():
    gibbs = _gibbs(1.5)
    fwd, _ = _tables(gibbs)
    zeta = _qubit_thermal(gibbs)
    w = gibbs_distribution(gibbs.beta_cavity, levels=INIT)
    expected = np.zeros((2, 2, INIT, 2, FULL))
    for n in range(INIT):
        expected[0, 0, n, 0, n] = zeta[0] * w[n]  # demon reads 0, nothing moves
        expected[1, 1, n, 0, n + 1] = zeta[1] * w[n]  # read 1, quantum extracted
    np.testing.assert_allclose(fwd.probs, expected, rtol=1e-14, atol=1e-300)
    assert fwd.probs.sum() == pytest.approx(1.0, abs=1e-14)
    assert fwd.prior_mass == 1.0
    assert fwd.unlabeled_mass == 0.0


def test_ideal_branch_probability_equals_qubit_population():
    gibbs = _gibbs(-3.0)
    fwd, _ = _tables(gibbs)
    np.testing.assert_allclose(
        branch_probability(fwd), _qubit_thermal(gibbs), rtol=1e-14
    )


def test_error_free_physical_forward_matches_ideal():
    gibbs = _gibbs(2.5)
    ideal, _ = _tables(gibbs)
    physical, _ = _tables(gibbs, ErrorModel.ideal(), "physical")
    np.testing.assert_allclose(physical.probs, ideal.probs, rtol=0, atol=1e-14)


def test_physical_forward_never_detects_excited_with_memory_clear():
    gibbs = _gibbs(1.0)
    fwd, _ = _tables(gibbs, ErrorModel(), "physical")
    # the detected atom level fixes (m_Q, k); no level encodes (1, 0)
    assert fwd.probs[:, 0, :, 1, :].sum() == 0.0
    # but preparation/readout errors do populate initial-excited, read-0 labels
    assert fwd.probs[1, 0].sum() > 0.0
    assert fwd.probs.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# backward tables


def test_ideal_backward_matches_reversal_closed_form():
    gibbs = _gibbs(1.0)
    fwd, bwd = _tables(gibbs)
    zeta = _qubit_thermal(gibbs)
    pk = branch_probability(fwd)
    w_ext = extended_gibbs(gibbs.beta_cavity, INIT, FULL)
    # reversal of each forward-possible trajectory is deterministic, so its
    # backward weight is just the thermal prior of the time-reversed start
    for n in range(INIT):
        assert bwd.probs[0, 0, n, 0, n] == pytest.approx(
            zeta[0] * pk[0] * w_ext[n], rel=1e-13
        )
        assert bwd.probs[1, 1, n, 0, n + 1] == pytest.approx(
            zeta[0] * pk[1] * w_ext[n + 1], rel=1e-13
        )


def test_backward_conservation_extended_prior():
    # the backward cavity prior is normalized on the initial truncation but
    # extends one level up, so its total mass is Z_{0..4} / Z_{0..3}
    x = math.exp(-BETA_C)
    expected_mass = (1 - x**FULL) / (1 - x**INIT)
    for mode, model in (("ideal", None), ("physical", ErrorModel())):
        gibbs = _gibbs(0.5)
        _, bwd = _tables(gibbs, model, mode)
        assert bwd.prior_mass == pytest.approx(expected_mass, rel=1e-13)
        assert bwd.probs.sum() + bwd.unlabeled_mass == pytest.approx(
            bwd.prior_mass, rel=1e-12
        )


def test_physical_backward_reassigns_unencodable_branch():
    gibbs = _gibbs(1.0)
    _, bwd = _tables(gibbs, ErrorModel(), "physical")
    # nothing can start from (m_Q=1, k=0): that weight moved to m_Q=0
    assert bwd.probs[:, 0, :, 1, :].sum() == 0.0
    assert bwd.demon_reset_prob is not None
    assert 0.0 <= bwd.demon_reset_prob <= 1.0


def test_ideal_run_config_model_builds_ideal_tables():
    # ideal mode's configured model is the error-free one the builders accept
    model = RunConfig().build_error_model()
    assert model.is_ideal
    fwd, _ = _tables(_gibbs(1.0), model)
    assert np.array_equal(fwd.probs, _tables(_gibbs(1.0))[0].probs)


def test_ideal_backward_keeps_abstract_unencodable_branch():
    gibbs = _gibbs(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning of any kind expected
        _, bwd = _tables(gibbs)
    # the ideal register has a level X for (m_Q=1, k=0), so that branch runs
    assert bwd.probs[:, 0, :, 1, :].sum() > 0.0


def test_backward_overflow_is_tracked_not_dropped():
    gibbs = _gibbs(0.0)
    _, bwd = _tables(gibbs)
    # reversed feedback can push the cavity past the initial truncation;
    # those runs end unlabeled but their mass stays on the books
    assert bwd.unlabeled_mass > 0.0


# ---------------------------------------------------------------------------
# conditional kernels


def test_forward_conditionals_are_stochastic():
    for mode, model in (("ideal", None), ("physical", ErrorModel())):
        cond = simulated_kernel(model, DEFAULT_DIMS, mode).forward_cond
        assert cond.shape == (2, 2, FULL, 2, INIT)
        sums = cond.sum(axis=(0, 1, 2))
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_backward_conditionals_skip_unencodable_columns():
    bcond = simulated_kernel(ErrorModel(), DEFAULT_DIMS, "physical").backward_cond
    assert bcond.shape == (2, FULL, 2, 2, FULL)
    assert bcond[:, :, 1, 0, :].sum() == 0.0  # no (m_Q=1, k=0) start
    ideal_bcond = simulated_kernel(None, DEFAULT_DIMS, "ideal").backward_cond
    assert ideal_bcond[:, :, 1, 0, :].sum() > 0.0


def test_tables_from_conditionals_reproduces_direct_run_exactly():
    gibbs = _gibbs(3.0)
    fwd, bwd = _tables(gibbs, ErrorModel(), "physical")
    kernel = measured_kernel(conditional_from_table(fwd), conditional_from_table(bwd))
    fwd2, bwd2 = point_tables(kernel, gibbs)
    assert np.array_equal(fwd.probs, fwd2.probs)
    assert np.array_equal(bwd.probs, bwd2.probs)
    assert bwd2.unlabeled_mass == pytest.approx(bwd.unlabeled_mass, abs=1e-15)


def test_per_point_tables_from_conditionals_match_the_measured_kernel():
    gibbs = _gibbs(-2.0)
    fwd, bwd = _tables(gibbs, ErrorModel(), "physical")
    tables = (conditional_from_table(fwd), conditional_from_table(bwd))
    fwd2, bwd2 = point_tables(measured_kernel(*tables), gibbs)
    fwd3, none = point_tables(measured_kernel(tables[0], None), gibbs)
    assert np.array_equal(fwd2.probs, fwd.probs) and np.array_equal(fwd3.probs, fwd.probs)
    assert np.array_equal(bwd2.probs, bwd.probs)
    assert none is None


# ---------------------------------------------------------------------------
# state oracle


@pytest.mark.parametrize(
    "mode,model",
    [("ideal", None), ("physical", ErrorModel()), ("physical", ErrorModel.single("eps_read"))],
)
def test_final_marginal_agrees_with_full_state_evolution(mode, model):
    gibbs = _gibbs(-2.0)
    kernel = simulated_kernel(model, mode=mode)
    fwd, _ = point_tables(kernel, gibbs)
    (oracle,) = oracle_states(kernel.chain, gibbs, ("final",))
    np.testing.assert_allclose(
        final_state_rows(fwd.probs[None])[0], oracle.probs, rtol=0, atol=1e-13
    )


def test_oracle_initial_stage_physical():
    gibbs = _gibbs(1.0)
    model = ErrorModel()
    (oracle,) = oracle_states(simulated_kernel(model, mode="physical").chain, gibbs, ("initial",))
    # the memory qubit always starts set (every initial atom level carries k=1)
    np.testing.assert_allclose(marginalize(oracle, keep=("demon",)), [0.0, 1.0])
    zeta = _qubit_thermal(gibbs)
    q = marginalize(oracle, keep=("qubit",))
    # e-preparation leaks into g, draining the excited population
    assert q[1] == pytest.approx(zeta[1] * (1 - model.eps_prep), rel=1e-13)


def test_oracle_rejects_unknown_stage():
    with pytest.raises(ValueError):
        oracle_states(simulated_kernel(None).chain, _gibbs(0.0), ("halfway",))


def test_oracle_of_no_stages_is_empty():
    assert oracle_states(simulated_kernel(None).chain, _gibbs(0.0), ()) == ()


def test_oracle_rows_reject_an_unknown_stage_by_name():
    with pytest.raises(ValueError, match="'halfway'"):
        protocol.oracle_rows(
            simulated_kernel(None).chain, np.array([1.0, 2.0]), BETA_C, ("final", "halfway")
        )


def test_oracle_rows_of_no_stages_is_empty():
    assert protocol.oracle_rows(simulated_kernel(None).chain, np.array([1.0]), BETA_C, ()) == ()


@pytest.mark.parametrize("mode,model", [("ideal", None), ("physical", ErrorModel())])
def test_one_oracle_row_is_oracle_states(mode, model):
    gibbs = _gibbs(0.75)
    chain = simulated_kernel(model, mode=mode).chain
    stages = tuple(protocol.STAGES)
    taps = protocol.oracle_rows(chain, np.array([gibbs.beta_qubit]), gibbs.beta_cavity, stages)
    assert len(taps) == len(stages)
    for tap, state in zip(taps, oracle_states(chain, gibbs, stages)):
        assert tap.shape == (1, 2, 2, FULL)
        assert tap[0].tobytes() == state.probs.tobytes()


def test_a_kernel_composes_the_shared_tail_once(monkeypatch):
    # detection after relaxation closes both directions: the chain composes it
    # once, and each direction composes its core and then the run
    calls = []
    original = protocol.compose

    def counted(outer, inner):
        calls.append(1)
        return original(outer, inner)

    monkeypatch.setattr(protocol, "compose", counted)
    kernel = simulated_kernel(ErrorModel(), mode="physical")
    assert len(calls) == 5
    relax, detect = kernel.chain.gates[2:]
    assert kernel.chain.tail.matrix.tobytes() == (detect.matrix @ relax.matrix).tobytes()


# ---------------------------------------------------------------------------
# the one-point wrappers are the kernel path
#
# The benchmark's tracer (perfbench/tracing.py) names fifteen one-point
# functions that no command calls (test_cli checks that).  This test is the
# only one that calls them: each must give, bit for bit, what the kernel path
# gives.


def _same_table(a, b) -> bool:
    return (
        a.probs.tobytes() == b.probs.tobytes()
        and (a.direction, a.gibbs, a.dims) == (b.direction, b.gibbs, b.dims)
        and (a.prior_mass, a.unlabeled_mass, a.demon_reset_prob)
        == (b.prior_mass, b.unlabeled_mass, b.demon_reset_prob)
        and a.conditionals.tobytes() == b.conditionals.tobytes()
    )


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("mode,model", [("ideal", None), ("physical", ErrorModel())])
def test_the_one_point_wrappers_are_the_kernel_path(mode, model):
    gibbs = _gibbs(0.75)
    kernel = simulated_kernel(model, DEFAULT_DIMS, mode)
    fwd, bwd = point_tables(kernel, gibbs)
    cond = protocol.forward_conditionals(model, DEFAULT_DIMS, mode)
    assert cond.tobytes() == kernel.forward_cond.tobytes()
    bcond, reset = protocol.backward_conditionals(model, DEFAULT_DIMS, mode)
    assert bcond.tobytes() == kernel.backward_cond.tobytes()
    assert reset.tobytes() == kernel.backward_reset.tobytes()
    assert _same_table(protocol.forward_table(gibbs, model, DEFAULT_DIMS, mode), fwd)
    assert _same_table(protocol.backward_table(gibbs, model, DEFAULT_DIMS, mode), bwd)
    # a given p(k) weights the branches: the forward table's own gives the same table
    pk = branch_probability(fwd)
    own = protocol.backward_table(gibbs, model, DEFAULT_DIMS, mode, forward_pk=pk)
    assert _same_table(own, bwd)
    pk = np.array([0.25, 0.75])
    other = protocol.backward_table(gibbs, model, DEFAULT_DIMS, mode, forward_pk=pk)
    assert _same_table(other, _point_rows(kernel, gibbs, pk).tables(0)[1])
    assert other.prior_mass != bwd.prior_mass
    tables = (conditional_from_table(fwd), conditional_from_table(bwd))
    expected = point_tables(measured_kernel(*tables), gibbs)
    for new, old in zip(protocol.tables_from_conditionals(*tables, gibbs), expected):
        assert new.probs.tobytes() == old.probs.tobytes()
        assert (new.prior_mass, new.unlabeled_mass) == (old.prior_mass, old.unlabeled_mass)
    for stage in ("initial", "pre_feedback", "post_feedback", "final"):
        (state,) = oracle_states(kernel.chain, gibbs, (stage,))
        new = protocol.oracle_full_state(gibbs, model, DEFAULT_DIMS, mode, stage)
        assert new.probs.tobytes() == state.probs.tobytes()

    # each estimator is its field of evaluate, with and without a floor
    hist = sigma_histogram(fwd, bwd)
    for floor in (None, 1e-12):
        result = evaluate(fwd, bwd, hist, floor)
        forward = evaluate(fwd, None, floor=floor)
        pairs = [
            (entropy.sigma2(fwd, floor), forward.sigma2),
            (entropy.sigma3(fwd, bwd, floor), result.sigma3),
            (entropy.sigma4(fwd, bwd, floor), result.sigma4),
            (entropy.sigma5(hist, floor), result.sigma5),
            (entropy.sigma6(fwd, floor), forward.sigma6),
        ]
        assert [_bits(new) for new, _ in pairs] == [_bits(old) for _, old in pairs]
    assert _bits(entropy.sigma1(fwd)) == _bits(evaluate(fwd, None).sigma1)
    photon_side = evaluate(fwd, None, heat_from_atom=False).sigma1
    assert _bits(entropy.sigma1(fwd, from_atom=False)) == _bits(photon_side)
    # sigma5 reads the histogram it is given, not one of its own
    wide = sigma_histogram(fwd, bwd, tol=100.0)
    assert wide.sigma.size == 1
    assert _bits(entropy.sigma5(wide)) == _bits(evaluate(fwd, bwd, wide).sigma5)
    unmatched = np.argwhere((fwd.probs > 0) & (bwd.probs <= 0)).tolist()
    assert entropy.support_mismatch(fwd, bwd) == tuple(map(tuple, unmatched))
    assert bool(unmatched) == (mode == "physical")

    ident = channels.identity_channel(("a", "b", "c"))
    assert ident.labels == ("a", "b", "c") and ident.matrix.tobytes() == np.eye(3).tobytes()
    assert apply(ident, [0.2, 0.3, 0.5]).tobytes() == np.array([0.2, 0.3, 0.5]).tobytes()
    physical = ENCODINGS["physical"]
    for level in AtomLevel:
        for eps in (0.0, 0.1):
            expected = prepare_register(physical[level], eps, physical)
            assert channels.prepare_atom(level, eps).tobytes() == expected.tobytes()
        default = channels.prepare_atom(level)
        assert default.tobytes() == prepare_register(physical[level], 0.0, physical).tobytes()


def test_rows_made_from_tables_have_no_kernel_to_rebuild_them():
    gibbs = _gibbs(0.75)
    fwd, bwd = point_tables(simulated_kernel(None, DEFAULT_DIMS, "ideal"), gibbs)
    for rows in (TableRows.of(fwd, bwd), TableRows.of(fwd)):
        with pytest.raises(ValueError, match="no kernel"):
            rows.tables(0)


# ---------------------------------------------------------------------------
# sigma histogram


def test_histogram_ideal_mode_obeys_detailed_fluctuation_relation():
    gibbs = _gibbs(2.0)
    fwd, bwd = _tables(gibbs)
    hist = sigma_histogram(fwd, bwd)
    assert hist.sigma.size == 2  # one value per readout branch
    assert hist.p_forward.sum() == pytest.approx(1.0, abs=1e-14)
    residual = np.log(hist.p_forward / hist.p_backward) - hist.sigma
    np.testing.assert_allclose(residual, 0.0, atol=1e-12)


def test_histogram_mean_equals_two_point_average(gibbs_at):
    gibbs = gibbs_at(4.0)
    fwd, bwd = _tables(gibbs)
    hist = sigma_histogram(fwd, bwd)
    sigma1 = evaluate(fwd, None).sigma1
    assert np.dot(hist.sigma, hist.p_forward) == pytest.approx(sigma1, rel=1e-12)


def test_histogram_wide_tolerance_merges_bins():
    gibbs = _gibbs(2.0)
    fwd, bwd = _tables(gibbs)
    hist = sigma_histogram(fwd, bwd, tol=100.0)
    assert hist.sigma.size == 1
    assert hist.p_forward[0] == pytest.approx(1.0, abs=1e-14)


def test_histogram_validation():
    # the constructor is the only check of a histogram: a block's histograms
    # are binned from checked tables and not checked again
    with pytest.raises(ValueError, match="strictly increasing"):
        SigmaHistogram(
            sigma=np.array([1.0, 1.0]),  # not separated
            p_forward=np.array([0.5, 0.5]),
            p_backward=np.array([0.1, 0.1]),
        )
    with pytest.raises(ValueError, match="differs from 1.0"):
        SigmaHistogram(
            sigma=np.array([1.0, 2.0]),
            p_forward=np.array([0.5, 0.4]),  # mass missing
            p_backward=np.array([0.1, 0.1]),
        )
    with pytest.raises(ValueError, match="negative histogram weight"):
        SigmaHistogram(
            sigma=np.array([1.0, 2.0]),
            p_forward=np.array([0.5, 0.5]),
            p_backward=np.array([0.1, -1e-16]),  # below zero, however little
        )
    with pytest.warns(UserWarning, match="sigma histogram forward weight: mass off by 2.00e-07"):
        SigmaHistogram(
            sigma=np.array([1.0, 2.0]),
            p_forward=np.array([0.5, 0.5 - 2e-7]),  # soft: measured input
            p_backward=np.array([0.1, 0.1]),
        )
    # where several checks fail, the last one reports: order, then sign, then mass
    with pytest.raises(ValueError, match="strictly increasing"):
        SigmaHistogram(np.array([1.0, 1.0]), np.array([0.5, 0.4]), np.array([-0.1, 0.1]))
    with pytest.raises(ValueError, match="negative histogram weight"):
        SigmaHistogram(np.array([1.0, 2.0]), np.array([0.5, 0.4]), np.array([-0.1, 0.1]))
    fwd, _ = _tables(_gibbs(0.0))
    with pytest.raises(ValueError):
        sigma_histogram(fwd, fwd)


@pytest.mark.filterwarnings("error")
def test_a_nan_expected_mass_fails_the_mass_check():
    # a NaN deviation once passed both tolerances: the table built without a word
    gibbs = _gibbs(0.75)
    _, bwd = _tables(gibbs, ErrorModel(), "physical")
    with pytest.raises(ValueError, match=r"backward table conservation: mass .* differs from nan"):
        protocol.TrajectoryTable(bwd.probs, "backward", gibbs, bwd.dims, prior_mass=math.nan,
                                 unlabeled_mass=bwd.unlabeled_mass)


#: (config, rows whose bins sort labels, not classes, of all rows)
LABEL_PATH_ROWS = {
    "physical": (RunConfig(mode="physical"), 13, 49),
    "ideal": (RunConfig(), 0, 49),
    "cavity_prep": (RunConfig(mode="physical", single_error="cavity_prep"), 49, 49),
    "dense_physical": (RunConfig(mode="physical", dbeta_step=0.0025), 13, 4801),
}


@pytest.mark.parametrize("case", sorted(LABEL_PATH_ROWS))
def test_only_rows_with_a_bin_of_several_classes_sort_their_labels(monkeypatch, case):
    # a fallback to the label sort everywhere would keep every bit and lose the speed
    config, expected, points = LABEL_PATH_ROWS[case]
    label_rows = []
    label_bins = protocol._label_bins
    monkeypatch.setattr(
        protocol, "_label_bins", lambda labels, tol: label_rows.append(len(labels))
        or label_bins(labels, tol)
    )
    kernel = runner.build_kernel(config)
    grid = config.grid()
    for start in range(0, grid.size, runner.BLOCK_POINTS):
        runner._run_block(kernel, config, grid[start:start + runner.BLOCK_POINTS])
    assert (sum(label_rows), grid.size) == (expected, points)


def test_a_block_bins_its_classes_without_block_sized_temporaries(monkeypatch):
    # 256 dense rows from -3.44, one of which sorts its labels: the class
    # totals gather the support's labels only; a padded or transposed copy of
    # the block, or row copies for the label path, peak near 8 times the
    # forward labels
    config = RunConfig(mode="physical", dbeta_step=0.0025)
    rows = weigh_rows(runner.build_kernel(config), config.beta_cavity, config.grid()[1024:1280])
    check_rows(rows)  # the runner's order: the label arrays exist before binning
    label_rows = []
    label_bins = protocol._label_bins
    monkeypatch.setattr(
        protocol, "_label_bins", lambda labels, tol: label_rows.append(len(labels))
        or label_bins(labels, tol)
    )
    tracemalloc.start()
    try:
        histogram_rows(rows, config.sigma_tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(rows.dbeta), label_rows) == (256, [1])
    assert peak < 3 * rows.forward_labels.nbytes


def test_every_label_of_a_class_has_the_same_sigma():
    class_of, qubit, cavity, k = protocol.label_classes(DEFAULT_DIMS)
    assert class_of.shape == (2 * 2 * INIT * 2 * FULL,) and not class_of.flags.writeable
    labels = np.indices((2, 2, INIT, 2, FULL)).reshape(5, -1)  # n_Q, k, n_C, m_Q, m_C
    np.testing.assert_array_equal(qubit[class_of], labels[3] - labels[0])
    np.testing.assert_array_equal(cavity[class_of], labels[4] - labels[2])
    np.testing.assert_array_equal(k[class_of], labels[1])
    sigma = sigma_grid(_gibbs(0.75), np.array([0.3, 0.7])).ravel()
    for c in range(len(qubit)):
        assert len(set(sigma[class_of == c].tolist())) == 1


# ---------------------------------------------------------------------------
# randomized invariants


@settings(max_examples=25, deadline=None)
@given(
    dbt=st.floats(-6.0, 6.0),
    eps=st.tuples(
        st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.0, 0.3)
    ),
)
def test_random_error_models_conserve_probability(dbt, eps):
    gibbs = _gibbs(dbt)
    model = ErrorModel(eps_prep=eps[0], eps_read=eps[1], eps_feed=eps[2])
    fwd, bwd = _tables(gibbs, model, "physical")
    assert fwd.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert bwd.probs.sum() + bwd.unlabeled_mass == pytest.approx(
        bwd.prior_mass, abs=1e-12
    )

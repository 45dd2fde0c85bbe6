"""The six entropy-production estimators and the fluctuation identities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demon_ep import (
    ErrorModel,
    GibbsSpec,
    backward_table,
    branch_probability,
    cavity_heat,
    evaluate,
    feedback_balance_residual,
    forward_table,
    gibbs_distribution,
    high_bias_asymptote,
    jarzynski_average,
    mean_information,
    oracle_full_state,
    shannon_entropy,
    sigma1,
    sigma2,
    sigma3,
    sigma4,
    sigma5,
    sigma6,
    sigma_histogram,
    support_mismatch,
)

from conftest import BETA_C


def _gibbs(dbt: float) -> GibbsSpec:
    return GibbsSpec.from_dbeta(BETA_C, dbt)


def _tables(dbt: float, model=None, mode="ideal"):
    gibbs = _gibbs(dbt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fwd = forward_table(gibbs, model, mode=mode)
        bwd = backward_table(
            gibbs, model, mode=mode, forward_pk=branch_probability(fwd)
        )
    return fwd, bwd


# ---------------------------------------------------------------------------
# forward-only pieces


def test_mean_information_is_outcome_entropy():
    fwd, _ = _tables(3.0)
    pk = branch_probability(fwd)
    assert mean_information(fwd) == pytest.approx(shannon_entropy(pk), rel=1e-14)


def test_ideal_heat_equals_extraction_probability():
    # each read-1 run moves exactly one quantum into the cavity
    fwd, _ = _tables(6.0)
    pk = branch_probability(fwd)
    assert cavity_heat(fwd) == pytest.approx(pk[1], rel=1e-13)
    assert cavity_heat(fwd, from_atom=True) == pytest.approx(pk[1], rel=1e-13)


def test_heat_sides_agree_when_labels_are_faithful():
    # gate failures change where the quantum goes but never mislabel it, so
    # the atom-side and photon-side accounts stay equal
    model = ErrorModel(
        eps_prep=0.0, confusion=np.eye(3), cavity_prep=np.eye(4, 5)
    )
    fwd, _ = _tables(2.0, model, mode="physical")
    assert cavity_heat(fwd, from_atom=True) == pytest.approx(
        cavity_heat(fwd, from_atom=False), abs=1e-13
    )


def test_heat_sides_differ_when_labels_lie():
    # detection confusion corrupts the recorded final atom level, and the
    # atom-side account is computed from the records
    fwd, _ = _tables(2.0, ErrorModel.single("eps_meas"), mode="physical")
    assert abs(cavity_heat(fwd, from_atom=True) - cavity_heat(fwd)) > 1e-3
    # an atom decaying in flight sheds a quantum the cavity never received
    fwd, _ = _tables(2.0, ErrorModel(relax_atom_prob=0.2), mode="physical")
    assert abs(cavity_heat(fwd, from_atom=True) - cavity_heat(fwd)) > 1e-3


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

"""Thermal states, entropies, and joint-distribution bookkeeping."""

from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demon_ep import (
    DEFAULT_DIMS,
    GibbsSpec,
    JointDistribution,
    RunConfig,
    SystemDims,
    condition,
    extended_gibbs,
    gibbs_distribution,
    marginalize,
    mean_occupation,
    mutual_information,
    relative_entropy,
    run_sweep,
    shannon_entropy,
    statespace,
    sweep_csv_text,
)

import pointwise_reference as reference
from conftest import divergence_rows

# ---------------------------------------------------------------------------
# thermal distributions


def test_gibbs_adjacent_ratio_is_boltzmann_factor():
    beta = 0.7
    w = gibbs_distribution(beta, levels=4)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    for n in range(3):
        assert w[n + 1] / w[n] == pytest.approx(math.exp(-beta), rel=1e-14)


def test_gibbs_closed_form_four_levels():
    # geometric series: w(n) = e^{-beta n} (1 - e^{-beta}) / (1 - e^{-4 beta})
    beta = 1.3
    x = math.exp(-beta)
    z = (1 - x**4) / (1 - x)
    w = gibbs_distribution(beta, levels=4)
    np.testing.assert_allclose(w, [x**n / z for n in range(4)], rtol=1e-14)


def test_gibbs_cold_limit_concentrates_on_ground_state():
    w = gibbs_distribution(50.0, levels=4)
    assert w[0] == pytest.approx(1.0, abs=1e-20)
    assert w[1:].sum() < 1e-20


def test_gibbs_hot_limit_is_nearly_uniform():
    w = gibbs_distribution(1e-9, levels=4)
    np.testing.assert_allclose(w, 0.25, rtol=1e-8)


def test_extended_gibbs_adds_exact_boltzmann_tail():
    beta = 0.8741478455059903
    base = gibbs_distribution(beta, levels=4)
    ext = extended_gibbs(beta, levels_norm=4, levels_total=5)
    np.testing.assert_allclose(ext[:4], base, rtol=1e-15)
    # the added level keeps the same adjacent ratio, so the vector is a pure
    # geometric sequence normalized over the first four entries only
    assert ext[4] / ext[3] == pytest.approx(math.exp(-beta), rel=1e-14)
    x = math.exp(-beta)
    assert ext.sum() == pytest.approx((1 - x**5) / (1 - x**4), rel=1e-14)


def test_mean_occupation_matches_direct_sum():
    beta = 1.1
    w = gibbs_distribution(beta, levels=4)
    assert mean_occupation(w) == pytest.approx(sum(n * w[n] for n in range(4)))


# ---------------------------------------------------------------------------
# entropy functionals


def test_shannon_entropy_uniform_and_deterministic():
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2))
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert shannon_entropy(np.array([0.0, 0.0, 1.0])) == 0.0


@given(
    arrays(
        np.float64,
        st.integers(2, 12),
        elements=st.floats(1e-12, 1.0),
    )
)
def test_shannon_entropy_bounds(raw):
    p = raw / raw.sum()
    h = shannon_entropy(p)
    assert -1e-12 <= h <= math.log(p.size) + 1e-12


@given(
    arrays(np.float64, 8, elements=st.floats(1e-9, 1.0)),
    arrays(np.float64, 8, elements=st.floats(1e-9, 1.0)),
)
def test_relative_entropy_nonnegative_and_faithful(raw_p, raw_q):
    p = raw_p / raw_p.sum()
    q = raw_q / raw_q.sum()
    assert relative_entropy(p, q) >= -1e-12
    assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_infinite_off_support():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([1.0, 0.0, 0.0])
    assert relative_entropy(p, q) == math.inf


def test_relative_entropy_survives_an_overflowing_ratio():
    # p/q overflows to inf for q = 1e-310; the divergence itself is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = relative_entropy(np.array([0.5, 0.5]), np.array([1e-310, 1.0]))
    expected = 0.5 * (math.log(0.5) - math.log(1e-310)) + 0.5 * math.log(0.5)
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(356.2075, abs=1e-4)


def test_relative_entropy_survives_an_underflowing_ratio():
    # p/q underflows to 0 for p = 5e-324, q = 10: the term is tiny, not -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = relative_entropy(np.array([5e-324, 1.0]), np.array([10.0, 1.0]))
    assert math.isfinite(value)
    assert abs(value) < 1e-300


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("floor", [None, 1e-12])
def test_row_divergences_equal_the_logarithm_on_every_row_reference(seed, floor):
    # rows mixing references that vanish on p's support, overflow p/q
    # (q ~ 1e-310), are NaN, are floor-replaced or are ordinary, over several
    # supports of p: only the rows that reach the logarithm changed, not a bit
    rng = np.random.default_rng(seed)
    p = rng.random((97, 12)) * (rng.random((97, 12)) < 0.8)
    p /= p.sum(axis=1, keepdims=True)
    p[0] = 0.0  # an empty support: no columns at all
    q = rng.random((97, 12)) + 1e-3
    kind = rng.integers(0, 6, size=97)
    cols = rng.integers(0, 12, size=(97, 2))
    for r in np.flatnonzero(kind == 1):  # vanishing, on or off p's support
        q[r, cols[r]] = 0.0
    for r in np.flatnonzero(kind == 2):
        q[r, cols[r, 0]] = 1e-310
    for r in np.flatnonzero(kind == 3):
        q[r, cols[r, 0]] = math.nan
    for r in np.flatnonzero(kind == 4):  # a vanishing and a NaN reference in one row
        q[r, cols[r]] = (-0.0, math.nan)
    for r in np.flatnonzero(kind == 5):
        p[r, cols[r, 0]] = 5e-324
    if floor is not None:
        q = np.where((p > 0.0) & (q <= 0.0), floor, q)
    got = statespace.relative_entropy_rows(p, q)
    want = reference.relative_entropy_rows(p, q)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got).any() == (floor is None)
    assert np.isnan(got).any() and np.isfinite(got).any()
    one_by_one = [statespace.relative_entropy_rows(p[r : r + 1], q[r : r + 1]) for r in range(97)]
    assert np.concatenate(one_by_one).tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, 64, 256])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("infinite", [False, True])
def test_row_functions_are_the_support_grouped_ones_bit_for_bit(count, seed, infinite):
    # every row is summed first and only a row whose sum is not finite is looked
    # at again; a one-row call takes a 1-D np.dot.  Both give the bytes of the
    # functions that tested every row's reference first, block by block and row
    # by row, and no RuntimeWarning escapes
    p, q, kind = divergence_rows(np.random.default_rng(seed), count, infinite)
    want = reference.grouped_relative_entropy_rows(p, q)
    want_entropy = reference.grouped_shannon_entropy_rows(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = statespace.relative_entropy_rows(p, q)
        got_entropy = statespace.shannon_entropy_rows(p)
        for r in range(count):
            alone = statespace.relative_entropy_rows(p[r:r + 1], q[r:r + 1])
            assert alone.tobytes() == want[r:r + 1].tobytes()
            alone = statespace.shannon_entropy_rows(p[r:r + 1])
            assert alone.tobytes() == want_entropy[r:r + 1].tobytes()
    assert got.tobytes() == want.tobytes()
    assert got_entropy.tobytes() == want_entropy.tobytes()
    if infinite:
        assert np.isposinf(got).all()
    elif count > 1:  # the draw reaches each outcome, the redone ratios included
        assert np.isposinf(got).any() and np.isnan(got).any()
        assert np.isfinite(got[np.isin(kind, (4, 5))]).any()


def test_relative_entropy_accepts_unnormalized_reference():
    # comparison against a subnormalized measure picks up the log of the
    # missing mass; for q = c * p the divergence is exactly -log c
    p = np.array([0.25, 0.75])
    assert relative_entropy(p, 0.5 * p) == pytest.approx(math.log(2), rel=1e-14)


# ---------------------------------------------------------------------------
# system dimensions and bias bookkeeping


def test_default_dims_shape():
    assert DEFAULT_DIMS.joint_shape == (2, 2, 5)
    assert DEFAULT_DIMS.dim_cavity_full == DEFAULT_DIMS.dim_cavity_init + 1


def test_dims_require_room_for_one_photon():
    with pytest.raises(ValueError):
        SystemDims(dim_cavity_init=4, dim_cavity_full=4)


@pytest.mark.parametrize("init, full", [(4, 3), (2, 2), (6, 5)])
def test_dims_reject_an_evolved_space_no_larger_than_the_initial_one(init, full):
    with pytest.raises(ValueError, match="exceed the initial truncation"):
        SystemDims(dim_cavity_init=init, dim_cavity_full=full)


@pytest.mark.parametrize("init, full, name", [
    (4.0, 5.0, "dim_cavity_init"), (4, 5.0, "dim_cavity_full"), (True, 5, "dim_cavity_init"),
    (4, np.True_, "dim_cavity_full"), ("4", 5, "dim_cavity_init"),
])
def test_dims_reject_a_non_integer_level_count(init, full, name):
    # a float count built, and a sweep over it failed inside numpy with a TypeError
    with pytest.raises(ValueError, match=rf"\A{name} must be an integer, got "):
        SystemDims(dim_cavity_init=init, dim_cavity_full=full)


def test_dims_accept_numpy_integers():
    dims = SystemDims(np.int64(4), np.int32(5))
    assert dims == DEFAULT_DIMS and hash(dims) == hash(DEFAULT_DIMS)
    config = RunConfig(mode="physical", dbeta_start=-1.0, dbeta_stop=1.0, dbeta_step=0.5)
    assert sweep_csv_text(run_sweep(config, dims)) == sweep_csv_text(run_sweep(config))


def test_dims_hold_only_the_cavity_truncations():
    # qubit and memory are two-level by construction, not settable
    assert [item.name for item in dataclasses.fields(SystemDims)] == [
        "dim_cavity_init", "dim_cavity_full"
    ]
    assert SystemDims(dim_cavity_init=6, dim_cavity_full=8).joint_shape == (2, 2, 8)


def test_gibbs_spec_from_dbeta_roundtrip(beta_c):
    for dbt in (-6.0, -0.25, 0.0, 3.5, 6.0):
        spec = GibbsSpec.from_dbeta(beta_c, dbt)
        assert spec.dbeta_tilde == pytest.approx(dbt, abs=1e-12)
        assert spec.delta_beta == pytest.approx(dbt * beta_c, rel=1e-12, abs=1e-12)
        assert spec.beta_qubit == pytest.approx(beta_c - dbt * beta_c, rel=1e-12)


def test_gibbs_spec_derives_the_bias_from_both_temperatures():
    spec = GibbsSpec(0.5, 2.0)  # no dbeta_tilde: 1 - beta_Q / beta_C
    assert spec.dbeta_tilde == 0.75
    assert spec == GibbsSpec.from_dbeta(2.0, 0.75)
    assert GibbsSpec(-1.0, 0.5).dbeta_tilde == 3.0  # population inversion


def test_gibbs_spec_rejects_nonpositive_cavity_temperature():
    with pytest.raises(ValueError):
        GibbsSpec.from_dbeta(0.0, 1.0)
    with pytest.raises(ValueError):
        GibbsSpec.from_dbeta(-0.5, 1.0)


def test_gibbs_spec_rejects_inconsistent_bias():
    with pytest.raises(ValueError):
        GibbsSpec(beta_qubit=1.0, beta_cavity=1.0, dbeta_tilde=3.0)


@pytest.mark.parametrize("make, message", [
    (lambda: GibbsSpec(math.nan, 1.0, 0.0), "beta_qubit must be finite, got nan"),
    (lambda: GibbsSpec(math.nan, 1.0), "beta_qubit must be finite, got nan"),
    (lambda: GibbsSpec(-math.inf, 1.0), "beta_qubit must be finite, got -inf"),
    # inf > inf is false: the consistency test let these through
    (lambda: GibbsSpec(1.0, 1.0, dbeta_tilde=math.inf), "dbeta_tilde must be finite, got inf"),
    (lambda: GibbsSpec.from_dbeta(1.0, math.inf), "dbeta_tilde must be finite, got inf"),
    (lambda: GibbsSpec.from_dbeta(1.0, -math.inf), "dbeta_tilde must be finite, got -inf"),
    # 1 - beta_qubit / beta_cavity overflows
    (lambda: GibbsSpec(1e300, 1e-10), "dbeta_tilde must be finite, got -inf"),
    (lambda: GibbsSpec(1.0, math.inf), "cavity inverse temperature must be positive and finite"),
], ids=["nan_qubit", "nan_qubit_derived", "inf_qubit", "inf_dbeta", "from_inf_dbeta",
        "from_minus_inf_dbeta", "overflowing_dbeta", "inf_cavity"])
def test_gibbs_spec_rejects_non_finite_temperatures_by_name(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


# ---------------------------------------------------------------------------
# joint distributions


def _random_joint(rng) -> JointDistribution:
    raw = rng.random(DEFAULT_DIMS.joint_shape)
    return JointDistribution(DEFAULT_DIMS, raw / raw.sum())


def test_joint_distribution_requires_normalization():
    raw = np.full(DEFAULT_DIMS.joint_shape, 0.5)
    with pytest.raises(ValueError):
        JointDistribution(DEFAULT_DIMS, raw)


def test_joint_distribution_rejects_non_finite_entries():
    probs = np.zeros(DEFAULT_DIMS.joint_shape)
    probs[0, 0, 0] = 1.0
    probs[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        JointDistribution(DEFAULT_DIMS, probs)


def test_marginalize_preserves_mass_and_shape():
    joint = _random_joint(np.random.default_rng(7))
    m = marginalize(joint, keep=("qubit",))
    assert m.shape == (2,)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    md = marginalize(joint, keep=("qubit", "demon"))
    assert md.shape == (2, 2)
    np.testing.assert_allclose(md.sum(axis=1), m, rtol=1e-13)


def test_condition_obeys_chain_rule():
    joint = _random_joint(np.random.default_rng(11))
    dist, prob = condition(joint, on={"demon": 1})
    assert prob == pytest.approx(marginalize(joint, keep=("demon",))[1], rel=1e-13)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    # p(q, c | d=1) * p(d=1) recovers the joint slice
    slice_ = joint.probs[:, 1]
    np.testing.assert_allclose(dist * prob, slice_, rtol=1e-12, atol=1e-16)


def test_condition_on_impossible_event_returns_zero_mass():
    probs = np.zeros(DEFAULT_DIMS.joint_shape)
    probs[0, 0, 0] = 1.0
    joint = JointDistribution(DEFAULT_DIMS, probs)
    dist, prob = condition(joint, on={"demon": 1})
    assert prob == 0.0
    assert np.all(dist == 0.0)


def test_mutual_information_zero_for_product_state():
    rng = np.random.default_rng(3)
    a = rng.random(2)
    a /= a.sum()
    b = rng.random((2, 5))
    b /= b.sum()
    joint = JointDistribution(DEFAULT_DIMS, np.einsum("q,dc->qdc", a, b))
    assert mutual_information(joint, cut=("qubit",)) == pytest.approx(0.0, abs=1e-13)


def test_mutual_information_perfect_correlation():
    # qubit and memory perfectly correlated, cavity thermal and independent
    w = gibbs_distribution(1.0, levels=5)
    probs = np.zeros((2, 2, 5))
    probs[0, 0] = 0.5 * w
    probs[1, 1] = 0.5 * w
    joint = JointDistribution(DEFAULT_DIMS, probs)
    assert mutual_information(joint, cut=("qubit",)) == pytest.approx(
        math.log(2), rel=1e-13
    )
    assert mutual_information(joint, cut=("qubit", "cavity")) == pytest.approx(
        math.log(2), rel=1e-13
    )


@settings(max_examples=40)
@given(arrays(np.float64, (2, 2, 5), elements=st.floats(1e-9, 1.0)))
def test_mutual_information_nonnegative_and_cut_symmetric(raw):
    joint = JointDistribution(DEFAULT_DIMS, raw / raw.sum())
    mi = mutual_information(joint, cut=("qubit",))
    assert mi >= -1e-12
    # the complement cut describes the same bipartition
    assert mutual_information(joint, cut=("demon", "cavity")) == pytest.approx(
        mi, abs=1e-11
    )


# ---------------------------------------------------------------------------
# numpy's pairwise sum, one add per step over every run


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 10, 16, 20, 40, 128, 129, 220, 300])
def test_pairwise_sum_is_numpys_sum_of_a_contiguous_run(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-12, 12, (6, n))
    x[rng.random((6, n)) < 0.2] = -0.0
    x[0] = -0.0  # a run of -0.0 sums to 0.0 from numpy's zero start
    total = statespace._pairwise_sum(np.moveaxis(x, -1, 0))
    assert total.tobytes() == x.sum(axis=-1).tobytes()
    assert not np.signbit(total[0])

"""Atom encoding, stochastic gates, and the error model."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from demon_ep import (
    DEFAULT_DIMS,
    ENCODINGS,
    ERROR_CHANNELS,
    AtomLevel,
    ErrorModel,
    StochasticChannel,
    apply,
    compose,
    detection_channel,
    feedback_channel,
    prepare_cavity,
    prepare_register,
    readout_channel,
    register_channel,
    relaxation_channel,
    time_reverse,
    two_atom_probability,
)
from demon_ep.channels import physical_labels

FULL = DEFAULT_DIMS.dim_cavity_full


# ---------------------------------------------------------------------------
# atom encoding


def test_atom_levels_carry_qubit_and_memory_bits():
    physical = ENCODINGS["physical"]
    assert physical[AtomLevel.E] == (1, 1)
    assert physical[AtomLevel.G] == (0, 1)
    assert physical[AtomLevel.F] == (0, 0)
    assert (1, 0) not in physical  # no atomic level encodes an excited qubit with k=0


# ---------------------------------------------------------------------------
# channel algebra


def test_channel_rejects_unnormalized_columns():
    with pytest.raises(ValueError):
        StochasticChannel(np.array([[0.5, 0.0], [0.4, 1.0]]), ("a", "b"))


def test_channel_rejects_negative_entries():
    with pytest.raises(ValueError):
        StochasticChannel(np.array([[1.2, 0.0], [-0.2, 1.0]]), ("a", "b"))


def test_channel_rejects_label_mismatch():
    with pytest.raises(ValueError):
        StochasticChannel(np.eye(3), ("a", "b"))


def test_compose_applies_inner_first():
    flip = StochasticChannel(np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"))
    decay = StochasticChannel(np.array([[1.0, 0.3], [0.0, 0.7]]), ("a", "b"))
    both = compose(decay, flip)  # flip, then decay
    np.testing.assert_allclose(apply(both, [1.0, 0.0]), [0.3, 0.7])
    np.testing.assert_allclose(apply(both, [0.0, 1.0]), [1.0, 0.0])


def test_compose_requires_matching_bases():
    with pytest.raises(ValueError):
        compose(
            StochasticChannel(np.eye(2), ("a", "b")),
            StochasticChannel(np.eye(2), ("x", "y")),
        )


def test_time_reverse_inverts_permutations():
    fb = feedback_channel(0.0)
    undo = compose(time_reverse(fb), fb)
    np.testing.assert_allclose(undo.matrix, np.eye(fb.dim), atol=1e-12)


def test_time_reverse_refuses_noisy_channels():
    with pytest.raises(ValueError):
        time_reverse(feedback_channel(0.25))


# ---------------------------------------------------------------------------
# preparations


def test_prepare_atom_only_upper_level_is_imperfect():
    physical = ENCODINGS["physical"]
    for level, expected in ((AtomLevel.E, [0.9, 0.1, 0.0]), (AtomLevel.G, [0.0, 1.0, 0.0]),
                            (AtomLevel.F, [0.0, 0.0, 1.0])):
        np.testing.assert_allclose(prepare_register(physical[level], 0.1, physical), expected)


def test_prepare_cavity_uses_impurity_table():
    model = ErrorModel()
    np.testing.assert_allclose(prepare_cavity(0, model), [1, 0, 0, 0, 0])
    np.testing.assert_allclose(prepare_cavity(1, model), [0.08, 0.76, 0.16, 0, 0])
    np.testing.assert_allclose(prepare_cavity(3, model), [0, 0, 0.17, 0.73, 0.10])


def test_prepare_cavity_targets_beyond_table_are_exact():
    # the topmost evolved level has no measured impurity row
    out = prepare_cavity(4, ErrorModel())
    np.testing.assert_allclose(out, [0, 0, 0, 0, 1])


def test_prepare_register_adds_an_exact_spectator_level():
    ideal = ENCODINGS["ideal"]
    np.testing.assert_allclose(prepare_register((1, 1), 0.1, ideal), [0.9, 0.1, 0, 0])
    np.testing.assert_allclose(prepare_register((0, 0), 0.1, ideal), [0, 0, 1, 0])
    np.testing.assert_allclose(prepare_register((1, 0), 0.1, ideal), [0, 0, 0, 1])
    np.testing.assert_allclose(
        prepare_register((1, 1), 0.1, ENCODINGS["physical"]), [0.9, 0.1, 0]
    )


def test_prepare_cavity_range_check():
    with pytest.raises(ValueError):
        prepare_cavity(5, ErrorModel())


# ---------------------------------------------------------------------------
# protocol gates


def _atom_state(level: AtomLevel, n: int) -> np.ndarray:
    state = np.zeros(3 * FULL)
    state[int(level) * FULL + n] = 1.0
    return state


def _decode(dist: np.ndarray) -> dict:
    labels = physical_labels(DEFAULT_DIMS)
    return {lab: p for lab, p in zip(labels, dist) if p > 1e-15}


def test_readout_pulse_swaps_g_and_f():
    pulse = readout_channel(0.0)
    assert _decode(apply(pulse, _atom_state(AtomLevel.G, 2))) == {
        (AtomLevel.F, 2): 1.0
    }
    assert _decode(apply(pulse, _atom_state(AtomLevel.F, 2))) == {
        (AtomLevel.G, 2): 1.0
    }
    assert _decode(apply(pulse, _atom_state(AtomLevel.E, 2))) == {
        (AtomLevel.E, 2): 1.0
    }


def test_readout_pulse_failure_branch():
    pulse = readout_channel(0.11)
    out = _decode(apply(pulse, _atom_state(AtomLevel.G, 0)))
    assert out[(AtomLevel.F, 0)] == pytest.approx(0.89)
    assert out[(AtomLevel.G, 0)] == pytest.approx(0.11)


def test_readout_pulse_is_an_involution():
    pulse = readout_channel(0.0)
    np.testing.assert_allclose(
        compose(pulse, pulse).matrix, np.eye(pulse.dim), atol=1e-12
    )


def _logical(gate):
    """Outcomes of a register gate from logical label (n_Q, n_D, n_C)."""
    idx = {lab: i for i, lab in enumerate(gate.labels)}

    def out_of(q, d, n):
        col = gate.matrix[:, idx[((q, d), n)]]
        return {(*gate.labels[i][0], gate.labels[i][1]): p
                for i, p in enumerate(col) if p > 1e-15}

    return out_of


def test_abstract_readout_writes_qubit_into_memory():
    # on the 4-level ideal register the memory bit flips iff the qubit is
    # down; starting from k=1 this implements k <- n_Q
    out_of = _logical(register_channel(readout_channel(0.0), ENCODINGS["ideal"]))
    assert out_of(0, 1, 2) == {(0, 0, 2): 1.0}
    assert out_of(0, 0, 2) == {(0, 1, 2): 1.0}
    assert out_of(1, 1, 2) == {(1, 1, 2): 1.0}
    assert out_of(1, 0, 2) == {(1, 0, 2): 1.0}


def test_feedback_exchanges_excitation_with_cavity():
    fb = feedback_channel(0.0)
    assert _decode(apply(fb, _atom_state(AtomLevel.E, 1))) == {(AtomLevel.G, 2): 1.0}
    assert _decode(apply(fb, _atom_state(AtomLevel.G, 2))) == {(AtomLevel.E, 1): 1.0}
    # no photon to absorb: g,0 is dark
    assert _decode(apply(fb, _atom_state(AtomLevel.G, 0))) == {(AtomLevel.G, 0): 1.0}
    # f does not couple to the cavity mode
    assert _decode(apply(fb, _atom_state(AtomLevel.F, 3))) == {(AtomLevel.F, 3): 1.0}
    # truncation: e at the top of the kept ladder has nowhere to deposit
    assert _decode(apply(fb, _atom_state(AtomLevel.E, FULL - 1))) == {
        (AtomLevel.E, FULL - 1): 1.0
    }


def test_feedback_failure_acts_as_identity():
    fb = feedback_channel(0.03)
    out = _decode(apply(fb, _atom_state(AtomLevel.E, 0)))
    assert out[(AtomLevel.G, 1)] == pytest.approx(0.97)
    assert out[(AtomLevel.E, 0)] == pytest.approx(0.03)


def test_abstract_feedback_acts_only_when_memory_set():
    out_of = _logical(register_channel(feedback_channel(0.0), ENCODINGS["ideal"]))
    assert out_of(1, 1, 0) == {(0, 1, 1): 1.0}
    assert out_of(0, 1, 1) == {(1, 1, 0): 1.0}
    assert out_of(1, 0, 0) == {(1, 0, 0): 1.0}  # memory clear: no exchange
    assert out_of(0, 1, 0) == {(0, 1, 0): 1.0}  # nothing to emit into


def test_detection_with_exact_confusion_is_identity():
    det = detection_channel(np.eye(3))
    np.testing.assert_allclose(det.matrix, np.eye(det.dim))


def test_detection_applies_confusion_per_true_level():
    det = detection_channel(ErrorModel().confusion)
    out = _decode(apply(det, _atom_state(AtomLevel.G, 1)))
    assert out[(AtomLevel.E, 1)] == pytest.approx(0.05)
    assert out[(AtomLevel.G, 1)] == pytest.approx(0.93)
    assert out[(AtomLevel.F, 1)] == pytest.approx(0.02)


def test_relaxation_moves_one_step_down():
    model = ErrorModel(relax_atom_prob=0.2, relax_cavity_prob=0.1)
    relax = relaxation_channel(model)
    out = _decode(apply(relax, _atom_state(AtomLevel.E, 2)))
    # atom branch: e stays (0.8) or decays to g (0.2); cavity: 2 -> 1 at 2*0.1
    assert out[(AtomLevel.E, 2)] == pytest.approx(0.8 * 0.8)
    assert out[(AtomLevel.E, 1)] == pytest.approx(0.8 * 0.2)
    assert out[(AtomLevel.G, 2)] == pytest.approx(0.2 * 0.8)
    assert out[(AtomLevel.G, 1)] == pytest.approx(0.2 * 0.2)
    # f is the atomic ground state here: nothing below it
    out_f = _decode(apply(relax, _atom_state(AtomLevel.F, 0)))
    assert out_f == {(AtomLevel.F, 0): 1.0}


def test_relaxation_rate_saturates():
    model = ErrorModel(relax_cavity_prob=0.6)
    relax = relaxation_channel(model)
    out = _decode(apply(relax, _atom_state(AtomLevel.F, 2)))
    # 2 * 0.6 caps at probability one: the photon always leaks
    assert out == {(AtomLevel.F, 1): 1.0}


# ---------------------------------------------------------------------------
# error model


def test_error_model_defaults():
    m = ErrorModel()
    assert (m.eps_prep, m.eps_read, m.eps_feed) == (0.1, 0.11, 0.03)
    assert (m.nbar_atoms, m.detect_eff) == (0.22, 0.5)
    np.testing.assert_allclose(m.confusion[:, 0], [0.98, 0.02, 0.0])
    np.testing.assert_allclose(m.confusion[:, 1], [0.05, 0.93, 0.02])
    np.testing.assert_allclose(m.confusion[:, 2], [0.01, 0.05, 0.94])
    assert m.cavity_prep.shape == (4, 5)
    assert not m.is_ideal


def test_error_model_ideal_clears_everything():
    m = ErrorModel.ideal()
    assert m.is_ideal
    assert m.eps_prep == m.eps_read == m.eps_feed == 0.0
    np.testing.assert_array_equal(m.confusion, np.eye(3))
    # diagnostic parameters survive; they do not affect the dynamics
    assert m.nbar_atoms == 0.22


@pytest.mark.parametrize(
    "name", ["eps_prep", "eps_read", "eps_feed", "eps_meas",
             "cavity_prep", "relax_atom", "relax_cavity"]
)
def test_single_error_isolation(name):
    m = ErrorModel.single(name)
    scalar_names = {"eps_prep", "eps_read", "eps_feed"}
    for other in scalar_names - {name}:
        assert getattr(m, other) == 0.0
    if name in scalar_names:
        assert getattr(m, name) == getattr(ErrorModel(), name)
    if name == "eps_meas":
        np.testing.assert_allclose(m.confusion, ErrorModel().confusion)
    else:
        np.testing.assert_array_equal(m.confusion, np.eye(3))
    if name == "cavity_prep":
        np.testing.assert_allclose(m.cavity_prep, ErrorModel().cavity_prep)
    else:
        np.testing.assert_array_equal(m.cavity_prep, np.eye(4, 5))


def test_error_channels_cover_every_error_model_field():
    # every field is one error channel, except the two-atom diagnostic's two
    fields = {item.name for item in dataclasses.fields(ErrorModel)}
    assert fields == set(ERROR_CHANNELS.values()) | {"nbar_atoms", "detect_eff"}
    assert len(set(ERROR_CHANNELS.values())) == len(ERROR_CHANNELS)


@pytest.mark.parametrize("name", sorted(ERROR_CHANNELS))
def test_single_error_keeps_only_its_own_field(name):
    base = ErrorModel(relax_atom_prob=0.05, relax_cavity_prob=0.01, nbar_atoms=0.3)
    single = ErrorModel.single(name, base=base)
    assert not single.is_ideal
    assert single.nbar_atoms == 0.3
    for other in ERROR_CHANNELS.values():
        kept = np.array_equal(getattr(single, other), getattr(base, other))
        assert kept == (other == ERROR_CHANNELS[name]), other


def test_single_error_rejects_unknown_channel():
    with pytest.raises(ValueError):
        ErrorModel.single("eps_typo")


def test_error_model_validates_probabilities():
    with pytest.raises(ValueError):
        ErrorModel(eps_read=1.4)
    with pytest.raises(ValueError):
        ErrorModel(confusion=np.full((3, 3), 0.5))


def _with_nan(matrix: np.ndarray, index) -> np.ndarray:
    out = matrix.copy()
    out[index] = math.nan
    return out


@pytest.mark.parametrize(
    "field, value",
    [
        ("nbar_atoms", math.nan),
        ("nbar_atoms", math.inf),
        ("confusion", _with_nan(ErrorModel().confusion, (1, 0))),
        ("cavity_prep", _with_nan(ErrorModel().cavity_prep, (1, 2))),
    ],
    ids=["nbar_atoms-nan", "nbar_atoms-inf", "confusion-nan", "cavity_prep-nan"],
)
def test_error_model_rejects_non_finite_values(field, value):
    # NaN fails no "< 0" or "> tol" comparison, so each check must be
    # written as the condition that holds for valid input
    with pytest.raises(ValueError, match=field):
        ErrorModel(**{field: value})


def test_error_model_is_frozen():
    with pytest.raises(AttributeError):
        ErrorModel().eps_read = 0.5


# ---------------------------------------------------------------------------
# two-atom diagnostic


def test_two_atom_probability_closed_form():
    # with 50% detection the single-vs-double odds reduce to
    # (nbar/2) : 1, i.e. p = (nbar/2) / (1 + nbar/2) = 11/111 for nbar = 0.22
    assert two_atom_probability(0.22, 0.5) == pytest.approx(11.0 / 111.0, rel=1e-12)
    assert two_atom_probability(0.22, 0.5) == pytest.approx(0.099099, abs=1e-6)


def test_two_atom_probability_vanishes_at_unit_efficiency():
    assert two_atom_probability(0.22, 1.0) == 0.0
    assert two_atom_probability(0.0, 0.5) == 0.0


@pytest.mark.parametrize(
    "nbar, eff, expected",
    [
        (800.0, 0.5, 0.997506234413965),  # e^-nbar underflowed, and the ratio read 0
        (1e200, 0.5, None),  # nbar**2 overflowed
        (1e200, 0.0, 0.0),  # no detection
        (0.0, 0.5, 0.0),  # no atom
    ],
)
def test_two_atom_probability_at_large_and_vanishing_atom_numbers(nbar, eff, expected):
    p = two_atom_probability(nbar, eff)
    if expected is None:
        assert math.isfinite(p) and 0.0 <= p <= 1.0
    else:
        assert p == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nbar", [math.inf, math.nan])
def test_two_atom_probability_rejects_a_non_finite_atom_number(nbar):
    with pytest.raises(ValueError, match="finite nbar"):
        two_atom_probability(nbar, 0.5)


def test_simulate_reports_a_finite_two_atom_probability_at_a_huge_atom_number(tmp_path, capsys):
    from demon_ep import cli

    config = tmp_path / "atoms.conf"
    config.write_text("mode = physical\nnbar_atoms = 1e200\n")
    assert cli.main(["simulate", "--config", str(config), "--dbeta", "0"]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "two-atom" in line]
    assert math.isfinite(float(line.split()[3]))

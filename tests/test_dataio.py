"""ASCII table I/O, CSV output, and run configuration."""

from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demon_ep import (
    ConditionalTable,
    ErrorModel,
    GibbsSpec,
    RunConfig,
    backward_table,
    branch_probability,
    conditional_from_table,
    forward_table,
    kelvin_to_beta_omega,
    load_config,
    measured_kernel,
    parse_table,
    point_tables,
    serialize_table,
    sweep_csv_text,
    write_table,
)
from demon_ep.dataio import BOLTZMANN_CONSTANT, MAX_GRID_POINTS, PLANCK_CONSTANT

from conftest import BETA_C

HEADER = "dbeta_tilde,sigma1,sigma2,sigma3,sigma4,sigma5,sigma6,heat_C,mean_info,flags"


# ---------------------------------------------------------------------------
# unit conversion


def test_beta_omega_from_operating_point():
    beta = kelvin_to_beta_omega(2.8, 51.0)
    assert beta == pytest.approx(
        PLANCK_CONSTANT * 51e9 / (BOLTZMANN_CONSTANT * 2.8), rel=1e-15
    )
    assert beta == pytest.approx(0.8741478455059903, rel=1e-14)


def test_beta_omega_scales_linearly():
    one = kelvin_to_beta_omega(2.8, 51.0)
    assert kelvin_to_beta_omega(2.8, 102.0) == pytest.approx(2 * one, rel=1e-14)
    assert kelvin_to_beta_omega(5.6, 51.0) == pytest.approx(one / 2, rel=1e-14)


def test_beta_omega_rejects_nonpositive_inputs():
    # and inputs whose k_B T, frequency in Hz or beta*omega leave the float range
    for kelvin, ghz in ((0.0, 51.0), (2.8, -1.0), (1e-310, 51.0), (2.8, 1e300), (1e-300, 1e290)):
        with pytest.raises(ValueError):
            kelvin_to_beta_omega(kelvin, ghz)


def test_beta_omega_keeps_the_division_order():
    # the range checks sit around the one division; valid inputs keep their bits
    for kelvin, ghz in ((2.8, 51.0), (0.05, 7.3), (300.0, 1e-3)):
        expected = PLANCK_CONSTANT * ghz * 1e9 / (BOLTZMANN_CONSTANT * kelvin)
        assert kelvin_to_beta_omega(kelvin, ghz) == expected


# ---------------------------------------------------------------------------
# conditional tables


def _small_table(values) -> ConditionalTable:
    return ConditionalTable(
        row_labels=((0, 0), (0, 1)),
        col_labels=((0, 0, 0), (0, 1, 0), (1, 1, 1)),
        values=np.asarray(values),
        orientation="forward-rows-initial",
    )


def test_table_accepts_exact_rows():
    table = _small_table([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    assert table.values.shape == (2, 3)


def test_table_warns_on_small_deficit():
    with pytest.warns(UserWarning, match="sums off by"):
        _small_table([[0.2, 0.3, 0.5 - 5e-5], [1.0, 0.0, 0.0]])


def test_table_rejects_large_deficit():
    with pytest.raises(ValueError, match="not stochastic"):
        _small_table([[0.2, 0.3, 0.1], [1.0, 0.0, 0.0]])


def test_table_rejects_non_finite_entries():
    # NaN fails every comparison, so range and sum checks alone let it through
    with pytest.raises(ValueError, match="finite"):
        _small_table([[np.nan, 0.5, 0.5], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        _small_table([[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_table_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        ConditionalTable(
            row_labels=((0, 0), (0, 0)),
            col_labels=((0, 0, 0), (0, 1, 0), (1, 1, 1)),
            values=np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            orientation="forward-rows-initial",
        )


def test_table_rejects_wrong_label_rank():
    with pytest.raises(ValueError, match="entries"):
        ConditionalTable(
            row_labels=((0, 0, 0), (0, 1, 0)),
            col_labels=((0, 0, 0), (0, 1, 0), (1, 1, 1)),
            values=np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            orientation="forward-rows-initial",
        )


def test_backward_orientation_normalizes_columns():
    # backward tables list final states as rows, so the per-start-state
    # normalization runs down the columns
    ConditionalTable(
        row_labels=((0, 0), (1, 0)),
        col_labels=((0, 0, 0), (0, 1, 0)),
        values=np.array([[0.4, 1.0], [0.6, 0.0]]),
        orientation="backward-rows-final",
    )
    with pytest.raises(ValueError):
        ConditionalTable(
            row_labels=((0, 0), (1, 0)),
            col_labels=((0, 0, 0), (0, 1, 0)),
            values=np.array([[0.4, 1.0], [0.4, 0.0]]),
            orientation="backward-rows-final",
        )


# ---------------------------------------------------------------------------
# parsing


SAMPLE = """\
# comment line, then a blank line

state (0,0,0) (0,1,0) (1,1,1)
(0,0) 0.25 0.25 0.5   # trailing comment? no: values only
(0,1) 1 0 0
"""


def test_parse_table_happy_path(tmp_path):
    # the corner token in the header line is optional decoration
    path = tmp_path / "table.txt"
    path.write_text(SAMPLE.replace("   # trailing comment? no: values only", ""))
    table = parse_table(path, "forward-rows-initial")
    assert table.row_labels == ((0, 0), (0, 1))
    assert table.col_labels == ((0, 0, 0), (0, 1, 0), (1, 1, 1))
    np.testing.assert_allclose(table.values, [[0.25, 0.25, 0.5], [1, 0, 0]])


def test_parse_table_accepts_file_objects():
    text = "state (0,0,0) (0,1,0)\n(0,0) 0.5 0.5\n"
    table = parse_table(io.StringIO(text), "forward-rows-initial")
    assert table.values.shape == (1, 2)


def test_parse_table_without_corner_token():
    text = "(0,0,0) (0,1,0)\n(0,0) 0.5 0.5\n"
    table = parse_table(io.StringIO(text), "forward-rows-initial")
    assert table.col_labels == ((0, 0, 0), (0, 1, 0))


def test_parse_table_clamps_tiny_excursions():
    text = "state (0,0,0) (0,1,0)\n(0,0) 1.0000000001 -1e-10\n"
    with pytest.warns(UserWarning, match="clamping"):
        table = parse_table(io.StringIO(text), "forward-rows-initial")
    assert table.values[0, 0] == 1.0
    assert table.values[0, 1] == 0.0


def test_parse_table_rejects_real_negatives():
    text = "state (0,0,0) (0,1,0)\n(0,0) 1.2 -0.2\n"
    with pytest.raises(ValueError):
        parse_table(io.StringIO(text), "forward-rows-initial")


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf"])
def test_parse_table_rejects_non_finite_values(token):
    # max(0.0, nan) is 0.0: clamping used to read NaN as a zero probability
    text = f"state (0,0,0) (0,1,0)\n(0,0) {token} 1\n"
    with pytest.raises(ValueError, match=r"non-finite .* row \(0, 0\), column \(0, 0, 0\)"):
        parse_table(io.StringIO(text), "forward-rows-initial")


def test_parse_table_rejects_malformed_labels():
    text = "state (0,0,0) bogus\n(0,0) 0.5 0.5\n"
    with pytest.raises(ValueError, match="label"):
        parse_table(io.StringIO(text), "forward-rows-initial")


def test_parse_table_rejects_ragged_rows():
    text = "state (0,0,0) (0,1,0)\n(0,0) 0.5\n"
    with pytest.raises(ValueError):
        parse_table(io.StringIO(text), "forward-rows-initial")


# ---------------------------------------------------------------------------
# serialization round trips


def test_serialize_parse_round_trip_exact():
    table = _small_table([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    text = serialize_table(table, comment="round trip")
    back = parse_table(io.StringIO(text), "forward-rows-initial")
    assert back.row_labels == table.row_labels
    assert back.col_labels == table.col_labels
    assert np.array_equal(back.values, table.values)


@settings(max_examples=30, deadline=None)
@given(
    raw=st.lists(
        st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3),
        min_size=2,
        max_size=2,
    )
)
def test_serialize_survives_arbitrary_doubles(raw):
    rows = np.array(raw)
    rows /= rows.sum(axis=1, keepdims=True)
    table = _small_table(rows)
    back = parse_table(io.StringIO(serialize_table(table)), "forward-rows-initial")
    # %.17g prints doubles losslessly, so equality is bitwise
    assert np.array_equal(back.values, table.values)


def test_simulated_tables_round_trip_through_text(tmp_path):
    gibbs = GibbsSpec.from_dbeta(BETA_C, 1.75)
    model = ErrorModel()
    fwd = forward_table(gibbs, model, mode="physical")
    bwd = backward_table(gibbs, model, mode="physical", forward_pk=branch_probability(fwd))
    write_table(conditional_from_table(fwd), tmp_path / "f.txt")
    write_table(conditional_from_table(bwd), tmp_path / "b.txt")
    kernel = measured_kernel(
        parse_table(tmp_path / "f.txt", "forward-rows-initial"),
        parse_table(tmp_path / "b.txt", "backward-rows-final"),
    )
    fwd2, bwd2 = point_tables(kernel, gibbs)
    assert np.array_equal(fwd.probs, fwd2.probs)
    assert np.array_equal(bwd.probs, bwd2.probs)


def test_conditional_view_needs_the_tables_conditionals():
    fwd = forward_table(GibbsSpec.from_dbeta(BETA_C, 0.0), mode="ideal")
    bare = dataclasses.replace(fwd, conditionals=None)
    with pytest.raises(ValueError, match="no conditionals"):
        conditional_from_table(bare)


def test_table_grid_round_trip_keeps_labels_and_values():
    fwd = forward_table(GibbsSpec.from_dbeta(BETA_C, 0.0), ErrorModel(), mode="physical")
    table = conditional_from_table(fwd)
    again = ConditionalTable.from_grid(table.to_grid(fwd.dims), table.orientation)
    assert again.row_labels == table.row_labels and again.col_labels == table.col_labels
    assert np.array_equal(again.values, table.values)
    with pytest.raises(ValueError, match="forward row label"):
        ConditionalTable(((0, 9),), table.col_labels[:1], [[1.0]], table.orientation).to_grid(
            fwd.dims
        )

def test_forward_conditional_table_columns_are_evolution_outcomes():
    gibbs = GibbsSpec.from_dbeta(BETA_C, 0.0)
    fwd = forward_table(gibbs, mode="ideal")
    cond = conditional_from_table(fwd)
    assert cond.orientation == "forward-rows-initial"
    # rows: initial (n_Q, n_C); columns: final (m_Q, k, m_C)
    assert all(len(lab) == 2 for lab in cond.row_labels)
    assert all(len(lab) == 3 for lab in cond.col_labels)
    np.testing.assert_allclose(cond.values.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sweep CSV


class _Row:
    def __init__(self, **kv):
        self.kv = kv

    def as_row(self):
        return self.kv


def _fake_result(**overrides):
    row = {
        "dbeta_tilde": -6.0,
        "sigma1": 0.1, "sigma2": 0.2, "sigma3": 0.3,
        "sigma4": 0.4, "sigma5": 0.5, "sigma6": 0.6,
        "heat_C": -0.01, "mean_info": 0.7, "flags": "",
    }
    row.update(overrides)
    return _Row(**row)


def test_sweep_csv_header_and_layout():
    text = sweep_csv_text([_fake_result()])
    lines = text.splitlines()
    assert lines[0] == HEADER
    assert lines[1].startswith("-6,0.1")
    assert text.endswith("\n")


def test_sweep_csv_forward_only_drops_backward_columns():
    text = sweep_csv_text([_fake_result()], forward_only=True)
    assert text.splitlines()[0] == (
        "dbeta_tilde,sigma1,sigma2,sigma6,heat_C,mean_info,flags"
    )


def test_sweep_csv_renders_infinities_and_quotes_flags():
    # real support flags carry commas inside the trajectory labels, which
    # must not split the CSV field
    flags = "support:1 forward trajectories unmatched:(n_Q=1,k=0);sigma4:infinite"
    result = _fake_result(sigma4=math.inf, flags=flags)
    line = sweep_csv_text([result]).splitlines()[1]
    assert ",inf," in line
    assert f'"{flags}"' in line
    parsed = next(iter(csv.reader(io.StringIO(line))))
    assert parsed[-1] == flags


def _csv_writer_text(results) -> str:
    """Every field through csv.writer, numbers formatted one by one."""

    def number(value) -> str:
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "nan" if math.isnan(value) else format(value, ".17g")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER.split(","))
    for result in results:
        row = result.as_row()
        writer.writerow([number(v) if k != "flags" else v for k, v in row.items()])
    return buffer.getvalue()


def test_sweep_csv_bytes_equal_the_csv_writers():
    results = [
        _fake_result(),
        _fake_result(sigma1=math.inf, sigma2=-math.inf, sigma3=math.nan, sigma4=-0.0),
        _fake_result(sigma5=5e-324, sigma6=np.float64(1) / 3, flags="sigma4:infinite"),
        _fake_result(flags='support:2 forward trajectories unmatched:(n_Q=1,k=0),"x"'),
        _fake_result(flags='a "quoted" flag'),
        _fake_result(flags="a\rb\nc"),
        _fake_result(heat_C=-1e300, mean_info=1, flags=" lead;trail "),
    ]
    assert sweep_csv_text(results) == _csv_writer_text(results)


def test_sweep_csv_numbers_survive_round_trip():
    value = 0.1234567890123456789
    line = sweep_csv_text([_fake_result(sigma1=value)]).splitlines()[1]
    assert float(line.split(",")[1]) == value


# ---------------------------------------------------------------------------
# run configuration


def test_default_config_grid():
    grid = RunConfig().grid()
    assert grid.size == 49
    assert grid[0] == -6.0
    assert grid[-1] == 6.0
    assert np.allclose(np.diff(grid), 0.25)


def test_config_grid_endpoint_not_overshot():
    grid = RunConfig(dbeta_start=0.0, dbeta_stop=1.0, dbeta_step=0.4).grid()
    np.testing.assert_allclose(grid, [0.0, 0.4, 0.8])


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="quantum")
    with pytest.raises(ValueError):
        RunConfig(single_error="nope")
    with pytest.raises(ValueError):
        RunConfig(dbeta_step=0.0)
    with pytest.raises(ValueError):
        RunConfig(floor=2.0)


def test_grid_point_ceiling():
    # a grid of exactly MAX_GRID_POINTS points is accepted
    step = 2.0**-20
    low = -(MAX_GRID_POINTS - 1) * step
    config = RunConfig(dbeta_start=low, dbeta_stop=0.0, dbeta_step=step)
    assert config.grid().size == MAX_GRID_POINTS
    # one point more, or the about 4e301 points that once reached numpy, is a config error
    for start, stop in ((low - step, 0.0), (-1e301, 6.0)):
        with pytest.raises(ValueError, match="grid points, more than the 1,000,000") as err:
            RunConfig(dbeta_start=start, dbeta_stop=stop, dbeta_step=step)
        for key in ("dbeta_start", "dbeta_stop", "dbeta_step"):
            assert f"{key} = " in str(err.value)


@pytest.mark.parametrize(
    "line, key",
    [
        ("dbeta_stop = inf", "dbeta_stop"),
        ("dbeta_step = nan", "dbeta_step"),
        ("sigma_tol = nan", "sigma_tol"),
        ("temperature_kelvin = inf", "temperature_kelvin"),
        ("nbar_atoms = nan", "nbar_atoms"),
        ("eps_read = nan", "eps_read"),
        ("eta_e_g = nan", "eta_e_g"),
        ("cavity_prep_1 = 0:nan 1:1", "cavity_prep_1"),
    ],
)
def test_load_config_rejects_non_finite_numbers(tmp_path, line, key):
    path = tmp_path / "run.conf"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        load_config(path)


@pytest.mark.parametrize("tol", [-1e-12, 2e-6, 100.0])
def test_sigma_tol_outside_the_rounding_range_is_rejected(tmp_path, tol):
    # a coarse tolerance merges distinct sigma values: at sigma_tol = 100 an
    # ideal sweep reported sigma5 = 0.537 against sigma4 = 0.606, unflagged
    with pytest.raises(ValueError, match="sigma_tol must lie in"):
        RunConfig(sigma_tol=tol)
    path = tmp_path / "run.conf"
    path.write_text(f"sigma_tol = {tol!r}\n")
    with pytest.raises(ValueError, match="sigma_tol"):
        load_config(path)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
def test_sigma_tol_inside_the_rounding_range_is_accepted(tol):
    assert RunConfig(sigma_tol=tol).sigma_tol == tol


@pytest.mark.parametrize(
    "overrides",
    [
        {"eps_prep": 2.0},
        {"mode": "physical", "eps_read": -0.1},
        {"cavity_prep_overrides": ((9, ((0, 1.0),)),)},
        {"confusion_overrides": (("eta_g_e", 0.7), ("eta_f_e", 0.7))},
    ],
)
def test_run_config_checks_its_error_model_in_every_mode(overrides):
    with pytest.raises(ValueError):
        RunConfig(**overrides)


def test_build_error_model_scalar_overrides():
    model = RunConfig(
        mode="physical", eps_read=0.25, relax_atom_prob=0.05
    ).build_error_model()
    assert model.eps_read == 0.25
    assert model.relax_atom_prob == 0.05
    assert model.eps_prep == 0.1  # untouched defaults stay


def test_build_error_model_single_error_applies_after_overrides():
    model = RunConfig(
        mode="physical", eps_read=0.25, single_error="eps_read"
    ).build_error_model()
    assert model.eps_read == 0.25
    assert model.eps_prep == 0.0
    np.testing.assert_array_equal(model.confusion, np.eye(3))


def test_confusion_override_renormalizes_diagonal():
    config = RunConfig(mode="physical", confusion_overrides=(("eta_g_e", 0.07),))
    conf = config.build_error_model().confusion
    assert conf[1, 0] == pytest.approx(0.07)
    # column for true e: off-diagonals 0.07 + 0.0, diagonal picks up the rest
    assert conf[0, 0] == pytest.approx(0.93)
    np.testing.assert_allclose(conf.sum(axis=0), 1.0, atol=1e-12)


def test_cavity_prep_override_must_normalize():
    good = RunConfig(
        mode="physical", cavity_prep_overrides=((1, ((0, 0.1), (1, 0.8), (2, 0.1))),)
    ).build_error_model()
    np.testing.assert_allclose(good.cavity_prep[1], [0.1, 0.8, 0.1, 0, 0])
    with pytest.raises(ValueError, match="sum to 1"):
        RunConfig(
            mode="physical", cavity_prep_overrides=((1, ((0, 0.1), (1, 0.8))),)
        ).build_error_model()


def test_load_config_parses_every_value_kind(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        """
        # sweep setup
        mode = physical
        single_error = eps_meas
        dbeta_start = -2.0
        dbeta_stop = 2.0   # inclusive
        dbeta_step = 1.0
        floor = 1e-9
        idealized_backward = yes
        heat_from_atom = false
        eta_g_e = 0.04
        cavity_prep_2 = 1:0.2 2:0.7 3:0.1
        out = result.csv
        """
    )
    config = load_config(path)
    assert config.mode == "physical"
    assert config.single_error == "eps_meas"
    assert config.grid().tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert config.floor == 1e-9
    assert config.idealized_backward is True
    assert config.heat_from_atom is False
    assert config.out == "result.csv"
    model = RunConfig(
        mode="physical",
        confusion_overrides=config.confusion_overrides,
        cavity_prep_overrides=config.cavity_prep_overrides,
    ).build_error_model()
    assert model.confusion[1, 0] == pytest.approx(0.04)
    np.testing.assert_allclose(model.cavity_prep[2], [0, 0.2, 0.7, 0.1, 0])


def test_load_config_none_and_defaults(tmp_path):
    assert load_config(None) == RunConfig()
    path = tmp_path / "run.conf"
    path.write_text("floor = none\nsingle_error = none\n")
    config = load_config(path)
    assert config.floor is None
    assert config.single_error is None


#: a valid non-default value for every config key, as text and as loaded
NON_DEFAULT = {
    "temperature_kelvin": ("3.5", 3.5),
    "frequency_ghz": ("48", 48.0),
    "dbeta_start": ("-2", -2.0),
    "dbeta_stop": ("2", 2.0),
    "dbeta_step": ("0.5", 0.5),
    "mode": ("physical", "physical"),
    "single_error": ("eps_feed", "eps_feed"),
    "idealized_backward": ("on", True),
    "heat_from_atom": ("no", False),
    "sigma_tol": ("1e-7", 1e-7),
    "floor": ("1e-6", 1e-6),
    "out": ("result.csv", "result.csv"),
    "eps_prep": ("0.2", 0.2),
    "eps_read": ("0.3", 0.3),
    "eps_feed": ("0.04", 0.04),
    "relax_atom_prob": ("0.01", 0.01),
    "relax_cavity_prob": ("0.002", 0.002),
    "nbar_atoms": ("0.3", 0.3),
    "detect_eff": ("0.7", 0.7),
}
OVERRIDE_TUPLES = {"confusion_overrides", "cavity_prep_overrides"}


def test_every_run_config_field_loads_from_a_config_file(tmp_path):
    keys = {item.name for item in dataclasses.fields(RunConfig)} - OVERRIDE_TUPLES
    assert set(NON_DEFAULT) == keys
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in NON_DEFAULT.items()))
    config = load_config(path)
    for key, (_, value) in NON_DEFAULT.items():
        assert getattr(config, key) == value, key
        assert getattr(config, key) != getattr(RunConfig(), key), key


def test_none_clears_every_optional_key(tmp_path):
    optional = {
        item.name
        for item in dataclasses.fields(RunConfig)
        if item.default is None
    }
    assert {"single_error", "floor", "out", "eps_read", "detect_eff"} <= optional
    path = tmp_path / "run.conf"
    path.write_text(
        "mode = physical\n"
        + "".join(f"{key} = {NON_DEFAULT[key][0]}\n{key} = None\n" for key in optional)
    )
    config = load_config(path)
    for key in optional:
        assert getattr(config, key) is None, key


@pytest.mark.parametrize("line", ["mode = none", "heat_from_atom = none", "sigma_tol = none"])
def test_none_is_not_a_value_of_required_keys(tmp_path, line):
    path = tmp_path / "run.conf"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=line.split()[0]):
        load_config(path)


@pytest.mark.parametrize("line", ["dbeta_step = fast", "heat_from_atom = maybe"])
def test_badly_typed_value_names_its_key(tmp_path, line):
    path = tmp_path / "run.conf"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=f"line 1: config key {line.split()[0]} needs a"):
        load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.conf"
    for line in ("sigma_seven = 1", "jobs = 1"):  # runs are serial: no jobs key
        path.write_text(f"mode = ideal\n{line}\n")
        with pytest.raises(ValueError, match=f"unknown config key '{line.split()[0]}'"):
            load_config(path)


def test_load_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(path)

"""ASCII table I/O, CSV output, and run configuration."""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demon_ep import (
    ConditionalTable,
    EpResult,
    ErrorModel,
    GibbsSpec,
    RunConfig,
    conditional_from_table,
    kelvin_to_beta_omega,
    load_config,
    measured_kernel,
    parse_table,
    point_tables,
    serialize_table,
    sweep_csv_text,
    write_table,
)
from demon_ep.dataio import _KEY_KINDS, BOLTZMANN_CONSTANT, MAX_GRID_POINTS, PLANCK_CONSTANT
from demon_ep.protocol import simulated_kernel
from demon_ep.statespace import DEFAULT_DIMS

import pointwise_reference as reference
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
    # h f underflows to 0: a run would go on at beta_C = 0, every estimator ln 2
    with pytest.raises(ValueError, match=r"= 0\.0 at 2\.8 K and 5e-300 GHz is not positive"):
        kelvin_to_beta_omega(2.8, 5e-300)


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
    # the worst row names its label as the file writes it
    message = r"\Aforward-rows-initial table row \(0,0\): mass off by 5\.00e-05 \(tolerated"
    with pytest.warns(UserWarning, match=message):
        _small_table([[0.2, 0.3, 0.5 - 5e-5], [1.0, 0.0, 0.0]])
    # of several rows off, the worst one reports
    message = r"\Aforward-rows-initial table row \(0,1\): mass off by 2\.00e-04 \(tolerated"
    with pytest.warns(UserWarning, match=message):
        _small_table([[0.2, 0.3, 0.5 - 5e-5], [1.0 - 2e-4, 0.0, 0.0]])


def test_table_rejects_large_deficit():
    message = r"\Aforward-rows-initial table row \(0,0\): mass 0\.6 differs from 1\.0\Z"
    with pytest.raises(ValueError, match=message):
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
    # a fault names the worst column
    message = r"\Abackward-rows-final table column \(0,0,0\): mass 0\.8 differs from 1\.0\Z"
    with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("corner", ["state ", ""])
@pytest.mark.parametrize("short_row", [1, 2])
def test_parse_table_reports_a_short_row_by_its_number(short_row, corner):
    # every row, the first included, is checked against the header's labels: a
    # short first row is a short row, not a header mismatch (the old reader took
    # "(0,0,0)" for a corner token when the first row was one value short)
    rows = ["(0,0) 1 0", "(0,1) 0 1"]
    rows[short_row - 1] = rows[short_row - 1][: -len(" 0")]
    text = corner + "(0,0,0) (0,0,1)\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValueError, match=rf"^row {short_row} has 1 values, expected 2$"):
        parse_table(io.StringIO(text), "forward-rows-initial")


def _col_labels_or_error(parse, text: str):
    try:
        return parse(io.StringIO(text), "forward-rows-initial").col_labels
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "text, want",
    [
        ("(nQ,nC) (0,0,0) (0,1,0)\n(0,0) 0.5 0.5\n", ((0, 0, 0), (0, 1, 0))),
        ("bogus (0,1,0)\n(0,0) 0.5 0.5\n", "malformed state label 'bogus'"),
    ],
)
def test_parse_table_takes_a_corner_token_that_has_no_value_and_is_no_label(text, want):
    # as in the old reader: a first token that is no state label, "(nQ,nC)"
    # included, is a corner token unless the first row carries a value for it
    assert _col_labels_or_error(parse_table, text) == want
    assert _col_labels_or_error(reference.parse_table, text) == want


def test_forward_table_must_list_every_initial_state():
    kernel = simulated_kernel(ErrorModel(), mode="physical")
    fwd, _ = point_tables(kernel, GibbsSpec.from_dbeta(BETA_C, 0.0))
    text = serialize_table(conditional_from_table(fwd))
    lines = [line for line in text.splitlines(True) if not line.startswith(("(1,3) ", "(0,0) "))]
    table = parse_table(io.StringIO("".join(lines)), "forward-rows-initial")
    with pytest.raises(ValueError, match=r"no row for initial state \(0, 0\), \(1, 3\)$"):
        measured_kernel(table, None)
    # a backward table may leave rows out: its column sums count what they would hold
    backward = ConditionalTable(((0, 0),), ((0, 0, 0),), [[1.0]], "backward-rows-final")
    assert backward.to_grid(DEFAULT_DIMS).sum() == 1.0


_ALL_ROWS = {
    "forward-rows-initial": [(n_q, n_c) for n_q in range(2) for n_c in range(4)],
    "backward-rows-final": [(n_q, n_c) for n_q in range(2) for n_c in range(5)],
}
_ALL_COLUMNS = [(m_q, k, m_c) for m_q in range(2) for k in range(2) for m_c in range(5)]
_BAD_NUMBERS = ["nan", "NaN", "inf", "-inf", "abc", "1.5", "-0.25", "1,0", "0x1p-3", "1.0000011"]
_BAD_LABELS = ["(0;1)", "x", "(0,a)", "()", "(0,1,2)", "(0,7)", "(0,0)", "(1,3", "(1,4)", "(0,5)",
               "(0,0,5)", "(2,0,0)", "(-1,0)", "(0,99999999999999999999)", "(0,0,-1)"]


def _label_text(label) -> str:
    return "(" + ",".join(map(str, label)) + ")"


def _random_table_text(rng: np.random.Generator) -> tuple[str, str]:
    """A seeded table in the exchange format: permuted row and column labels,
    an optional corner token, comments, -0.0 and clamped entries, and up to
    three faults (a bad number, NaN or inf, a value out of range, a bad label
    or a ragged row) at random positions."""
    orientation = str(rng.choice(list(_ALL_ROWS)))
    forward = orientation.startswith("forward")
    rows = [_ALL_ROWS[orientation][i] for i in rng.permutation(len(_ALL_ROWS[orientation]))]
    if not forward:
        rows = rows[: rng.integers(1, len(rows) + 1)]
    cols = [_ALL_COLUMNS[i] for i in rng.permutation(20)[: rng.integers(1, 21)]]
    values = rng.random((len(rows), len(cols))) * (rng.random((len(rows), len(cols))) < 0.6)
    values[rng.random(values.shape) < 0.1] = 1.0
    axis = 1 if forward else 0
    empty = values.sum(axis=axis) == 0.0
    if forward:
        values[empty, rng.integers(len(cols), size=empty.sum())] = 1.0
    else:
        values[rng.integers(len(rows), size=empty.sum()), empty] = 1.0
    values /= values.sum(axis=axis, keepdims=True)
    values[(values == 0.0) & (rng.random(values.shape) < 0.5)] = -0.0
    for _ in range(rng.integers(0, 6)):  # clamped: within 1e-6 outside [0, 1]
        i, j = rng.integers(len(rows)), rng.integers(len(cols))
        excess = float(rng.choice([1e-12, 3e-9, 1e-7, 1e-6]))
        if values[i, j] in (0.0, 1.0):
            values[i, j] = 1.0 + excess if values[i, j] == 1.0 else -excess
    spell = format if rng.random() < 0.5 else (lambda v, _: repr(float(v)))
    header = [_label_text(c) for c in cols]
    data = [[_label_text(r)] + [spell(v, ".17g") for v in row] for r, row in zip(rows, values)]
    for _ in range(rng.integers(1, 4) * (rng.random() < 0.5)):
        i = int(rng.integers(len(data)))
        fault = rng.integers(4)
        if fault == 0 and len(data[i]) > 1:
            data[i][rng.integers(1, len(data[i]))] = str(rng.choice(_BAD_NUMBERS))
        elif fault == 1:
            data[i][0] = str(rng.choice(_BAD_LABELS))
        elif fault == 2 and i > 0:  # a short or long first row is tested on its own
            data[i] = data[i][:-1] if rng.random() < 0.5 else data[i] + ["0"]
        elif fault == 3:
            header[rng.integers(len(header))] = str(rng.choice(_BAD_LABELS))
    corner = [str(rng.choice(["state", "n\\m", "-", "(n,m)"]))] if rng.random() < 0.5 else []
    lines = [" ".join(corner + header)] + [" ".join(row) for row in data]
    for _ in range(rng.integers(0, 3)):
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["", "# note", "  "])))
    return "\n".join("\t" * int(rng.integers(2)) + line for line in lines) + "\n", orientation


def _read(parse, text: str, orientation: str):
    """What ``parse`` makes of ``text``, and every warning it issues, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(io.StringIO(text), orientation)
        except ValueError as exc:
            result = exc
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _grid(to_grid, table):
    try:
        return to_grid(table, DEFAULT_DIMS).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_parse_table_matches_the_value_by_value_reader(seed):
    rng = np.random.default_rng(seed)
    seen = {"parsed": 0, "clamped": 0, "clamped, then failed": 0, "failed": set()}
    for _ in range(150):
        text, orientation = _random_table_text(rng)
        got, got_warnings = _read(parse_table, text, orientation)
        want, want_warnings = _read(reference.parse_table, text, orientation)
        assert got_warnings == want_warnings, text
        clamped = any("clamping" in w[0] for w in want_warnings)
        seen["clamped"] += clamped
        if isinstance(want, ValueError):
            assert type(got) is ValueError and str(got) == str(want), text
            seen["failed"].add(str(want).split(" ")[0])
            seen["clamped, then failed"] += clamped
            continue
        seen["parsed"] += 1
        assert got.row_labels == want.row_labels and got.col_labels == want.col_labels
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes(), text  # -0.0 included
        assert _grid(ConditionalTable.to_grid, got) == _grid(reference.to_grid, want)
    assert seen["parsed"] > 30 and seen["clamped"] > 30 and seen["clamped, then failed"] > 5
    assert {"row", "bad", "non-finite", "probability", "malformed"} <= seen["failed"]


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
    fwd, bwd = point_tables(simulated_kernel(ErrorModel(), mode="physical"), gibbs)
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
    fwd, _ = point_tables(simulated_kernel(None), GibbsSpec.from_dbeta(BETA_C, 0.0))
    bare = dataclasses.replace(fwd, conditionals=None)
    with pytest.raises(ValueError, match="no conditionals"):
        conditional_from_table(bare)


def test_table_grid_round_trip_keeps_labels_and_values():
    kernel = simulated_kernel(ErrorModel(), mode="physical")
    fwd, _ = point_tables(kernel, GibbsSpec.from_dbeta(BETA_C, 0.0))
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
    fwd, _ = point_tables(simulated_kernel(None), gibbs)
    cond = conditional_from_table(fwd)
    assert cond.orientation == "forward-rows-initial"
    # rows: initial (n_Q, n_C); columns: final (m_Q, k, m_C)
    assert all(len(lab) == 2 for lab in cond.row_labels)
    assert all(len(lab) == 3 for lab in cond.col_labels)
    np.testing.assert_allclose(cond.values.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sweep CSV


def _fake_result(flags: str = "", **overrides):
    row = {
        "dbeta_tilde": -6.0,
        "sigma1": 0.1, "sigma2": 0.2, "sigma3": 0.3,
        "sigma4": 0.4, "sigma5": 0.5, "sigma6": 0.6,
        "heat_C": -0.01, "mean_info": 0.7,
    }
    row.update(overrides)
    return EpResult(*row.values(), flags=(flags,) if flags else ())


def test_sweep_csv_header_and_layout():
    text = sweep_csv_text(reference.columns([_fake_result()]))
    lines = text.splitlines()
    assert lines[0] == HEADER
    assert lines[1].startswith("-6,0.1")
    assert text.endswith("\n")


def test_sweep_csv_forward_only_drops_backward_columns():
    text = sweep_csv_text(reference.columns([_fake_result()], forward_only=True))
    assert text.splitlines()[0] == (
        "dbeta_tilde,sigma1,sigma2,sigma6,heat_C,mean_info,flags"
    )


def test_sweep_csv_renders_infinities_and_quotes_flags():
    # real support flags carry commas inside the trajectory labels, which
    # must not split the CSV field
    flags = "support:1 forward trajectories unmatched:(n_Q=1,k=0);sigma4:infinite"
    result = _fake_result(sigma4=math.inf, flags=flags)
    line = sweep_csv_text(reference.columns([result])).splitlines()[1]
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
        return format(value, ".17g")

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
        _fake_result(sigma1=math.inf, sigma2=-math.inf, sigma4=-0.0),
        _fake_result(sigma5=5e-324, sigma6=np.float64(1) / 3, flags="sigma4:infinite"),
        _fake_result(flags='support:2 forward trajectories unmatched:(n_Q=1,k=0),"x"'),
        _fake_result(flags='a "quoted" flag'),
        _fake_result(flags="a\rb\nc"),
        _fake_result(heat_C=-1e300, mean_info=1, flags=" lead;trail "),
    ]
    assert sweep_csv_text(reference.columns(results)) == _csv_writer_text(results)


def test_sweep_csv_refuses_nan():
    # a NaN written as "nan" with no flag would read as a number
    bad = _fake_result(dbeta_tilde=0.5, sigma3=math.nan)
    with pytest.raises(ValueError, match=r"\Asigma3 is NaN at dbeta_tilde 0\.5\Z"):
        sweep_csv_text(reference.columns([_fake_result(), bad]))
    # the forward-only layout does not write sigma3
    assert "nan" not in sweep_csv_text(reference.columns([bad], forward_only=True))


def test_sweep_csv_numbers_survive_round_trip():
    value = 0.1234567890123456789
    line = sweep_csv_text(reference.columns([_fake_result(sigma1=value)])).splitlines()[1]
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
    # nor dropped at large |dbeta|, where an absolute end tolerance of 1e-9 gave 6 points
    config = RunConfig(frequency_ghz=1e-5, dbeta_start=27179190.6, dbeta_stop=27179191.2,
                       dbeta_step=0.1)
    grid = config.grid()
    assert grid.size == 7 and grid[-1] == pytest.approx(config.dbeta_stop, rel=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="quantum")
    with pytest.raises(ValueError):
        RunConfig(single_error="nope")
    with pytest.raises(ValueError):
        RunConfig(dbeta_step=0.0)
    with pytest.raises(ValueError):
        RunConfig(floor=2.0)
    # none means stdout; an empty path is an error, as the empty value `out =` is
    with pytest.raises(ValueError, match=r"\Aout must name a file or be none, got ''\Z"):
        RunConfig(out="")


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
        {"cavity_prep_9": "0:1"},  # the default table has rows for targets 0-3 only
        {"eta_g_e": 0.7, "eta_f_e": 0.7},
    ],
)
def test_run_config_checks_its_error_model_in_every_mode(tmp_path, overrides):
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{key} = {value}\n" for key, value in overrides.items()))
    with pytest.raises(ValueError):
        load_config(path)


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
    config = RunConfig(mode="physical", eta_g_e=0.07)
    conf = config.build_error_model().confusion
    assert conf[1, 0] == pytest.approx(0.07)
    # column for true e: off-diagonals 0.07 + 0.0, diagonal picks up the rest
    assert conf[0, 0] == pytest.approx(0.93)
    np.testing.assert_allclose(conf.sum(axis=0), 1.0, atol=1e-12)


def test_cavity_prep_override_must_normalize():
    good = RunConfig(
        mode="physical", cavity_prep_1=((0, 0.1), (1, 0.8), (2, 0.1))
    ).build_error_model()
    np.testing.assert_allclose(good.cavity_prep[1], [0.1, 0.8, 0.1, 0, 0])
    with pytest.raises(ValueError, match="sum to 1"):
        RunConfig(mode="physical", cavity_prep_1=((0, 0.1), (1, 0.8))).build_error_model()


def test_confusion_and_cavity_prep_keys_build_the_model_by_the_rule(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "mode = physical\n"
        "eta_e_g = 0.05\neta_e_f = 0.01\neta_g_e = 0.03\n"
        "eta_g_f = 0.04\neta_f_e = 0.02\neta_f_g = 0.06\n"
        "cavity_prep_1 = 0:0.3 1:0.6 2:0.1\n"
        "cavity_prep_3 = 4:0.25 2:0.5 3:0.25\n"
    )
    model = load_config(path).build_error_model()
    # detected row, true column over (e, g, f): each diagonal is 1 minus its
    # column's off-diagonals, summed top to bottom
    confusion = np.array([
        [1.0 - (0.03 + 0.02), 0.05, 0.01],
        [0.03, 1.0 - (0.05 + 0.06), 0.04],
        [0.02, 0.06, 1.0 - (0.01 + 0.04)],
    ])
    # a set row is divided by its sum, summed by level (0.9999999999999999 for
    # row 1); the other rows keep the default
    cavity_prep = ErrorModel().cavity_prep.copy()
    cavity_prep[1] = np.array([0.3, 0.6, 0.1, 0.0, 0.0]) / (0.3 + 0.6 + 0.1)
    cavity_prep[3] = np.array([0.0, 0.0, 0.5, 0.25, 0.25]) / (0.5 + 0.25 + 0.25)
    np.testing.assert_array_equal(model.confusion, confusion)
    np.testing.assert_array_equal(model.cavity_prep, cavity_prep)


def test_repeated_key_keeps_its_last_value_unchecked(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "mode = physical\neta_e_g = nan\neta_e_g = 0.04\n"
        "cavity_prep_1 = 0:2 0:2\ncavity_prep_1 = 0:0.5 1:0.5\n"
    )
    config = load_config(path)
    assert config.eta_e_g == 0.04
    assert config.cavity_prep_1 == ((0, 0.5), (1, 0.5))


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
    assert config.eta_g_e == 0.04
    assert config.cavity_prep_2 == ((1, 0.2), (2, 0.7), (3, 0.1))
    model = RunConfig(
        mode="physical", eta_g_e=config.eta_g_e, cavity_prep_2=config.cavity_prep_2
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
    "eta_e_g": ("0.03", 0.03),
    "eta_e_f": ("0.02", 0.02),
    "eta_g_e": ("0.04", 0.04),
    "eta_g_f": ("0.06", 0.06),
    "eta_f_e": ("0.01", 0.01),
    "eta_f_g": ("0.05", 0.05),
    "cavity_prep_0": ("0:0.9 1:0.1", ((0, 0.9), (1, 0.1))),
    "cavity_prep_1": ("1:1", ((1, 1.0),)),
    "cavity_prep_2": ("3:0.2 2:0.8", ((3, 0.2), (2, 0.8))),
    "cavity_prep_3": ("2:0.1 3:0.8 4:0.1", ((2, 0.1), (3, 0.8), (4, 0.1))),
}


def test_every_config_key_is_a_run_config_field():
    assert {item.name for item in dataclasses.fields(RunConfig)} == set(_KEY_KINDS)


def test_every_run_config_field_loads_from_a_config_file(tmp_path):
    keys = {item.name for item in dataclasses.fields(RunConfig)}
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
    assert {"single_error", "floor", "out", "eps_read", "detect_eff", "eta_f_g",
            "cavity_prep_3"} <= optional
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

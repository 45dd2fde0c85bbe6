"""End-to-end command-line checks via subprocess."""

from __future__ import annotations

import hashlib
import subprocess
import sys
import warnings

import pytest

import demon_ep
import demon_ep.channels as channels
import demon_ep.entropy as entropy
import demon_ep.protocol as protocol
from demon_ep import (
    ErrorModel,
    GibbsSpec,
    RunConfig,
    cli,
    conditional_from_table,
    kelvin_to_beta_omega,
    parse_table,
    point_tables,
    run_sweep,
    simulate_report,
    sweep_csv_text,
    write_table,
)
from demon_ep.protocol import simulated_kernel

HEADER = "dbeta_tilde,sigma1,sigma2,sigma3,sigma4,sigma5,sigma6,heat_C,mean_info,flags"


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "demon_ep", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
    )


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """Conditional tables from a physical-mode run, in the exchange format."""
    tmp = tmp_path_factory.mktemp("tables")
    gibbs = GibbsSpec.from_dbeta(kelvin_to_beta_omega(2.8, 51.0), 0.0)
    fwd, bwd = point_tables(simulated_kernel(ErrorModel(), mode="physical"), gibbs)
    write_table(conditional_from_table(fwd), tmp / "forward.txt")
    write_table(conditional_from_table(bwd), tmp / "backward.txt")
    return tmp / "forward.txt", tmp / "backward.txt"


@pytest.fixture()
def coarse_config(tmp_path):
    path = tmp_path / "coarse.conf"
    path.write_text("dbeta_start = -6\ndbeta_stop = 6\ndbeta_step = 3\n")
    return path


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_csv_to_stdout():
    proc = run_cli("sweep")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + 49  # header plus the default bias grid


def test_sweep_out_flag_writes_file(tmp_path, coarse_config):
    target = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--config", str(coarse_config), "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    content = target.read_text().splitlines()
    assert content[0] == HEADER
    assert len(content) == 1 + 5


def test_sweep_empty_out_exits_1(capsys):
    # none, not an empty path, is stdout: an empty value is an error, as in a config file
    assert cli.main(["sweep", "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "configuration error: out must name a file or be none" in err


def test_sweep_physical_single_error(coarse_config):
    proc = run_cli(
        "sweep", "--config", str(coarse_config),
        "--mode", "physical", "--single-error", "eps_read",
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 6


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("channel, field", [
    ("relax_atom", "relax_atom_prob"), ("relax_cavity", "relax_cavity_prob"), ("eps_read", None),
])
def test_a_single_error_that_runs_no_error_says_so(capsys, command, channel, field):
    # relaxation defaults to 0, so its single error is the error-free physical
    # model, byte for byte: the output stays, and stderr says so in one line
    assert cli.main([command, "--mode", "physical", "--single-error", channel]) == 0
    out, err = capsys.readouterr()
    if field is None:  # a channel with a magnitude runs its error
        assert err == ""
        return
    assert err == (f"demon-ep: note: single_error = {channel} runs no error, since {field} is "
                   f"error-free: the output is the error-free physical model's\n")
    error_free = RunConfig(mode="physical", single_error="eps_prep", eps_prep=0.0)
    assert error_free.build_error_model().is_ideal
    assert out == (sweep_csv_text(run_sweep(error_free)) if command == "sweep"
                   else simulate_report(error_free, 0.0))


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reproduces_direct_sweep(tmp_path, table_files, coarse_config):
    fwd_path, bwd_path = table_files
    direct = run_cli("sweep", "--config", str(coarse_config), "--mode", "physical")
    # the tables carry the register, so analyze takes no --mode
    again = run_cli("analyze", str(fwd_path), str(bwd_path), "--config", str(coarse_config))
    assert again.returncode == 0
    assert again.stdout == direct.stdout


def test_analyze_forward_only_layout(table_files, coarse_config):
    fwd_path, _ = table_files
    # a forward table alone gives the forward-only layout
    proc = run_cli("analyze", str(fwd_path), "--config", str(coarse_config))
    assert proc.returncode == 0
    header = proc.stdout.splitlines()[0]
    assert header == "dbeta_tilde,sigma1,sigma2,sigma6,heat_C,mean_info,flags"


def test_analyze_takes_its_layout_from_the_tables(table_files):
    fwd_path, bwd_path = table_files
    missing = run_cli("analyze")
    assert missing.returncode == 1
    assert "the following arguments are required: forward" in missing.stderr
    # the backward table is the only switch: the old flag is a usage error
    both = run_cli("analyze", str(fwd_path), str(bwd_path), "--forward-only")
    assert both.returncode == 1
    assert "unrecognized arguments: --forward-only" in both.stderr
    assert both.stdout == ""


def test_analyze_corrupt_table_is_a_data_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("state (0,0,0)\n(0,0) 0.4\n(0,1) 0.9\n")
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    # the worst row names its label as the file writes it
    message = "forward-rows-initial table row (0,0): mass 0.4 differs from 1.0"
    assert proc.stderr == f"demon-ep: {message}\n"


def test_analyze_forward_table_missing_an_initial_state_is_a_data_error(tmp_path, table_files):
    # zero-filled, the missing row took its mass from every bias point and
    # the run passed with tolerated-mass warnings only
    fwd_path, bwd_path = table_files
    short = tmp_path / "short.txt"
    lines = fwd_path.read_text().splitlines(True)
    short.write_text("".join(line for line in lines if not line.startswith("(1,3) ")))
    grid = tmp_path / "grid.conf"
    grid.write_text("dbeta_start = -6\ndbeta_stop = -4\ndbeta_step = 1\n")
    proc = run_cli("analyze", str(short), str(bwd_path), "--config", str(grid))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "forward table has no row for initial state (1, 3)" in proc.stderr


@pytest.mark.parametrize(
    "text, message",
    [("# only a comment\n", "table needs a header line and at least one data row"),
     ("state\n(0,0)\n", "header needs at least one column label")],
    ids=["comment-only", "header-without-columns"],
)
def test_analyze_table_without_a_grid_is_a_data_error(tmp_path, capsys, text, message):
    table = tmp_path / "table.txt"
    table.write_text(text)
    assert cli.main(["analyze", str(table)]) == 2
    out, err = capsys.readouterr()
    assert err == f"demon-ep: {message}\n"
    assert out == ""


def test_analyze_missing_file_is_a_data_error(tmp_path):
    proc = run_cli("analyze", str(tmp_path / "nowhere.txt"))
    assert proc.returncode == 2


#: sha256 of the analyze CSV of the physical tables, forward row (0,0) scaled by 1 + 4e-4
SCALED_ANALYZE_DIGEST = "45e763dfe87d21b96b5e1841b16d771482caaaf23fab50fecbcd9c369233796c"


def test_a_forward_table_fault_warns_once_per_point(tmp_path, table_files, capsys):
    # the block's sigma histograms re-sum the forward weights its table check
    # summed; checking them again warned of the same fault twice at every point
    fwd_path, bwd_path = table_files
    table = parse_table(fwd_path, "forward-rows-initial")
    values = table.values.copy()
    values[table.row_labels.index((0, 0))] *= 1.0 + 4e-4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the scaled table's own warning
        scaled = type(table)(table.row_labels, table.col_labels, values, table.orientation)
    write_table(scaled, tmp_path / "scaled.txt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["analyze", str(tmp_path / "scaled.txt"), str(bwd_path)]) == 0
    messages = [str(w.message) for w in caught if w.category is UserWarning]
    assert len(messages) == len(caught) == 1 + len(RunConfig().grid())
    assert messages[0] == ("forward-rows-initial table row (0,0): mass off by 4.00e-04 "
                           "(tolerated, likely measured input)")
    assert all(m.startswith("forward table: mass off by ") for m in messages[1:])
    # the default filter, as the command line runs, shows each distinct message once
    assert len(set(messages)) == 44
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCALED_ANALYZE_DIGEST


# ---------------------------------------------------------------------------
# simulate and validate


def test_simulate_reports_all_estimators():
    proc = run_cli("simulate", "--dbeta", "6")
    assert proc.returncode == 0
    for token in ("sigma1", "sigma6", "sigma histogram", "fluctuation average"):
        assert token in proc.stdout
    assert "5.24653680" in proc.stdout  # the high-bias anchor value


def test_simulate_physical_mode_mentions_flags():
    proc = run_cli("simulate", "--dbeta", "0", "--mode", "physical")
    assert proc.returncode == 0
    assert "flags:" in proc.stdout


@pytest.mark.parametrize("value, shown", [("-1e-3", "-0.001"), ("-5E0", "-5")])
def test_simulate_takes_a_negative_dbeta_in_exponent_notation(capsys, value, shown):
    # argparse read these as option strings: "argument --dbeta: expected one argument"
    assert cli.main(["simulate", "--dbeta", value]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith(f"dbeta_tilde {shown}")


def test_validate_passes_on_healthy_install():
    proc = run_cli("validate")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert lines, "expected one line per check"
    assert all(l.startswith("PASS") for l in lines)


# ---------------------------------------------------------------------------
# no command reaches the one-point functions the benchmark pins

#: module -> one-point functions kept only because perfbench/tracing.py names them
PINNED = {
    protocol: ("forward_table", "backward_table", "tables_from_conditionals",
               "forward_conditionals", "backward_conditionals", "oracle_full_state"),
    entropy: ("sigma1", "sigma2", "sigma3", "sigma4", "sigma5", "sigma6", "support_mismatch"),
    channels: ("identity_channel", "prepare_atom"),
}


#: the one-point views of a block, which no command takes its numbers from either
ONE_ROW = {
    protocol: ("point_tables", "branch_probability", "sigma_histogram"),
    entropy: ("evaluate",),
    protocol.TableRows: ("of",),
    protocol.HistogramRows: ("of", "row"),
}


def test_no_command_enters_a_pinned_one_point_function(table_files, capsys):
    codes = {getattr(owner, name).__code__: f"{owner.__name__}.{name}"
             for owner, names in (*PINNED.items(), *ONE_ROW.items()) for name in names}
    assert len(codes) == 15 + 7
    forward, backward = map(str, table_files)
    commands = [
        ["sweep"],
        ["sweep", "--mode", "physical"],
        ["sweep", "--mode", "physical", "--single-error", "eps_prep"],
        ["simulate", "--mode", "physical", "--dbeta", "0.75"],
        ["analyze", forward, backward],
        ["analyze", forward],
        ["validate"],
    ]
    entered = set()
    # a command reads a block's arrays: only validate's serialization check
    # takes a row as a table pair, the one conditional_from_table serializes
    pairs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered.add(codes[frame.f_code])
        if event == "call" and frame.f_code is protocol.TableRows.tables.__code__:
            pairs.append(frame.f_back.f_code.co_name)

    for argv in commands:
        sys.setprofile(profile)
        try:
            status = cli.main(argv)
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert (argv, status, entered) == (argv, 0, set())
    assert pairs == ["check_serialization_roundtrip"]
    # of the pinned names, the package exports only the two the benchmark calls as dep.*
    exported = [name for names in PINNED.values() for name in names if hasattr(demon_ep, name)]
    assert exported == ["forward_table", "backward_table"]


# ---------------------------------------------------------------------------
# usage errors


#: flags a command does not take, because they would change nothing it does
_UNUSED_FLAGS = [
    ("sweep", "--jobs", "2"),
    ("analyze", "f.txt", "b.txt", "--jobs", "2"),
    ("analyze", "f.txt", "b.txt", "--mode", "physical"),
    ("analyze", "f.txt", "b.txt", "--single-error", "eps_read"),
    ("simulate", "--jobs", "2"),
    ("validate", "--jobs", "2"),
    ("validate", "--mode", "physical"),
    ("validate", "--single-error", "eps_read"),
    ("validate", "--floor", "1e-6"),
    ("validate", "--out", "validate.txt"),
]


def test_unknown_flag_exits_1(capsys):
    proc = run_cli("sweep", "--badflag")
    assert proc.returncode == 1
    for argv in _UNUSED_FLAGS:
        with pytest.raises(SystemExit) as exited:
            cli.main(list(argv))
        assert exited.value.code == 1, argv
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_no_subcommand_exits_1():
    proc = run_cli()
    assert proc.returncode == 1


def test_bad_config_file_exits_1(tmp_path):
    conf = tmp_path / "broken.conf"
    conf.write_text("mode = sideways\n")
    proc = run_cli("sweep", "--config", str(conf))
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr


@pytest.mark.parametrize(
    "line",
    ["dbeta_stop = inf", "dbeta_step = nan", "--dbeta=nan", "--dbeta=inf", "--dbeta=-inf",
     "--dbeta -inf"],
)
def test_non_finite_config_value_exits_1(tmp_path, line):
    # before the finiteness checks the config values crashed in grid() with a
    # traceback, and --dbeta exited 2 with "forward table: mass nan is not finite"
    if line.startswith("--"):
        proc = run_cli("simulate", *line.split())
        assert "--dbeta must be finite" in proc.stderr
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        proc = run_cli("sweep", "--config", str(conf))
        assert "configuration error" in proc.stderr
        assert f"{line.split()[0]} must be finite" in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "text",
    ["dbeta_start = -1e308", "dbeta_start = -1e308\ndbeta_stop = 1e308",
     "dbeta_stop = 1e308\ndbeta_step = 1e-300"],
)
def test_grid_without_a_finite_point_count_exits_1(tmp_path, capsys, text):
    # every value is finite and its Gibbs weights are too, but the point count
    # overflowed in grid(): an uncaught OverflowError traceback before
    conf = tmp_path / "run.conf"
    conf.write_text(text + "\n")
    assert cli.main(["sweep", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error: dbeta_start = " in err
    assert "give a grid whose point count is not finite" in err


def test_decreasing_bias_range_exits_1(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dbeta_start = 2\ndbeta_stop = 1\n")
    assert cli.main(["sweep", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert err == "demon-ep: configuration error: dbeta_stop must be >= dbeta_start\n"
    assert out == ""


def test_grid_above_the_point_ceiling_exits_1(tmp_path, capsys):
    # about 4e301 points with finite Gibbs weights: numpy's bare "Maximum
    # allowed size exceeded" (exit 2, no key named) before the ceiling
    conf = tmp_path / "run.conf"
    conf.write_text("dbeta_start = -1e301\n")
    assert cli.main(["sweep", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error: dbeta_start = -1e+301, dbeta_stop = 6.0 and " in err
    assert "dbeta_step = 0.25 give 4e+301 grid points, more than the 1,000,000" in err


_EXTREME_BIAS = [
    # exp(-beta_Q) overflows past dbeta 813: a "mass nan" data error (exit 2) before
    (("sweep",), "dbeta_stop = 1000", "dbeta_stop = 1000.0"),
    (("simulate", "--dbeta", "1000"), "", "--dbeta = 1000.0"),
    (("sweep",), "frequency_ghz = 1e298", "dbeta_stop = 6.0"),
    # a config whose ends overflow is invalid for every command, also where its grid is not run
    (("simulate", "--dbeta", "0"), "dbeta_stop = 1000", "dbeta_stop = 1000.0"),
    (("validate",), "dbeta_stop = 1000", "dbeta_stop = 1000.0"),
    # beta_Q itself overflows to inf
    (("sweep",), "frequency_ghz = 1e10\ndbeta_start = -1e301", "dbeta_start = -1e+301"),
]


@pytest.mark.parametrize(
    "argv, text, key",
    _EXTREME_BIAS,
    ids=[" ".join((*argv, text.replace("\n", "; "))) for argv, text, _ in _EXTREME_BIAS],
)
def test_extreme_bias_exits_1_naming_its_key(tmp_path, capsys, argv, text, key):
    conf = tmp_path / "run.conf"
    conf.write_text(text + "\n")
    assert cli.main([*argv, "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"configuration error: {key} gives non-finite Gibbs weights" in err
    assert "frequency_ghz" in err


def test_analyze_rejects_an_extreme_bias(tmp_path, capsys, table_files):
    conf = tmp_path / "run.conf"
    conf.write_text("mode = physical\ndbeta_stop = 900\n")
    assert cli.main(["analyze", *map(str, table_files), "--config", str(conf)]) == 1
    assert "dbeta_stop = 900.0 gives non-finite Gibbs weights" in capsys.readouterr().err


def test_a_bias_whose_qubit_weights_underflow_still_runs(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dbeta_start = -1000\ndbeta_stop = -700\ndbeta_step = 2.5\n")
    assert cli.main(["sweep", "--config", str(conf)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 121
    assert cli.main(["simulate", "--dbeta", "-1000"]) == 0


@pytest.mark.parametrize(
    "text",
    [
        "mode = physical\neps_prep = 2\n",
        "mode = physical\ncavity_prep_9 = 0:1\n",
        "eps_prep = 2\n",  # ideal mode takes no error parameter at all
    ],
    ids=["physical-eps_prep", "physical-cavity_prep_9", "ideal-eps_prep"],
)
def test_out_of_range_error_parameter_exits_1(tmp_path, text):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    proc = run_cli("simulate", "--config", str(conf))
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr


_MALFORMED_LINES = [
    ("dbeta_step = fast", "config key dbeta_step needs a value of type float, got 'fast'"),
    ("eta_e_g = abc", "config key eta_e_g needs a value of type float | None, got 'abc'"),
    ("cavity_prep_1 = x:1",
     "config key cavity_prep_1 needs a value of type level:probability list | None, got 'x:1'"),
    ("cavity_prep_1 = 0:abc",
     "config key cavity_prep_1 needs a value of type level:probability list | None, got '0:abc'"),
    ("cavity_prep_1 = 0.5",
     "config key cavity_prep_1 needs a value of type level:probability list | None, got '0.5'"),
    ("out =", "config key out needs a value of type str | None, got ''"),
    ("cavity_prep_x = 0:1", "unknown config key 'cavity_prep_x'"),
    ("cavity_prep_ = 0:1", "unknown config key 'cavity_prep_'"),
    ("cavity_prep_overrides = 0:1", "unknown config key 'cavity_prep_overrides'"),
    ("cavity_prep_9 = 0:1", "unknown config key 'cavity_prep_9'"),  # rows 0-3 only
]


@pytest.mark.parametrize(
    "line, message", _MALFORMED_LINES, ids=[line for line, _ in _MALFORMED_LINES]
)
def test_malformed_config_line_names_its_line_and_key(tmp_path, capsys, line, message):
    conf = tmp_path / "run.conf"
    conf.write_text(f"mode = physical\n{line}\n")
    assert cli.main(["sweep", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert err == f"demon-ep: configuration error: line 2: {message}\n"
    assert out == ""


_ERROR_MODEL_RANGES = [
    ("cavity_prep_1 = 0:0.5 0:0.5 1:0.5", "cavity_prep_1 lists level 0 twice"),
    ("cavity_prep_1 = 0:0.5 7:0.5", "cavity_prep_1 level 7 out of range"),
    ("eta_e_g = -0.5", "eta_e_g must lie in [0, 1], got -0.5"),
    ("cavity_prep_1 = 0:-0.5 1:1.5", "cavity_prep_1 must lie in [0, 1], got -0.5"),
    ("eta_e_g = 0.9\neta_f_g = 0.2", "eta_e_g + eta_f_g must lie in [0, 1], got 1.1"),
    # the model of the given values is checked before single_error idealizes the
    # channel a bad value sets
    ("single_error = eps_prep\neps_read = 2", "eps_read must lie in [0, 1], got 2.0"),
    ("single_error = eps_read\neta_g_e = 1.5", "eta_g_e must lie in [0, 1], got 1.5"),
    ("single_error = eps_feed\ncavity_prep_2 = 1:0.5 2:0.2", "cavity_prep_2 must sum to 1"),
]


@pytest.mark.parametrize(
    "text, message",
    _ERROR_MODEL_RANGES,
    ids=[text.replace("\n", "; ") for text, _ in _ERROR_MODEL_RANGES],
)
def test_error_model_range_error_names_its_key(tmp_path, capsys, text, message):
    conf = tmp_path / "run.conf"
    conf.write_text(f"mode = physical\n{text}\n")
    assert cli.main(["simulate", "--config", str(conf)]) == 1
    out, err = capsys.readouterr()
    assert err == f"demon-ep: configuration error: {message}\n"
    assert out == ""


def test_missing_config_file_exits_1(tmp_path):
    proc = run_cli("sweep", "--config", str(tmp_path / "absent.conf"))
    assert proc.returncode == 1


_UNUSABLE_TEMPERATURE_OR_FREQUENCY = [
    ("temperature_kelvin = -1", "must be positive"),
    ("frequency_ghz = 0", "must be positive"),
    # k_B T underflows to zero: an uncaught ZeroDivisionError before
    ("temperature_kelvin = 1e-310", "k_B T = 0.0 J"),
    # the frequency overflows in Hz: a "mass nan" data error (exit 2) before
    ("frequency_ghz = 1e300", "overflows in Hz"),
    ("temperature_kelvin = 1e-300\nfrequency_ghz = 1e290", "is not finite"),
    # beta*omega underflows to 0: a run at beta_C = 0 (sigma = ln 2 everywhere) before
    ("frequency_ghz = 5e-300", "is not positive; raise frequency_ghz"),
]


@pytest.mark.parametrize(
    "line, message",
    _UNUSABLE_TEMPERATURE_OR_FREQUENCY,
    ids=[line.replace("\n", "; ") for line, _ in _UNUSABLE_TEMPERATURE_OR_FREQUENCY],
)
def test_non_positive_temperature_or_frequency_exits_1(tmp_path, line, message):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    proc = run_cli("simulate", "--config", str(conf))
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "line",
    [
        "single_error = eps_read",
        "eps_read = 0.3",
        "relax_atom_prob = 0.05",
        "eta_g_e = 0.04",
        "cavity_prep_1 = 0:0.1 1:0.9",
    ],
)
def test_ideal_mode_rejects_error_keys_by_name(tmp_path, line):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    proc = run_cli("sweep", "--config", str(conf))
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr
    assert line.split()[0] in proc.stderr
    assert proc.stdout == ""
    # the same file runs once the mode has error channels to configure
    assert run_cli("simulate", "--config", str(conf), "--mode", "physical").returncode == 0


def test_ideal_mode_rejects_the_single_error_flag():
    proc = run_cli("sweep", "--single-error", "eps_read")
    assert proc.returncode == 1
    assert "single_error" in proc.stderr
    assert proc.stdout == ""


def test_mode_flag_decides_which_keys_a_config_may_set(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mode = physical\neps_read = 0.3\n")
    proc = run_cli("simulate", "--config", str(conf), "--mode", "ideal")
    assert proc.returncode == 1
    assert "eps_read" in proc.stderr


def test_ideal_mode_accepts_the_two_atom_diagnostic_keys(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("nbar_atoms = 0.4\ndetect_eff = 0.8\n")
    proc = run_cli("simulate", "--config", str(conf))
    assert proc.returncode == 0
    assert "two-atom event probability" in proc.stdout


def test_physical_sweep_writes_nothing_to_stderr():
    proc = run_cli("sweep", "--mode", "physical")
    assert proc.returncode == 0
    assert proc.stderr == ""

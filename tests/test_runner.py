"""Run drivers: frozen CSV and validate bytes, the shared kernel path, and input checks."""

from __future__ import annotations

import collections
import csv
import functools
import hashlib
import io
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import demon_ep.runner as runner
import pointwise_reference as reference
from demon_ep import (
    DEFAULT_DIMS,
    ConditionalTable,
    ErrorModel,
    GibbsSpec,
    RunConfig,
    StochasticChannel,
    SystemDims,
    cli,
    conditional_from_table,
    dataio,
    entropy,
    parse_table,
    point_tables,
    protocol,
    run_analysis,
    run_sweep,
    serialize_table,
    statespace,
    sweep_csv_text,
    two_atom_probability,
    validate,
)
from demon_ep.protocol import (
    ProtocolKernel,
    final_state_rows,
    histogram_rows,
    oracle_states,
    simulated_kernel,
    weigh_rows,
)

# SHA-256 of sweep_csv_text on the default 49-point grid.  Recorded from the
# separate ideal/physical implementation that the shared kernel path
# replaced; any change here is a change of output bytes.
SWEEP_DIGESTS = {
    "ideal": "23e939ad99c3d8051a356da1487077fc5de53aff5ca2946c1a21e02d830c3cb4",
    "physical": "31836f8c46c1484ee701d2d5b967436e8ef568f38143a5845e2a47147b1a70dd",
    "idealized_backward": "2e7a6b1896a8e611aefa99d6b62c346b5c8f41ddb63c94e67448eb1565fc5d51",
    "eps_prep": "17c67d91d5d2e0bad23bf25af04f46a150c198f0afe169919b92a90e8d42dd30",
    "eps_read": "2e6d0b0d222dd7ce69e217b94ec7d7201619de24c208429bb3c7d530bfc61a34",
    "eps_feed": "aab15b3eeb873ad3e4799c9a3a489bf3f64e6119e88722f90d3e77af06b17aa8",
    "eps_meas": "355026490848d23099aca3f72a9134338bb41165e830b489a5cf8af29d9214f9",
    "cavity_prep": "be60fe0cf2df5f3695ddfc23f86bc12732e0b3a3dd3cc4cdacbc9b5bb2268031",
    # relaxation defaults to zero, so these two equal the error-free physical run
    "relax_atom": "f1d1dec0d740e0590725b87a0a0686c6e3bac2ff913de5e52ec59b7fd82f0bf5",
    "relax_cavity": "f1d1dec0d740e0590725b87a0a0686c6e3bac2ff913de5e52ec59b7fd82f0bf5",
    "relax_atom@0.05": "f7b6ca2b4fa5e64535a920d2dbcb633d7c0c65c8f68d2d0ad92dc59ffb999b21",
    "relax_cavity@0.01": "f8ab560773953e1a74aed0093f0ab3a7a465964d8802db38003bf822c203452d",
}
ANALYZE_DIGESTS = {
    "backward": "17c67d91d5d2e0bad23bf25af04f46a150c198f0afe169919b92a90e8d42dd30",
    "forward_only": "3e2b1aaaecfa5a28d221bdc4334a67ef5a3c17dd454afbe8df34df655ddad62c",
}

# SHA-256 of the stdout of `demon-ep validate` (16 PASS lines with details),
# recorded before the acceptance tests were moved onto its check registry;
# any change here is a change of output bytes.
VALIDATE_DIGEST = "2a0a049d5f7cc45ec6a597e3eb5cf32ac57216a3c742229e7b6b42ddbe6114b8"

# SHA-256 of simulate_report, ideal and physical at three bias points and each
# single error at dbeta_tilde = 0, recorded before the CLI options were
# narrowed; any change here is a change of output bytes.
SIMULATE_DIGESTS = {
    ("ideal", -6.0): "f1c2028b9e7a6192beef55379b19dabf835b94f6360c5d64d8cdc64015f34153",
    ("ideal", 0.0): "32e2d593c985f7c9b8c9f98c224c2e448c42a9f0f81c33722572d49abe44a12c",
    ("ideal", 6.0): "c081f4941bdaa915668aaef22cb9158e226129b36158a92e0d29381e0c5ed851",
    ("physical", -6.0): "5cd5b64435184e72a38da61a498d5d55574fe757949be1d5e602554d5ccff2b2",
    ("physical", 0.0): "83125c38065d61b109f2e251ae775648f1889a5f27db2f1b4821e2d7f10b388d",
    ("physical", 6.0): "a5b298923ec6587cc02b26f9910fa7735e1d08c6967a9cc29204232c5c8bdaf8",
    ("eps_prep", 0.0): "03aa46ee0c29a6feb93f8cb75abc721ede7168eef27e5807f763541ebc42e940",
    ("eps_read", 0.0): "a84a5a0678d3404a56934e13bfb951848d4158194f69488ea54b48a3c03cb506",
    ("eps_feed", 0.0): "34195ac484bdbeaced47ee00fb58caf0e6050bad088b8eb8a93ad1d4bdde6af8",
    ("eps_meas", 0.0): "1d27b9e7b96372eea95074a6f7c89228c6677efd121ea6fa37469256ba0a5464",
    ("cavity_prep", 0.0): "7a61cb58eff8bc936400d257279a505d51ec783ee59d77e8c3ec28a988c8c25c",
    # relaxation defaults to zero, so these two equal the error-free physical run
    ("relax_atom", 0.0): "d3c4e66a60ce84b4999bce9a56a47b38598d7b2e47b36554c366371cca11055b",
    ("relax_cavity", 0.0): "d3c4e66a60ce84b4999bce9a56a47b38598d7b2e47b36554c366371cca11055b",
    # the only reports with relaxation switched on, and the idealized backward
    # protocol; recorded before the feedback balance shared sigma6's row terms
    ("idealized_backward", 0.0): "f212ba8a9aa48241ad045d2ede50b7e17a13da7d5537df7de2da5dec553e2598",
    ("relax_atom@0.05", 0.0): "04f86184519a1bf2fcf1c03c1031d1c3f75c2bfac8ff7af4a400a8bd63b2676b",
    ("relax_cavity@0.01", 0.0): "b86d1635141153c5a51bd16d7d8955f0fa91b6e15bb02574cd0f6e2e6b4a2f6b",
}


def _config(case: str) -> RunConfig:
    if case == "ideal":
        return RunConfig()
    if case == "physical":
        return RunConfig(mode="physical")
    if case == "idealized_backward":
        return RunConfig(mode="physical", idealized_backward=True)
    if case == "relax_atom@0.05":
        return RunConfig(mode="physical", single_error="relax_atom", relax_atom_prob=0.05)
    if case == "relax_cavity@0.01":
        return RunConfig(
            mode="physical", single_error="relax_cavity", relax_cavity_prob=0.01
        )
    return RunConfig(mode="physical", single_error=case)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SWEEP_DIGESTS))
def test_sweep_csv_bytes_are_frozen(case):
    assert _digest(sweep_csv_text(run_sweep(_config(case)))) == SWEEP_DIGESTS[case]


@pytest.mark.parametrize("case, dbeta", sorted(SIMULATE_DIGESTS))
def test_simulate_report_bytes_are_frozen(case, dbeta):
    report = runner.simulate_report(_config(case), dbeta)
    assert _digest(report) == SIMULATE_DIGESTS[case, dbeta]


def _serialized_tables(config: RunConfig):
    gibbs = GibbsSpec.from_dbeta(config.beta_cavity, 0.0)
    kernel = simulated_kernel(config.build_error_model(), mode=config.mode)
    fwd, bwd = point_tables(kernel, gibbs)
    return (
        serialize_table(conditional_from_table(fwd)),
        serialize_table(conditional_from_table(bwd)),
    )


def test_analysis_csv_bytes_are_frozen():
    config = _config("eps_prep")
    fwd_text, bwd_text = _serialized_tables(config)

    def forward():
        return parse_table(io.StringIO(fwd_text), "forward-rows-initial")

    backward = parse_table(io.StringIO(bwd_text), "backward-rows-final")
    both = run_analysis(config, forward(), backward)
    assert _digest(sweep_csv_text(both)) == ANALYZE_DIGESTS["backward"]
    # analyzing serialized tables reproduces the direct sweep
    assert ANALYZE_DIGESTS["backward"] == SWEEP_DIGESTS["eps_prep"]
    forward_only = sweep_csv_text(run_analysis(config, forward()))
    assert _digest(forward_only) == ANALYZE_DIGESTS["forward_only"]


def test_analyze_command_takes_its_layout_from_the_tables(tmp_path, capsys):
    # a forward table alone writes the bytes the forward-only layout froze
    fwd_text, bwd_text = _serialized_tables(_config("eps_prep"))
    (tmp_path / "fwd.txt").write_text(fwd_text)
    (tmp_path / "bwd.txt").write_text(bwd_text)
    conf = tmp_path / "run.conf"
    conf.write_text("mode = physical\nsingle_error = eps_prep\n")
    for tables, layout in ((["fwd.txt"], "forward_only"), (["fwd.txt", "bwd.txt"], "backward")):
        argv = ["analyze", *(str(tmp_path / name) for name in tables), "--config", str(conf)]
        assert cli.main(argv) == 0
        assert _digest(capsys.readouterr().out) == ANALYZE_DIGESTS[layout]


def test_analysis_builds_its_kernel_once(monkeypatch):
    config = RunConfig(mode="physical", dbeta_step=1.0)
    fwd_text, bwd_text = _serialized_tables(config)
    calls = _counting(monkeypatch, runner, "measured_kernel")
    results = run_analysis(
        config,
        parse_table(io.StringIO(fwd_text), "forward-rows-initial"),
        parse_table(io.StringIO(bwd_text), "backward-rows-final"),
    )
    assert len(results) == 13
    assert len(calls) == 1


def test_extreme_bias_fails_when_the_config_is_built():
    # exp(-beta_Q n) overflows at dbeta_tilde = 1000: the config names its
    # key, before a run can weigh a NaN table ("mass nan is not finite")
    with pytest.raises(ValueError, match="dbeta_start = 1000 gives non-finite Gibbs weights"):
        RunConfig(dbeta_start=1000, dbeta_stop=1000)


@pytest.mark.parametrize("dbeta, beta_qubit", [(-1e301, "inf"), (1e301, "-inf")])
def test_a_bias_whose_qubit_temperature_overflows_is_named_by_its_key(dbeta, beta_qubit):
    # beta_Q = beta_C (1 - dbeta) is infinite here, which GibbsSpec rejects on its
    # own; the config still names the key that set the bias
    config = RunConfig(frequency_ghz=1e10, dbeta_start=0.0, dbeta_stop=0.0)
    message = f"dbeta_stop = {dbeta!r} gives non-finite Gibbs weights: beta_qubit*omega is "
    with pytest.raises(ValueError, match="^" + re.escape(message + beta_qubit + " ")):
        config.check_bias(dbeta, "dbeta_stop")


def test_physical_mode_rejects_dims_smaller_than_the_preparation_table():
    dims = SystemDims(dim_cavity_init=2, dim_cavity_full=3)
    with pytest.raises(ValueError, match="cavity_prep prepares photon numbers 0..4"):
        run_sweep(RunConfig(mode="physical"), dims)


@pytest.mark.parametrize("init,full", [(2, 3), (6, 8)])
def test_ideal_mode_runs_at_any_dims(init, full):
    dims = SystemDims(dim_cavity_init=init, dim_cavity_full=full)
    for result in run_sweep(RunConfig(), dims):
        values = [result.sigma1, result.sigma2, result.sigma3,
                  result.sigma4, result.sigma5, result.sigma6]
        assert max(values) - min(values) <= 1e-9
        assert not result.flags


def test_simulate_two_atom_line_reads_the_configured_model():
    # ideal mode runs error-free dynamics, but the diagnostic still takes the
    # configured atom number and detection efficiency
    report = runner.simulate_report(RunConfig(nbar_atoms=0.4, detect_eff=0.8), 0.0)
    expected = format(two_atom_probability(0.4, 0.8), ".12g")
    assert f"two-atom event probability {expected} (diagnostic)" in report


def test_validate_stdout_is_frozen(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == len(validate.CHECKS) == 16
    assert _digest(out) == VALIDATE_DIGEST


def test_validate_writes_to_the_configured_out(tmp_path, capsys):
    conf, out = tmp_path / "run.conf", tmp_path / "validate.txt"
    conf.write_text(f"out = {out}\n")
    assert cli.main(["validate", "--config", str(conf)]) == 0
    assert capsys.readouterr() == ("", "")
    assert _digest(out.read_text()) == VALIDATE_DIGEST


def test_circuit_check_weighs_checked_blocks_not_single_circuits(monkeypatch):
    calls = collections.Counter()
    for module, name in ((protocol, "check_rows"), (protocol, "point_tables"),
                         (runner, "point_tables")):
        def counted(*args, _name=f"{module.__name__}.{name}", _f=getattr(module, name),
                    **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    ok, _ = dict(validate.CHECKS)["sigma2 = sigma6 identity"]()
    assert ok
    blocks = math.ceil(validate.CIRCUITS / validate.CIRCUIT_BLOCK)
    assert blocks == 16
    assert calls == {"demon_ep.protocol.check_rows": blocks}


def test_circuit_draw_matches_the_per_circuit_loop():
    # one draw per block reads the generator as the old loop did, circuit by
    # circuit: every conditional, beta_C and dbeta, and every (sigma2, sigma6)
    # pair of the old per-point path, bit for bit
    rng = np.random.default_rng(validate.CIRCUIT_SEED)
    circuits = 0
    for drawn in validate._circuit_blocks(DEFAULT_DIMS):
        count = len(drawn[0])
        expected = reference.random_circuits(rng, count)
        for new, old in zip(drawn, expected):
            assert new.shape == old.shape
            assert new.tobytes() == old.tobytes()
        cond, beta_cavity, dbeta = drawn
        rows = weigh_rows(ProtocolKernel(DEFAULT_DIMS, cond, None), beta_cavity, dbeta)
        data = entropy.EstimatorInputs(rows)
        pairs = np.stack([entropy.ESTIMATORS[name].rows(data) for name in ("sigma2", "sigma6")], 1)
        for r in range(count):
            gibbs = GibbsSpec.from_dbeta(float(beta_cavity[r]), float(dbeta[r]))
            fwd, _ = reference.point_tables(ProtocolKernel(DEFAULT_DIMS, cond[r], None), gibbs)
            old_pair = np.array([reference.sigma2(fwd), reference.sigma6(fwd)])
            assert pairs[r].tobytes() == old_pair.tobytes()
        circuits += count
    assert circuits == validate.CIRCUITS == 1000


def test_circuit_blocks_are_fresh_draws_of_each_block():
    # every block is drawn into one buffer; each yields the bytes of a fresh
    # draw of its own, normalised in place, and keeps them after later blocks
    blocks = list(validate._circuit_blocks(DEFAULT_DIMS))
    assert len(blocks) == math.ceil(validate.CIRCUITS / validate.CIRCUIT_BLOCK) == 16
    rng = np.random.default_rng(validate.CIRCUIT_SEED)
    for drawn in blocks:
        expected = reference.random_circuit_block(rng, len(drawn[0]))
        for new, old in zip(drawn, expected):
            assert new.shape == old.shape
            assert new.tobytes() == old.tobytes()
    assert len(blocks[-1][0]) == validate.CIRCUITS % validate.CIRCUIT_BLOCK == 40


def _random_physical() -> RunConfig:
    """A physical model with every error magnitude drawn from a seeded generator."""
    rng = np.random.default_rng(2025)
    return RunConfig(
        mode="physical",
        eps_prep=rng.uniform(0.0, 0.3),
        eps_read=rng.uniform(0.0, 0.3),
        eps_feed=rng.uniform(0.0, 0.3),
        relax_atom_prob=rng.uniform(0.0, 0.1),
        relax_cavity_prob=rng.uniform(0.0, 0.02),
        eta_e_g=rng.uniform(0.0, 0.1),
        eta_g_e=rng.uniform(0.0, 0.1),
        eta_g_f=rng.uniform(0.0, 0.1),
        eta_f_g=rng.uniform(0.0, 0.1),
    )


#: validate's configurations, the idealized backward run and a random model
CHAIN_CONFIGS = {
    "ideal": validate.IDEAL,
    **{config.single_error or "physical": config for config in validate.PHYSICALS},
    "idealized_backward": RunConfig(mode="physical", idealized_backward=True),
    "random": _random_physical(),
}


@pytest.mark.parametrize("case", list(CHAIN_CONFIGS))
def test_the_stacked_kernel_build_is_the_start_by_start_run(case):
    config = CHAIN_CONFIGS[case]
    kernel = runner.build_kernel(config)
    back = kernel.chain
    if config.idealized_backward:
        back = protocol._gate_chain(ErrorModel.ideal(), DEFAULT_DIMS, config.mode)
    cond, bcond, reset = reference.conditionals(kernel.chain, back)
    assert kernel.forward_cond.tobytes() == cond.tobytes()
    assert kernel.backward_cond.tobytes() == bcond.tobytes()
    assert kernel.backward_reset.tobytes() == reset.tobytes()


@pytest.mark.parametrize("case", list(CHAIN_CONFIGS))
def test_each_oracle_row_is_the_one_point_oracle(case):
    config = CHAIN_CONFIGS[case]
    chain = runner.build_kernel(config).chain
    points = [GibbsSpec.from_dbeta(config.beta_cavity, dbeta) for dbeta in config.grid()]
    assert len(points) == 49
    stages = tuple(protocol.STAGES)
    beta_qubit = np.array([gibbs.beta_qubit for gibbs in points])
    taps = protocol.oracle_rows(chain, beta_qubit, config.beta_cavity, stages)
    for r, gibbs in enumerate(points):
        for tap, state in zip(taps, reference.oracle_states(chain, gibbs, stages), strict=True):
            assert tap[r].tobytes() == state.probs.tobytes()


def _counting(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_validate_builds_each_kernel_once_per_run(monkeypatch):
    # ideal, physical and the seven single errors; a second run builds them
    # all again, so nothing built outlives a run.  Each one's coarse grid is
    # weighed once too, though three checks read the ideal and physical ones;
    # the serialization check weighs one more grid, of its measured kernel
    calls = _counting(monkeypatch, runner, "build_kernel")
    grids = _counting(monkeypatch, validate, "_coarse_rows")
    for _ in range(2):
        calls.clear()
        grids.clear()
        ok, _ = validate.run_all()
        assert ok
        assert len(calls) == 2 + len(validate.SINGLE_ERRORS) == 9
        assert len(grids) == 9 + 1
        assert validate._kernel.cache_info().currsize == 0
        assert validate._coarse.cache_info().currsize == 0


def test_validate_builds_its_configurations_once(monkeypatch):
    # the nine certified configurations are module constants; a run builds
    # only the two configs the config-io check parses
    calls = _counting(monkeypatch, RunConfig, "__post_init__")
    ok, _ = validate.run_all()
    assert ok
    assert len(calls) == 2
    assert validate.PHYSICALS == (validate.PHYSICAL, *(
        RunConfig(mode="physical", single_error=name) for name in validate.SINGLE_ERRORS))


def test_each_check_alone_prints_what_the_run_prints():
    ok, text = validate.run_all()
    assert ok
    lines = text.splitlines()
    for (name, check), line in zip(validate.CHECKS, lines, strict=True):
        ok, detail = check()
        assert f"{'PASS' if ok else 'FAIL'}  {name}: {detail}" == line


def test_oracle_check_builds_one_chain_per_configuration(monkeypatch):
    calls = _counting(monkeypatch, protocol, "readout_channel")
    ok, _ = dict(validate.CHECKS)["oracle consistency"]()
    assert ok
    assert len(calls) <= 2 + len(validate.SINGLE_ERRORS)


def test_each_row_is_checked_once(monkeypatch):
    # simulate and validate read the checked block's arrays; rebuilding a row as
    # a TrajectoryTable pair or a SigmaHistogram ran every check again, and so
    # did checking a block's histograms, binned from tables already checked
    tables = _counting(monkeypatch, protocol, "_table_faults")
    # protocol's own binding of the mass rule: the parse-time checks of the
    # tables validate serializes (dataio's binding) are left out
    masses = _counting(monkeypatch, protocol, "_mass_faults")
    histograms = _counting(monkeypatch, protocol.SigmaHistogram, "__post_init__")
    runner.simulate_report(RunConfig(mode="physical"), 0.75)
    assert (len(tables), len(masses), len(histograms)) == (2, 2, 0)  # forward, backward
    tables.clear()
    masses.clear()
    ok, _ = validate.run_all()
    assert ok
    assert len(tables) == len(masses) <= 68 and not histograms


@pytest.mark.parametrize("idealized_backward, chains", [(False, 1), (True, 2)])
def test_simulate_builds_one_chain_per_direction_model(monkeypatch, idealized_backward, chains):
    # the oracle runs the kernel's forward chain
    calls = _counting(monkeypatch, protocol, "readout_channel")
    config = RunConfig(mode="physical", idealized_backward=idealized_backward)
    runner.simulate_report(config, 0.75)
    assert len(calls) == chains


@pytest.mark.parametrize("single_error, models", [("none", 1), ("eps_read", 2)])
def test_simulate_checks_each_gate_and_model_once(monkeypatch, tmp_path, single_error, models):
    # the config's model is built from the given values and checked once, then
    # idealized once for a single error; each of the four gates is checked once,
    # on the register, and the kernel's five composes once each
    conf = tmp_path / "run.conf"
    conf.write_text("eps_read = 0.2\neta_e_g = 0.04\ncavity_prep_1 = 0:0.1 1:0.9\n")
    channels = _counting(monkeypatch, StochasticChannel, "__post_init__")
    errors = _counting(monkeypatch, ErrorModel, "__post_init__")
    argv = ["simulate", "--mode", "physical", "--single-error", single_error,
            "--config", str(conf), "--dbeta", "0.75", "--out", str(tmp_path / "report.txt")]
    assert cli.main(argv) == 0
    assert (len(channels), len(errors)) == (4 + 5, models)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dbeta, message", [
    (1000.0, "dbeta = 1000.0 gives non-finite Gibbs weights"),
    (math.nan, "dbeta must be finite, got nan"),
])
def test_simulate_report_checks_its_bias(dbeta, message):
    # it once weighed the point anyway: RuntimeWarnings, then a forward mass of nan
    with pytest.raises(ValueError, match=r"\A" + message):
        runner.simulate_report(RunConfig(), dbeta)


def test_validate_reports_failed_and_crashed_checks(monkeypatch, capsys):
    def failing():
        return False, "worst deviation 1.00e+00"

    def crashing():
        raise RuntimeError("boom")

    monkeypatch.setattr(
        validate, "CHECKS", (("failing check", failing), ("crashing check", crashing))
    )
    ok, text = validate.run_all()
    assert ok is False
    assert text.splitlines() == [
        "FAIL  failing check: worst deviation 1.00e+00",
        "FAIL  crashing check: raised RuntimeError: boom",
    ]
    assert cli.main(["validate"]) == 2
    assert capsys.readouterr().out.count("FAIL") == 2


def _nan_after_check(monkeypatch, attribute, skipped):
    """Give every coarse block after the first ``skipped`` a NaN row in
    ``attribute``, past its table check."""
    original, blocks = validate._coarse_rows, []

    def poisoned(*args):
        rows = original(*args)
        blocks.append(rows)
        if len(blocks) > skipped:
            getattr(rows, attribute)[-1] = math.nan
        return rows

    _poison_coarse_rows(monkeypatch, poisoned)


def _poison_coarse_rows(monkeypatch, poisoned):
    """Weigh every coarse grid through ``poisoned``, into a cache of the test's own:
    the checks weigh their grids again, and no later check reads a poisoned one."""
    monkeypatch.setattr(validate, "_coarse_rows", poisoned)
    monkeypatch.setattr(validate, "_coarse", functools.cache(validate._coarse.__wrapped__))


def _nan_oracle(monkeypatch):
    original = protocol.oracle_rows
    monkeypatch.setattr(protocol, "oracle_rows", lambda *args: tuple(
        np.full_like(state, math.nan) for state in original(*args)))


def _estimator_set(monkeypatch, value):
    """Give the last point of every ``runner._run`` a first estimator of ``value``."""
    original = runner._run

    def run(*args):
        results = original(*args)
        results.estimators[0, -1] = value
        return results

    monkeypatch.setattr(runner, "_run", run)


def _nan_histogram(monkeypatch):
    original = runner._run_block

    def run_block(*args):
        tables, hists, results = original(*args)
        hists.sigma[-1, 0] = math.nan
        return tables, hists, results

    monkeypatch.setattr(runner, "_run_block", run_block)


def _nan_gap(monkeypatch):
    sigma6 = entropy.ESTIMATORS["sigma6"]

    def rows(data):
        values = sigma6.rows(data)
        values[-1] = math.nan
        return values

    monkeypatch.setitem(entropy.ESTIMATORS, "sigma6", replace(sigma6, rows=rows))


# every numeric check fails on a NaN deviation; for the seven of them that once
# folded with Python's max, the NaN follows a finite deviation, which max kept
NAN_DEVIATIONS = {
    "thermal distributions": lambda mp: mp.setattr(
        statespace, "mean_occupation", lambda p: math.nan),
    "information measures": lambda mp: mp.setattr(
        statespace, "mutual_information", lambda *args: math.nan),
    "forward tables": lambda mp: _nan_after_check(mp, "forward", 1),  # physical, after ideal
    "backward conservation": lambda mp: _nan_after_check(mp, "unlabeled", 1),
    "oracle consistency": _nan_oracle,
    "fluctuation relation": _nan_histogram,
    "estimator equivalence": lambda mp: _estimator_set(mp, math.nan),
    "sigma2 = sigma6 identity": _nan_gap,
    "feedback balance": lambda mp: mp.setattr(
        entropy, "feedback_balance_residual", lambda *args: math.nan),
    "serialization round trip": lambda mp: _nan_after_check(mp, "forward", 0),
}


@pytest.mark.parametrize("name", sorted(NAN_DEVIATIONS))
def test_a_nan_deviation_fails_its_check(monkeypatch, name):
    NAN_DEVIATIONS[name](monkeypatch)
    ok, detail = dict(validate.CHECKS)[name]()
    assert not ok
    assert "nan" in detail


def _off_support_after_check(monkeypatch):
    """Give the ideal block's dbeta = -1 row a weight off the ideal support."""
    original = validate._coarse_rows

    def poisoned(kernel, *args):
        rows = original(kernel, *args)
        if kernel is validate._kernel(validate.IDEAL):
            rows.forward[2, 0, 0, 0, 0, 1] = 0.5
        return rows

    _poison_coarse_rows(monkeypatch, poisoned)


def _labels_reversed(monkeypatch):
    original = dataio.parse_table

    def parse(*args):
        table = original(*args)
        return ConditionalTable(table.row_labels[::-1], table.col_labels, table.values[::-1],
                                table.orientation)

    monkeypatch.setattr(dataio, "parse_table", parse)


def _comment_per_call(monkeypatch):
    original, calls = dataio.serialize_table, itertools.count()
    monkeypatch.setattr(dataio, "serialize_table",
                        lambda table: original(table, comment=f"call {next(calls)}"))


def _empty_backward_bin(monkeypatch):
    original = runner._run_block

    def run_block(kernel, config, grid):
        tables, hists, results = original(kernel, config, grid)
        if len(grid) == len(validate.IDEAL.grid()):  # the fluctuation relation's block
            hists.p_backward[3, 0] = 0.0
        return tables, hists, results

    monkeypatch.setattr(runner, "_run_block", run_block)


#: a structural fault raises in its check; the run prints its message on a FAIL line
STRUCTURAL_FAULTS = {
    "forward support": (_off_support_after_check,
                        "FAIL  forward tables: raised ValueError: ideal support unexpected "
                        "at dbeta=-1"),
    "serialized labels": (_labels_reversed, "FAIL  serialization round trip: raised "
                          "ValueError: labels changed in round trip"),
    "idempotence": (_comment_per_call, "FAIL  serialization round trip: raised "
                    "ValueError: serialization not idempotent"),
    "negative divergence": (
        lambda mp: mp.setattr(statespace, "relative_entropy_rows", lambda p, q: -np.ones(len(p))),
        "FAIL  information measures: raised ValueError: negative divergence -1.0"),
    "empty backward bin": (_empty_backward_bin, "FAIL  fluctuation relation: raised "
                           "ValueError: empty backward bin at dbeta=-5.25"),
}


@pytest.mark.parametrize("fault", sorted(STRUCTURAL_FAULTS))
def test_a_structural_fault_fails_its_check_with_its_message(monkeypatch, fault):
    patch, line = STRUCTURAL_FAULTS[fault]
    patch(monkeypatch)
    ok, text = validate.run_all()
    assert not ok
    assert line in text.splitlines()


def test_check_functions_keep_their_names():
    # the benchmark's tracer names each check's span from its function
    assert [fn.__name__ for _, fn in validate.CHECKS] == [
        "check_thermal_distributions", "check_information_measures",
        "check_channel_stochasticity", "check_channel_reversal", "check_error_model",
        "check_forward_tables", "check_backward_conservation", "check_oracle_consistency",
        "check_fluctuation_relation", "check_estimator_equivalence",
        "check_sigma2_sigma6_identity", "check_second_law", "check_feedback_balance",
        "check_serialization_roundtrip", "check_config_io", "check_closed_form_anchors",
    ]


@pytest.mark.parametrize("dims", [DEFAULT_DIMS, SystemDims(3, 4), SystemDims(6, 8)],
                         ids=["default", "3-4", "6-8"])
def test_the_ideal_support_rule_holds_at_any_dims(dims):
    rows = validate._coarse_rows(runner.build_kernel(RunConfig(), dims))
    support = validate._ideal_support(dims)
    assert support.shape == rows.forward.shape[1:]
    assert ((rows.forward > 0) == support).all()
    if dims == DEFAULT_DIMS:  # the mask the check once wrote out for these dims
        expected = np.zeros(support.shape, dtype=bool)
        expected[0, 0, :, 0, :4] = expected[1, 1, :, 0, 1:] = np.eye(4, dtype=bool)
        assert (support == expected).all()


def _second_law_with(monkeypatch, value):
    _estimator_set(monkeypatch, value)
    return dict(validate.CHECKS)["second law"]()


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_second_law_fails_on_a_nan_or_minus_infinity(monkeypatch, value):
    ok, detail = _second_law_with(monkeypatch, value)
    assert not ok
    assert detail == f"lowest finite estimator {value:.3e}"


def test_second_law_excludes_plus_infinity(monkeypatch):
    # a support mismatch makes an estimator +inf; the point is flagged, not a violation
    ok, _ = _second_law_with(monkeypatch, math.inf)
    assert ok


@pytest.mark.parametrize(
    "tables, mode", [("physical", "ideal"), ("ideal", "physical")]
)
def test_analysis_reads_the_register_from_its_tables(tables, mode):
    # the backward table's (m_Q=1, k=0) columns, not the configured mode,
    # decide where that branch's weight goes
    fwd_text, bwd_text = _serialized_tables(_config(tables))
    results = run_analysis(
        RunConfig(mode=mode),
        parse_table(io.StringIO(fwd_text), "forward-rows-initial"),
        parse_table(io.StringIO(bwd_text), "backward-rows-final"),
    )
    assert _digest(sweep_csv_text(results)) == SWEEP_DIGESTS[tables]


def test_readme_python_example_runs_the_sweep_kernel_path(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert readme.count("```python\n") == 1
    example = readme.split("```python\n")[1].split("```")[0]
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    sweep = run_sweep(RunConfig(mode="physical", dbeta_start=6.0, dbeta_stop=6.0))
    assert sweep_csv_text(reference.columns([namespace["result"]])) == sweep_csv_text(sweep)
    assert capsys.readouterr().out.strip()


# ---------------------------------------------------------------------------
# invariants on any valid input

#: a probability, with the edge values drawn often (they break supports)
_PROBABILITY = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _stochastic(shape, axis):
    """Random matrices whose slices along ``axis`` are distributions."""

    def normalize(m):
        empty = np.flatnonzero(m.sum(axis=axis) == 0.0)
        m[empty, empty] = 1.0  # an all-zero slice keeps its diagonal entry
        return m / m.sum(axis=axis, keepdims=True)

    return arrays(np.float64, shape, elements=_PROBABILITY).map(normalize)


_ERROR_MODELS = st.builds(
    ErrorModel,
    eps_prep=_PROBABILITY,
    eps_read=_PROBABILITY,
    eps_feed=_PROBABILITY,
    confusion=_stochastic((3, 3), axis=0),
    cavity_prep=_stochastic((4, 5), axis=1),
    relax_atom_prob=_PROBABILITY,
    relax_cavity_prob=_PROBABILITY,
)

#: the initial truncation, and an evolved space one or two levels larger
_DIMS = st.integers(2, 8).flatmap(
    lambda init: st.builds(SystemDims, st.just(init), st.integers(init + 1, init + 2))
)


@settings(max_examples=100, deadline=None)
@given(
    model=_ERROR_MODELS,
    mode=st.sampled_from(("physical", "ideal")),
    idealized_backward=st.booleans(),
    ends=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2).map(sorted),
    count=st.integers(1, 41),
    dims=_DIMS,
)
def test_invariants_hold_for_any_physical_model_and_bias(
    model, mode, idealized_backward, ends, count, dims
):
    # ideal mode runs error-free dynamics whatever model is drawn;
    # idealized_backward runs the backward protocol on a chain of its own
    # physical mode needs dims that hold the drawn cavity_prep's levels 0..4
    assume(mode == "ideal" or dims.dim_cavity_full >= model.cavity_prep.shape[1])
    lo, hi = ends
    config = RunConfig(mode=mode, dbeta_start=lo, dbeta_stop=hi,
                       dbeta_step=max((hi - lo) / max(count - 1, 1), 1e-3))
    kernel = simulated_kernel(
        model if mode == "physical" else None, dims, mode,
        ErrorModel.ideal() if idealized_backward else None,
    )
    results = runner._run(kernel, config)  # raises if a table check fails
    # the class path and the label path both give the loop's histogram, bit for bit
    rows = weigh_rows(kernel, config.beta_cavity, config.grid())
    hist = histogram_rows(rows, config.sigma_tol)
    marginals = final_state_rows(rows.forward)
    for r in range(len(rows.dbeta)):
        expected = reference.sigma_histogram(*rows.tables(r), tol=config.sigma_tol)
        for name in ("sigma", "p_forward", "p_backward"):
            assert getattr(hist.row(r), name).tobytes() == getattr(expected, name).tobytes()
        # the tables' final state is the one the whole-state oracle evolves
        (oracle,) = oracle_states(kernel.chain, rows.gibbs(r), ("final",))
        np.testing.assert_allclose(marginals[r], oracle.probs, rtol=0, atol=1e-12)
    for result in results:
        sigmas = [result.sigma1, result.sigma2, result.sigma3,
                  result.sigma4, result.sigma5, result.sigma6]
        assert not np.isnan([*sigmas, result.heat_cavity, result.mean_info]).any()
        for i, value in enumerate(sigmas, start=1):
            if np.isinf(value):
                assert f"sigma{i}:infinite" in result.flags
        s2, s4 = result.sigma2, result.sigma4
        assert abs(s2 - result.sigma6) <= 1e-12 * max(1.0, abs(s2))
        if np.isfinite(s4):
            slack = 1e-12 * max(1.0, abs(s4))
            assert result.sigma3 <= s4 + slack
            assert result.sigma5 <= s4 + slack
        if mode == "ideal":
            assert max(sigmas) - min(sigmas) <= 1e-9
    # every number cell reads back to the bits it was written from, and every
    # inf cell carries its estimator's flag
    header, *lines = csv.reader(io.StringIO(sweep_csv_text(results)))
    written = np.array([[float(cell) for cell in line[:-1]] for line in lines]).T
    expected = results.numbers[[entropy.COLUMNS.index(name) for name in header[:-1]]]
    assert written.tobytes() == expected.tobytes()
    for line in lines:
        flags = line[-1].split(";")
        for name, cell in zip(header, line[:-1]):
            if "inf" in cell:
                assert f"{name}:infinite" in flags

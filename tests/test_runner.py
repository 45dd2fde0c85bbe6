"""Run drivers: frozen CSV and validate bytes, the shared kernel path, and input checks."""

from __future__ import annotations

import hashlib
import io
import warnings

import pytest

import demon_ep.runner as runner
from demon_ep import (
    GibbsSpec,
    RunConfig,
    SystemDims,
    backward_table,
    branch_probability,
    cli,
    conditional_from_table,
    forward_table,
    parse_table,
    run_analysis,
    run_sweep,
    serialize_table,
    sweep_csv_text,
    two_atom_probability,
    validate,
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
def test_sweep_csv_bytes_are_frozen(case, quiet_backward):
    assert _digest(sweep_csv_text(run_sweep(_config(case)))) == SWEEP_DIGESTS[case]


def _serialized_tables(config: RunConfig):
    gibbs = GibbsSpec.from_dbeta(config.beta_cavity, 0.0)
    model = config.build_error_model()
    fwd = forward_table(gibbs, model, mode=config.mode)
    bwd = backward_table(gibbs, model, mode=config.mode, forward_pk=branch_probability(fwd))
    return (
        serialize_table(conditional_from_table(fwd)),
        serialize_table(conditional_from_table(bwd)),
    )


def test_analysis_csv_bytes_are_frozen(quiet_backward):
    config = _config("eps_prep")
    fwd_text, bwd_text = _serialized_tables(config)

    def forward():
        return parse_table(io.StringIO(fwd_text), "forward-rows-initial")

    backward = parse_table(io.StringIO(bwd_text), "backward-rows-final")
    both = run_analysis(config, forward(), backward)
    assert _digest(sweep_csv_text(both)) == ANALYZE_DIGESTS["backward"]
    # analyzing serialized tables reproduces the direct sweep
    assert ANALYZE_DIGESTS["backward"] == SWEEP_DIGESTS["eps_prep"]
    forward_only = sweep_csv_text(run_analysis(config, forward()), forward_only=True)
    assert _digest(forward_only) == ANALYZE_DIGESTS["forward_only"]


def test_analysis_builds_its_kernel_once(monkeypatch, quiet_backward):
    config = RunConfig(mode="physical", dbeta_step=1.0)
    fwd_text, bwd_text = _serialized_tables(config)
    calls = []
    original = runner.measured_kernel

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "measured_kernel", counting)
    results = run_analysis(
        config,
        parse_table(io.StringIO(fwd_text), "forward-rows-initial"),
        parse_table(io.StringIO(bwd_text), "backward-rows-final"),
    )
    assert len(results) == 13
    assert len(calls) == 1


def test_extreme_bias_fails_at_the_forward_table():
    # exp(-beta_Q n) overflows at dbeta_tilde = 1000; the NaN table must not
    # pass the mass check and surface later as a "mass 0.0" histogram error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="forward table: mass nan is not finite"):
            run_sweep(RunConfig(dbeta_start=1000, dbeta_stop=1000))


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


def test_validate_reports_failed_and_crashed_checks(monkeypatch, capsys):
    def failing():
        return False, "worst deviation 1.00e+00"

    def crashing():
        raise RuntimeError("boom")

    monkeypatch.setattr(
        validate, "CHECKS", (("failing check", failing), ("crashing check", crashing))
    )
    assert validate.run_all() is False
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  failing check: worst deviation 1.00e+00",
        "FAIL  crashing check: raised RuntimeError: boom",
    ]
    assert cli.main(["validate"]) == 2
    assert capsys.readouterr().out.count("FAIL") == 2

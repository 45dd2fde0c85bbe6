"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from demon_ep import GibbsSpec, kelvin_to_beta_omega

# Inverse cavity temperature (in units of the transition energy) for the
# reference operating point: 2.8 K bath, 51 GHz transition.
BETA_C = kelvin_to_beta_omega(2.8, 51.0)


@pytest.fixture(scope="session")
def beta_c() -> float:
    return BETA_C


@pytest.fixture()
def gibbs_at():
    """Factory for a GibbsSpec at a given reduced bias."""

    def _make(dbeta_tilde: float) -> GibbsSpec:
        return GibbsSpec.from_dbeta(BETA_C, dbeta_tilde)

    return _make


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria verdict lines after the normal summary."""

    import sys

    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(module, "VERDICTS", []) if module is not None else []
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

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


def pytest_report_header(config):
    """The platform the frozen bytes met: numpy, its SIMD features and OpenBLAS core."""

    import ctypes
    from pathlib import Path

    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    core = "unknown"  # an OpenBLAS without the symbol, or none in numpy.libs
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    found = " ".join(name for name, present in __cpu_features__.items() if present)
    return [f"numpy {np.__version__}, OpenBLAS core {core}", f"numpy SIMD features: {found}"]


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

import platform

import numpy as np
import pytest
from hypothesis import settings

from quditphase import QuditSystem

# fixed examples for tests that opt in with @settings(settings.get_profile(...)):
# every run of such a test draws the same inputs and gives the same result
settings.register_profile("deterministic", derandomize=True, database=None, max_examples=100, deadline=None)


def pytest_report_header(config):
    """The numeric stack under the run. The ``==`` report pins and the gkp-sim
    sha256 pins were recorded on numpy 2.4.6 with scipy-openblas 0.3.31, so a
    pin that fails on another stack names the stack that produced it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    return f"numeric stack: Python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}"


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(params=[2, 3, 4, 5])
def single(request):
    return QuditSystem(request.param, 1)

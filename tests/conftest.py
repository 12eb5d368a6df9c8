import numpy as np
import pytest
from hypothesis import settings

from quditphase import QuditSystem

# fixed examples for tests that opt in with @settings(settings.get_profile(...)):
# every run of such a test draws the same inputs and gives the same result
settings.register_profile("deterministic", derandomize=True, database=None, max_examples=100, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(params=[2, 3, 4, 5])
def single(request):
    return QuditSystem(request.param, 1)

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import fraccq  # noqa: E402


@pytest.fixture(scope="session")
def example1():
    """Dense 2x2 manufactured problem with closed-form data."""
    return fraccq.example1_problem().problem


@pytest.fixture(scope="session")
def example2_small():
    return fraccq.example2_problem(8).problem


@pytest.fixture(scope="session")
def tbc_problem_small():
    problem0 = fraccq.example3_problem(101, 2.0)
    problem, offset = fraccq.transform_initial(problem0)
    return problem


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

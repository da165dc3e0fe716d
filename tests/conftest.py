import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import fraccq  # noqa: E402
from fraccq import contour  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts without cached contour parameters, so no call
    count depends on which test ran before it. The caches memoise pure
    functions; a circle split is kept only by a problem's stage plan."""
    contour.select_parameters.cache_clear()
    contour.sized_K.cache_clear()


# The problem fixtures are built per test: a Problem keeps the stage plan
# of its solves, and a shared one would carry it from test to test. All
# three are closed-form and cheap.


@pytest.fixture
def example1():
    """Dense 2x2 manufactured problem with closed-form data."""
    return fraccq.example1_problem().problem


@pytest.fixture
def example2_small():
    return fraccq.example2_problem(8).problem


@pytest.fixture
def tbc_problem_small():
    return fraccq.example3_problem(101, 2.0)[0]


@pytest.fixture
def sdirk2():
    """The 2-stage, L-stable SDIRK scheme, g = 1 - 1/sqrt(2): stiffly
    accurate, with the defective matrix A = [[g, 0], [1-g, g]] (one
    eigenvalue g, one eigenvector)."""
    g = 1.0 - 1.0 / np.sqrt(2.0)
    a = np.array([[g, 0.0], [1.0 - g, g]])
    return fraccq.Tableau(2, a, a[-1], np.array([g, 1.0]), 2, 1, "sdirk2")


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes of the stacks handed to np.linalg.eig during the test."""
    calls = []
    original = np.linalg.eig

    def counting_eig(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

"""Fast parallel Runge-Kutta convolution quadrature for Caputo fractional
evolution equations with sectorial operators."""

from . import _env  # noqa: F401  (must run before numpy loads)
from .caputo import (
    caputo_oracle,
    example1_problem,
    example2_problem,
    example3_problem,
)
from .contour import theta1
from .errors import FracCQError
from .fastcq import CQConfig, RunStats, direct_cq, fast_solve
from .operators import (
    OperatorFamily,
    Problem,
    dense_operator,
    periodic_compact_fd_3d,
    schrodinger_tbc_1d,
    transform_initial,
)
from .tableau import Tableau, radau_iia

__version__ = "0.1.0"

__all__ = [
    "CQConfig",
    "FracCQError",
    "OperatorFamily",
    "Problem",
    "RunStats",
    "Tableau",
    "caputo_oracle",
    "dense_operator",
    "direct_cq",
    "example1_problem",
    "example2_problem",
    "example3_problem",
    "fast_solve",
    "periodic_compact_fd_3d",
    "radau_iia",
    "schrodinger_tbc_1d",
    "theta1",
    "transform_initial",
]

"""Fast parallel Runge-Kutta convolution quadrature for Caputo fractional
evolution equations with sectorial operators."""

from . import _env  # noqa: F401  (must run before numpy loads)
from .caputo import (
    caputo_oracle,
    example1_problem,
    example2_problem,
    example3_problem,
)
from .contour import ContourLevel, ContourParams, level_nodes, mu_level, select_parameters, theta1
from .errors import FracCQError
from .fastcq import (
    CQConfig,
    LevelPlan,
    RunStats,
    direct_cq,
    fast_solve,
    first_block,
    plan_levels,
    rk_march_scalar,
)
from .operators import (
    OperatorFamily,
    Problem,
    dense_operator,
    periodic_compact_fd_3d,
    schrodinger_tbc_1d,
    sector_probe,
    transform_initial,
)
from .tableau import Tableau, check_assumptions, delta, radau_iia, stability

__version__ = "0.1.0"

__all__ = [
    "CQConfig",
    "ContourLevel",
    "ContourParams",
    "FracCQError",
    "LevelPlan",
    "OperatorFamily",
    "Problem",
    "RunStats",
    "Tableau",
    "caputo_oracle",
    "check_assumptions",
    "delta",
    "dense_operator",
    "direct_cq",
    "example1_problem",
    "example2_problem",
    "example3_problem",
    "fast_solve",
    "first_block",
    "level_nodes",
    "mu_level",
    "periodic_compact_fd_3d",
    "plan_levels",
    "radau_iia",
    "rk_march_scalar",
    "schrodinger_tbc_1d",
    "sector_probe",
    "select_parameters",
    "stability",
    "theta1",
    "transform_initial",
]

"""Conservative event-driven integration of piecewise-smooth ODEs."""

from .diagnostics import (
    BoundReport,
    OrderEstimate,
    check_crossing_bound,
    conserved_error_series,
    crossing_time_errors,
    discrete_transversality,
    estimate_order,
)
from .engine import (
    CrossingEvent,
    RegionSegment,
    Trajectory,
    integrate,
    locate_crossing,
    smooth_step,
)
from .model import (
    Classification,
    ConservedSet,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    classify_interface_point,
    field_for_side,
    side_of,
)
from .oracles import HarmonicOracle, OracleEvent, harmonic_oracle, reference_trajectory
from .schemes import (
    DiscreteVectorField,
    elliptic_dmm_dvf,
    implicit_midpoint_dvf,
    rk2_dvf,
    rk4_dvf,
)
from .solvers import (
    SolveStats,
    bracketed_root,
    fixed_point,
    newton,
    quadratic_root_bound,
)
from .systems import elliptic_system, harmonic_system, make_system, resolve_scheme

__all__ = [
    "BoundReport", "Classification", "ConservedSet", "CrossingEvent",
    "DiscreteVectorField", "HarmonicOracle", "OracleEvent", "OrderEstimate",
    "PwsSystem", "RegionSegment", "RegionSide", "SolveStats",
    "SwitchingSurface", "Trajectory", "bracketed_root", "check_crossing_bound",
    "classify_interface_point", "conserved_error_series",
    "crossing_time_errors", "discrete_transversality",
    "elliptic_dmm_dvf", "elliptic_system", "estimate_order", "field_for_side",
    "fixed_point", "harmonic_oracle", "harmonic_system", "implicit_midpoint_dvf",
    "integrate", "locate_crossing", "make_system", "newton",
    "quadratic_root_bound", "reference_trajectory", "resolve_scheme", "rk2_dvf",
    "rk4_dvf", "side_of", "smooth_step",
]

__version__ = "0.1.0"

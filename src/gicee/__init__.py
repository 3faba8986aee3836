"""Secrecy rate regions for the two-user Gaussian interference channel
with an external eavesdropper."""

__version__ = "0.1.0"

from .gaussmi import (
    DECODABLE,
    RECEIVERS,
    SignalIndex,
    clamp_rate,
    gamma,
    mi_covariance_oracle,
)
from .model import (
    AllocationReport,
    ChannelParams,
    PowerState,
    TimeSharedAllocation,
    preset,
    validate_allocation,
)
from .polytope import (
    Frontier,
    LpResult,
    RateSystem,
    SolverFailure,
    grid_feasibility_oracle,
    lp_solve,
    pareto_merge,
    project_frontier,
)
from .region import (
    R1_OBJECTIVE,
    R2_OBJECTIVE,
    RegionSpec,
    build_system,
    region_for_allocation,
    region_union,
)
from .schemes import (
    ctdma_region,
    single_power_states,
    single_user_wiretap,
)

__all__ = [
    "AllocationReport",
    "ChannelParams",
    "DECODABLE",
    "Frontier",
    "LpResult",
    "PowerState",
    "R1_OBJECTIVE",
    "R2_OBJECTIVE",
    "RECEIVERS",
    "RateSystem",
    "RegionSpec",
    "SignalIndex",
    "SolverFailure",
    "TimeSharedAllocation",
    "build_system",
    "clamp_rate",
    "ctdma_region",
    "gamma",
    "grid_feasibility_oracle",
    "lp_solve",
    "mi_covariance_oracle",
    "pareto_merge",
    "preset",
    "project_frontier",
    "region_for_allocation",
    "region_union",
    "single_power_states",
    "single_user_wiretap",
    "validate_allocation",
]

"""Secrecy rate regions for the two-user Gaussian interference channel
with an external eavesdropper.

The public names below are imported from their modules on first use, so
that ``import gicee`` loads no submodule and each command of
:mod:`gicee.cli` compiles only the code it runs.  :class:`SolverFailure`
lives here, so the command line can catch it before numpy loads.
"""

import importlib

__version__ = "0.1.0"


class SolverFailure(RuntimeError):
    """The pivot sequence stalled or behaved inconsistently."""


_HOMES = {
    "gaussmi": ("DECODABLE", "RECEIVERS", "SignalIndex", "clamp_rate", "gamma",
                "single_user_wiretap"),
    "model": ("ChannelParams", "PowerState", "preset", "read_allocation",
              "validate_allocation"),
    "frontier": ("Frontier", "pareto_merge"),
    "polytope": ("LpResult", "lp_solve", "project_frontier"),
    "region": ("R1_OBJECTIVE", "R2_OBJECTIVE", "RegionSpec", "build_system",
               "region_for_allocation", "region_union"),
    "schemes": ("ctdma_region", "single_power_states"),
    "validation": ("grid_feasibility_oracle", "mi_covariance_oracle"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_MODULE_OF, "SolverFailure"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

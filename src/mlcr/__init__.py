"""Multi-layer cops-and-robbers: exact solving, bounds, generators, simulation."""

from .core import (
    AllocationPlan,
    GameVerdict,
    MlgError,
    MlgParseError,
    MultiLayerGraph,
    RobberSpec,
    StateBudgetExceeded,
    Winner,
    flatten,
    ml_min_degree,
    parse_mlg,
    serialize_mlg,
)

# The solver imports numpy; its names resolve on first access (PEP 562), so
# `import mlcr` and the commands that build no table do not load it.
_SOLVER_NAMES = frozenset({
    "CopWinTable",
    "build_copwin",
    "multilayer_cop_number",
    "single_layer_cop_number",
})


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AllocationPlan",
    "CopWinTable",
    "GameVerdict",
    "MlgError",
    "MlgParseError",
    "MultiLayerGraph",
    "RobberSpec",
    "StateBudgetExceeded",
    "Winner",
    "build_copwin",
    "flatten",
    "ml_min_degree",
    "multilayer_cop_number",
    "parse_mlg",
    "serialize_mlg",
    "single_layer_cop_number",
]

__version__ = "0.1.0"

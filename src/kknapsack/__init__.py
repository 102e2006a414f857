"""Approximation scheme and exact oracles for the cardinality-constrained
0-1 knapsack problem: pick at most (or exactly) K of n items maximising
profit under a weight budget, with a guaranteed (1 - eps) fraction of the
optimum.

Public surface:
  instance_model   exact-rational instances, solutions, JSON/CSV io
  preprocessing    optimum estimate, geometric profit classes
  large_items      weight tables over a profit grid, structured convolution
  small_items      the exact box-LP relaxation for low-profit items
  combiner         end-to-end solves (both cardinality modes)
  oracles          independent exact references for tests
  generator        seeded instance families
  cli              command-line entry points
"""

from .combiner import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    SplitCandidate,
    solve,
    solve_with_details,
)
from .instance_model import (
    Instance,
    Item,
    Mode,
    Solution,
    evaluate_solution,
    format_rational,
    load_instance,
    load_instance_csv,
    make_solution,
    parse_rational,
    save_instance,
    save_instance_csv,
    validate_instance,
)
from .preprocessing import (
    LargeClass,
    Partition,
    SmallClass,
    TrivialInstanceError,
    build_partition,
    half_approx_opt,
)

__version__ = "0.1.0"

__all__ = [
    "InfeasibleInstanceError",
    "Instance",
    "InvalidInstanceError",
    "Item",
    "LargeClass",
    "Mode",
    "Partition",
    "SmallClass",
    "Solution",
    "SplitCandidate",
    "TrivialInstanceError",
    "__version__",
    "build_partition",
    "evaluate_solution",
    "format_rational",
    "half_approx_opt",
    "load_instance",
    "load_instance_csv",
    "make_solution",
    "parse_rational",
    "save_instance",
    "save_instance_csv",
    "solve",
    "solve_with_details",
    "validate_instance",
]

"""Fixed-parameter solver for directed multiway cut.

The solve path combines important-separator enumeration, deterministic
candidate families over exact reverse shadows, the torso reduction, and an
undirected multiway-cut sub-solver.  The definitional
predicates in `shadows` (shadows, thinness, minimality, importance) and the
brute-force oracles are references for the CLI and for small-scale
cross-validation; the solver never calls them.
"""

from .graph import (
    Digraph,
    Instance,
    min_vertex_separator,
    reachable_from,
    reverse,
)
from .oracle import brute_force_important, brute_force_mwc, generate_instance
from .pipeline import (
    Solution,
    solve_edge,
    solve_multicut_k2,
    solve_vertex,
    verify_solution,
)
from .sampling import deterministic_sets
from .separators import build_collection, enumerate_important
from .shadows import (
    ShadowReport,
    is_important,
    is_minimal_separator,
    is_shadowless,
    is_thin,
    out_neighborhood,
    shadow,
)
from .torso import reduce_instance, torso
from .undirected import solve_undirected

__all__ = [
    "Digraph",
    "Instance",
    "Solution",
    "ShadowReport",
    "reachable_from",
    "reverse",
    "min_vertex_separator",
    "enumerate_important",
    "build_collection",
    "out_neighborhood",
    "is_minimal_separator",
    "is_important",
    "shadow",
    "is_thin",
    "is_shadowless",
    "deterministic_sets",
    "torso",
    "reduce_instance",
    "solve_undirected",
    "solve_vertex",
    "solve_edge",
    "solve_multicut_k2",
    "verify_solution",
    "brute_force_mwc",
    "brute_force_important",
    "generate_instance",
]

"""Fixed-parameter solver for directed multiway cut.

The solver combines important-separator enumeration, shadow-based candidate
sampling (randomized or derandomized), the torso reduction, and an undirected
multiway-cut sub-solver, with brute-force oracles for small-scale
cross-validation.
"""

from .graph import (
    Digraph,
    Instance,
    min_vertex_separator,
    out_neighborhood,
    reachable_from,
    reverse,
)
from .oracle import brute_force_important, brute_force_mwc, generate_instance
from .pipeline import (
    Solution,
    allow_terminal_deletion,
    solve_edge,
    solve_multicut_k2,
    solve_vertex,
    verify_solution,
)
from .sampling import CandidateFamily, deterministic_sets, random_set
from .separators import (
    ImportantCollection,
    Separator,
    build_collection,
    enumerate_important,
    is_important,
    is_minimal_separator,
)
from .shadows import ShadowReport, is_shadowless, is_thin, shadow
from .torso import reduce_instance, torso
from .undirected import solve_undirected, underlying_undirected

__all__ = [
    "Digraph",
    "Instance",
    "Solution",
    "Separator",
    "ImportantCollection",
    "ShadowReport",
    "CandidateFamily",
    "reachable_from",
    "out_neighborhood",
    "reverse",
    "min_vertex_separator",
    "is_minimal_separator",
    "is_important",
    "enumerate_important",
    "build_collection",
    "shadow",
    "is_thin",
    "is_shadowless",
    "random_set",
    "deterministic_sets",
    "torso",
    "reduce_instance",
    "underlying_undirected",
    "solve_undirected",
    "solve_vertex",
    "solve_edge",
    "solve_multicut_k2",
    "verify_solution",
    "allow_terminal_deletion",
    "brute_force_mwc",
    "brute_force_important",
    "generate_instance",
]

"""Random greedy r-coloring of n-uniform hypergraphs.

Library + CLI workbench: the greedy coloring algorithm and variants, the
conflict structures that explain its failures (conflicting pairs, r-chains,
short edges), analytic bounds evaluated in log space, and exact brute-force
oracles cross-validated by seeded Monte Carlo.
"""

from .bounds import (
    LLLFeasibility,
    LLLParams,
    expected_conflicting_chains,
    expected_short_edges,
    lll_feasible,
    lll_feasible_ab,
    max_degree_lll,
    max_k_2col,
    max_k_rcol,
    optimize_p,
    pair_conflict_probability,
    pair_conflict_probability_closed,
    prob_edge_short_exact,
    two_color_bound,
)
from .conflicts import (
    Chain,
    IntervalPartition,
    classify_conflicts_by_interval,
    conflicting_chains,
    conflicting_pairs,
    dangerous_pairs,
    edge_length,
    enumerate_chains,
    first_last,
    short_edges,
)
from .errors import (
    BudgetExceededError,
    ChainCeilingError,
    HypergraphFormatError,
    InvalidHypergraphError,
    NumericRangeError,
    UncoloredVertexError,
)
from .generators import gen_complete_uniform, gen_fano, gen_random_uniform
from .greedy import (
    GreedyTrace,
    equitable_partition_color,
    greedy_color,
    greedy_color_by_permutation,
    sample_birth_times,
    two_phase_color,
)
from .hypergraph import (
    BirthTimeAssignment,
    Coloring,
    Hypergraph,
    UniformityCertificate,
    dumps_hypergraph,
    is_proper,
    loads_hypergraph,
    max_edge_degree,
    read_hypergraph,
    uniformity,
    validate,
    write_hypergraph,
)
from .montecarlo import (
    EstimateReport,
    MonteCarloReport,
    baseline_equitable_success,
    monte_carlo,
    wilson_interval,
)
from .oracle import (
    OrderingStatistics,
    count_proper_colorings,
    greedy_success_exact,
    is_r_colorable,
)

__version__ = "0.1.0"

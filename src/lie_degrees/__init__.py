"""Exact character-degree computations for symmetric groups and finite
classical groups, with certified verification of degree bounds."""

from .partitions import (
    Dominance,
    HookTable,
    Node,
    Partition,
    addable_removable,
    beta_set,
    dominance,
    hooks,
    odd_hook_sequence,
    partition_from_beta_set,
    partitions_of,
    sym_degree,
    transpose,
)
from .symmetric import (
    DegreeMultiset,
    DownUpMove,
    OctupleMove,
    alt_degrees,
    downup_neighborhood,
    epsilon_of,
    octuple_ratio,
    ratio_witness,
    sym_degrees,
)
from .qexact import (
    RationalInterval,
    bracket,
    bracket_ratio_bounds,
    euler_interval,
    one_plus_interval,
    product_bound_suite,
)
from .unipotent import (
    Symbol,
    SymbolClass,
    SymbolStats,
    a_value_gl,
    canonicalize,
    degree_gl,
    degree_gu,
    degree_symbol,
    enumerate_symbols,
    stclass_chain,
    steinberg_symbol,
    symbol_stats,
    verify_steinberg_max,
)
from .maxdegree import (
    CentralizerTypeGL,
    CertVerdict,
    GroupSpec,
    b_gl_exact,
    bound_bracket,
    count_irred,
    count_irred_nondual,
    epsilon_certificate,
    merge_ratio_sl_n_2,
    order_parts,
    seitz_bound,
)

__version__ = "0.1.0"

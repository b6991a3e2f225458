"""Bipartite Cayley (di)graphs over finite abelian groups.

Exact automorphism-group search, connection-set classification, counting
bounds, and exhaustive/randomized index surveys.
"""

from .autos import (
    Automorphism,
    automorphism_generators,
    enumerate_automorphisms,
    example1_automorphism,
    example2_automorphism,
    index2_subgroups,
    inversion_automorphism,
    is_exceptional_pair,
    prime_index_subgroups,
    prime_order_subgroups,
)
from .bounds import (
    count_inverse_closed,
    lemma_bound,
    prelim_facts_check,
    theorem_lower_bound,
    threshold_scan,
)
from .cayley import (
    CayleyDigraph,
    ConnectionSet,
    bipartition_respected,
    build_cayley,
    canonical_form,
    connection_set,
)
from .classify import (
    Classification,
    a4_witness_search,
    classify_directed,
    classify_undirected,
    verify_witness,
)
from .groups import (
    AbelianGroup,
    Subgroup,
    build_group,
    coset_decompose,
    format_group_spec,
    generated_subgroup,
    invariant_factors_of_orders,
    involution_subgroup,
    parse_group_spec,
)
from .stabilizer import (
    AutReport,
    brute_force_stabilizer_order,
    vertex_stabilizer,
)
from .survey import (
    bipartite_index,
    c26_reduced_search,
    c26_subclaims,
    global_index,
    monte_carlo_proportion,
    unlabeled_count,
    verify_table,
)

__version__ = "0.1.0"

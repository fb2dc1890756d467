"""lcm-lattices of monomial ideals: construction, property checks, auditing."""

from .monomials import (
    Hypergraph,
    MonomialIdeal,
    PolarizationMap,
    edge_ideal,
    minimalize,
    monomial_str,
    parse_monomial,
    polarize,
)
from .lattice import (
    FiniteLattice,
    LcmLattice,
    boolean_lattice,
    build_lcm_lattice,
    hasse_edges,
    interval,
    is_isomorphic,
    product,
)
from .properties import (
    PropertyVerdict,
    complements_of,
    find_m3,
    find_n5,
    is_boolean,
    is_complemented,
    is_distributive,
    is_modular,
    is_relatively_complemented,
)
from .conditions import (
    ConditionVerdict,
    blocking_triplet_check,
    degree1_path_check,
    induced_p4_check,
    predicts_modular,
    private_vertex_check,
    uniform_n_minus_1_check,
)
from .audit import (
    AuditReport,
    GeneratorConfig,
    SplitMix64,
    audit_batch,
    audit_instance,
    random_monomial_ideal,
    random_uniform_hypergraph,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""f1kit: exact classes, series recursions, tree operads, torification
expressions, and blueprint relations for moduli of pointed rational curves."""

from .motive import (
    MotClass,
    blowup_class,
    expand_falling,
    expand_falling_stirling,
    proj_class,
)
from .genseries import (
    EGFSeries,
    f1m_count,
    m0_open_class,
    mbar0_class,
    open_stratum_class,
    solve_point_count_ode,
    solve_tdn_ode,
    stratum_factor_class,
    tdn_class,
)
from .treeop import (
    RootedTree,
    StratumDescriptor,
    compose,
    contract_edge,
    enumerate_stable_trees,
    forget_marking,
    graft,
    graft_all,
    permute_markings,
    strata_sum,
    strata_table,
    tree_class,
    tree_points,
)
from .torif import (
    Complement,
    ConstructibleTorification,
    DisjointUnion,
    Product,
    Torus,
    blowup_decomposition,
    constructible_open_stratum,
    equiv_shadow,
    eval_class,
    is_strongly_complemented,
    product_torification,
    torify_proj_space,
    torify_tree_curve,
    validate,
)
from .blueprint import (
    BlueprintRel,
    CrossedElem,
    Monomial,
    SubsetIndex,
    centralizer_subgroup,
    clear_denominators,
    count_max_simplexes,
    crossed_mul,
    crossed_relations,
    full_product_monomial,
    index_set,
    is_simplex,
    localize_relation,
    perm_action,
    plucker_relations,
)

__version__ = "0.1.0"

"""Exact-rational analysis of Bayesian network design games: equilibria,
price-of-stability and information-gap ratios, strict cost-sharing schemes,
and sampling-and-augmentation strategy constructions."""

from .graphs import (
    Graph,
    Path,
    EdgeSet,
    Metric,
    edge_key,
    graph_from_costs,
    shortest_path,
    metric_closure,
    steiner_tree_exact,
    steiner_forest_exact,
    cover_exact,
    min_feasible_subset_bruteforce,
)
from .games import (
    Action,
    EMPTY_ACTION,
    GameInstance,
    PlayerSpec,
    congestion,
    expected_opt,
    expected_player_cost,
    expected_potential,
    expected_social_cost,
    ex_post_opt,
    feasible_actions,
    harmonic,
    player_cost,
    potential_difference_check,
    rosenthal_potential,
    social_cost,
    type_profiles,
)
from .equilibria import (
    CertificateReport,
    EquilibriumReport,
    all_strategy_profiles,
    best_response_dynamics,
    bpos_exact,
    enumerate_pure_bne,
    information_gap_exact,
    min_cost_profile,
    min_potential_profile,
    potential_method_certificate,
    verify_bne,
)
from .costsharing import (
    CostSharingScheme,
    check_competitiveness,
    check_cross_monotonicity,
    check_strictness,
    steiner_scheme,
)
from .sampling import (
    ConstructionReport,
    SampleProfile,
    construct_strategy_iid,
    construct_strategy_noniid,
    derandomize,
    evaluate_construction_exact,
    evaluate_construction_mc,
    regrouping_sides,
)
from .instances import gen_instance, parse_instance, serialize_instance

__version__ = "0.1.0"

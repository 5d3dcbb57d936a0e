"""Exact-rational analysis of Bayesian network design games: equilibria,
price-of-stability and information-gap ratios, strict cost-sharing schemes,
and sampling-and-augmentation strategy constructions.  The brute-force
test oracles stay in their modules and are not re-exported here."""

from .graphs import (
    Graph,
    EdgeSet,
    edge_key,
    graph_from_costs,
    metric_closure,
    steiner_tree_exact,
    steiner_forest_exact,
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
    feasible_actions,
    harmonic,
    player_cost,
    potential_difference_check,
    rosenthal_potential,
    social_cost,
)
from .equilibria import (
    CertificateReport,
    EquilibriumReport,
    best_response_dynamics,
    bpos_exact,
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

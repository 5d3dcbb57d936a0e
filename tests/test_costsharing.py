import dataclasses
import random
from fractions import Fraction

import pytest

from netgames import (
    check_competitiveness,
    check_cross_monotonicity,
    check_strictness,
    graph_from_costs,
    metric_closure,
    steiner_scheme,
    steiner_tree_exact,
)
from netgames.errors import DisconnectedError, PreconditionError, TooLargeError
from netgames.graphs import (
    STEINER_TERMINAL_CAP,
    EdgeSet,
    min_feasible_subset_bruteforce,
    shortest_path,
)

from conftest import connects_to_root, mst_over_terminals, random_connected_graph


@pytest.fixture
def scheme(triangle):
    return steiner_scheme(triangle)


def random_rooted_graphs(count, seed=31):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = random_connected_graph(rng, max_nodes=6, max_edges=9)
        clients = [n for n in g.nodes if n != g.root]
        U = frozenset(rng.sample(clients, rng.randint(0, len(clients))))
        x = rng.choice(clients)
        out.append((g, U, x, rng))
    return out


class TestSteinerScheme:
    def test_declared_constants(self, scheme):
        assert scheme.alpha == 1 and scheme.beta == 2
        assert scheme.cross_monotone

    def test_an_unrooted_graph_is_rejected(self):
        g = graph_from_costs({("a", "b"): Fraction(1)})
        with pytest.raises(PreconditionError, match="^steiner scheme needs a rooted graph$"):
            steiner_scheme(g)

    @pytest.mark.parametrize("call", ["share", "augment"])
    @pytest.mark.parametrize("seed", range(10))
    def test_metric_and_augment_fill_the_table_on_demand(self, seed, call):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_nodes=7, max_edges=12)
        scheme = steiner_scheme(g)
        assert g._steiner._paths == {} and g._steiner.dp == {}
        x = rng.choice([n for n in g.nodes if n != g.root])
        for _ in range(2):
            if call == "share":
                scheme.share(frozenset(g.nodes), x)
            else:
                scheme.augment(EdgeSet(edges=frozenset(), cost=Fraction(0)), x)
            assert g._steiner._paths.keys() == {g.nodes.index(x)}

    @pytest.mark.parametrize("costs", [[0, 1, 2], None], ids=["costs-0-1-2", "fractional"])
    @pytest.mark.parametrize("seed", range(30))
    def test_shares_match_shortest_path_oracle(self, seed, costs):
        """A client's share is half its least `shortest_path` cost to the
        other clients and the root; everyone else's is 0."""
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_nodes=7, max_edges=12, costs=costs)
        scheme = steiner_scheme(g)
        for _ in range(6):
            U = frozenset(rng.sample(g.nodes, rng.randint(0, len(g.nodes))))
            for x in g.nodes:
                others = (U | {g.root}) - {x}
                want = Fraction(0)
                if x in U and others:
                    want = min(shortest_path(g, x, t).cost for t in others) / 2
                assert scheme.share(U, x) == want

    def test_augmentation_example(self, triangle, scheme):
        base = scheme.approx(frozenset({"a"}))
        aug = scheme.augment(base, "b")
        assert aug.edges == frozenset({("a", "b")}) and aug.cost == 1

    def test_share_example(self, scheme):
        assert scheme.share(frozenset({"a", "b"}), "b") == Fraction(1, 2)

    def test_share_zero_outside_clients(self, scheme):
        assert scheme.share(frozenset({"a"}), "b") == 0

    def test_singleton_share_uses_root(self, scheme):
        # With one client, the share is half its distance to the root.
        assert scheme.share(frozenset({"a"}), "a") == 1

    def test_disconnected_graph_rejected(self):
        g = graph_from_costs({("a", "b"): Fraction(1)}, nodes=["a", "b", "z"],
                             root="a")
        with pytest.raises(DisconnectedError):
            steiner_scheme(g)

    def test_soundness_random(self):
        for g, U, x, _ in random_rooted_graphs(25):
            scheme = steiner_scheme(g)
            base = scheme.approx(U)
            assert connects_to_root(g, base.edges, U)
            aug = scheme.augment(base, x)
            assert connects_to_root(g, base.edges | aug.edges, U | {x})

    def test_alpha_approximation(self):
        for g, U, _, _ in random_rooted_graphs(20, seed=37):
            scheme = steiner_scheme(g)
            brute = min_feasible_subset_bruteforce(
                g, lambda edges: connects_to_root(g, edges, U)
            )
            assert scheme.approx(U).cost == brute.cost


class TestCompetitiveness:
    def test_triangle_pair(self, scheme):
        chk = check_competitiveness(scheme, {"a", "b"})
        assert chk.lhs == 1 and chk.rhs == 3 and chk.holds

    def test_empty_clients(self, scheme):
        chk = check_competitiveness(scheme, set())
        assert chk.lhs == 0 and chk.rhs == 0 and chk.holds

    def test_random(self):
        for g, U, _, _ in random_rooted_graphs(40, seed=41):
            assert check_competitiveness(steiner_scheme(g), U).holds

    def test_cap_fails_before_any_share(self):
        # The clients and the root are one terminal past the Steiner cap; A
        # must refuse them before any share runs a shortest-path search.
        path = {(f"v{j:02d}", f"v{j + 1:02d}"): 1 for j in range(STEINER_TERMINAL_CAP)}
        g = graph_from_costs(path, root="v00")
        scheme = steiner_scheme(g)
        shares = []

        def share(U, x):
            shares.append(x)
            return scheme.share(U, x)

        counting = dataclasses.replace(scheme, share=share)
        with pytest.raises(TooLargeError, match="Steiner cap"):
            check_competitiveness(counting, set(g.nodes) - {"v00"})
        assert shares == []

    def test_mst_chain(self):
        # Shares are at most half the terminal MST, which is at most the
        # Steiner optimum on the clients plus root.
        for g, U, _, _ in random_rooted_graphs(25, seed=43):
            if not U:
                continue
            scheme = steiner_scheme(g)
            shares = sum((scheme.share(U, x) for x in U), Fraction(0))
            m = metric_closure(g)
            _, mst_cost = mst_over_terminals(m, set(U) | {g.root})
            opt = steiner_tree_exact(g, set(U) | {g.root}).cost
            assert shares <= mst_cost / 2
            assert mst_cost / 2 <= opt


class TestStrictness:
    def test_triangle_tight(self, scheme):
        chk = check_strictness(scheme, {"a"}, "b")
        assert chk.lhs == chk.rhs == 1 and chk.holds

    def test_existing_client_costs_nothing(self, scheme):
        chk = check_strictness(scheme, {"a"}, "a")
        assert chk.lhs == 0 and chk.holds

    def test_random(self):
        for g, U, x, _ in random_rooted_graphs(40, seed=47):
            assert check_strictness(steiner_scheme(g), U, x).holds


class TestCrossMonotonicity:
    def test_triangle(self, scheme):
        chk = check_cross_monotonicity(scheme, {"b"}, {"a", "b"}, "b")
        assert chk.lhs == Fraction(1, 2) and chk.rhs == 1 and chk.holds

    def test_equal_sets(self, scheme):
        chk = check_cross_monotonicity(scheme, {"a"}, {"a"}, "a")
        assert chk.lhs == chk.rhs and chk.holds

    def test_random_nested_pairs(self):
        for g, U, _, rng in random_rooted_graphs(40, seed=53):
            if not U:
                continue
            clients = [n for n in g.nodes if n != g.root]
            sup = U | frozenset(rng.sample(clients, rng.randint(0, len(clients))))
            x = rng.choice(sorted(U))
            assert check_cross_monotonicity(steiner_scheme(g), U, sup, x).holds

    def test_requires_nesting(self, scheme):
        with pytest.raises(ValueError):
            check_cross_monotonicity(scheme, {"a"}, {"b"}, "a")

    def test_requires_the_client_in_the_smaller_set(self, scheme):
        with pytest.raises(PreconditionError, match="^client must belong to the smaller set$"):
            check_cross_monotonicity(scheme, {"a"}, {"a", "b"}, "b")


class TestSubAdditivity:
    def test_union_of_solutions_is_solution(self):
        for g, U, _, rng in random_rooted_graphs(20, seed=59):
            scheme = steiner_scheme(g)
            clients = [n for n in g.nodes if n != g.root]
            V = frozenset(rng.sample(clients, rng.randint(0, len(clients))))
            e1 = scheme.approx(U)
            e2 = scheme.approx(V)
            assert connects_to_root(g, e1.edges | e2.edges, U | V)

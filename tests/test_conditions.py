import time
from collections import Counter
from itertools import combinations, permutations

import pytest

from lcmlat.conditions import (
    HYPOTHESIS_NOT_MET,
    ConditionVerdict,
    blocking_triplet_check,
    degree1_path_check,
    induced_p4_check,
    predicts_modular,
    private_vertex_check,
    uniform_n_minus_1_check,
)
from lcmlat.lattice import build_lcm_lattice
from lcmlat.monomials import Hypergraph, edge_ideal
from strategies import exhaustive_hypergraphs


class TestPrivateVertex:
    def test_fig3_fails_on_middle_edge(self, fig3_hypergraph):
        verdict = private_vertex_check(fig3_hypergraph)
        assert not verdict.holds
        assert verdict.evidence["offending_edge"] == [2, 3, 4]

    def test_disjoint_edges(self):
        H = Hypergraph.make(4, [{1, 2}, {3, 4}])
        verdict = private_vertex_check(H)
        assert verdict.holds
        # evidence re-validates: each assigned vertex is in no other edge
        for edge, v in verdict.evidence["private_vertices"]:
            others = [e for e in H.edges if e != frozenset(edge)]
            assert all(v not in e for e in others)

    def test_tetrahedron_fails(self, tetrahedron):
        assert not private_vertex_check(tetrahedron).holds

    def test_forward_direction_of_boolean_theorem(self):
        # private vertices force |L| = 2^m
        for edges, n in [([{1, 2}, {3, 4}], 4), ([{1, 2}, {2, 3}], 3),
                         ([{1, 2, 3}, {3, 4, 5}], 5)]:
            H = Hypergraph.make(n, edges)
            if private_vertex_check(H).holds:
                L = build_lcm_lattice(edge_ideal(H))
                assert L.size == 1 << len(H.edges)


class TestUniformNMinus1:
    def test_tetrahedron(self, tetrahedron):
        assert uniform_n_minus_1_check(tetrahedron).holds

    def test_fig3(self, fig3_hypergraph):
        assert not uniform_n_minus_1_check(fig3_hypergraph).holds

    def test_k_equals_n(self):
        assert not uniform_n_minus_1_check(Hypergraph.make(2, [{1, 2}])).holds


class TestPredictsModular:
    def test_tetrahedron_via_cardinality(self, tetrahedron):
        verdict = predicts_modular(tetrahedron)
        assert verdict.holds
        assert verdict.evidence["via"] == "uniform-n-minus-1"

    def test_fig3_both_fail(self, fig3_hypergraph):
        assert predicts_modular(fig3_hypergraph).holds is False

    def test_disjoint_via_private_vertex(self):
        H = Hypergraph.make(6, [{1, 2}, {3, 4}, {5, 6}])
        verdict = predicts_modular(H)
        assert verdict.holds
        assert verdict.evidence["via"] == "private-vertex"

    def test_two_edges_hypothesis_not_met(self):
        verdict = predicts_modular(Hypergraph.make(4, [{1, 2}, {3, 4}]))
        assert verdict.status == HYPOTHESIS_NOT_MET
        assert verdict.holds is None

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            predicts_modular(Hypergraph.make(4, [{1, 2}, {2, 3, 4}, {1, 4}]))


class TestDegree1Path:
    def test_p4_itself(self, p4_graph):
        verdict = degree1_path_check(p4_graph)
        assert verdict.holds
        assert verdict.evidence["path"] == [1, 2, 3, 4]

    def test_fig5_graph(self, fig5_graph):
        verdict = degree1_path_check(fig5_graph)
        assert verdict.holds
        assert verdict.evidence["path"] == [3, 1, 2, 4]

    def test_c4_no_degree_one(self):
        C4 = Hypergraph.make(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
        assert not degree1_path_check(C4).holds

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            degree1_path_check(Hypergraph.make(4, [{1, 2}, {3, 4}]))

    def test_non_graph_rejected(self, fig3_hypergraph):
        with pytest.raises(ValueError):
            degree1_path_check(fig3_hypergraph)

    def test_star_has_no_such_path(self):
        star = Hypergraph.make(4, [{1, 2}, {1, 3}, {1, 4}])
        assert not degree1_path_check(star).holds


class TestBlockingTriplet:
    def test_fig3(self, fig3_hypergraph):
        verdict = blocking_triplet_check(fig3_hypergraph)
        assert verdict.holds
        ev = verdict.evidence
        assert ev["e2"] == [2, 3, 4]
        assert {tuple(ev["e1"]), tuple(ev["e3"])} == {(1, 2, 3), (4, 5, 6)}

    def test_disjoint_edges(self):
        assert not blocking_triplet_check(Hypergraph.make(4, [{1, 2}, {3, 4}])).holds

    def test_uncovered_middle_vertex(self):
        H = Hypergraph.make(7, [{1, 2, 3}, {3, 4, 5}, {5, 6, 7}])
        assert not blocking_triplet_check(H).holds

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            blocking_triplet_check(Hypergraph.make(4, [{1, 2}, {2, 3, 4}, {1, 4}]))


class TestInducedP4:
    def test_p4(self, p4_graph):
        verdict = induced_p4_check(p4_graph)
        assert verdict.holds
        assert verdict.evidence["path"] == [1, 2, 3, 4]

    def test_c4_is_not_a_path(self):
        C4 = Hypergraph.make(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
        assert not induced_p4_check(C4).holds

    def test_triangle_too_small(self):
        C3 = Hypergraph.make(3, [{1, 2}, {1, 3}, {2, 3}])
        assert not induced_p4_check(C3).holds

    def test_p5_contains_induced_p4(self):
        P5 = Hypergraph.make(5, [{1, 2}, {2, 3}, {3, 4}, {4, 5}])
        verdict = induced_p4_check(P5)
        assert verdict.holds
        # evidence re-validates: consecutive pairs are edges, ends not adjacent
        path = verdict.evidence["path"]
        edges = {frozenset(e) for e in P5.edges}
        for a, b in zip(path, path[1:]):
            assert frozenset((a, b)) in edges
        assert frozenset((path[0], path[3])) not in edges

    def test_chordal_quad_not_induced(self):
        # P4 plus the chord {1, 3}: the only 4-set induces 4 edges
        G = Hypergraph.make(4, [{1, 2}, {2, 3}, {3, 4}, {1, 3}])
        assert not induced_p4_check(G).holds

    def test_claw_is_not_a_path(self):
        # three edges on four vertices, but one vertex meets all three
        assert not induced_p4_check(Hypergraph.make(4, [{1, 2}, {1, 3}, {1, 4}])).holds

    def test_star_scan_is_quartic(self):
        # a star has no induced P4, so every 4-subset is scanned: C(40, 4) =
        # 91390 subsets. Six adjacency lookups each take about 0.06 s on a
        # 2-core machine; the scan of every edge per subset took 1.2 s.
        G = Hypergraph.make(40, [{1, v} for v in range(2, 41)])
        start = time.perf_counter()
        assert not induced_p4_check(G).holds
        assert time.perf_counter() - start < 0.5

    def test_equals_edge_scan_on_every_small_connected_graph(self):
        graphs = 0
        for n in range(1, 7):
            pairs = list(combinations(range(1, n + 1), 2))
            for mask in range(1, 1 << len(pairs)):
                G = Hypergraph.make(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                if G.is_connected():
                    graphs += 1
                    assert induced_p4_check(G) == _induced_p4_edge_scan(G)
        # the connected labelled graphs on 2..6 vertices (OEIS A001187)
        assert graphs == 1 + 4 + 38 + 728 + 26704


def _induced_p4_edge_scan(G):
    """Oracle: induced_p4_check as a scan of every edge for each 4-subset."""
    edges = {frozenset(e) for e in G.edges}
    for quad in combinations(range(1, G.vertex_count + 1), 4):
        induced = [e for e in edges if e <= set(quad)]
        if len(induced) != 3:
            continue
        degs = {v: sum(1 for e in induced if v in e) for v in quad}
        ends = sorted(v for v, d in degs.items() if d == 1)
        if len(ends) != 2 or sorted(degs.values()) != [1, 1, 2, 2]:
            continue
        path = [ends[0]]
        while len(path) < 4:
            (nxt,) = [
                w
                for e in induced
                if path[-1] in e
                for w in e - {path[-1]}
                if w not in path
            ]
            path.append(nxt)
        return ConditionVerdict("induced-p4", True, {"path": path})
    return ConditionVerdict("induced-p4", False)


# --- oracles: each condition written straight from its docstring, by brute force ---

def _private_vertex_oracle(H):
    """Every edge has a vertex appearing in no other edge: one of degree 1."""
    degree = Counter(v for e in H.edges for v in e)
    return all(any(degree[v] == 1 for v in e) for e in H.edges)


def _degree1_path_oracle(G):
    """Distinct v1, v2, v3, v4 with edges v1v2, v2v3, v3v4 and
    deg(v1) = deg(v4) = 1."""
    edges = set(G.edges)
    degree = Counter(v for e in edges for v in e)
    return any(degree[p[0]] == degree[p[3]] == 1
               and all(frozenset(p[i:i + 2]) in edges for i in range(3))
               for p in permutations(range(1, G.vertex_count + 1), 4))


def _blocking_triplet_oracle(H):
    """Distinct edges e1, e2, e3 with e2 inside e1 u e3, where e2 is the one
    edge other than itself that e1 meets, and the one that e3 meets."""
    meets = {e: {f for f in H.edges if f != e and e & f} for e in H.edges}
    return any(meets[e1] == meets[e3] == {e2} and e2 <= e1 | e3
               for e1, e2, e3 in permutations(H.edges, 3))


def test_conditions_match_their_definitions_on_the_exhaustive_streams():
    """private_vertex_check and blocking_triplet_check on every hypergraph of
    the five exhaustive streams (all k-uniform), degree1_path_check on every
    connected graph among them, each against its oracle."""
    verdicts = Counter()
    for H in exhaustive_hypergraphs():
        checks = [("private-vertex", private_vertex_check, _private_vertex_oracle),
                  ("blocking-triplet", blocking_triplet_check, _blocking_triplet_oracle)]
        if H.is_graph() and H.is_connected():
            checks.append(("degree1-path", degree1_path_check, _degree1_path_oracle))
        for name, check, oracle in checks:
            holds = check(H).holds
            assert holds == oracle(H), (name, H)
            verdicts[name, holds] += 1
    # every instance of the 13146 is checked, and each check goes both ways
    assert verdicts == {
        ("private-vertex", True): 1687, ("private-vertex", False): 11459,
        ("blocking-triplet", True): 780, ("blocking-triplet", False): 12366,
        ("degree1-path", True): 600, ("degree1-path", False): 1877,
    }

"""Combinatorial predicates on hypergraphs that predict lattice properties.

These are computed without ever building a lattice; the audit harness
compares them against lattice ground truth. Evidence objects are plain
dicts that re-validate against the hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .monomials import Hypergraph

HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds: bool | None          # None when status is hypothesis-not-met
    evidence: dict | None = None
    status: str = "ok"

    def to_json_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def _require_graph(G: Hypergraph, name: str) -> None:
    if not G.is_graph():
        raise ValueError(f"{name} needs a graph (all edges of size 2)")
    if not G.is_connected():
        raise ValueError(f"{name} needs a connected graph")


def private_vertex_check(H: Hypergraph) -> ConditionVerdict:
    """Every edge has a vertex appearing in no other edge."""
    assignment = {}
    for e in H.edges:
        private = sorted(
            v for v in e if all(v not in f for f in H.edges if f != e)
        )
        if not private:
            return ConditionVerdict(
                "private-vertex", False,
                {"offending_edge": sorted(e)},
            )
        assignment[tuple(sorted(e))] = private[0]
    return ConditionVerdict(
        "private-vertex", True,
        {"private_vertices": [[list(e), v] for e, v in sorted(assignment.items())]},
    )


def uniform_n_minus_1_check(H: Hypergraph) -> ConditionVerdict:
    """k-uniform with every edge of cardinality n - 1."""
    k = H.uniformity()
    holds = k is not None and k == H.vertex_count - 1
    return ConditionVerdict(
        "uniform-n-minus-1", holds,
        {"k": k, "n": H.vertex_count},
    )


def predicts_modular(H: Hypergraph) -> ConditionVerdict:
    """Modularity prediction: private vertices everywhere, or k = n - 1.

    Only stated for k-uniform hypergraphs with more than two edges; with
    m <= 2 the verdict is hypothesis-not-met rather than an extrapolation.
    """
    if H.uniformity() is None:
        raise ValueError("modularity prediction needs a k-uniform hypergraph")
    if len(H.edges) <= 2:
        return ConditionVerdict(
            "predicts-modular", None,
            {"m": len(H.edges)}, status=HYPOTHESIS_NOT_MET,
        )
    private = private_vertex_check(H)
    if private.holds:
        return ConditionVerdict(
            "predicts-modular", True, {"via": "private-vertex", **private.evidence}
        )
    uniform = uniform_n_minus_1_check(H)
    if uniform.holds:
        return ConditionVerdict(
            "predicts-modular", True, {"via": "uniform-n-minus-1", **uniform.evidence}
        )
    return ConditionVerdict(
        "predicts-modular", False,
        {"private_vertex": private.evidence, "uniform_n_minus_1": uniform.evidence},
    )


def degree1_path_check(G: Hypergraph) -> ConditionVerdict:
    """A path v1-v2-v3-v4 on distinct vertices with deg(v1) = deg(v4) = 1.

    The associated lattice is predicted complemented exactly when this
    does NOT hold. Evidence: the path in vertex order.
    """
    _require_graph(G, "degree1_path_check")
    edges = {frozenset(e) for e in G.edges}
    degree_one = [v for v in range(1, G.vertex_count + 1) if G.degree(v) == 1]
    for v1 in degree_one:
        (v2,) = [w for e in edges if v1 in e for w in e - {v1}]
        for e in edges:
            if v2 in e and v1 not in e:
                (v3,) = e - {v2}
                for f in edges:
                    if v3 in f and v2 not in f:
                        (v4,) = f - {v3}
                        if v4 != v1 and G.degree(v4) == 1:
                            return ConditionVerdict(
                                "degree1-path", True,
                                {"path": [v1, v2, v3, v4]},
                            )
    return ConditionVerdict("degree1-path", False)


def blocking_triplet_check(H: Hypergraph) -> ConditionVerdict:
    """Triplet e1, e2, e3 with e2 meeting both, e2 inside e1 u e3, and e1, e3
    touching no edge other than e2.

    Predicts non-complemented when it holds. The containment condition is
    the (e1 u e3) n e2 = e2 reading of the cardinality clause.
    """
    if H.uniformity() is None:
        raise ValueError("blocking_triplet_check needs a k-uniform hypergraph")
    edges = list(H.edges)
    for e2 in edges:
        others = [e for e in edges if e != e2]
        for e1, e3 in permutations(others, 2):
            if not (e1 & e2) or not (e2 & e3):
                continue
            if not e2 <= (e1 | e3):
                continue
            if any(f not in (e1, e2) and (e1 & f) for f in edges):
                continue
            if any(f not in (e3, e2) and (e3 & f) for f in edges):
                continue
            return ConditionVerdict(
                "blocking-triplet", True,
                {"e1": sorted(e1), "e2": sorted(e2), "e3": sorted(e3)},
            )
    return ConditionVerdict("blocking-triplet", False)


def induced_p4_check(G: Hypergraph) -> ConditionVerdict:
    """Some 4-vertex subset induces exactly a path of length three.

    Predicts relatively complemented exactly when this does NOT hold.
    Evidence: the four vertices in path order, for the first such subset
    in `combinations` order. Each subset's six pairs are looked up in
    adjacency sets, so the scan is O(n^4) whatever the edge count. Of the
    graphs with three edges on four vertices only the path has exactly two
    vertices of degree one: the claw has three and the triangle none.
    """
    _require_graph(G, "induced_p4_check")
    adjacent = {v: set() for v in range(1, G.vertex_count + 1)}
    for a, b in G.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    for quad in combinations(range(1, G.vertex_count + 1), 4):
        a, b, c, d = quad
        na, nb = adjacent[a], adjacent[b]
        if (b in na) + (c in na) + (d in na) + (c in nb) + (d in nb) + (d in adjacent[c]) != 3:
            continue
        ends = [v for v in quad if len(adjacent[v].intersection(quad)) == 1]
        if len(ends) != 2:
            continue
        # walk from the smaller endpoint to recover path order
        path = [ends[0]]
        while len(path) < 4:
            (nxt,) = [w for w in quad if w in adjacent[path[-1]] and w not in path]
            path.append(nxt)
        return ConditionVerdict("induced-p4", True, {"path": path})
    return ConditionVerdict("induced-p4", False)

"""Theorem auditing: structural predictions vs lattice ground truth.

The generator stream is a splitmix64-style PRNG fixed by its recurrence
constants, so identical configs give byte-identical audit output on any
platform. Disagreement between a prediction and ground truth is captured
data, never an error.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

from . import conditions, kernels, properties
from .conditions import HYPOTHESIS_NOT_MET
from .lattice import (
    boolean_lattice,
    build_lcm_lattice,
    chain_lattice,
    diamond_lattice,
    is_isomorphic,
    pentagon_lattice,
    product,
)
from .monomials import (
    Hypergraph,
    MonomialIdeal,
    edge_ideal,
    minimalize,
    monomial_str,
    polarize,
)

THEOREMS = (
    "boolean",
    "modular",
    "graph-complemented",
    "hypergraph-complemented",
    "relatively-complemented",
    "product-complemented",
    "polarization-iso",
    "birkhoff-crosscheck",
)

EXHAUSTIVE_THRESHOLD = 20000
_REDRAW_LIMIT = 200


class SplitMix64:
    """Deterministic 64-bit mixing PRNG.

    state += 0x9E3779B97F4A7C15; then the output is the state passed
    through two xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9
    and 0x94D049BB133111EB) and a final 31-bit xor-shift. Bounded draws
    use the value modulo the bound.
    """

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def in_range(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range lo..hi."""
        if lo > hi:
            raise ValueError(f"empty range {lo}..{hi}")
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_range: tuple = (2, 5)
    k_range: tuple = (2, 3)
    m_range: tuple = (1, 4)
    max_exponent: int = 3
    count: int = 100


@dataclass(frozen=True)
class AuditReport:
    theorem: str
    instance: dict
    predicted: bool | str | None   # bool, "hypothesis-not-met", or None
    actual: bool
    agree: bool
    prediction_evidence: dict | None = None
    lattice_witness: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "predicted": self.predicted,
            "actual": self.actual,
            "agree": self.agree,
            "prediction_evidence": self.prediction_evidence,
            "lattice_witness": self.lattice_witness,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def random_uniform_hypergraph(cfg: GeneratorConfig, rng: SplitMix64 | None = None) -> Hypergraph:
    """m distinct k-subsets drawn without replacement from the seeded stream.

    n, k, m are drawn from their ranges with the upper ends clamped to
    feasibility (k <= n, m <= C(n, k)); an infeasible lower end errors.
    """
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    n = rng.in_range(*cfg.n_range)
    k_hi = min(cfg.k_range[1], n)
    if cfg.k_range[0] > k_hi:
        raise ValueError(f"no feasible k in {cfg.k_range} for n={n}")
    k = rng.in_range(cfg.k_range[0], k_hi)
    pool = list(combinations(range(1, n + 1), k))
    m_hi = min(cfg.m_range[1], len(pool))
    if cfg.m_range[0] > m_hi:
        raise ValueError(
            f"infeasible edge count: need at least {cfg.m_range[0]} of {len(pool)} possible edges"
        )
    m = rng.in_range(cfg.m_range[0], m_hi)
    edges = []
    for _ in range(m):
        edges.append(pool.pop(rng.below(len(pool))))
    return Hypergraph.make(n, edges)


def random_monomial_ideal(cfg: GeneratorConfig, rng: SplitMix64 | None = None) -> MonomialIdeal:
    """m random monomials minimalized; redraws top up the set, with a budget."""
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    n = rng.in_range(*cfg.n_range)
    m = rng.in_range(*cfg.m_range)

    def draw():
        while True:
            mono = tuple(rng.in_range(0, cfg.max_exponent) for _ in range(n))
            if any(mono):
                return mono

    gens = minimalize([draw() for _ in range(m)])
    for _ in range(_REDRAW_LIMIT):
        if len(gens) >= m:
            break
        gens = minimalize(gens + [draw() for _ in range(m - len(gens))])
    else:
        raise ValueError(
            f"could not reach {m} minimal generators in {n} variables "
            f"within the retry budget"
        )
    return MonomialIdeal(n, tuple(gens))


# --- instance descriptors ----------------------------------------------------

def _describe_hypergraph(H: Hypergraph) -> dict:
    return {"type": "hypergraph", "n": H.vertex_count,
            "edges": [list(e) for e in H.sorted_edges()]}


def _describe_ideal(I: MonomialIdeal) -> dict:
    return {"type": "ideal", "ring": I.ring_dimension,
            "generators": I.generator_strings()}


def _describe_pair(name1: str, name2: str) -> dict:
    return {"type": "lattice-pair", "left": name1, "right": name2}


# --- per-theorem audits -------------------------------------------------------

def audit_instance(theorem: str, instance) -> AuditReport:
    """Run one structural prediction against one lattice ground truth.

    The two sides are computed independently; disagreement sets agree=False
    and both witnesses are attached.
    """
    if theorem == "boolean":
        H = instance
        cond = conditions.private_vertex_check(H)
        L = build_lcm_lattice(edge_ideal(H))
        verdict = properties.is_boolean(L)
        return _report(theorem, _describe_hypergraph(H), cond.holds, verdict.holds,
                       cond.evidence, verdict.witness)

    if theorem == "modular":
        H = instance
        if H.uniformity() is None:
            raise ValueError("modular audit needs a k-uniform hypergraph")
        cond = conditions.predicts_modular(H)
        L = build_lcm_lattice(edge_ideal(H))
        verdict = properties.is_modular(L.lattice)
        predicted = HYPOTHESIS_NOT_MET if cond.status == HYPOTHESIS_NOT_MET else cond.holds
        return _report(theorem, _describe_hypergraph(H), predicted, verdict.holds,
                       cond.evidence, verdict.witness)

    if theorem == "graph-complemented":
        G = instance
        cond = conditions.degree1_path_check(G)
        L = build_lcm_lattice(edge_ideal(G))
        verdict = properties.is_complemented(L.lattice)
        return _report(theorem, _describe_hypergraph(G), not cond.holds, verdict.holds,
                       cond.evidence, verdict.witness)

    if theorem == "hypergraph-complemented":
        H = instance
        cond = conditions.blocking_triplet_check(H)
        L = build_lcm_lattice(edge_ideal(H))
        verdict = properties.is_complemented(L.lattice)
        return _report(theorem, _describe_hypergraph(H), not cond.holds, verdict.holds,
                       cond.evidence, verdict.witness)

    if theorem == "relatively-complemented":
        G = instance
        cond = conditions.induced_p4_check(G)
        L = build_lcm_lattice(edge_ideal(G))
        verdict = properties.is_relatively_complemented(L.lattice)
        return _report(theorem, _describe_hypergraph(G), not cond.holds, verdict.holds,
                       cond.evidence, verdict.witness)

    if theorem == "product-complemented":
        (name1, L1), (name2, L2) = instance
        predicted = (
            properties.is_complemented(L1).holds
            and properties.is_complemented(L2).holds
        )
        verdict = properties.is_complemented(product(L1, L2))
        return _report(theorem, _describe_pair(name1, name2), predicted,
                       verdict.holds, None, verdict.witness)

    if theorem == "polarization-iso":
        I = instance
        polarized, _ = polarize(I)
        L = build_lcm_lattice(I)
        Lp = build_lcm_lattice(polarized)
        counts_match = (
            L.size == Lp.size and L.atom_count == Lp.atom_count
        )
        iso = is_isomorphic(L.lattice, Lp.lattice)
        actual = counts_match and iso is not None
        return _report(theorem, _describe_ideal(I), True, actual, None,
                       {"element_counts": [L.size, Lp.size],
                        "atom_counts": [L.atom_count, Lp.atom_count],
                        "isomorphism": iso})

    if theorem == "birkhoff-crosscheck":
        I = instance
        L = build_lcm_lattice(I).lattice
        modular_sweep = kernels.modular_violation(L.join_table, L.meet_table, L.leq) is None
        no_pentagon = properties.find_n5(L) is None
        distributive_sweep = kernels.distributive_violation(L.join_table, L.meet_table) is None
        no_forbidden = no_pentagon and properties.find_m3(L) is None
        agree = modular_sweep == no_pentagon and distributive_sweep == no_forbidden
        return AuditReport(
            theorem, _describe_ideal(I),
            predicted=no_pentagon, actual=modular_sweep, agree=agree,
            lattice_witness={
                "modular_sweep": modular_sweep,
                "pentagon_absent": no_pentagon,
                "distributive_sweep": distributive_sweep,
                "forbidden_absent": no_forbidden,
            },
        )

    raise ValueError(f"unknown theorem id {theorem!r} (expected one of {THEOREMS})")


def _report(theorem, descriptor, predicted, actual, evidence, witness) -> AuditReport:
    agree = predicted is not None and predicted != HYPOTHESIS_NOT_MET and predicted == actual
    return AuditReport(theorem, descriptor, predicted, bool(actual), agree,
                       evidence, witness)


# --- batch driving ------------------------------------------------------------

def small_lattice_pool() -> list:
    """Named small lattices for the product audit: chains, Booleans, N5, M3,
    and the three worked-example lcm-lattices."""
    fig3 = build_lcm_lattice(
        edge_ideal(Hypergraph.make(6, [{1, 2, 3}, {2, 3, 4}, {4, 5, 6}]))
    ).lattice
    fig7 = build_lcm_lattice(
        edge_ideal(Hypergraph.make(4, [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]))
    ).lattice
    fig5 = build_lcm_lattice(
        edge_ideal(Hypergraph.make(4, [{1, 2}, {1, 3}, {2, 4}]))
    ).lattice
    return [
        ("chain2", chain_lattice(2)),
        ("chain3", chain_lattice(3)),
        ("chain4", chain_lattice(4)),
        ("boolean0", boolean_lattice(0)),
        ("boolean1", boolean_lattice(1)),
        ("boolean2", boolean_lattice(2)),
        ("boolean3", boolean_lattice(3)),
        ("n5", pentagon_lattice()),
        ("m3", diamond_lattice()),
        ("fig3", fig3),
        ("fig5", fig5),
        ("fig7", fig7),
    ]


def _hypergraph_space_size(cfg: GeneratorConfig, graph_only: bool) -> int:
    total = 0
    for n in range(cfg.n_range[0], cfg.n_range[1] + 1):
        ks = (2,) if graph_only else range(cfg.k_range[0], cfg.k_range[1] + 1)
        for k in ks:
            if k > n:
                continue
            pool = math.comb(n, k)
            for m in range(cfg.m_range[0], cfg.m_range[1] + 1):
                total += math.comb(pool, m)
    return total


def _enumerate_hypergraphs(cfg: GeneratorConfig, graph_only: bool):
    for n in range(cfg.n_range[0], cfg.n_range[1] + 1):
        ks = (2,) if graph_only else range(cfg.k_range[0], cfg.k_range[1] + 1)
        for k in ks:
            if k > n:
                continue
            pool = list(combinations(range(1, n + 1), k))
            for m in range(cfg.m_range[0], cfg.m_range[1] + 1):
                for edges in combinations(pool, m):
                    yield Hypergraph.make(n, edges)


def _instances_for(theorem: str, cfg: GeneratorConfig, exhaustive: bool | None):
    """Yield (instance, skipped_reason) pairs in a deterministic order."""
    graph_only = theorem in ("graph-complemented", "relatively-complemented")
    needs_connected = graph_only

    if theorem == "product-complemented":
        pool = small_lattice_pool()
        for left in pool:
            for right in pool:
                yield (left, right)
        return
    if theorem in ("polarization-iso", "birkhoff-crosscheck"):
        rng = SplitMix64(cfg.seed)
        emitted = 0
        attempts = 0
        while emitted < cfg.count:
            attempts += 1
            if attempts > 4 * cfg.count + _REDRAW_LIMIT:
                raise ValueError("ideal sampling retry budget exhausted")
            try:
                # infeasible (n, m) draws (antichain too large) are skipped;
                # the stream stays deterministic because rng state advances
                yield random_monomial_ideal(cfg, rng)
            except ValueError:
                continue
            emitted += 1
        return

    space = _hypergraph_space_size(cfg, graph_only)
    if exhaustive is None:
        exhaustive = space <= EXHAUSTIVE_THRESHOLD
    if exhaustive:
        for H in _enumerate_hypergraphs(cfg, graph_only):
            if needs_connected and not H.is_connected():
                continue
            yield H
    else:
        rng = SplitMix64(cfg.seed)
        emitted = 0
        attempts = 0
        limit = cfg.count * _REDRAW_LIMIT
        sample_cfg = replace(cfg, k_range=(2, 2)) if graph_only else cfg
        while emitted < cfg.count:
            attempts += 1
            if attempts > limit:
                raise ValueError("sampling retry budget exhausted")
            H = random_uniform_hypergraph(sample_cfg, rng)
            if needs_connected and not H.is_connected():
                continue
            yield H
            emitted += 1


def instance_hash(descriptor: dict) -> str:
    blob = json.dumps(descriptor, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _minimality_key(report: AuditReport):
    inst = report.instance
    if inst.get("type") == "hypergraph":
        return (inst["n"], len(inst["edges"]), inst["edges"])
    return (0, 0, json.dumps(inst, sort_keys=True))


def audit_batch(
    theorem: str,
    cfg: GeneratorConfig,
    exhaustive: bool | None = None,
    counterexample_dir: str | None = None,
):
    """Run audit_instance over the whole instance stream.

    Enumerates exhaustively when the instance space has at most
    EXHAUSTIVE_THRESHOLD members (or when forced); otherwise samples
    cfg.count instances from the seeded stream. Returns (summary, reports).
    """
    reports = []
    for instance in _instances_for(theorem, cfg, exhaustive):
        reports.append(audit_instance(theorem, instance))

    disagreements = [r for r in reports if not r.agree and r.predicted != HYPOTHESIS_NOT_MET]
    hypothesis_not_met = sum(1 for r in reports if r.predicted == HYPOTHESIS_NOT_MET)
    minimal = min(disagreements, key=_minimality_key, default=None)

    if counterexample_dir is not None and disagreements:
        out = Path(counterexample_dir)
        out.mkdir(parents=True, exist_ok=True)
        for r in disagreements:
            path = out / f"{theorem}-{instance_hash(r.instance)}.json"
            path.write_text(r.to_json_line() + "\n")

    summary = {
        "theorem": theorem,
        "total": len(reports),
        "agree": sum(1 for r in reports if r.agree),
        "disagree": len(disagreements),
        "hypothesis_not_met": hypothesis_not_met,
        "minimal_disagreement": minimal.to_json_dict() if minimal else None,
    }
    return summary, reports

"""Theorem auditing: structural predictions vs lattice ground truth.

The generator stream is a splitmix64-style PRNG fixed by its recurrence
constants, so identical configs give byte-identical audit output on any
platform. Disagreement between a prediction and ground truth is captured
data, never an error.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import combinations
from itertools import product as iproduct
from pathlib import Path

import numpy as np

from . import conditions, kernels, properties
from .conditions import HYPOTHESIS_NOT_MET
from .lattice import (
    boolean_lattice,
    build_lcm_lattice,
    chain_lattice,
    diamond_lattice,
    is_isomorphic,  # noqa: F401 -- unused; perfbench/tracer.py patches this name
    pentagon_lattice,
    product,
)
from .monomials import (
    MAX_EXPONENT,
    Hypergraph,
    MonomialIdeal,
    edge_ideal,
    insert_minimal,
    polarize,
)

# hypergraph theorem -> (its condition's name in `conditions`, the name in
# properties.PROPERTIES of the property it predicts, and True if the condition
# predicts that the property holds, False if it predicts that it fails);
# names, not functions, so every call looks the function up
PREDICTIONS = {
    "boolean": ("private_vertex_check", "boolean", True),
    "modular": ("predicts_modular", "modular", True),
    "graph-complemented": ("degree1_path_check", "complemented", False),
    "hypergraph-complemented": ("blocking_triplet_check", "complemented", False),
    "relatively-complemented": ("induced_p4_check", "relatively-complemented", False),
}

# the hypergraph theorems whose streams hold connected graphs only, and the
# theorems audited over seeded monomial-ideal streams
GRAPH_THEOREMS = ("graph-complemented", "relatively-complemented")
IDEAL_THEOREMS = ("polarization-iso", "birkhoff-crosscheck")
THEOREMS = (*PREDICTIONS, "product-complemented", *IDEAL_THEOREMS)

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
    MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.draws(0, bound - 1, 1)[0]

    def in_range(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range lo..hi."""
        return self.draws(lo, hi, 1)[0]

    def draws(self, lo: int, hi: int, count: int) -> list:
        """count uniform draws from lo..hi, advancing the state once per draw."""
        if lo > hi:
            raise ValueError(f"empty range {lo}..{hi}")
        span = hi - lo + 1
        mask, state, mix1, mix2 = self.MASK, self.state, self.MIX1, self.MIX2
        out = []
        for _ in range(count):
            state = (state + self.GAMMA) & mask
            z = ((state ^ (state >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            out.append(lo + (z ^ (z >> 31)) % span)
        self.state = state
        return out

    def below_array(self, bound: int, count: int) -> np.ndarray:
        """draws(0, bound - 1, count) as a uint64 array, values and state
        alike, in numpy's uint64 arithmetic, which wraps mod 2^64 as the
        masks of draws do. The bound must fit in 64 bits."""
        if not 0 < bound <= self.MASK:
            raise ValueError(f"bound must be in 1..2^64 - 1; got {bound}")
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(self.GAMMA)
        state = np.uint64(self.state) + steps
        z = (state ^ (state >> np.uint64(30))) * np.uint64(self.MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(self.MIX2)
        if count:
            self.state = int(state[-1])
        return (z ^ (z >> np.uint64(31))) % np.uint64(bound)


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
    predicted: bool | str   # bool or "hypothesis-not-met"
    actual: bool
    agree: bool
    prediction_evidence: dict | None = None
    lattice_witness: dict | None = None

    def to_json_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def random_uniform_hypergraph(cfg: GeneratorConfig, rng: SplitMix64 | None = None) -> Hypergraph:
    """m distinct k-subsets drawn without replacement from the seeded stream.

    n, k, m are drawn from their ranges with the upper ends clamped to
    feasibility (k <= n, m <= C(n, k)); an infeasible lower end errors, and
    so does k < 1, before any draw.

    Each edge is the one at a drawn position among the k-subsets not yet
    drawn, in combinations order: the draw r, stepped past the ranks
    already drawn, is the edge's rank among all C(n, k), and _unrank
    builds it. No list of the C(n, k) subsets is built.
    """
    if cfg.k_range[0] < 1:
        raise ValueError(f"edges need k >= 1; got k range {cfg.k_range}")
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    n = rng.in_range(*cfg.n_range)
    k_hi = min(cfg.k_range[1], n)
    if cfg.k_range[0] > k_hi:
        raise ValueError(f"no feasible k in {cfg.k_range} for n={n}")
    k = rng.in_range(cfg.k_range[0], k_hi)
    total = math.comb(n, k)
    m_hi = min(cfg.m_range[1], total)
    if cfg.m_range[0] > m_hi:
        raise ValueError(
            f"infeasible edge count: need at least {cfg.m_range[0]} of {total} possible edges"
        )
    m = rng.in_range(cfg.m_range[0], m_hi)
    drawn, edges = [], []
    for t in range(m):
        rank = rng.below(total - t)
        for d in drawn:  # ascending
            if d > rank:
                break
            rank += 1
        bisect.insort(drawn, rank)
        edges.append(_unrank(rank, n, k))
    # distinct ranks give distinct k-subsets of 1..n, k >= 1
    return Hypergraph._clutter(n, edges)


def _unrank(rank: int, n: int, k: int) -> tuple:
    """The k-subset of 1..n at position rank of combinations(range(1, n + 1), k)."""
    edge = []
    for v in range(1, n + 1):
        if len(edge) == k:
            break
        # the subsets that take v next: C(n - v, k - 1 - len(edge)) of them
        first = math.comb(n - v, k - 1 - len(edge))
        if rank < first:
            edge.append(v)
        else:
            rank -= first
    return tuple(edge)


def random_monomial_ideal(cfg: GeneratorConfig, rng: SplitMix64 | None = None) -> MonomialIdeal:
    """m random non-unit monomials in n variables, kept as an antichain.

    The first round draws m monomials; each later round, while fewer than
    m survive, draws m minus the survivors, up to _REDRAW_LIMIT rounds.
    Each draw goes through insert_minimal, as in minimalize, so after every
    round the survivors equal minimalize of everything drawn so far.

    Once the survivors are the n variables themselves and m > n, every
    later draw is a multiple of one of them and is dropped, so the call can
    only fail. The rounds left then just advance the stream: their m - n
    monomials each are drawn in bulk, in numpy (SplitMix64.below_array), the
    all-zero ones drawn again as a round would, and the same error is
    raised with rng.state where the rounds would have left it.
    """
    rng = rng if rng is not None else SplitMix64(cfg.seed)
    n = rng.in_range(*cfg.n_range)
    m = rng.in_range(*cfg.m_range)
    gens = []

    def top_up():
        for _ in range(m - len(gens)):
            while True:
                mono = tuple(rng.draws(0, cfg.max_exponent, n))
                if any(mono):
                    break
            insert_minimal(gens, mono)

    top_up()
    for rounds_done in range(_REDRAW_LIMIT):
        if len(gens) >= m:
            # insert_minimal keeps gens a non-unit antichain, and
            # _instances_for keeps cfg.max_exponent within MAX_EXPONENT
            return MonomialIdeal._minimal(n, tuple(gens))
        if len(gens) == n and all(sum(g) == 1 for g in gens):
            need = (_REDRAW_LIMIT - rounds_done) * (m - n)
            while need:
                values = rng.below_array(cfg.max_exponent + 1, n * need)
                need = int((values.reshape(-1, n) == 0).all(axis=1).sum())
            break
        top_up()
    raise ValueError(
        f"could not reach {m} minimal generators in {n} variables "
        f"within the retry budget"
    )


# --- instance descriptors ----------------------------------------------------

def _describe_hypergraph(H: Hypergraph) -> dict:
    return {"type": "hypergraph", "n": H.vertex_count,
            "edges": [list(e) for e in H.sorted_edges()]}


def _describe_ideal(I: MonomialIdeal) -> dict:
    return {"type": "ideal", "ring": I.ring_dimension,
            "generators": I.generator_strings()}


# --- per-theorem audits -------------------------------------------------------

def audit_instance(theorem: str, instance) -> AuditReport:
    """Run one structural prediction against one lattice ground truth.

    The two sides are computed independently; disagreement sets agree=False
    and both witnesses are attached.
    """
    if theorem in PREDICTIONS:
        condition, prop, holds_if_met = PREDICTIONS[theorem]
        cond = getattr(conditions, condition)(instance)
        verdict = properties.decide(prop, build_lcm_lattice(edge_ideal(instance)))
        predicted = (HYPOTHESIS_NOT_MET if cond.status == HYPOTHESIS_NOT_MET
                     else cond.holds == holds_if_met)
        return _report(theorem, _describe_hypergraph(instance), predicted, verdict.holds,
                       cond.evidence, verdict.witness)

    if theorem == "product-complemented":
        (name1, L1), (name2, L2) = instance
        predicted = (
            properties.is_complemented(L1).holds
            and properties.is_complemented(L2).holds
        )
        verdict = properties.is_complemented(product(L1, L2))
        return _report(theorem, {"type": "lattice-pair", "left": name1, "right": name2},
                       predicted, verdict.holds, None, verdict.witness)

    if theorem == "polarization-iso":
        I = instance
        polarized, _ = polarize(I)
        L = build_lcm_lattice(I)
        Lp = build_lcm_lattice(polarized)
        # polarize keeps the total degree and the lexicographic order of
        # every lcm of generators, and which generators divide it, so both
        # lattices list their elements in one order under the same keys.
        # The tables, the covers, the size and the generator count come from
        # the keys alone (the top key has every generator's bit), so equal
        # keys give equal tables and covers; on those is_isomorphic, trying
        # candidates in ascending order, returns the identity. Report it
        # without filling either table; keys that differ are a fault.
        if L.keys != Lp.keys:
            raise RuntimeError("polarize changed the keys of the lcm-lattice")
        return _report(theorem, _describe_ideal(I), True, True, None,
                       {"element_counts": [L.size, Lp.size],
                        "atom_counts": [L.atom_count, Lp.atom_count],
                        "isomorphism": list(range(L.size))})

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
    agree = predicted != HYPOTHESIS_NOT_MET and predicted == actual
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


def _cells(cfg: GeneratorConfig, graph_only: bool):
    """The (n, k, m) cells of a hypergraph stream, in enumeration order."""
    for n in range(cfg.n_range[0], cfg.n_range[1] + 1):
        ks = (2,) if graph_only else range(cfg.k_range[0], cfg.k_range[1] + 1)
        for k in ks:
            if k <= n:
                for m in range(cfg.m_range[0], cfg.m_range[1] + 1):
                    yield n, k, m


def _check_sample_count(cfg: GeneratorConfig) -> None:
    if cfg.count < 1:
        raise ValueError(f"a sampled audit needs count >= 1; got count {cfg.count}")


def _instances_for(theorem: str, cfg: GeneratorConfig, exhaustive: bool = False):
    """The theorem's instances as an iterator, in a deterministic order; a bad
    configuration raises ValueError on the call. A hypergraph stream is
    enumerated if exhaustive is set or its space has at most
    EXHAUSTIVE_THRESHOLD members, and sampled otherwise."""
    graph_only = theorem in GRAPH_THEOREMS
    if theorem == "product-complemented":
        return iproduct(small_lattice_pool(), repeat=2)
    # every other stream draws or enumerates m edges or generators, and an
    # ideal with none has no atoms to audit
    if cfg.m_range[0] < 1:
        raise ValueError(f"audit needs m >= 1; got m range {cfg.m_range}")
    # the hypergraph streams other than the graph-only ones draw k-subsets,
    # and a 0-subset is an empty edge
    if theorem in PREDICTIONS and not graph_only and cfg.k_range[0] < 1:
        raise ValueError(f"audit needs k >= 1; got k range {cfg.k_range}")
    if theorem in IDEAL_THEOREMS:
        # with no variable or no positive exponent every draw is the unit
        # monomial, which random_monomial_ideal redraws forever
        if cfg.max_exponent < 1 or cfg.n_range[0] < 1:
            raise ValueError(
                "ideal sampling needs max_exponent >= 1 and n >= 1; got "
                f"max_exponent {cfg.max_exponent}, n range {cfg.n_range}"
            )
        # a draw over the exponent cap would fail validation and be retried
        # as an infeasible draw until the retry budget runs out
        if cfg.max_exponent > MAX_EXPONENT:
            raise ValueError(
                f"ideal sampling needs max_exponent <= {MAX_EXPONENT} (the exponent "
                f"cap); got max_exponent {cfg.max_exponent}"
            )
        _check_sample_count(cfg)
        return _sampled_ideals(cfg)
    if not exhaustive:
        space = sum(math.comb(math.comb(n, k), m) for n, k, m in _cells(cfg, graph_only))
        exhaustive = space <= EXHAUSTIVE_THRESHOLD
    if exhaustive:
        # distinct k-subsets of 1..n, k >= 1: none empty, out of range or nested
        clutters = (Hypergraph._clutter(n, edges) for n, k, m in _cells(cfg, graph_only)
                    for edges in combinations(combinations(range(1, n + 1), k), m))
        return (H for H in clutters if not graph_only or H.is_connected())
    _check_sample_count(cfg)
    return _sampled_hypergraphs(cfg, graph_only)


def _sampled_ideals(cfg: GeneratorConfig):
    rng = SplitMix64(cfg.seed)
    emitted = attempts = 0
    last_error = None
    while emitted < cfg.count:
        attempts += 1
        if attempts > 4 * cfg.count + _REDRAW_LIMIT:
            raise ValueError(f"ideal sampling retry budget exhausted; last draw: {last_error}")
        try:
            # infeasible (n, m) draws (antichain too large) are skipped;
            # the stream stays deterministic because rng state advances
            yield random_monomial_ideal(cfg, rng)
        except ValueError as exc:
            last_error = exc
            continue
        emitted += 1


def _sampled_hypergraphs(cfg: GeneratorConfig, graph_only: bool):
    rng = SplitMix64(cfg.seed)
    emitted = attempts = 0
    limit = cfg.count * _REDRAW_LIMIT
    sample_cfg = replace(cfg, k_range=(2, 2)) if graph_only else cfg
    while emitted < cfg.count:
        attempts += 1
        if attempts > limit:
            raise ValueError("sampling retry budget exhausted")
        H = random_uniform_hypergraph(sample_cfg, rng)
        if graph_only and not H.is_connected():
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
    exhaustive: bool = False,
    counterexample_dir: str | None = None,
):
    """Run audit_instance over the whole instance stream.

    Enumerates exhaustively when the instance space has at most
    EXHAUSTIVE_THRESHOLD members (or when forced); otherwise samples
    cfg.count instances from the seeded stream. Returns (summary, reports).
    The counterexample directory is made after the configuration is checked
    and before the first instance, so a bad configuration leaves no
    directory, and one that cannot be made raises ValueError whether or not
    the stream disagrees; so does a counterexample that cannot be written.
    """
    instances = _instances_for(theorem, cfg, exhaustive)
    if counterexample_dir is not None:
        out = Path(counterexample_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot write {counterexample_dir}: {exc}")
    reports = []
    for instance in instances:
        reports.append(audit_instance(theorem, instance))

    disagreements = [r for r in reports if not r.agree and r.predicted != HYPOTHESIS_NOT_MET]
    hypothesis_not_met = sum(1 for r in reports if r.predicted == HYPOTHESIS_NOT_MET)
    minimal = min(disagreements, key=_minimality_key, default=None)

    if counterexample_dir is not None:
        try:
            for r in disagreements:
                path = out / f"{theorem}-{instance_hash(r.instance)}.json"
                path.write_text(r.to_json_line() + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {counterexample_dir}: {exc}")

    summary = {
        "theorem": theorem,
        "total": len(reports),
        "agree": sum(1 for r in reports if r.agree),
        "disagree": len(disagreements),
        "hypothesis_not_met": hypothesis_not_met,
        "minimal_disagreement": minimal.to_json_dict() if minimal else None,
    }
    return summary, reports

"""Monomials, monomial ideals, hypergraphs, edge ideals, and polarization.

A monomial is a tuple of non-negative exponents of fixed length (the ring
dimension); the all-zeros tuple is the unit 1. All values here are
immutable and safe to share.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import le

Monomial = tuple  # tuple[int, ...], exponent vector

MAX_EXPONENT = 1 << 16  # keeps polarization dimensions bounded
# the largest ring dimension (ideal files) or vertex count (hypergraph files)
# the file readers accept; checked before any per-variable list is built.
# polarize refuses a larger target ring, so every ring it writes is readable.
MAX_RING_DIMENSION = 1 << 20
# cells of generators (polarize's output) or of lattice elements (the
# join-closure, see lattice) x ring variables: one cap bounds both
MAX_CELLS = 1 << 25
# lattice's table fill indexes an int32 table by the divisor-bitmask key,
# 2^m entries for m generators: m = 24 keeps it at 4 * 2^24 bytes = 64 MiB.
# It is the only generator limit: the closure's work follows |L|, not 2^m.
MAX_KEY_BITS = 24

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$", re.ASCII)


class DimensionMismatch(ValueError):
    pass


def unit(n: int) -> Monomial:
    """The unit monomial 1 in an n-variable ring."""
    return (0,) * n


def validate_monomial(m: Monomial, n: int | None = None) -> None:
    if n is not None and len(m) != n:
        raise DimensionMismatch(f"expected {n} exponents, got {len(m)}")
    for e in m:
        if e < 0:
            raise ValueError(f"negative exponent in {m}")
        if e > MAX_EXPONENT:
            raise ValueError(f"exponent {e} exceeds the cap {MAX_EXPONENT}")


def total_degree(m: Monomial) -> int:
    return sum(m)


def subset_lcms(gens, n: int):
    """Yield (mask, lcm of the generators whose bits mask sets), masks 0..2^m - 1.

    The lcm of mask is that of mask without its lowest bit, lcm that bit's
    generator: one componentwise max per subset. Every generator has n
    exponents; the empty subset's lcm is the unit. The table of lcms grows
    as they are yielded, so a scan that stops after k masks holds k lcms.
    """
    acc = [unit(n)]
    yield 0, acc[0]
    for mask in range(1, 1 << len(gens)):
        low = mask & -mask
        acc.append(tuple(map(max, acc[mask ^ low], gens[low.bit_length() - 1])))
        yield mask, acc[-1]


def monomial_str(m: Monomial) -> str:
    """Render as e.g. 'x1^2*x2'; the unit renders as '1'."""
    return "*".join([f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                     for i, e in enumerate(m) if e]) or "1"


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse the grammar 'x<i>' / 'x<i>^<e>' joined by '*'; '1' is the unit."""
    text = text.strip()
    if text == "1":
        return unit(n)
    exps = [0] * n
    for factor in text.split("*"):
        match = _FACTOR_RE.match(factor.strip())
        if not match:
            raise ValueError(f"bad monomial factor {factor!r} in {text!r}")
        i = int(match.group(1))
        e = int(match.group(2)) if match.group(2) else 1
        if not 1 <= i <= n:
            raise ValueError(f"variable x{i} outside ring of dimension {n}")
        exps[i - 1] += e
    m = tuple(exps)
    validate_monomial(m)
    return m


def insert_minimal(antichain: list, g: Monomial) -> None:
    """Skip g if a member of antichain divides it; otherwise drop the members
    g divides and append g. All have one length: divisibility is plain <=."""
    if not any(all(map(le, h, g)) for h in antichain):
        antichain[:] = [h for h in antichain if not all(map(le, g, h))]
        antichain.append(g)


def minimalize(gens) -> list:
    """Drop duplicates and divisibility-dominated generators, keeping order.

    Raises if the surviving set would contain only the unit (the ideal
    would be the whole ring).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    n = len(gens[0])
    for g in gens:
        validate_monomial(g, n)
    survivors = []
    for g in gens:
        insert_minimal(survivors, g)
    if survivors == [unit(n)]:
        raise ValueError("the unit generates the whole ring, not a proper ideal")
    return survivors


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generating set."""

    ring_dimension: int
    generators: tuple

    def __post_init__(self):
        if self.ring_dimension < 1:
            raise ValueError("ring dimension must be positive")
        if not self.generators:
            raise ValueError("ideal needs at least one generator")
        for g in self.generators:
            validate_monomial(g, self.ring_dimension)
            if g == unit(self.ring_dimension):
                raise ValueError("the unit is not a valid generator")
        # every generator has ring_dimension exponents (checked above), so
        # divisibility is a plain componentwise <=
        for g, h in combinations(self.generators, 2):
            if all(map(le, g, h)) or all(map(le, h, g)):
                raise ValueError(
                    f"generating set not minimal: {monomial_str(g)} vs {monomial_str(h)}"
                )

    @classmethod
    def _minimal(cls, ring_dimension: int, generators: tuple) -> "MonomialIdeal":
        """An ideal of generators that are valid and minimal by construction
        (make, edge_ideal, polarize, the audit's ideal sampler). Only the
        emptiness check runs: the exponent checks and __post_init__'s
        O(m^2 n) pairwise re-check are skipped."""
        if not generators:
            raise ValueError("ideal needs at least one generator")
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "ring_dimension", ring_dimension)
        object.__setattr__(ideal, "generators", generators)
        return ideal

    @classmethod
    def make(cls, ring_dimension: int, gens) -> "MonomialIdeal":
        """Build an ideal from raw generators, minimalizing first.

        minimalize validates every generator against the first one's length
        and returns a non-unit antichain, so only that length is checked
        against ring_dimension here.
        """
        survivors = minimalize(gens)
        validate_monomial(survivors[0], ring_dimension)
        return cls._minimal(ring_dimension, tuple(survivors))

    def generator_strings(self) -> list:
        return [monomial_str(g) for g in self.generators]


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set {1..n} plus a containment-free family of nonempty edges."""

    vertex_count: int
    edges: tuple  # tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex count must be positive")
        seen = set()
        for e in self.edges:
            if not e:
                raise ValueError("empty edge")
            if not all(1 <= v <= self.vertex_count for v in e):
                raise ValueError(f"edge {sorted(e)} has a vertex outside 1..{self.vertex_count}")
            if e in seen:
                raise ValueError(f"duplicate edge {sorted(e)}")
            seen.add(e)
        for e, f in combinations(self.edges, 2):
            if e <= f or f <= e:
                raise ValueError(f"edge {sorted(e)} and {sorted(f)} are nested")

    @classmethod
    def make(cls, vertex_count: int, edges) -> "Hypergraph":
        return cls(vertex_count, tuple(frozenset(e) for e in edges))

    @classmethod
    def _clutter(cls, vertex_count: int, edges) -> "Hypergraph":
        """A hypergraph of edges that are nonempty, within 1..vertex_count,
        distinct and not nested by construction: the distinct k-subsets,
        k >= 1, that the audit enumerates or draws. __post_init__'s range,
        duplicate and pairwise nesting checks are skipped."""
        H = object.__new__(cls)
        object.__setattr__(H, "vertex_count", vertex_count)
        object.__setattr__(H, "edges", tuple(map(frozenset, edges)))
        return H

    def uniformity(self) -> int | None:
        """The common edge cardinality k, or None if edges vary in size."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def is_graph(self) -> bool:
        return self.uniformity() == 2

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def is_connected(self) -> bool:
        """Standard vertex connectivity; isolated vertices disconnect."""
        if self.vertex_count == 1:
            return True
        adjacency = {}
        for e in self.edges:
            for a in e:
                adjacency.setdefault(a, set()).update(e - {a})
        if len(adjacency) < self.vertex_count:  # a vertex in no edge
            return False
        seen = {1}
        stack = [1]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def sorted_edges(self) -> list:
        return sorted(tuple(sorted(e)) for e in self.edges)


def edge_ideal(H: Hypergraph) -> MonomialIdeal:
    """The square-free ideal with one generator per edge, support = edge.

    Each generator is a row of H.vertex_count ints, so edges x vertices
    over MAX_CELLS is refused with ValueError before any row is built.
    Its lcm-lattice, with the unit and one atom per edge, would pass the
    same cap anyway. So are more than MAX_KEY_BITS edges, with the message
    of the lattice builder, which would refuse the ideal next.
    """
    if len(H.edges) * H.vertex_count > MAX_CELLS:
        raise ValueError(f"edge ideal exceeds the cell cap {MAX_CELLS}: "
                         f"{len(H.edges)} edges x {H.vertex_count} ring variables")
    if len(H.edges) > MAX_KEY_BITS:
        raise ValueError(f"ideal has {len(H.edges)} generators; the subset table "
                         f"of the lattice fill holds at most {MAX_KEY_BITS}")
    gens = []
    for e in H.edges:
        exps = [0] * H.vertex_count
        for v in e:
            exps[v - 1] = 1
        gens.append(tuple(exps))
    # containment-free nonempty edges give distinct, minimal, non-unit
    # 0/1 generators
    return MonomialIdeal._minimal(H.vertex_count, tuple(gens))


@dataclass(frozen=True)
class PolarizationMap:
    """Bookkeeping for the slot expansion x_i^e -> x_{i,1}..x_{i,e}."""

    slot_counts: tuple  # a_i = max exponent of x_i over the generators

    def variable_names(self) -> list:
        return [
            f"x{i}_{k}"
            for i, count in enumerate(self.slot_counts, 1)
            for k in range(1, count + 1)
        ]


def polarize(I: MonomialIdeal):
    """Expand each exponent into distinct square-free slot variables.

    Returns the polarized (square-free) ideal together with the slot map.
    Polarization keeps divisibility both ways (Herzog and Hibi, Monomial
    Ideals, GTM 260, section 1.6), so the polarized generators of a minimal
    set are minimal and are not checked again.

    The target ring, the sum of the slot counts, is known before any
    polarized generator is built: a ring over MAX_RING_DIMENSION, which no
    file reader accepts, or generators x ring variables over MAX_CELLS is
    refused with ValueError first.
    """
    slot_counts = tuple(map(max, zip(*I.generators)))
    pmap = PolarizationMap(slot_counts)
    # slots of x_i start at starts[i]; exponent e sets the first e of them
    starts = tuple(accumulate(slot_counts, initial=0))
    ring = starts[-1]
    if ring > MAX_RING_DIMENSION:
        raise ValueError(f"polarized ring dimension {ring} exceeds the cap {MAX_RING_DIMENSION}")
    if len(I.generators) * ring > MAX_CELLS:
        raise ValueError(f"polarized ideal exceeds the cell cap {MAX_CELLS}: "
                         f"{len(I.generators)} generators x {ring} ring variables")
    gens = []
    for g in I.generators:
        exps = [0] * ring
        for start, e in zip(starts, g):
            exps[start : start + e] = [1] * e
        gens.append(tuple(exps))
    return MonomialIdeal._minimal(ring, tuple(gens)), pmap


# --- file formats -----------------------------------------------------------

def parse_ideal_text(text: str) -> MonomialIdeal:
    """Ideal file: '# comments', first real line 'ring <n>', one monomial per line."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty ideal file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "ring" or not re.fullmatch("[0-9]+", header[1]):
        raise ValueError("ideal file must start with 'ring <n>', n in ASCII digits")
    n = int(header[1])
    if n < 1:
        raise ValueError("ring dimension must be positive")
    if n > MAX_RING_DIMENSION:
        raise ValueError(f"ring dimension {n} exceeds the cap {MAX_RING_DIMENSION}")
    gens = [parse_monomial(line, n) for line in lines[1:]]
    if not gens:
        raise ValueError("ideal file lists no generators")
    return MonomialIdeal.make(n, gens)


def ideal_to_text(I: MonomialIdeal) -> str:
    lines = [f"ring {I.ring_dimension}"]
    lines.extend(I.generator_strings())
    return "\n".join(lines) + "\n"


def parse_hypergraph_json(text: str) -> Hypergraph:
    """Hypergraph file: JSON {"n": <int>, "edges": [[<int>, ...], ...]}, 1-based vertices.

    The shape is checked here, not in Hypergraph, which the audit streams
    build by the thousand from values that already have it.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("hypergraph JSON nests too deeply")
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('hypergraph JSON must be {"n": ..., "edges": [...]}')
    n, edges = obj["n"], obj["edges"]
    # type() is int rejects bool, which isinstance(v, int) lets through
    if type(n) is not int:
        raise ValueError(f'hypergraph "n" must be an integer; got {n!r}')
    if n > MAX_RING_DIMENSION:
        raise ValueError(f"vertex count {n} exceeds the cap {MAX_RING_DIMENSION}")
    if not (isinstance(edges, list) and all(
            isinstance(e, list) and all(type(v) is int for v in e) for e in edges)):
        raise ValueError('hypergraph "edges" must be a list of lists of integer vertices')
    for e in edges:
        if len(set(e)) < len(e):
            raise ValueError(f"edge {e} lists a vertex more than once")
    return Hypergraph.make(n, edges)


def hypergraph_to_json(H: Hypergraph) -> str:
    return json.dumps(
        {"n": H.vertex_count, "edges": [list(e) for e in H.sorted_edges()]},
        sort_keys=True,
    )

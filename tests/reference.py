"""The tests' reference helpers. The lattice builder makes tables from an
order matrix or from Hasse edges, by brute force over the upper and lower
bounds of each pair; it shares no code with build_lcm_lattice's
join-closure and table fill. Its lattices read their covers off the
order, as the 2-element intervals of the float32 interval-size product
(_interval_sizes, interval_covers), the oracle for every builder's own
covers; the same product's first 3-element interval is the oracle for
the one that is_relatively_complemented reads from the keys, and interval
cuts a sublattice out of any lattice's tables, the oracle for the
lcm-lattice's own interval, read from its keys. lcm,
divides and atom_indices are the definitions the tests compare the
program against, and the join-irreducible valuation test decides
distributivity on any lattice's tables, a route independent of the
searches and of the count that properties uses."""

import numpy as np

from lcmlat.kernels import _is_valuation
from lcmlat.lattice import FiniteLattice
from lcmlat.monomials import DimensionMismatch


def _check_same_dim(m1, m2) -> None:
    if len(m1) != len(m2):
        raise DimensionMismatch(
            f"monomials live in different rings: {len(m1)} vs {len(m2)} variables"
        )


def lcm(m1, m2) -> tuple:
    """Componentwise max; commutative, associative, idempotent, unit-identity."""
    _check_same_dim(m1, m2)
    return tuple(max(a, b) for a, b in zip(m1, m2))


def divides(m1, m2) -> bool:
    """True iff m1 divides m2 (every exponent of m1 <= that of m2)."""
    _check_same_dim(m1, m2)
    return all(a <= b for a, b in zip(m1, m2))


def atom_indices(L) -> tuple:
    """The indices in the LcmLattice L of its minimal generators, in
    generator order: a minimal generator's key is its own bit."""
    return tuple(map(L.keys.index, (1 << j for j in range(L.atom_count))))


def distributive_by_valuation(join, meet, leq) -> bool:
    """Whether the lattice is distributive, from its join-irreducibles.

    With v(x) = #{join-irreducible j <= x}, x -> {j <= x} always preserves
    meets and is one-to-one, and v(x) + v(y) = v(x ^ y) + v(x v y) for all
    x, y holds iff it also preserves joins, i.e. iff it embeds the lattice
    into the Boolean lattice on its join-irreducibles. O(n^2).
    """
    v = leq[join_irreducibles(join, leq)].sum(axis=0, dtype=np.int32)
    return _is_valuation(v, join, meet)


def join_irreducibles(join, leq):
    """Mask of the elements that are not the join of two others.

    The 2|down(x)| - 1 pairs (a, x) and (x, a) with a <= x all join to x,
    and x is the join of two others exactly when more pairs than those do.
    The bottom is in the mask; it adds 1 to every count v(x), which cancels
    in the valuation identity.
    """
    pairs = np.bincount(join.ravel(), minlength=len(join))
    return pairs == 2 * leq.sum(axis=0) - 1


def from_leq(leq, labels=()) -> FiniteLattice:
    """Build tables from an order matrix; raises if some lub/glb is missing."""
    leq = np.asarray(leq, dtype=bool)
    n = leq.shape[0]
    join = np.full((n, n), -1, dtype=np.int32)
    meet = np.full((n, n), -1, dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            ub = np.nonzero(leq[a] & leq[b])[0]
            least = ub[leq[np.ix_(ub, ub)].all(axis=1)]
            if len(least) != 1:
                raise ValueError(f"no unique least upper bound for ({a}, {b})")
            join[a, b] = join[b, a] = least[0]
            lb = np.nonzero(leq[:, a] & leq[:, b])[0]
            greatest = lb[leq[np.ix_(lb, lb)].all(axis=0)]
            if len(greatest) != 1:
                raise ValueError(f"no unique greatest lower bound for ({a}, {b})")
            meet[a, b] = meet[b, a] = greatest[0]
    return from_tables(join, meet, tuple(labels).__getitem__ if labels else str)


def _interval_sizes(L: FiniteLattice) -> np.ndarray:
    """sizes[a, b] = |[a, b]|, the number of c with a <= c <= b.

    A float32 matmul of 0/1 entries, exact below 2^24 elements. It is 0
    unless a <= b and 1 on the diagonal.
    """
    as_float = L.leq.astype(np.float32)
    return as_float @ as_float


def first_3_element_interval(sizes: np.ndarray):
    """The least (x, y) in row-major order with sizes[x, y] = 3, or None,
    from the interval sizes of an n-element lattice."""
    hits = np.flatnonzero(sizes == 3)
    return None if len(hits) == 0 else divmod(int(hits[0]), len(sizes))


def interval_covers(L) -> tuple:
    """The covers of L as (below, above) in row-major order: the 2-element
    intervals [a, b], from the order alone."""
    return np.nonzero(_interval_sizes(L) == 2)


def interval(L: FiniteLattice, x: int, y: int):
    """Oracle: the sublattice [x, y] of the FiniteLattice L, cut out of its
    tables and order, plus the original indices of its elements.

    Its covers are L's covers with both ends in [x, y]: an element strictly
    between two elements of [x, y] lies in [x, y] too.
    """
    L._check_index(x)
    L._check_index(y)
    if not L.leq[x, y]:
        raise ValueError(f"interval requires x <= y; got {x} and {y}")
    inside = L.leq[x] & L.leq[:, y]
    idx = np.nonzero(inside)[0]
    remap = np.full(L.size, -1, dtype=np.int32)
    remap[idx] = np.arange(len(idx), dtype=np.int32)
    original = idx.tolist()

    def covers():
        below, above = L.covers()
        keep = inside[below] & inside[above]
        return remap[below[keep]], remap[above[keep]]  # remap keeps the order

    sub = FiniteLattice(
        remap[L.join_table[np.ix_(idx, idx)]],
        remap[L.meet_table[np.ix_(idx, idx)]],
        lambda k: L.names(original[k]),
        covers=covers,
    )
    return sub, original


def from_tables(join, meet, names=str) -> FiniteLattice:
    """A FiniteLattice on the given tables whose covers are interval_covers."""
    L = FiniteLattice(join, meet, names, covers=lambda: interval_covers(L))
    return L


def from_covers(n: int, covers, labels=()) -> FiniteLattice:
    """Build from Hasse edges (a, b) meaning a is covered by b."""
    leq = np.eye(n, dtype=bool)
    adj = [[] for _ in range(n)]
    for a, b in covers:
        adj[a].append(b)
    for start in range(n):
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not leq[start, w]:
                    leq[start, w] = True
                    stack.append(w)
    return from_leq(leq, labels)

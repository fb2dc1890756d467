"""Finite lattices and lcm-lattices: construction, tables, products, isomorphism.

A FiniteLattice stores the full order relation plus join/meet index tables
as numpy arrays; everything downstream (property checks, audits) works off
those tables. An LcmLattice additionally remembers its monomial elements
and which indices are the ideal's generators (the atoms).

build_lcm_lattice runs the join-closure on arrays: each round joins one
generator to every distinct exponent row so far and keeps only the rows
not seen before, so it handles O(m * N) candidate rows for N elements,
never the 2^m generator subsets. The same rounds key each element by the
bitmask of the generators dividing it. The elements are held once, as
tuples in the canonical order of _element_sort_key. The leq/join/meet
tables are filled from the keys on the first read of LcmLattice.lattice:
a caller that reads only the elements, the atoms or the ideal
(is_boolean) never pays for the N x N tables. Every element is the lcm of
a subset of the generators, so one table over the 2^m generator subsets
(the least element whose key contains each subset) turns join and meet
into gathers, in row blocks of about BLOCK_BYTES each. Each label is
rendered from its tuple later still, when it is read: most verdicts read
none, and a witness reads only the few it names.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .monomials import MonomialIdeal, monomial_str, subset_lcms, total_degree

DEFAULT_MAX_GENERATORS = 16
# `check --property all` peaks at about 20 bytes per cell of the N x N tables
# (measured with tracemalloc at N = 448..2560, modular or not): the bool leq
# and int32 join/meet (1 + 4 + 4) plus either the searches' int32
# cancellation keys, their sorted copy and a bool mask (4 + 4 + 1) or the
# strict order, its float32 copy and the float32 between-counts (1 + 4 + 4).
# N = 6000 keeps that peak at 20 * 6000^2 = 0.72e9 bytes, under 1 GB; a
# 12-edge matching (4096 elements) still builds. The cap dates from a peak
# of 24 bytes per cell and is kept, so the inputs it refuses stay the same.
DEFAULT_MAX_ELEMENTS = 6000
# product() peaks at about 9 bytes per cell of its N x N tables, N = |L1|*|L2|:
# it broadcasts each table straight into its final layout, so only the bool
# leq and the int32 join and meet (1 + 4 + 4) exist. N = 80^2 keeps that at
# 9 * 6400^2 = 0.37e9 bytes. The cap dates from a peak of 21 bytes per cell
# and is kept, so the inputs it refuses stay the same.
DEFAULT_MAX_PRODUCT = 6400
# _fill_tables indexes an int32 table by the divisor-bitmask key, 2^m
# entries for m generators: m = 24 keeps it at 4 * 2^24 bytes = 64 MiB
MAX_KEY_BITS = 24
# rough bound on the bytes of each blocked temporary: the table fill and the
# kernels
BLOCK_BYTES = 1 << 20


class SizeLimitError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """A finite bounded lattice given by its leq / join / meet tables.

    `names` gives the element labels: a tuple, a function rendering the
    label of one index (called only for the labels read), or () for the
    indices.
    """

    leq: np.ndarray         # bool (n, n)
    join_table: np.ndarray  # int32 (n, n)
    meet_table: np.ndarray  # int32 (n, n)
    names: tuple | Callable[[int], str] = ()

    def __post_init__(self):
        for arr in (self.leq, self.join_table, self.meet_table):
            arr.setflags(write=False)

    @cached_property
    def labels(self) -> tuple:
        if callable(self.names):
            return tuple(map(self.names, range(self.size)))
        return self.names or tuple(str(i) for i in range(self.size))

    def label(self, i: int) -> str:
        """The label of element i, rendered alone: a witness that names a
        few elements does not render the others."""
        if callable(self.names):
            return self.names(i)
        return self.names[i] if self.names else str(i)

    @property
    def size(self) -> int:
        return self.leq.shape[0]

    @property
    def bottom(self) -> int:
        return int(np.nonzero(self.leq.all(axis=1))[0][0])

    @property
    def top(self) -> int:
        return int(np.nonzero(self.leq.all(axis=0))[0][0])

    def join(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return int(self.join_table[a, b])

    def meet(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return int(self.meet_table[a, b])

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise IndexError(f"element index {a} out of range for size {self.size}")

    def index_of_label(self, label: str) -> int:
        return self.labels.index(label)

    @cached_property
    def pentagon(self):
        """kernels.pentagon_search on the tables, run on the first read only."""
        return self._search("pentagon_search", "diamond")

    @cached_property
    def diamond(self):
        """kernels.diamond_search on the tables, run on the first read only."""
        return self._search("diamond_search", "pentagon")

    def _search(self, name: str, other: str):
        """kernels.<name> on the tables and their cancellation keys. The
        first of the two searches builds the keys and holds them for the
        other, which drops them: nothing else reads the n x n keys."""
        from . import kernels  # kernels imports this module

        if other in self.__dict__:
            keys = self.__dict__.pop("_cancellation_keys")
        else:
            keys = self.__dict__["_cancellation_keys"] = kernels._cancellation_keys(
                self.join_table, self.meet_table)
        return getattr(kernels, name)(self.join_table, self.meet_table, self.leq, keys)

    @classmethod
    def from_leq(cls, leq, labels=()) -> "FiniteLattice":
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
        return cls(leq, join, meet, tuple(labels))

    @classmethod
    def from_covers(cls, n: int, covers, labels=()) -> "FiniteLattice":
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
        return cls.from_leq(leq, labels)

    def to_json_dict(self) -> dict:
        covers = hasse_edges(self)
        bot = self.bottom
        return {
            "elements": list(self.labels),
            "atoms": [b for a, b in covers if a == bot],
            "covers": [list(e) for e in covers],
        }


@dataclass(frozen=True, eq=False)
class LcmLattice:
    """The lcm-lattice of a monomial ideal, keeping the monomial behind each element.

    `lattice` (the leq/join/meet tables) is filled from `elements` and
    `keys` on its first read and cached; later reads return the same
    FiniteLattice, which renders each label from `elements` when it is
    read.
    """

    ideal: MonomialIdeal
    elements: tuple                 # monomials; index 0 is the unit (0-hat)
    atom_indices: tuple             # indices of the minimal generators
    keys: tuple = field(repr=False)  # ints, the divisor bitmask of each element

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def atom_count(self) -> int:
        return len(self.atom_indices)

    @cached_property
    def lattice(self) -> FiniteLattice:
        return _fill_tables(self.elements, self.keys, self.atom_count)


def _element_sort_key(m):
    """Total degree, then lexicographic exponents: the unit comes first, and
    a proper divisor, of smaller degree, before its multiples."""
    return (total_degree(m), m)


def _row_blocks(rows: int, row_bytes: int) -> list:
    """Slices covering range(rows), each holding at most BLOCK_BYTES (and at least one row)."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _join_closure(gens: np.ndarray, max_elements: int) -> tuple:
    """The distinct lcms of the generator subsets, as exponent rows of the
    dtype of gens (the unit first, then in the order first reached), and
    the key of each: the bitmask of the generators dividing it. Raises
    SizeLimitError in the round where the rows pass max_elements.

    One generator per round: S_k = S_{k-1} | max(S_{k-1}, g_k), from
    {unit}. A row joins S_k only if its bytes are new, so each round
    handles |S_{k-1}| candidate rows. In round k the row max(e, g_k) ORs
    in the key e had before the round and bit k, so after round k the key
    of e is the union of every subset T of g_0..g_k with lcm(T) = e. After
    the last round that union is {g : g | e}: every g in such a T divides
    e, and {g : g | e} is itself such a T, since e = lcm{g : g | e}. That
    also makes the key injective, whatever the ring dimension or exponent
    size. The bytes of the rows are dropped on return, so a wide ring
    holds them only while the closure runs.
    """
    width = gens.itemsize * gens.shape[1]  # bytes of one exponent row
    # row bytes -> key, in the order first seen
    distinct = {bytes(width): 0}
    exps = np.zeros((1, gens.shape[1]), dtype=gens.dtype)
    for k, g in enumerate(gens):
        bit = 1 << k
        joined = np.maximum(exps, g).view(f"V{width}").ravel().tolist()
        for row, key in zip(joined, list(distinct.values())):
            distinct[row] = distinct.get(row, 0) | key | bit
        if len(distinct) > max_elements:
            raise SizeLimitError(f"lattice exceeds the element cap {max_elements}")
        exps = np.frombuffer(b"".join(distinct), dtype=gens.dtype).reshape(len(distinct), -1)
    return exps, tuple(distinct.values())


def build_lcm_lattice(
    I: MonomialIdeal,
    max_generators: int = DEFAULT_MAX_GENERATORS,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> LcmLattice:
    """Join-closure of the generators plus the unit, in canonical order.

    Elements come out in the order of _element_sort_key (the unit first,
    then by total degree and lexicographic exponents), the same as
    enumerate_subset_lcms, so indices are stable across runs.

    The join-closure (_join_closure) adds one generator per round and
    keeps only the exponent rows not seen before, so it handles at most
    m * |L| candidate rows, never the 2^m generator subsets. It carries
    each element's key, the bitmask of the generators dividing it, through
    its rounds. It checks the element cap in every round, so a lattice
    over the cap is refused in the round its distinct rows pass it, before
    any N x N table exists. An ideal of more than MAX_KEY_BITS generators
    is refused before anything is allocated.

    The tables are not built here: the returned LcmLattice fills them on
    the first read of its `lattice` (see _fill_tables), after the cap check
    has passed.
    """
    m = len(I.generators)
    if m > max_generators:
        raise SizeLimitError(
            f"ideal has {m} generators; the cap is {max_generators} "
            "(raise it via max_generators)"
        )
    if m > MAX_KEY_BITS:
        raise SizeLimitError(
            f"ideal has {m} generators; the subset table of the lattice fill "
            f"holds at most {MAX_KEY_BITS}"
        )
    # uint32 holds every exponent up to monomials.MAX_EXPONENT, in half the
    # bytes of int64 for each row the closure copies and hashes
    gens = np.array(I.generators, dtype=np.uint32)
    exps, keys = _join_closure(gens, max_elements)

    # (degree, row) is _element_sort_key, and the rows are distinct
    rows = exps.tolist()
    ordered = sorted(zip(map(sum, rows), rows, keys))
    elements = tuple(tuple(row) for _, row, _ in ordered)
    keys = tuple(key for _, _, key in ordered)
    index = {key: i for i, key in enumerate(keys)}
    # a minimal generator's key is its own bit
    atom_indices = tuple(index[1 << j] for j in range(m))
    return LcmLattice(I, elements, atom_indices, keys)


def _fill_tables(elements: tuple, keys: tuple, m: int) -> FiniteLattice:
    """The leq/join/meet tables of `elements` keyed by `keys`; each label
    is rendered from `elements` when it is read.

    least[s] is the first element, in index order, whose key contains the
    m-bit mask s: every entry starts at N, each element is scattered to its
    own key, and m passes take the minimum over supersets, one bit each.

    On keys, a <= b is key(a) subset of key(b). join(a, b) is the lcm of
    the generators in key(a) | key(b), and meet(a, b) the lcm of those in
    key(a) & key(b). The lcm of the generators in a mask s is an element,
    its key contains s, and it divides every element whose key contains s.
    So it is least[s] provided the index order extends divisibility, as
    the order of _element_sort_key (total degree first) does. The tables
    are gathers from least, in row blocks of about BLOCK_BYTES.
    """
    size = len(keys)
    keys = np.array(keys, dtype=np.intp)
    least = np.full(1 << m, size, dtype=np.int32)
    least[keys] = np.arange(size, dtype=np.int32)
    for j in range(m):
        pairs = least.reshape(-1, 2, 1 << j)
        np.minimum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])

    leq = np.empty((size, size), dtype=bool)
    join = np.empty((size, size), dtype=np.int32)
    meet = np.empty((size, size), dtype=np.int32)
    for blk in _row_blocks(size, 16 * size):
        ka, kb = keys[blk, None], keys[None, :]
        leq[blk] = (ka & ~kb) == 0
        join[blk] = least[ka | kb]
        meet[blk] = least[ka & kb]

    # cached: a label can be long (one factor per variable of a wide ring),
    # and witnesses may name one element several times
    return FiniteLattice(leq, join, meet, cache(lambda i: monomial_str(elements[i])))


def enumerate_subset_lcms(I: MonomialIdeal):
    """Oracle: lcms of all 2^m generator subsets (lcm of the empty set = 1).

    Returns the deduplicated element list in the same canonical order as
    build_lcm_lattice; kept independent of the join-closure path.
    """
    lcms = {lcm for _, lcm in subset_lcms(I.generators, I.ring_dimension)}
    return sorted(lcms, key=_element_sort_key)


def interval(L: FiniteLattice, x: int, y: int):
    """The sublattice [x, y], plus the original indices of its elements."""
    L._check_index(x)
    L._check_index(y)
    if not L.leq[x, y]:
        raise ValueError(f"interval requires x <= y; got {x} and {y}")
    idx = np.nonzero(L.leq[x] & L.leq[:, y])[0]
    remap = np.full(L.size, -1, dtype=np.int32)
    remap[idx] = np.arange(len(idx), dtype=np.int32)
    original = idx.tolist()
    sub = FiniteLattice(
        L.leq[np.ix_(idx, idx)].copy(),
        remap[L.join_table[np.ix_(idx, idx)]],
        remap[L.meet_table[np.ix_(idx, idx)]],
        lambda k: L.label(original[k]),
    )
    return sub, original


def product(
    L1: FiniteLattice, L2: FiniteLattice, max_size: int = DEFAULT_MAX_PRODUCT
) -> FiniteLattice:
    """Componentwise product; element (i, j) lives at index i*|L2| + j."""
    n1, n2 = L1.size, L2.size
    n = n1 * n2
    if n > max_size:
        raise SizeLimitError(f"product size {n} exceeds the cap {max_size}")

    # entry [(i, j), (k, l)] broadcasts from t1[i, k] and t2[j, l], so each
    # table is written once, already in its (n, n) layout
    def grid(t1, t2):
        return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n, n)

    leq = (L1.leq[:, None, :, None] & L2.leq[None, :, None, :]).reshape(n, n)
    join = grid(L1.join_table, L2.join_table)
    meet = grid(L1.meet_table, L2.meet_table)
    labels = tuple(
        f"({a},{b})" for a in L1.labels for b in L2.labels
    )
    return FiniteLattice(leq, join, meet, labels)


def boolean_lattice(r: int, max_rank: int = DEFAULT_MAX_GENERATORS) -> FiniteLattice:
    """Subsets of {1..r} ordered by inclusion; join = union, meet = intersection."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    if r > max_rank:
        raise SizeLimitError(f"rank {r} exceeds the cap {max_rank}")
    masks = np.arange(1 << r, dtype=np.int64)
    leq = (masks[:, None] & masks[None, :]) == masks[:, None]
    join = np.bitwise_or.outer(masks, masks).astype(np.int32)
    meet = np.bitwise_and.outer(masks, masks).astype(np.int32)
    labels = tuple(
        "{" + ",".join(str(i + 1) for i in range(r) if mask >> i & 1) + "}"
        for mask in masks
    )
    return FiniteLattice(leq, join, meet, labels)


def chain_lattice(n: int) -> FiniteLattice:
    """A total order on n elements."""
    if n < 1:
        raise ValueError("chain needs at least one element")
    idx = np.arange(n)
    leq = idx[:, None] <= idx[None, :]
    join = np.maximum.outer(idx, idx).astype(np.int32)
    meet = np.minimum.outer(idx, idx).astype(np.int32)
    return FiniteLattice(leq, join, meet, tuple(str(i) for i in range(n)))


def pentagon_lattice() -> FiniteLattice:
    """N5: bottom 0, chain 1 < 2 opposite 3, top 4."""
    return FiniteLattice.from_covers(
        5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
        labels=("0", "x", "y", "a", "1"),
    )


def diamond_lattice() -> FiniteLattice:
    """M3: bottom 0, three incomparable middles 1, 2, 3, top 4."""
    return FiniteLattice.from_covers(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
        labels=("0", "a", "b", "c", "1"),
    )


def _strict_and_covers(L: FiniteLattice):
    """The strict order a < b as a bool matrix, and the between-count.

    between[a, b] is the number of c with a < c < b, a float32 matmul of
    0/1 entries, exact below 2^24 elements. It is 0 unless a < b, so the
    covers are strict & (between == 0) and the 3-element intervals are
    between == 1.
    """
    strict = L.leq & ~np.eye(L.size, dtype=bool)
    as_float = strict.astype(np.float32)
    return strict, as_float @ as_float


def hasse_edges(L: FiniteLattice):
    """Cover pairs (a, b): a < b with nothing strictly between."""
    strict, between = _strict_and_covers(L)
    return list(map(tuple, np.argwhere(strict & (between == 0)).tolist()))


def _refine_invariants(L: FiniteLattice):
    """Iterated neighborhood refinement; isomorphism-invariant color per element."""
    strict, between = _strict_and_covers(L)
    covers = strict & (between == 0)
    counts = (strict.sum(axis=1), strict.sum(axis=0), covers.sum(axis=1), covers.sum(axis=0))
    color = list(zip(*(c.tolist() for c in counts)))
    above = [[] for _ in range(L.size)]
    below = [[] for _ in range(L.size)]
    for a, b in zip(*(idx.tolist() for idx in np.nonzero(covers))):
        above[a].append(b)
        below[b].append(a)
    for _ in range(L.size):
        nxt = [
            (
                color[i],
                tuple(sorted(color[j] for j in above[i])),
                tuple(sorted(color[j] for j in below[i])),
            )
            for i in range(L.size)
        ]
        if len(set(nxt)) == len(set(color)):
            break
        color = nxt
    # collapse to small ints for cheap comparisons
    canon = {c: k for k, c in enumerate(sorted(set(color)))}
    return [canon[c] for c in color]


def is_isomorphic(L1: FiniteLattice, L2: FiniteLattice):
    """A join/meet-preserving bijection (as a list L1-index -> L2-index), or None.

    Invariant refinement prunes the candidate sets; backtracking tries
    candidates in ascending index order, so the result is deterministic.
    """
    if L1.size != L2.size:
        return None
    n = L1.size
    c1 = _refine_invariants(L1)
    c2 = _refine_invariants(L2)
    if sorted(c1) != sorted(c2):
        return None
    by_color = {}
    for j, c in enumerate(c2):
        by_color.setdefault(c, []).append(j)
    candidates = [by_color[c] for c in c1]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    placed_order = np.array(order)
    mapping = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)

    def consistent(i, j, pos):
        # i -> j against every element placed before position pos
        placed = placed_order[:pos]
        image = mapping[placed]
        if (L1.leq[i, placed] != L2.leq[j, image]).any() or (
            L1.leq[placed, i] != L2.leq[image, j]
        ).any():
            return False
        for t1, t2 in ((L1.join_table, L2.join_table), (L1.meet_table, L2.meet_table)):
            mapped = mapping[t1[i, placed]]
            if ((mapped != t2[j, image]) & (mapped != -1)).any():
                return False
        return True

    # depth-first search with an explicit stack: tried[pos] is how many of
    # order[pos]'s candidates have been tried at the current branch
    tried = [0] * n
    pos = 0
    while 0 <= pos < n:
        i = order[pos]
        if mapping[i] != -1:  # back from a dead end below: undo this choice
            used[mapping[i]] = False
            mapping[i] = -1
        cands = candidates[i]
        k = tried[pos]
        while k < len(cands) and (used[cands[k]] or not consistent(i, cands[k], pos)):
            k += 1
        if k == len(cands):
            tried[pos] = 0
            pos -= 1
            continue
        tried[pos] = k + 1
        mapping[i] = cands[k]
        used[cands[k]] = True
        pos += 1
    if pos < 0:
        return None
    # final sanity pass over the full tables
    grid = np.ix_(mapping, mapping)
    if not (
        np.array_equal(L1.leq, L2.leq[grid])
        and np.array_equal(mapping[L1.join_table], L2.join_table[grid])
        and np.array_equal(mapping[L1.meet_table], L2.meet_table[grid])
    ):
        return None
    return mapping.tolist()


# --- exports ----------------------------------------------------------------

def lattice_json(L: FiniteLattice) -> str:
    return json.dumps(L.to_json_dict(), sort_keys=True)


def lattice_dot(L: LcmLattice) -> str:
    """DOT export: nodes labeled by monomial, ranked by total degree."""
    lines = ["digraph lcmlattice {", "  rankdir=BT;"]
    by_degree = {}
    labels = L.lattice.labels
    for i, m in enumerate(L.elements):
        label = "0̂" if i == 0 else labels[i]
        lines.append(f'  "{labels[i]}" [label="{label}"];')
        by_degree.setdefault(total_degree(m), []).append(i)
    for _, group in sorted(by_degree.items()):
        names = " ".join(f'"{labels[i]}"' for i in group)
        lines.append(f"  {{ rank=same; {names} }}")
    for a, b in hasse_edges(L.lattice):
        lines.append(f'  "{labels[a]}" -> "{labels[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Finite lattices and lcm-lattices: construction, tables, products, isomorphism.

A FiniteLattice stores its join/meet index tables as numpy arrays, a
function that renders each label and a function that lists its Hasse
covers; everything downstream (property checks, audits) works off those
tables. The order is derived from them on its first read: a <= b exactly
when a ^ b = a. The covers come from how each lattice was built (the keys
of an lcm-lattice, a product's factors, an interval's parent, the
definition of a Boolean lattice, a chain, N5 or M3), never from the order,
and only when they are read. An LcmLattice stores its ideal, its monomial
elements and their divisor keys; its atoms are the ideal's minimal
generators, found among the keys when first read.

build_lcm_lattice runs the join-closure on arrays: each round joins one
generator to every distinct exponent row so far and keeps only the rows
not seen before, so it handles O(m * N) candidate rows for N elements,
never the 2^m generator subsets. The same rounds key each element by the
bitmask of the generators dividing it. The elements are held once, as
tuples in the canonical order of _element_sort_key. Every element is the
lcm of a subset of the generators, so one table over the 2^m generator
subsets (the least element whose key contains each subset) turns join and
meet into gathers. An LcmLattice builds that table once, on first need,
and reads it for four things: its covers and its first 3-element interval
(both from the joins of each element with each generator, O(N * m^2)),
the join/meet tables of an interval (over its elements only) and, on the
first read of LcmLattice.lattice, the join/meet tables, in row blocks of
about kernels.BLOCK_BYTES each. A caller that reads only the elements,
the atoms, the ideal (is_boolean), the exports (labels and covers) or a
relatively complemented verdict, failing or not, never pays for the
N x N tables. Each label is rendered from its tuple when it is read: most
verdicts read none, and a witness reads only the few it names.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from . import kernels
from .kernels import _row_blocks
from .monomials import (
    MAX_CELLS, MAX_KEY_BITS, MonomialIdeal, monomial_str, subset_lcms, total_degree,
)

# The caps are module constants: no flag or parameter sets them, so the
# memory bounds below hold for every caller.
# `check --property all` peaks at about 20 bytes per cell of the N x N tables
# (measured with tracemalloc at N = 448..2560, modular or not): the int32
# join/meet and the derived bool leq (4 + 4 + 1) plus the searches' int32
# cancellation keys, their sorted copy and a bool mask (4 + 4 + 1). The
# exports and Björner's test read no N x N table, only the keys: a few
# (N, m, m) arrays (see _generator_joins) and a failing interval's own
# tables (see interval). N = 6000 keeps that peak at 20 * 6000^2 = 0.72e9
# bytes, under 1 GB; a 12-edge matching (4096 elements) still builds. The
# cap dates from a peak of 24 bytes per cell and is kept, so the inputs it
# refuses stay the same.
MAX_ELEMENTS = 6000
# product() writes 8 bytes per cell of its N x N tables, N = |L1|*|L2|, the
# int32 join and meet, each broadcast straight into its final layout; the
# bool order adds 1 byte on its first read. N = 80^2 keeps the 9 bytes at
# 9 * 6400^2 = 0.37e9. The cap dates from a peak of 21 bytes per cell and
# is kept, so the inputs it refuses stay the same.
MAX_PRODUCT = 6400
# MAX_KEY_BITS (from monomials) caps the generators at the key width of
# _subset_table: 4 bytes per generator subset, 64 MiB at 24 bits, kept with
# the lattice once built, since its covers and its tables both read it.
# MAX_CELLS (from monomials) caps elements x ring variables: about 16 bytes
# per cell through the build and is_boolean's scan, and 12 in the round that
# passes the cap (the old rows, their join, its split rows), so a refusal
# peaks near 0.4 GB


class SizeLimitError(ValueError):
    pass


class _Exported:
    """What the exports and intervals read, shared by FiniteLattice and
    LcmLattice: the labels, rendered by `names`, the index check and the
    JSON dict of the labels, the atoms and the covers. None reads a table."""

    @cached_property
    def labels(self) -> tuple:
        return tuple(map(self.names, range(self.size)))

    def _check_index(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise IndexError(f"element index {a} out of range for size {self.size}")

    def to_json_dict(self) -> dict:
        covers = hasse_edges(self)
        bot = self.bottom
        return {
            "elements": list(self.labels),
            "atoms": [b for a, b in covers if a == bot],
            "covers": covers,  # json writes each pair as an array
        }


@dataclass(frozen=True, eq=False)
class FiniteLattice(_Exported):
    """A finite bounded lattice given by its join / meet index tables.

    The order is derived, not stored: a <= b exactly when a ^ b = a, so
    `leq` is read off meet_table on its first read. `names` renders the
    label of one index; it is called only for the labels read. `covers`
    returns the Hasse covers as two index arrays (below, above), b covering
    a, in row-major order; each builder passes one that derives them from
    its own construction, called only when the covers are read.
    """

    join_table: np.ndarray  # int32 (n, n)
    meet_table: np.ndarray  # int32 (n, n)
    names: Callable[[int], str] = str
    covers: Callable[[], tuple] = field(kw_only=True, repr=False)

    def __post_init__(self):
        for arr in (self.join_table, self.meet_table):
            arr.setflags(write=False)

    @cached_property
    def leq(self) -> np.ndarray:
        """bool (n, n): leq[a, b] is a <= b, i.e. meet(a, b) == a."""
        leq = self.meet_table == np.arange(self.size, dtype=np.int32)[:, None]
        leq.setflags(write=False)
        return leq

    @property
    def size(self) -> int:
        return self.meet_table.shape[0]

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
        if other in self.__dict__:
            keys = self.__dict__.pop("_cancellation_keys")
        else:
            keys = self.__dict__["_cancellation_keys"] = kernels._cancellation_keys(
                self.join_table, self.meet_table)
        return getattr(kernels, name)(self.join_table, self.meet_table, self.leq, keys)


@dataclass(frozen=True, eq=False)
class LcmLattice(_Exported):
    """The lcm-lattice of a monomial ideal, keeping the monomial behind each element.

    `lattice` (the join/meet tables) is filled from `keys` on its first
    read and cached; later reads return the same FiniteLattice, which shares
    `names`. The labels, the covers, the exports and the intervals
    (interval) need no N x N table: a <= b iff key(a) is within key(b). The
    atoms are the minimal generators, one per generator of the ideal: the
    elements whose key is one generator's bit.
    """

    ideal: MonomialIdeal
    elements: tuple                 # monomials; index 0 is the unit (0-hat)
    keys: tuple = field(repr=False)  # ints, the divisor bitmask of each element
    bottom = 0  # the unit

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def atom_count(self) -> int:
        return len(self.ideal.generators)

    @cached_property
    def names(self) -> Callable[[int], str]:
        """Renders each label from `elements` once, when it is read: a label
        can be long (one factor per variable of a wide ring), and witnesses
        may name one element several times."""
        elements = self.elements  # not self, which would make a cycle
        return cache(lambda i: monomial_str(elements[i]))

    @cached_property
    def _least(self) -> np.ndarray:
        """The subset table that the covers, intervals and table fill read."""
        return _subset_table(self.keys, self.atom_count)

    def covers(self) -> tuple:
        return _lcm_covers(self._least, self.keys)

    @cached_property
    def lattice(self) -> FiniteLattice:
        return _fill_tables(self._least, self.keys, self.names)

    def first_3_element_interval(self) -> tuple | None:
        """The least (x, y) in row-major order with |[x, y]| = 3, read from
        the keys without a table, or None if there is none.

        The lattice is atomistic (see _lcm_covers). If [x, y] = {x, z, y},
        then y = x v g_j for some g_j, since y is the join of the x v g_k
        over the g_k dividing y and not x, and each of those is z or y.
        Those joins lie in (x, y], so they take exactly the two values z and
        y. Conversely, let y = x v g_j, and let rest = added[x, j] &
        ~same[x, j] be the g_k dividing y and not x with x v g_k != y. If
        rest is one class same[x, k], all its joins are one z < y, and any
        w in (x, y) is the join of its own x v g_k, each of which is below y,
        so z: then [x, y] = {x, z, y}. A nonzero rest that is no class gives
        two joins z1 != z2 below y, so more than 3 elements, and rest = 0
        means y covers x (or y = x).
        """
        _, joins, added, same = _generator_joins(self._least, self.keys)
        rest = added & ~same
        # same[x, k] is never 0, so a rest of 0 matches no class
        chain = (same[:, None, :] == rest[:, :, None]).any(axis=2)
        rows = np.flatnonzero(chain.any(axis=1))
        if len(rows) == 0:
            return None
        x = int(rows[0])
        return x, int(joins[x, chain[x]].min())


def _element_sort_key(m):
    """Total degree, then lexicographic exponents: the unit comes first, and
    a proper divisor, of smaller degree, before its multiples."""
    return (total_degree(m), m)


def _join_closure(gens: np.ndarray) -> dict:
    """The distinct lcms of the generator subsets, as a dict from the bytes
    of each exponent row (in the dtype of gens; the unit first, then in
    the order first reached) to its key: the bitmask of the generators
    dividing it. Raises SizeLimitError in the round where the rows pass
    MAX_ELEMENTS, or rows x ring variables pass MAX_CELLS.

    One generator per round: S_k = S_{k-1} | max(S_{k-1}, g_k), from
    {unit}. A row joins S_k only if its bytes are new, so each round
    handles |S_{k-1}| candidate rows. In round k the row max(e, g_k) ORs
    in the key e had before the round and bit k, so after round k the key
    of e is the union of every subset T of g_0..g_k with lcm(T) = e. After
    the last round that union is {g : g | e}: every g in such a T divides
    e, and {g : g | e} is itself such a T, since e = lcm{g : g | e}. That
    also makes the key injective, whatever the ring dimension or exponent
    size. Each round reads the rows of the last one as one array; the
    dict holds the only copy of each row between rounds and on return.
    """
    width = gens.itemsize * gens.shape[1]  # bytes of one exponent row
    distinct = {bytes(width): 0}
    for k, g in enumerate(gens):
        bit = 1 << k
        # the joined copy of the rows is freed before the new rows are split
        rows = np.frombuffer(b"".join(distinct), dtype=gens.dtype).reshape(len(distinct), -1)
        joined = np.maximum(rows, g)
        del rows
        joined = joined.view(f"V{width}").ravel().tolist()
        for row, key in zip(joined, list(distinct.values())):
            distinct[row] = distinct.get(row, 0) | key | bit
        if len(distinct) > MAX_ELEMENTS:
            raise SizeLimitError(f"lattice exceeds the element cap {MAX_ELEMENTS}")
        if len(distinct) * gens.shape[1] > MAX_CELLS:
            raise SizeLimitError(f"lattice exceeds the cell cap {MAX_CELLS}: {len(distinct)} "
                                 f"elements x {gens.shape[1]} ring variables")
    return distinct


def build_lcm_lattice(I: MonomialIdeal) -> LcmLattice:
    """Join-closure of the generators plus the unit, in canonical order.

    Elements come out in the order of _element_sort_key (the unit first,
    then by total degree and lexicographic exponents), the same as
    enumerate_subset_lcms, so indices are stable across runs.

    The join-closure (_join_closure) adds one generator per round and
    keeps only the exponent rows not seen before, so it handles at most
    m * |L| candidate rows, never the 2^m generator subsets. It carries
    each element's key, the bitmask of the generators dividing it, through
    its rounds. It checks the element cap (MAX_ELEMENTS) and the cell cap
    (MAX_CELLS) in every round, so a lattice over either is refused in the
    round its distinct rows pass it, before any N x N table exists. An
    ideal of more than MAX_KEY_BITS generators is refused before anything
    is allocated.

    The tables are not built here: the returned LcmLattice fills them on
    the first read of its `lattice` (see _fill_tables), after the cap check
    has passed, and reads its covers from the keys without them.
    """
    m = len(I.generators)
    if m > MAX_KEY_BITS:
        raise SizeLimitError(
            f"ideal has {m} generators; the subset table of the lattice fill "
            f"holds at most {MAX_KEY_BITS}"
        )
    # uint32 holds every exponent up to monomials.MAX_EXPONENT, in half the
    # bytes of int64 for each row the closure copies and hashes
    gens = np.array(I.generators, dtype=np.uint32)
    distinct = _join_closure(gens)

    # each row is unpacked straight into its element tuple; (degree, row)
    # is _element_sort_key, and the rows are distinct
    rows = list(map(struct.Struct(f"={I.ring_dimension}I").unpack, distinct))
    ordered = sorted(zip(map(sum, rows), rows, distinct.values()))
    elements = tuple(row for _, row, _ in ordered)
    keys = tuple(key for _, _, key in ordered)
    return LcmLattice(I, elements, keys)


def _subset_table(keys: tuple, m: int) -> np.ndarray:
    """least[s], for every m-bit mask s, is the first element, in index
    order, whose key contains s: every entry starts at N, each element is
    scattered to its own key, and m passes take the minimum over supersets,
    one bit each.

    The lcm of the generators in s is an element, its key contains s, and
    it divides every element whose key contains s. So least[s] is that lcm,
    provided the index order extends divisibility, as the order of
    _element_sort_key (total degree first) does.
    """
    size = len(keys)
    least = np.full(1 << m, size, dtype=np.int32)
    least[np.array(keys, dtype=np.intp)] = np.arange(size, dtype=np.int32)
    for j in range(m):
        pairs = least.reshape(-1, 2, 1 << j)
        np.minimum(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])
    return least


def _fill_tables(least: np.ndarray, keys: tuple, names) -> FiniteLattice:
    """The join/meet tables of the elements keyed by `keys`, gathered from
    their subset table `least` (see _subset_table) in row blocks of about
    kernels.BLOCK_BYTES, labeled by `names`.

    On keys, join(a, b) is the lcm of the generators in key(a) | key(b),
    so least[key(a) | key(b)], and meet(a, b) the lcm of those in
    key(a) & key(b), so least[key(a) & key(b)]. The covers are read from
    the same table, by _lcm_covers.
    """
    size = len(keys)
    keys = np.array(keys, dtype=np.intp)
    join = np.empty((size, size), dtype=np.int32)
    meet = np.empty((size, size), dtype=np.int32)
    for blk in _row_blocks(size, 16 * size):
        ka, kb = keys[blk, None], keys[None, :]
        join[blk] = least[ka | kb]
        meet[blk] = least[ka & kb]
    return FiniteLattice(join, meet, names, covers=partial(_lcm_covers, least, keys))


def _lcm_covers(least: np.ndarray, keys) -> tuple:
    """The Hasse covers of an lcm-lattice from its keys and subset table, as
    (below, above) in row-major order: O(N * m^2) on N elements.

    An lcm-lattice is atomistic, its atoms the m minimal generators
    (Gasharov, Peeva and Welker, Math. Res. Lett. 6, 1999), so each upper
    cover of a is a join a v g_k with g_k not dividing a, which is
    least[key(a) | 1 << k]. Such a c = a v g_k covers a iff a v g_j = c for
    every g_j that divides c and not a: each such a v g_j lies in (a, c],
    and an element d strictly between a and c lies above a v g_j for some
    g_j dividing d, hence c, and not a. So c covers a iff the bits key(c)
    adds to key(a) are exactly the bits j with a v g_j = c, and the lowest
    of them names the pair once.
    """
    bits, joins, added, same = _generator_joins(least, keys)
    below, k = np.nonzero((added == same) & ((added & -added) == bits))
    return _row_major(below, joins[below, k])


def _generator_joins(least: np.ndarray, keys) -> tuple:
    """The (N, m) arrays that an lcm-lattice's covers and its 3-element
    intervals are read from, with bits[k] = 1 << k: joins[a, k], the index
    of a v g_k (least[key(a) | 1 << k]); added[a, k], the bits key(a v g_k)
    adds to key(a); same[a, k], the bits j with a v g_j = a v g_k, from one
    broadcast comparison, summed over j in integers. same[a, k] always
    holds bit k, and when g_k does not divide a it lies within added[a, k]."""
    keys = np.asarray(keys, dtype=np.intp)
    bits = 1 << np.arange(least.size.bit_length() - 1, dtype=np.intp)
    joins = least[keys[:, None] | bits]
    added = keys[joins] & ~keys[:, None]
    same = np.einsum("akj,j->ak", joins[:, :, None] == joins[:, None, :], bits)
    return bits, joins, added, same


def _row_major(below: np.ndarray, above: np.ndarray) -> tuple:
    """The pairs (below[i], above[i]) sorted by below, then above."""
    order = np.lexsort((above, below))
    return below[order], above[order]


def enumerate_subset_lcms(I: MonomialIdeal):
    """Oracle: lcms of all 2^m generator subsets (lcm of the empty set = 1).

    Returns the deduplicated element list in the same canonical order as
    build_lcm_lattice; kept independent of the join-closure path.
    """
    lcms = {lcm for _, lcm in subset_lcms(I.generators, I.ring_dimension)}
    return sorted(lcms, key=_element_sort_key)


def interval(L: LcmLattice, x: int, y: int):
    """The sublattice [x, y] of the lcm-lattice L, plus the original indices
    of its elements, from the keys alone: a <= b iff key(a) is within key(b).

    Its join and meet are _fill_tables' gathers over its elements; the lcm of
    the generators in key(a) | key(b), or key(a) & key(b), lies in [x, y].
    Its covers are L's with both ends in [x, y], which holds every element
    strictly between two of its own.
    """
    L._check_index(x)
    L._check_index(y)
    low, high = L.keys[x], L.keys[y]
    if low & ~high:
        raise ValueError(f"interval requires x <= y; got {x} and {y}")
    keys = np.array(L.keys, dtype=np.intp)
    inside = ((keys & low) == low) & ((keys & ~high) == 0)
    idx = np.flatnonzero(inside)
    remap = np.full(L.size, -1, dtype=np.int32)
    remap[idx] = np.arange(len(idx), dtype=np.int32)
    original = idx.tolist()
    ka, kb = keys[idx, None], keys[None, idx]

    def covers():
        below, above = L.covers()
        keep = inside[below] & inside[above]
        return remap[below[keep]], remap[above[keep]]  # remap keeps the order

    sub = FiniteLattice(remap[L._least[ka | kb]], remap[L._least[ka & kb]],
                        lambda k: L.names(original[k]), covers=covers)
    return sub, original


def product(L1: FiniteLattice, L2: FiniteLattice) -> FiniteLattice:
    """Componentwise product; element (i, j) lives at index i*|L2| + j.

    (i, j) is covered by (k, l) iff one coordinate is equal and the other a
    cover, so the covers come from the factors' covers.
    """
    n1, n2 = L1.size, L2.size
    n = n1 * n2
    if n > MAX_PRODUCT:
        raise SizeLimitError(f"product size {n} exceeds the cap {MAX_PRODUCT}")

    # entry [(i, j), (k, l)] broadcasts from t1[i, k] and t2[j, l], so each
    # table is written once, already in its (n, n) layout
    def grid(t1, t2):
        return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n, n)

    def covers():
        (a1, b1), (a2, b2) = L1.covers(), L2.covers()
        i, j = np.arange(n1)[:, None], np.arange(n2)[:, None]
        return _row_major(np.concatenate([(i * n2 + a2).ravel(), (a1 * n2 + j).ravel()]),
                          np.concatenate([(i * n2 + b2).ravel(), (b1 * n2 + j).ravel()]))

    return FiniteLattice(
        grid(L1.join_table, L2.join_table),
        grid(L1.meet_table, L2.meet_table),
        lambda i: f"({L1.names(i // n2)},{L2.names(i % n2)})",
        covers=covers,
    )


def boolean_lattice(r: int) -> FiniteLattice:
    """Subsets of {1..r} ordered by inclusion; join = union, meet = intersection.
    A subset is covered by itself plus one element. Refuses 2^r > MAX_ELEMENTS,
    i.e. r > 12."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    max_rank = MAX_ELEMENTS.bit_length() - 1
    if r > max_rank:
        raise SizeLimitError(f"rank {r} exceeds the cap {max_rank}")
    masks = np.arange(1 << r, dtype=np.int32)

    def covers():
        # row-major: the added bit i rises along each row
        below, i = np.nonzero((masks[:, None] >> np.arange(r) & 1) == 0)
        return below, below | 1 << i

    return FiniteLattice(
        np.bitwise_or.outer(masks, masks),
        np.bitwise_and.outer(masks, masks),
        lambda mask: "{" + ",".join(str(i + 1) for i in range(r) if mask >> i & 1) + "}",
        covers=covers,
    )


def chain_lattice(n: int) -> FiniteLattice:
    """A total order on n elements; i is covered by i + 1."""
    if n < 1:
        raise ValueError("chain needs at least one element")
    if n > MAX_ELEMENTS:
        raise SizeLimitError(f"chain size {n} exceeds the cap {MAX_ELEMENTS}")
    idx = np.arange(n, dtype=np.int32)
    return FiniteLattice(np.maximum.outer(idx, idx), np.minimum.outer(idx, idx),
                         covers=lambda: (idx[:-1], idx[1:]))


def _literal(join, meet, labels, covers) -> FiniteLattice:
    """A five-element lattice from its literal tables, labels and covers."""
    below, above = np.array(covers).T
    return FiniteLattice(np.array(join, dtype=np.int32), np.array(meet, dtype=np.int32),
                         labels.__getitem__, covers=lambda: (below, above))


def pentagon_lattice() -> FiniteLattice:
    """N5: bottom 0, chain 1 < 2 opposite 3, top 4."""
    join = [[0, 1, 2, 3, 4],
            [1, 1, 2, 4, 4],
            [2, 2, 2, 4, 4],
            [3, 4, 4, 3, 4],
            [4, 4, 4, 4, 4]]
    meet = [[0, 0, 0, 0, 0],
            [0, 1, 1, 0, 1],
            [0, 1, 2, 0, 2],
            [0, 0, 0, 3, 3],
            [0, 1, 2, 3, 4]]
    return _literal(join, meet, ("0", "x", "y", "a", "1"),
                    [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)])


def diamond_lattice() -> FiniteLattice:
    """M3: bottom 0, three incomparable middles 1, 2, 3, top 4."""
    join = [[0, 1, 2, 3, 4],
            [1, 1, 4, 4, 4],
            [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4],
            [4, 4, 4, 4, 4]]
    meet = [[0, 0, 0, 0, 0],
            [0, 1, 0, 0, 1],
            [0, 0, 2, 0, 2],
            [0, 0, 0, 3, 3],
            [0, 1, 2, 3, 4]]
    return _literal(join, meet, ("0", "a", "b", "c", "1"),
                    [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def hasse_edges(L) -> list:
    """Cover pairs (a, b), b covering a, in row-major order, as the builder
    of L (a FiniteLattice or an LcmLattice) derives them."""
    below, above = L.covers()
    return list(zip(below.tolist(), above.tolist()))


def _refine_invariants(L: FiniteLattice):
    """Iterated neighborhood refinement; isomorphism-invariant color per element."""
    below_idx, above_idx = L.covers()
    n = L.size
    # up- and down-set sizes count the element itself; that shifts no ranking
    counts = (L.leq.sum(axis=1), L.leq.sum(axis=0),
              np.bincount(below_idx, minlength=n), np.bincount(above_idx, minlength=n))
    color = list(zip(*(c.tolist() for c in counts)))
    above = [[] for _ in range(n)]
    below = [[] for _ in range(n)]
    for a, b in zip(below_idx.tolist(), above_idx.tolist()):
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
        # i -> j preserves the order against every element placed before
        # position pos; a bijection that preserves the order both ways is
        # a lattice isomorphism, so join and meet need no test of their own
        placed = placed_order[:pos]
        image = mapping[placed]
        return not (
            (L1.leq[i, placed] != L2.leq[j, image]).any()
            or (L1.leq[placed, i] != L2.leq[image, j]).any()
        )

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
    # final sanity pass over the full tables; equal meet tables give equal
    # orders, since a <= b exactly when a ^ b = a
    grid = np.ix_(mapping, mapping)
    if not (
        np.array_equal(mapping[L1.join_table], L2.join_table[grid])
        and np.array_equal(mapping[L1.meet_table], L2.meet_table[grid])
    ):
        return None
    return mapping.tolist()


# --- exports ----------------------------------------------------------------

def lattice_json(L) -> str:
    """JSON export of a FiniteLattice or an LcmLattice; neither fills a table."""
    return json.dumps(L.to_json_dict(), sort_keys=True)


def lattice_dot(L: LcmLattice) -> str:
    """DOT export: nodes labeled by monomial, ranked by total degree."""
    lines = ["digraph lcmlattice {", "  rankdir=BT;"]
    by_degree = {}
    labels = L.labels
    for i, m in enumerate(L.elements):
        label = "0̂" if i == 0 else labels[i]
        lines.append(f'  "{labels[i]}" [label="{label}"];')
        by_degree.setdefault(total_degree(m), []).append(i)
    for _, group in sorted(by_degree.items()):
        names = " ".join(f'"{labels[i]}"' for i in group)
        lines.append(f"  {{ rank=same; {names} }}")
    for a, b in hasse_edges(L):
        lines.append(f'  "{labels[a]}" -> "{labels[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Hot inner loops over lattice tables: law sweeps, valuation tests and
sublattice searches.

Each sweep and search returns the first witness in a fixed scan order as a
tuple of ints, or None when there is none; tests/test_kernels.py checks
every kernel against a plain triple loop on the same tables. A kernel skips
only candidates that lattice theory says cannot yield a witness:

- the modular sweep reads, for each z, only the rows x <= z, the only ones
  the law constrains; the distributive sweep checks every triple;
- the two valuation tests decide modularity and distributivity in O(n^2)
  without a witness: a function v on the elements is a valuation when
  v(x) + v(y) = v(x ^ y) + v(x v y) for all x, y, and the lattice is
  modular iff its height function is one, distributive iff the count of
  join-irreducibles below x is one;
- the searches key each pair by keys[a, x] = (a ^ x) * n + (a v x). By
  Birkhoff's cancellation law a lattice is distributive iff x -> keys[a, x]
  is injective for every a, and a pentagon or diamond through a puts two
  of its elements on one key of row a. So rows without a repeated key are
  skipped (all of them on a distributive lattice), and in the others only
  pairs inside one key fiber are candidates;
- equal keys already imply the incomparabilities a pentagon or diamond
  needs, so the searches test no incomparability;
- once a witness with bottom z* is held, a later a can only win with a
  smaller bottom, so only pairs with a ^ x < z* stay in play.

Tables are int32 join/meet index tables plus a bool leq matrix, as built
by lattice.FiniteLattice. The two searches take the lattice's
_cancellation_keys when it has them, so a lattice that runs both builds
its keys once. Besides those n x n keys and their sorted copy,
temporaries larger than O(n) are built in blocks of about
lattice.BLOCK_BYTES.
"""

from __future__ import annotations

import numpy as np

from .lattice import BLOCK_BYTES, _row_blocks

# read by perfbench's provenance record; there is no other backend
USE_NUMBA = False
# fiber pairs handed to a search at once: the dozen or so int64 arrays of
# this length stay about BLOCK_BYTES together, however large one fiber is
_PAIRS_PER_CHUNK = BLOCK_BYTES // 128


def modular_violation(join, meet, leq):
    """First (x, y, z) with x <= z and x v (y ^ z) != (x v y) ^ z.

    Scan order: z ascending, then x, then y. Returns None if modular.
    For each z only the rows x <= z are computed.
    """
    n = join.shape[0]
    for z in range(n):
        xs = np.flatnonzero(leq[:, z])
        mz = meet[:, z]
        jx = join.take(xs, 0)                  # [x, y] -> x v y
        viol = jx.take(mz, 1) != mz.take(jx)   # x v (y ^ z) vs (x v y) ^ z
        if viol.any():
            i, y = np.argwhere(viol)[0]
            return int(xs[i]), int(y), z
    return None


def distributive_violation(join, meet):
    """First (x, y, z) with x ^ (y v z) != (x ^ y) v (x ^ z), scanning x, y, z.

    Returns None if distributive. Every triple is checked.
    """
    n = join.shape[0]
    for x in range(n):
        mx = meet[x]
        lhs = mx.take(join)                     # [y, z] -> x ^ (y v z)
        rhs = join.take(mx, 0).take(mx, 1)      # [y, z] -> (x ^ y) v (x ^ z)
        viol = lhs != rhs
        if viol.any():
            y, z = np.argwhere(viol)[0]
            return x, int(y), int(z)
    return None


def modular_by_valuation(join, meet, leq):
    """Whether the lattice is modular, from its height function.

    A lattice of finite length is modular iff its height h (the length of
    the longest chain up from the bottom) satisfies
    h(x) + h(y) = h(x ^ y) + h(x v y) for all x, y (Birkhoff, Lattice
    Theory, 3rd ed., ch. II). O(n^2).
    """
    return _is_valuation(_heights(leq), join, meet)


def distributive_by_valuation(join, meet, leq):
    """Whether the lattice is distributive, from its join-irreducibles.

    With v(x) = #{join-irreducible j <= x}, x -> {j <= x} always preserves
    meets and is one-to-one, and v(x) + v(y) = v(x ^ y) + v(x v y) for all
    x, y holds iff it also preserves joins, i.e. iff it embeds the lattice
    into the Boolean lattice on its join-irreducibles. O(n^2).
    """
    n = join.shape[0]
    irreducible = _join_irreducibles(join)
    v = np.zeros(n, dtype=np.int32)
    for blk in _row_blocks(n, n):  # each block copies its irreducibles' leq rows
        v += leq[blk][irreducible[blk]].sum(axis=0, dtype=np.int32)
    return _is_valuation(v, join, meet)


def _heights(leq):
    """1 + h(x) for every x, h(x) the length of the longest chain from the
    bottom up to x; the 1 cancels in the valuation identity.

    x < y has the smaller down-set, so sorting by down-set size gives a
    linear extension whatever the index order. In it h(x) is final when x
    is reached, and x pushes h(x) + 1 to itself and every element above it.
    """
    h = np.zeros(leq.shape[0], dtype=np.int32)
    for x in np.argsort(leq.sum(axis=0)):
        np.maximum(h, leq[x] * (h[x] + 1), out=h)
    return h


def _join_irreducibles(join):
    """Mask of the elements that are not the join of two incomparable ones.

    x v y is neither x nor y iff x and y are incomparable. The bottom is
    in the mask; it adds 1 to every count v(x), which cancels in the
    valuation identity.
    """
    n = join.shape[0]
    cols = np.arange(n, dtype=join.dtype)
    reducible = np.zeros(n, dtype=bool)
    for blk in _row_blocks(n, 16 * n):  # three masks, the joins and their int64 indices
        j = join[blk]
        reducible[j[(j != cols) & (j != cols[blk, None])]] = True
    return ~reducible


def _is_valuation(v, join, meet):
    """Whether v(x) + v(y) == v(x ^ y) + v(x v y) for all x, y."""
    n = join.shape[0]
    for blk in _row_blocks(n, 16 * n):  # two int32 gathers and their int64 indices
        gap = v.take(meet[blk])
        gap += v.take(join[blk])
        gap -= v[blk, None]
        gap -= v
        if gap.any():
            return False
    return True


def _cancellation_keys(join, meet):
    """keys[a, x] = (a ^ x) * n + (a v x), and each row's least bottom
    a ^ x among the keys it repeats (n if none).

    Keys are below n^2, so they are int32 up to n = 46340. Sorting a row
    puts equal keys side by side, so its first repeat in sorted order is
    its least repeated key. When no row repeats a key, no row is searched,
    so the keys are None: a lattice holding them between its two searches
    holds only the bottoms.
    """
    n = join.shape[0]
    keys = meet.astype(np.int32 if n <= 46340 else np.int64)
    keys *= n
    keys += join
    ordered = np.sort(keys, axis=1)
    same = ordered[:, 1:] == ordered[:, :-1]
    if not same.any():  # every row injective: the lattice is distributive
        return None, np.full(n, n)
    first = same.argmax(axis=1)
    rows = np.arange(n)
    return keys, np.where(same[rows, first], ordered[rows, first] // n, n)


def _row_groups(rows, n):
    """rows in consecutive groups of doubling size, each with n-wide
    temporaries of about BLOCK_BYTES together (some 64 bytes per cell) at
    most: a witness in the first rows cuts a scan short, and a long scan
    takes few calls. The first group spans about a thousand cells, about
    what the fixed cost of one numpy call would process."""
    cap = max(1, BLOCK_BYTES // (64 * n))
    start, step = 0, max(1, min(cap, 1024 // n))
    while start < len(rows):
        yield rows[start:start + step]
        start += step
        step = min(2 * step, cap)


def _fiber_pairs(keys, rows, limit):
    """Every pair of columns that share a key below `limit` in one of `rows`,
    as arrays (a, lo, hi, key) with keys[a, lo] == keys[a, hi] == key and
    lo < hi, yielded in chunks of about _PAIRS_PER_CHUNK pairs. Each row
    must repeat some key below `limit`.

    Sorting key * n + column puts each row's key runs side by side with
    their columns ascending, and each position is paired with the later
    positions of its own run, so the work is n log n per row plus the
    number of pairs, not n^2 per row.
    """
    n = keys.shape[1]
    packed = keys.take(rows, 0).astype(np.int64)
    packed *= n
    packed += np.arange(n)
    packed.sort(axis=1)
    key, col = np.divmod(packed.ravel(), n)
    end = np.empty(len(key), dtype=bool)  # each run's last position
    end[:-1] = key[1:] != key[:-1]
    end[n - 1::n] = True  # runs never span rows
    end = end.nonzero()[0]
    at = np.arange(len(key))
    later = end.take(end.searchsorted(at)) - at  # partners after each position
    later[key >= limit] = 0
    pos = later.nonzero()[0]
    later = later.take(pos)
    first = later.cumsum() - later  # index of each position's first pair
    for start in range(0, int(first[-1] + later[-1]), _PAIRS_PER_CHUNK):
        part = slice(*first.searchsorted((start, start + _PAIRS_PER_CHUNK)))
        p, count, f = pos[part], later[part], first[part]
        i = p.repeat(count)
        j = (p + 1 - f + f[:1]).repeat(count) + np.arange(len(i))
        yield rows.take(i // n), col.take(i), col.take(j), key.take(i)


def _least_witness(join, meet, cancellation, hits):
    """Least (z, a, u, v, w) over the fiber pairs of every row a that hit.

    cancellation is _cancellation_keys(join, meet), or None to build it.
    hits(keys, a, lo, hi, key) returns, as arrays (a, u, v, key), the pairs
    that head a witness; z and w are read off the key. Rows are scanned in
    groups, and a group only holds rows and pairs with a bottom below the
    best of the groups before it, so the least hit within each group that
    has one is the least witness so far.
    """
    n = join.shape[0]
    if cancellation is None:
        cancellation = _cancellation_keys(join, meet)
    keys, low = cancellation
    best = None
    bound = n  # a later row must beat the best bottom so far
    for rows in _row_groups((low < n).nonzero()[0], n):
        rows = rows[low.take(rows) < bound]
        if not len(rows):
            continue
        found = []
        for chunk in _fiber_pairs(keys, rows, bound * n):
            a, u, v, key = hits(keys, *chunk)
            if len(a):
                z = key // n
                k = np.lexsort((v, u, a, z))[0]  # least bottom, then a, u, v
                found.append((int(z[k]), int(a[k]), int(u[k]), int(v[k]), int(key[k] % n)))
        if found:
            best = min(found)
            bound = best[0]
    return best


def pentagon_search(join, meet, leq, cancellation=None):
    """Lexicographically least pentagon (z, a, x, y, w), or None.

    Pentagon: x < y; a incomparable to both; a^x = a^y = z; avx = avy = w.
    Only pairs x, y in one key fiber of a row a are tested. x < y with
    equal keys are both incomparable to a: x <= a would give y <= a and
    a ^ y = y != x, and a <= y would give a ^ x = a, so a <= x and
    a v x = x != y.
    """
    def pentagons(keys, a, lo, hi, key):
        up = leq[lo, hi]
        hit = up | leq[hi, lo]
        x, y = np.where(up, lo, hi), np.where(up, hi, lo)
        return a[hit], x[hit], y[hit], key[hit]

    return _least_witness(join, meet, cancellation, pentagons)


def diamond_search(join, meet, leq, cancellation=None):
    """Lexicographically least diamond (z, a, b, c, w) with a < b < c, or None.

    Diamond: a, b, c pairwise incomparable, all pairwise meets = z, joins = w.
    Only pairs b < c above a in one key fiber of row a are tested, for
    keys[b, c] equal to that key. Three distinct elements with equal pair
    keys are pairwise incomparable (if u <= v among them, then z = u and
    w = v, so the third t lies in [u, v] and t = t ^ v = z = u), so leq is
    not read.
    """
    def diamonds(keys, a, b, c, key):
        hit = b > a
        hit[hit] = keys[b[hit], c[hit]] == key[hit]
        return a[hit], b[hit], c[hit], key[hit]

    return _least_witness(join, meet, cancellation, diamonds)

"""Hot inner loops over lattice tables: law sweeps, a valuation test and
sublattice searches.

Each sweep and search returns the first witness in a fixed scan order as a
tuple of ints, or None when there is none; tests/test_kernels.py checks
every kernel against a plain triple loop on the same tables. A kernel skips
only candidates that lattice theory says cannot yield a witness:

- the modular sweep reads, for each z, only the rows x <= z, the only ones
  the law constrains; the distributive sweep checks every triple;
- the valuation test decides modularity in O(n^2) without a witness: a
  function v on the elements is a valuation when
  v(x) + v(y) = v(x ^ y) + v(x v y) for all x, y, and the lattice is
  modular iff its height function is one;
- the searches key each pair by keys[a, x] = (a ^ x) * n + (a v x). By
  Birkhoff's cancellation law a lattice is distributive iff x -> keys[a, x]
  is injective for every a, and a pentagon or diamond through a puts two
  of its elements on one key of row a. So rows without a repeated key are
  skipped (all of them on a distributive lattice), and in the others only
  pairs inside one key fiber are candidates;
- a diamond's witness has a < b < c, so the diamond search takes only the
  pairs lo < hi of row a with a < lo;
- equal keys already imply the incomparabilities a pentagon or diamond
  needs, so the searches test no incomparability;
- once a witness with bottom z* is held, a later a can only win with a
  smaller bottom, so only pairs with a ^ x < z* stay in play.

Both searches find their candidates by one walk (_fiber_pairs): it sorts
each searched row once, and after the sort its work follows the number of
tied keys and of candidate pairs, not rows x n.

Tables are int32 join/meet index tables plus the bool leq matrix that
lattice.FiniteLattice derives from the meet table. The two searches take
_cancellation_keys(join, meet) as an argument, so a lattice that runs both
builds its keys once. Besides those n x n keys and their sorted copy,
temporaries larger than O(n) are built in blocks of about BLOCK_BYTES.
"""

from __future__ import annotations

import numpy as np

# read by perfbench's provenance record; there is no other backend
USE_NUMBA = False
# rough bound on the bytes of each blocked temporary: the kernels and the
# table fill of lattice
BLOCK_BYTES = 1 << 20
# fiber pairs handed to a search at once: the dozen or so int64 arrays of
# this length stay about BLOCK_BYTES together, however large one fiber is
_PAIRS_PER_CHUNK = BLOCK_BYTES // 128


def _row_blocks(rows: int, row_bytes: int) -> list:
    """Slices covering range(rows), each holding at most BLOCK_BYTES (and at least one row)."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [slice(start, start + step) for start in range(0, rows, step)]


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


def _heights(leq):
    """1 + h(x) for every x, h(x) the length of the longest chain from the
    bottom up to x; the 1 cancels in the valuation identity.

    Level by level (Kahn's layering of the order): pending[y] counts the
    elements x <= y without a level, y itself included. Each round gives
    the next level to the elements whose only pending element is
    themselves, as every element below them already has a smaller level,
    and takes their rows off pending. So an element's level is one more
    than the highest below it, 1 + h(x). Each row is summed once, n^2 in
    all, in height + 1 rounds of numpy calls, not n.
    """
    h = np.zeros(leq.shape[0], dtype=np.int32)
    pending = leq.sum(axis=0)
    ready = np.flatnonzero(pending == 1)
    level = 0
    while len(ready):
        level += 1
        h[ready] = level
        pending -= leq[ready].sum(axis=0)
        ready = np.flatnonzero(pending == 1)
    return h


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
    temporaries of about BLOCK_BYTES together at most (_fiber_pairs holds
    some 17 bytes per cell): a witness in the first rows cuts a scan short,
    and a long scan takes few calls. The first group spans about a thousand
    cells, about what the fixed cost of one numpy call would process."""
    cap = max(1, BLOCK_BYTES // (16 * n))
    start, step = 0, max(1, min(cap, 1024 // n))
    while start < len(rows):
        yield rows[start:start + step]
        start += step
        step = min(2 * step, cap)


def _fiber_pairs(keys, rows, limit, past_row):
    """Every pair of columns that share a key below `limit` in one of `rows`,
    as arrays (a, lo, hi, key) with keys[a, lo] == keys[a, hi] == key and
    lo < hi, and a < lo too if past_row; yielded in chunks of about
    _PAIRS_PER_CHUNK pairs. Rows with no such pair yield nothing.

    Sorting key * n + column puts each row's key runs side by side with
    their columns ascending. A position ties when the next one in its row
    holds the same key. A position pairs with each later one of its run,
    and those are the positions after it up to one past the end of its
    streak of consecutive ties, so its partner count is the number of
    consecutive ties from it on. Columns rise within a run, so the ties at
    columns <= a are a prefix of the run's, and past_row drops them without
    breaking a streak.

    Per cell the walk holds the packed int64 keys, their keys and the tie
    mask, about 17 bytes, and it costs the sort, the division and one
    comparison; everything after follows the number of ties and pairs.
    """
    n = keys.shape[1]
    packed = keys.take(rows, 0).astype(np.int64)
    packed *= n
    packed += np.arange(n)
    packed.sort(axis=1)
    packed = packed.ravel()
    key = packed // n
    tie = key[1:] == key[:-1]
    tie[n - 1::n] = False  # runs never span rows
    at = tie.nonzero()[0]
    at = at[key.take(at) < limit]
    if past_row:
        at = at[packed.take(at) % n > rows.take(at // n)]
    if not len(at):
        return
    # the last tie of each streak, and each tie's partner count up to it
    last = np.empty(len(at), dtype=bool)
    last[:-1] = at[1:] != at[:-1] + 1
    last[-1] = True
    last = last.nonzero()[0]
    size = last.copy()  # ties per streak
    size[1:] -= last[:-1]
    size[0] += 1
    later = at.take(last).repeat(size) + 1 - at
    first = later.cumsum() - later  # index of each tied position's first pair
    for start in range(0, int(first[-1] + later[-1]), _PAIRS_PER_CHUNK):
        part = slice(*first.searchsorted((start, start + _PAIRS_PER_CHUNK)))
        p, count, f = at[part], later[part], first[part]
        i = p.repeat(count)
        j = (p + 1 - f + f[:1]).repeat(count) + np.arange(len(i))
        yield rows.take(i // n), packed.take(i) % n, packed.take(j) % n, key.take(i)


def _least_witness(cancellation, hits, past_row):
    """Least (z, a, u, v, w) over the fiber pairs of every row a that hit.

    cancellation is _cancellation_keys(join, meet). hits(keys, a, lo, hi,
    key) returns, as arrays (a, u, v, key), the pairs that head a witness;
    z and w are read off the key. past_row hands hits only pairs with
    a < lo. Rows are scanned in groups, and a group only holds rows and
    pairs with a bottom below the best of the groups before it, so the
    least hit within each group that has one is the least witness so far.
    """
    keys, low = cancellation
    n = len(low)
    best = None
    bound = n  # a later row must beat the best bottom so far
    for rows in _row_groups((low < n).nonzero()[0], n):
        rows = rows[low.take(rows) < bound]
        if not len(rows):
            continue
        found = []
        for chunk in _fiber_pairs(keys, rows, bound * n, past_row):
            a, u, v, key = hits(keys, *chunk)
            if len(a):
                z = key // n
                k = np.lexsort((v, u, a, z))[0]  # least bottom, then a, u, v
                found.append((int(z[k]), int(a[k]), int(u[k]), int(v[k]), int(key[k] % n)))
        if found:
            best = min(found)
            bound = best[0]
    return best


def pentagon_search(join, meet, leq, cancellation):
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

    return _least_witness(cancellation, pentagons, False)


def diamond_search(join, meet, leq, cancellation):
    """Lexicographically least diamond (z, a, b, c, w) with a < b < c, or None.

    Diamond: a, b, c pairwise incomparable, all pairwise meets = z, joins = w.
    Only pairs a < b < c in one key fiber of row a are tested, for
    keys[b, c] equal to that key. Three distinct elements with equal pair
    keys are pairwise incomparable (if u <= v among them, then z = u and
    w = v, so the third t lies in [u, v] and t = t ^ v = z = u), so leq is
    not read.
    """
    def diamonds(keys, a, b, c, key):
        hit = keys[b, c] == key
        return a[hit], b[hit], c[hit], key[hit]

    return _least_witness(cancellation, diamonds, True)

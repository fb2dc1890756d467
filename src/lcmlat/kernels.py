"""Hot inner loops over lattice tables: law sweeps and sublattice searches.

Each kernel returns the first witness in a fixed scan order as a tuple of
ints, or None when there is none; tests/test_kernels.py checks every kernel
against a plain triple loop on the same tables. A kernel skips only
candidates that lattice theory says cannot yield a witness:

- the modular sweep reads, for each z, only the rows x <= z, the only ones
  the law constrains; the distributive sweep checks every triple;
- the searches key each pair by keys[a, x] = (a ^ x) * n + (a v x). By
  Birkhoff's cancellation law a lattice is distributive iff x -> keys[a, x]
  is injective for every a, and a pentagon or diamond through a puts two
  of its elements on one key of row a. So rows without a repeated key are
  skipped (all of them on a distributive lattice), and in the others only
  the x whose key repeats are candidates;
- equal keys already imply the incomparabilities a pentagon or diamond
  needs, so the searches test no incomparability;
- once a witness with bottom z* is held, a later a can only win with a
  smaller bottom, so only x with a ^ x < z* stay in play.

Tables are int32 join/meet index tables plus a bool leq matrix, as built
by lattice.FiniteLattice.
"""

from __future__ import annotations

import numpy as np

# read by perfbench's provenance record; there is no other backend
USE_NUMBA = False


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


def _cancellation_keys(join, meet):
    """keys[a, x] = (a ^ x) * n + (a v x), the mask of keys that repeat in
    their row, and each row's least bottom a ^ x among them (n if none).

    Keys are below n^2, so they are int32 up to n = 46340. Sorting each row
    puts equal keys side by side; only when some row repeats a key are the
    rows argsorted to find the columns of the repeats.
    """
    n = join.shape[0]
    keys = meet.astype(np.int32 if n <= 46340 else np.int64)
    keys *= n
    keys += join
    ordered = np.sort(keys, axis=1)
    same = ordered[:, 1:] == ordered[:, :-1]
    if not same.any():  # every row injective: the lattice is distributive
        return keys, None, np.full(n, n)
    tie = np.zeros((n, n), dtype=bool)  # sorted position shares its key with a neighbour
    tie[:, 1:] = same
    tie[:, :-1] |= same
    low = np.where(tie.any(axis=1), ordered[np.arange(n), tie.argmax(axis=1)] // n, n)
    del ordered, same
    repeated = np.zeros_like(tie)
    np.put_along_axis(repeated, keys.argsort(axis=1), tie, axis=1)
    return keys, repeated, low


def pentagon_search(join, meet, leq):
    """Lexicographically least pentagon (z, a, x, y, w), or None.

    Pentagon: x < y; a incomparable to both; a^x = a^y = z; avx = avy = w.
    Only rows a with a repeated cancellation key are scanned, and in them
    only the x whose key repeats. x < y with equal keys are both
    incomparable to a: x <= a would give y <= a and a ^ y = y != x, and
    a <= y would give a ^ x = a, so a <= x and a v x = x != y. A later a
    only wins with a bottom below the best so far, so x with a ^ x >= z*
    are dropped.
    """
    n = join.shape[0]
    keys, repeated, low = _cancellation_keys(join, meet)
    best = None
    bound = n  # a later a must beat the best bottom so far
    for a in np.flatnonzero(low < n):
        if low[a] >= bound:
            continue
        xs = np.flatnonzero(repeated[a] & (meet[a] < bound))
        kx = keys[a].take(xs)
        cond = leq.take(xs, 0).take(xs, 1) & (kx[:, None] == kx)
        np.fill_diagonal(cond, False)
        i, j = np.nonzero(cond)
        if len(i):
            first = np.argmin(kx.take(i) // n)  # least bottom, then x, then y
            x, y = int(xs[i[first]]), int(xs[j[first]])
            best = (int(meet[a, x]), int(a), x, y, int(join[a, x]))
            bound = best[0]
    return best


def diamond_search(join, meet, leq):
    """Lexicographically least diamond (z, a, b, c, w) with a < b < c, or None.

    Diamond: a, b, c pairwise incomparable, all pairwise meets = z, joins = w.
    Only rows a with a repeated cancellation key are scanned, and in them
    only the b, c > a whose key repeats. Three distinct elements with equal
    pair keys are pairwise incomparable (if u <= v among them, then z = u
    and w = v, so the third t lies in [u, v] and t = t ^ v = z = u), so leq
    is not read. A later a only wins with a bottom below the best so far,
    so b with a ^ b >= z* are dropped.
    """
    n = join.shape[0]
    keys, repeated, low = _cancellation_keys(join, meet)
    best = None
    bound = n  # a later a must beat the best bottom so far
    for a in np.flatnonzero(low < n):
        if low[a] >= bound:
            continue
        bs = np.flatnonzero(repeated[a, a + 1:] & (meet[a, a + 1:] < bound)) + (a + 1)
        kb = keys[a].take(bs)
        # symmetric, with a false diagonal (b ^ b = b v b = b gives a = b), so
        # the first hit in row-major order has b < c
        cond = (keys.take(bs, 0).take(bs, 1) == kb[:, None]) & (kb[:, None] == kb)
        i, j = np.nonzero(cond)
        if len(i):
            first = np.argmin(kb.take(i) // n)  # least bottom, then b, then c
            b, c = int(bs[i[first]]), int(bs[j[first]])
            best = (int(meet[a, b]), int(a), b, c, int(join[a, b]))
            bound = best[0]
    return best

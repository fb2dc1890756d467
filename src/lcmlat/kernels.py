"""Hot inner loops over lattice tables: law sweeps and sublattice searches.

Each kernel is one vectorized numpy pass per outer index. It returns the
first witness in a fixed scan order as a tuple of ints, or None when there
is none; tests/test_kernels.py checks every kernel against a plain triple
loop on the same tables.

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
    """
    n = join.shape[0]
    for z in range(n):
        lhs = join[:, meet[:, z]]            # [x, y] -> x v (y ^ z)
        rhs = meet[join, z]                  # [x, y] -> (x v y) ^ z
        viol = (lhs != rhs) & leq[:, z][:, None]
        if viol.any():
            x, y = np.argwhere(viol)[0]
            return int(x), int(y), z
    return None


def distributive_violation(join, meet):
    """First (x, y, z) with x ^ (y v z) != (x ^ y) v (x ^ z), scanning x, y, z.

    Returns None if distributive.
    """
    n = join.shape[0]
    for x in range(n):
        lhs = meet[x, join]                  # [y, z] -> x ^ (y v z)
        rhs = join[np.ix_(meet[x], meet[x])] # [y, z] -> (x ^ y) v (x ^ z)
        viol = lhs != rhs
        if viol.any():
            y, z = np.argwhere(viol)[0]
            return x, int(y), int(z)
    return None


def pentagon_search(join, meet, leq):
    """Lexicographically least pentagon (z, a, x, y, w), or None.

    Pentagon: x < y; a incomparable to both; a^x = a^y = z; avx = avy = w.
    """
    n = join.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    incomp = ~leq & ~leq.T
    best = None
    for a in range(n):
        cond = (
            strict
            & incomp[a][:, None]
            & incomp[a][None, :]
            & (meet[a][:, None] == meet[a][None, :])
            & (join[a][:, None] == join[a][None, :])
        )
        if not cond.any():
            continue
        xs, ys = np.nonzero(cond)
        zs = meet[a, xs]
        ws = join[a, xs]
        order = np.lexsort((ys, xs, zs))
        i = order[0]
        cand = (int(zs[i]), a, int(xs[i]), int(ys[i]), int(ws[i]))
        if best is None or cand < best:
            best = cand
    return best


def diamond_search(join, meet, leq):
    """Lexicographically least diamond (z, a, b, c, w) with a < b < c, or None.

    Diamond: a, b, c pairwise incomparable, all pairwise meets = z, joins = w.
    """
    n = join.shape[0]
    incomp = ~leq & ~leq.T
    idx = np.arange(n)
    best = None
    for a in range(n):
        cond = (
            incomp[a][:, None]
            & incomp[a][None, :]
            & incomp
            & (idx[:, None] > a)
            & (idx[None, :] > idx[:, None])
            & (meet[a][:, None] == meet[a][None, :])
            & (meet[a][:, None] == meet)
            & (join[a][:, None] == join[a][None, :])
            & (join[a][:, None] == join)
        )
        if not cond.any():
            continue
        bs, cs = np.nonzero(cond)
        zs = meet[a, bs]
        ws = join[a, bs]
        order = np.lexsort((cs, bs, zs))
        i = order[0]
        cand = (int(zs[i]), a, int(bs[i]), int(cs[i]), int(ws[i]))
        if best is None or cand < best:
            best = cand
    return best

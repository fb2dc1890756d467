"""The tests' reference lattice builder: tables from an order matrix or from
Hasse edges, by brute force over the upper and lower bounds of each pair.
It shares no code with build_lcm_lattice's join-closure and table fill."""

import numpy as np

from lcmlat.lattice import FiniteLattice


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
    return FiniteLattice(join, meet, tuple(labels).__getitem__ if labels else str)


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

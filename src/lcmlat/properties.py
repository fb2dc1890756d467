"""Lattice property deciders: Boolean, modular, distributive, complemented.

Every negative verdict carries a witness that re-validates against the raw
join/meet tables. Deciders that have two independent routes (element count
vs a scan of the generator subsets for repeated lcms for Boolean, law sweep
vs forbidden-sublattice search for modular/distributive) run both, the
sweeps only on small lattices, and refuse to answer if the routes disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .lattice import (
    FiniteLattice,
    LcmLattice,
    boolean_lattice,  # noqa: F401 -- unused; perfbench/tracer.py patches this name
    interval,
    is_isomorphic,  # noqa: F401 -- unused; perfbench/tracer.py patches this name
)
from .monomials import lcm, monomial_str, unit

# above this size the O(n^3) definitional sweeps are skipped and only the
# forbidden-sublattice searches run
SWEEP_LIMIT = 400


@dataclass(frozen=True)
class PropertyVerdict:
    property: str
    holds: bool
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "witness": self.witness,
        }


def _labeled(L: FiniteLattice, idx: int) -> dict:
    return {"index": int(idx), "label": L.labels[idx]}


def is_boolean(L: LcmLattice) -> PropertyVerdict:
    """Boolean iff the subset-to-lcm map on the m generators is bijective.

    Decided twice: |L| = 2^m, and a scan of the subsets by bitmask that
    stops at the first two sharing an lcm, which is the witness on failure.
    """
    m = L.atom_count
    by_count = L.size == (1 << m)
    witness = _first_lcm_collision(L.ideal.generators, L.ideal.ring_dimension, m)
    if by_count != (witness is None):
        raise RuntimeError(
            "boolean routes disagree: cardinality says "
            f"{by_count}, subset scan says {witness is None}"
        )
    return PropertyVerdict("boolean", by_count, witness)


def _first_lcm_collision(gens, ring_dimension: int, m: int) -> dict | None:
    """First mask whose subset lcm an earlier mask already produced, or None.

    acc[mask] is acc[mask without its lowest bit] lcm that bit's generator,
    so each subset costs one lcm.
    """
    acc = [unit(ring_dimension)] * (1 << m)
    seen = {acc[0]: 0}
    for mask in range(1, 1 << m):
        low = mask & -mask
        acc[mask] = lcm(acc[mask ^ low], gens[low.bit_length() - 1])
        first = seen.setdefault(acc[mask], mask)
        if first != mask:
            return {
                "subset_a": [i + 1 for i in range(m) if mask >> i & 1],
                "subset_b": [i + 1 for i in range(m) if first >> i & 1],
                "shared_lcm": monomial_str(acc[mask]),
            }
    return None


def is_modular(L: FiniteLattice) -> PropertyVerdict:
    """Modular law x v (y ^ z) = (x v y) ^ z for all x <= z.

    Small lattices get the definitional sweep (ground truth) cross-checked
    against the pentagon search; large ones get the search only.
    """
    join, meet, leq = L.join_table, L.meet_table, L.leq
    pentagon = kernels.pentagon_search(join, meet, leq)
    if L.size <= SWEEP_LIMIT:
        triple = kernels.modular_violation(join, meet, leq)
        if (triple is None) != (pentagon is None):
            raise RuntimeError(
                f"modular sweep and pentagon search disagree: {triple} vs {pentagon}"
            )
        if triple is None:
            return PropertyVerdict("modular", True)
        x, y, z = triple
        lhs = L.join(x, L.meet(y, z))
        rhs = L.meet(L.join(x, y), z)
        return PropertyVerdict(
            "modular",
            False,
            {
                "x": _labeled(L, x),
                "y": _labeled(L, y),
                "z": _labeled(L, z),
                "lhs": _labeled(L, lhs),
                "rhs": _labeled(L, rhs),
            },
        )
    if pentagon is None:
        return PropertyVerdict("modular", True)
    return PropertyVerdict("modular", False, _pentagon_witness(L, pentagon))


def _pentagon_witness(L: FiniteLattice, pent) -> dict:
    z, a, x, y, w = pent
    return {
        "bottom": _labeled(L, z),
        "side": _labeled(L, a),
        "chain_low": _labeled(L, x),
        "chain_high": _labeled(L, y),
        "top": _labeled(L, w),
    }


def _diamond_witness(L: FiniteLattice, dia) -> dict:
    z, a, b, c, w = dia
    return {
        "bottom": _labeled(L, z),
        "middle": [_labeled(L, a), _labeled(L, b), _labeled(L, c)],
        "top": _labeled(L, w),
    }


def find_n5(L: FiniteLattice):
    """Least pentagon sublattice as (bottom, side, chain_low, chain_high, top)."""
    return kernels.pentagon_search(L.join_table, L.meet_table, L.leq)


def find_m3(L: FiniteLattice):
    """Least diamond sublattice as (bottom, a, b, c, top) with a < b < c."""
    return kernels.diamond_search(L.join_table, L.meet_table, L.leq)


def is_distributive(L: FiniteLattice) -> PropertyVerdict:
    """Distributive iff no pentagon and no diamond sublattice.

    Cross-checked against the distributive law x ^ (y v z) = (x^y) v (x^z)
    over all triples on small lattices.
    """
    pentagon = find_n5(L)
    diamond = find_m3(L)
    by_search = pentagon is None and diamond is None
    if L.size <= SWEEP_LIMIT:
        triple = kernels.distributive_violation(L.join_table, L.meet_table)
        if by_search != (triple is None):
            raise RuntimeError(
                "distributive law sweep and forbidden-sublattice search disagree"
            )
    if by_search:
        return PropertyVerdict("distributive", True)
    witness = {}
    if pentagon is not None:
        witness["pentagon"] = _pentagon_witness(L, pentagon)
    if diamond is not None:
        witness["diamond"] = _diamond_witness(L, diamond)
    return PropertyVerdict("distributive", False, witness)


def complements_of(L: FiniteLattice, x: int) -> list:
    """All y with x ^ y = bottom and x v y = top."""
    L._check_index(x)
    mask = (L.meet_table[x] == L.bottom) & (L.join_table[x] == L.top)
    return [int(i) for i in np.nonzero(mask)[0]]


def is_complemented(L: FiniteLattice) -> PropertyVerdict:
    """Every element has a complement; witness = first complement-free index."""
    bot, top = L.bottom, L.top
    has = (L.meet_table == bot) & (L.join_table == top)
    missing = np.nonzero(~has.any(axis=1))[0]
    if len(missing) == 0:
        return PropertyVerdict("complemented", True)
    return PropertyVerdict(
        "complemented", False, {"element": _labeled(L, int(missing[0]))}
    )


def is_relatively_complemented(L: FiniteLattice) -> PropertyVerdict:
    """Every interval [x, y] is complemented as a lattice in its own right.

    Intervals are scanned smallest first (ties by (x, y)), so the witness
    is a minimal failing interval.
    """
    sizes = []
    for x in range(L.size):
        for y in range(L.size):
            if L.leq[x, y]:
                sizes.append((int((L.leq[x] & L.leq[:, y]).sum()), x, y))
    for _, x, y in sorted(sizes):
        sub, idx = interval(L, x, y)
        verdict = is_complemented(sub)
        if not verdict.holds:
            inner = idx[verdict.witness["element"]["index"]]
            return PropertyVerdict(
                "relatively-complemented",
                False,
                {
                    "interval_bottom": _labeled(L, x),
                    "interval_top": _labeled(L, y),
                    "element": _labeled(L, inner),
                },
            )
    return PropertyVerdict("relatively-complemented", True)


def all_properties(L: LcmLattice) -> list:
    """The fixed order used by `check --property all`."""
    return [
        is_boolean(L),
        is_modular(L.lattice),
        is_distributive(L.lattice),
        is_complemented(L.lattice),
        is_relatively_complemented(L.lattice),
    ]

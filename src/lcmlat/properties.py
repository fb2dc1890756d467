"""Lattice property deciders: Boolean, modular, distributive, complemented.

Every negative verdict carries a witness that re-validates against the raw
join/meet tables. Deciders that have two independent routes run both and
refuse to answer if the routes disagree:

- Boolean: the element count vs, by the count's outcome, the certificate
  that no generator divides the lcm of the others (|L| = 2^m) or a scan of
  the generator subsets for a repeated lcm, at every size.
- Modular: the pentagon search vs the height valuation test (O(n^2)), at
  every size. When the search finds a pentagon at or below SWEEP_LIMIT, the
  modular law sweep runs instead of the valuation test, to give its first
  failing triple as the witness; above it the pentagon is the witness.
- Distributive: the pentagon and diamond searches vs the count |L| = 2^m,
  at every size. An lcm-lattice is atomistic, so it is distributive iff it
  is Boolean.

decide reads the same fact the other way: a Boolean lcm-lattice (|L| = 2^m,
confirmed by is_boolean) has every property, so no table is filled for it.

Relative complementation is decided by Björner's theorem (A. Björner, "On
complements in lattices of finite length", Discrete Math. 36, 1981): a
lattice of finite length is relatively complemented iff it has no 3-element
interval. Intervals of at most 2 elements are complemented and a 3-element
interval is a chain, so the least failing interval is the first 3-element
one and its complement-free element is the middle. An lcm-lattice is
atomistic, so that interval is read from the keys, in integers and with no
table; a failing one is built from the keys as well (lattice.interval) and
must fail is_complemented.
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
from .monomials import monomial_str, subset_lcms

# the `check --property` names, in the order of `check --property all`
PROPERTIES = ("boolean", "modular", "distributive", "complemented", "relatively-complemented")

# at or below this size a non-modular lattice's witness is the first failing
# triple of the O(n^3) modular law sweep; above it, the pentagon found
SWEEP_LIMIT = 400


@dataclass(frozen=True)
class PropertyVerdict:
    property: str
    holds: bool
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def _labeled(L, idx: int) -> dict:
    return {"index": int(idx), "label": L.names(idx)}


def is_boolean(L: LcmLattice) -> PropertyVerdict:
    """Boolean iff the subset-to-lcm map on the m generators is bijective.

    Decided twice: by the count |L| = 2^m, and by a second route that the
    count's outcome picks. At |L| = 2^m it is the O(m n) certificate that
    no generator divides the lcm of the others (_independent); otherwise
    it is the scan of the subsets by bitmask that stops at the first two
    sharing an lcm, which is the witness.

    The certificate holds iff the map is bijective, for a minimal
    generating set G (Gasharov, Peeva and Welker, "The lcm-lattice in
    monomial resolutions", Math. Res. Lett. 6, 1999). If g_j divides
    lcm(G - g_j), then G and G - g_j share an lcm. Conversely, take
    subsets S != T with j in S - T: lcm(T) divides lcm(G - g_j), which
    g_j does not divide, while g_j divides lcm(S), so lcm(S) != lcm(T).
    """
    gens, n = L.ideal.generators, L.ideal.ring_dimension
    by_count = L.size == (1 << L.atom_count)
    if by_count:
        second, witness = "generator certificate", None
        agree = _independent(gens)
    else:
        second, witness = "subset scan", _first_lcm_collision(gens, n)
        agree = witness is not None
    if not agree:
        raise RuntimeError(
            f"boolean routes disagree: cardinality says {by_count}, "
            f"the {second} says {not by_count}"
        )
    return PropertyVerdict("boolean", by_count, witness)


def _independent(gens) -> bool:
    """Whether no generator divides the lcm of the others.

    g_j does not divide it iff some variable's exponent in g_j is above
    every other generator's, i.e. g_j is the only maximum of that column:
    on an edge ideal, a private vertex of the edge. One pass over the
    columns, O(m n) in builtins on plain tuples, which beats numpy's fixed
    cost per call at the m <= 4 of most audit instances.
    """
    private = set()
    for column in zip(*gens):
        top = max(column)
        if column.count(top) == 1:
            private.add(column.index(top))
    return len(private) == len(gens)


def _first_lcm_collision(gens, ring_dimension: int) -> dict | None:
    """First mask whose subset lcm an earlier mask already produced, or None."""
    m = len(gens)
    seen = {}
    for mask, lcm in subset_lcms(gens, ring_dimension):
        first = seen.setdefault(lcm, mask)
        if first != mask:
            return {
                "subset_a": [i + 1 for i in range(m) if mask >> i & 1],
                "subset_b": [i + 1 for i in range(m) if first >> i & 1],
                "shared_lcm": monomial_str(lcm),
            }
    return None


def is_modular(L: FiniteLattice) -> PropertyVerdict:
    """Modular law x v (y ^ z) = (x v y) ^ z for all x <= z.

    The pentagon search is cross-checked against the height valuation test.
    On a pentagon at or below SWEEP_LIMIT, the law sweep takes the
    valuation test's place: it must fail too, and its first failing triple
    is the witness.
    """
    join, meet, leq = L.join_table, L.meet_table, L.leq
    pentagon = find_n5(L)
    if pentagon is not None and L.size <= SWEEP_LIMIT:
        triple = kernels.modular_violation(join, meet, leq)
        if triple is None:
            raise RuntimeError(
                f"modular routes disagree: the sweep holds, the search found {pentagon}"
            )
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
    by_valuation = kernels.modular_by_valuation(join, meet, leq)
    if by_valuation != (pentagon is None):
        raise RuntimeError(
            f"modular routes disagree: the valuation test says {by_valuation}, "
            f"the search found {pentagon}"
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
    """Least pentagon sublattice as (bottom, side, chain_low, chain_high, top).

    Searched once per lattice; later calls read L.pentagon's cached result.
    """
    return L.pentagon


def find_m3(L: FiniteLattice):
    """Least diamond sublattice as (bottom, a, b, c, top) with a < b < c.

    Searched once per lattice; later calls read L.diamond's cached result.
    """
    return L.diamond


def is_distributive(L: LcmLattice) -> PropertyVerdict:
    """Distributive iff no pentagon and no diamond sublattice of the tables.

    Cross-checked against the count |L| = 2^m at every size. An
    lcm-lattice is atomistic, so its join-irreducibles are its m atoms
    (Gasharov, Peeva and Welker, Math. Res. Lett. 6, 1999), and by
    Birkhoff's representation theorem it is then distributive iff it is the
    lattice of all subsets of its atoms, iff |L| = 2^m.
    """
    lat = L.lattice
    pentagon = find_n5(lat)
    diamond = find_m3(lat)
    by_search = pentagon is None and diamond is None
    by_count = L.size == 1 << L.atom_count
    if by_search != by_count:
        raise RuntimeError(
            f"distributive routes disagree: the count says {by_count}, "
            f"the searches say {by_search}"
        )
    if by_search:
        return PropertyVerdict("distributive", True)
    witness = {}
    if pentagon is not None:
        witness["pentagon"] = _pentagon_witness(lat, pentagon)
    if diamond is not None:
        witness["diamond"] = _diamond_witness(lat, diamond)
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


def is_relatively_complemented(L: LcmLattice) -> PropertyVerdict:
    """Every interval [x, y] is complemented as a lattice in its own right.

    Björner (Discrete Math. 36, 1981): a lattice of finite length is
    relatively complemented iff no interval has exactly 3 elements.
    Intervals of at most 2 elements are complemented, and a 3-element
    interval is a chain whose middle has no complement, so the witness is
    the first such [x, y] in row-major order, read from the keys
    (LcmLattice.first_3_element_interval), and its middle element. That
    interval is built from the keys too, and is_complemented must fail on
    it: no N x N table is filled.
    """
    hit = L.first_3_element_interval()
    if hit is None:
        return PropertyVerdict("relatively-complemented", True)
    x, y = hit
    sub, idx = interval(L, x, y)
    verdict = is_complemented(sub)
    if verdict.holds:
        raise RuntimeError(f"relatively-complemented routes disagree on [{x}, {y}]")
    return PropertyVerdict("relatively-complemented", False, {
        "interval_bottom": _labeled(L, x), "interval_top": _labeled(L, y),
        "element": _labeled(L, idx[verdict.witness["element"]["index"]])})


def decide(name: str, L: LcmLattice) -> PropertyVerdict:
    """The verdict on the property name, one of PROPERTIES.

    A Boolean lattice has every property, so when |L| = 2^m and is_boolean
    confirms it, the verdict holds and no table is read. Otherwise
    is_modular and is_complemented read L's tables, the others L itself.
    Each decider is looked up by name on every call, so a wrapper set on
    this module's attribute sees it.
    """
    if name not in PROPERTIES:
        raise ValueError(f"unknown property {name!r} (expected one of {PROPERTIES})")
    if name != "boolean" and L.size == 1 << L.atom_count and is_boolean(L).holds:
        return PropertyVerdict(name, True)
    decider = globals()["is_" + name.replace("-", "_")]
    return decider(L.lattice if name in ("modular", "complemented") else L)


def all_properties(L: LcmLattice) -> list:
    """The fixed order used by `check --property all`, with is_boolean run
    once: a Boolean lattice has every property, and on any other |L| != 2^m
    (is_boolean raises if the count and its second route disagree), so
    decide does not run it again."""
    boolean = is_boolean(L)
    return [boolean] + [PropertyVerdict(name, True) if boolean.holds else decide(name, L)
                        for name in PROPERTIES[1:]]

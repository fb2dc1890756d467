import pytest

from lcmlat import kernels
from lcmlat.audit import GeneratorConfig, SplitMix64, random_monomial_ideal
from lcmlat.lattice import (
    boolean_lattice,
    build_lcm_lattice,
    chain_lattice,
    diamond_lattice,
    pentagon_lattice,
    product,
)

# --- triple-loop oracles: the definitions, scanned in each kernel's order ---

def _modular_violation_loops(join, meet, leq):
    n = join.shape[0]
    for z in range(n):
        for x in range(n):
            if not leq[x, z]:
                continue
            for y in range(n):
                if join[x, meet[y, z]] != meet[join[x, y], z]:
                    return x, y, z
    return None


def _distributive_violation_loops(join, meet):
    n = join.shape[0]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x, join[y, z]] != join[meet[x, y], meet[x, z]]:
                    return x, y, z
    return None


def _pentagon_search_loops(join, meet, leq):
    n = join.shape[0]
    best = None
    for a in range(n):
        for x in range(n):
            if leq[a, x] or leq[x, a]:
                continue
            z = int(meet[a, x])
            w = int(join[a, x])
            for y in range(n):
                if y == x or not leq[x, y]:
                    continue
                if leq[a, y] or leq[y, a]:
                    continue
                if meet[a, y] != z or join[a, y] != w:
                    continue
                if best is None or (z, a, x, y, w) < best:
                    best = (z, a, x, y, w)
    return best


def _diamond_search_loops(join, meet, leq):
    n = join.shape[0]
    best = None
    for a in range(n):
        for b in range(a + 1, n):
            if leq[a, b] or leq[b, a]:
                continue
            z = int(meet[a, b])
            w = int(join[a, b])
            for c in range(b + 1, n):
                if leq[a, c] or leq[c, a] or leq[b, c] or leq[c, b]:
                    continue
                if meet[a, c] != z or meet[b, c] != z:
                    continue
                if join[a, c] != w or join[b, c] != w:
                    continue
                if best is None or (z, a, b, c, w) < best:
                    best = (z, a, b, c, w)
    return best


def _sample_lattices():
    yield chain_lattice(4)
    yield pentagon_lattice()
    yield diamond_lattice()
    yield boolean_lattice(3)
    yield product(pentagon_lattice(), chain_lattice(3))
    rng = SplitMix64(7)
    cfg = GeneratorConfig(n_range=(3, 5), m_range=(2, 4), max_exponent=3)
    for _ in range(20):
        yield build_lcm_lattice(random_monomial_ideal(cfg, rng)).lattice
    # larger lattices, where one side element can head several pentagons with
    # the same bottom, so the (x, y) tie-break of pentagon_search is exercised
    rng = SplitMix64(3)
    cfg = GeneratorConfig(n_range=(4, 5), m_range=(3, 5), max_exponent=3)
    for _ in range(20):
        yield build_lcm_lattice(random_monomial_ideal(cfg, rng)).lattice


@pytest.mark.parametrize("lattice", list(_sample_lattices()), ids=lambda L: f"n{L.size}")
def test_backend_parity(lattice):
    """Each numpy kernel returns the same witness as its triple-loop oracle."""
    tables = (lattice.join_table, lattice.meet_table, lattice.leq)
    assert kernels.modular_violation(*tables) == _modular_violation_loops(*tables)
    assert kernels.distributive_violation(*tables[:2]) == _distributive_violation_loops(
        *tables[:2]
    )
    assert kernels.pentagon_search(*tables) == _pentagon_search_loops(*tables)
    assert kernels.diamond_search(*tables) == _diamond_search_loops(*tables)


def test_known_witnesses():
    N5 = pentagon_lattice()
    tables = (N5.join_table, N5.meet_table, N5.leq)
    assert kernels.pentagon_search(*tables) == (0, 3, 1, 2, 4)
    assert kernels.modular_violation(*tables) is not None
    M3 = diamond_lattice()
    tables = (M3.join_table, M3.meet_table, M3.leq)
    assert kernels.diamond_search(*tables) == (0, 1, 2, 3, 4)
    assert kernels.modular_violation(*tables) is None
    assert kernels.pentagon_search(*tables) is None

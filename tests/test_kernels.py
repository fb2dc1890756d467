import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlat import kernels
from lcmlat.audit import GeneratorConfig, SplitMix64, random_monomial_ideal
from lcmlat.lattice import (
    FiniteLattice,
    boolean_lattice,
    build_lcm_lattice,
    chain_lattice,
    diamond_lattice,
    pentagon_lattice,
    product,
)
from lcmlat.properties import is_modular
from strategies import ideal_strategy

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


def _permuted(L, new):
    """L with element i renumbered new[i]."""
    new = np.asarray(new)
    old = np.argsort(new)
    ix = np.ix_(old, old)
    return FiniteLattice(
        L.leq[ix], new[L.join_table[ix]].astype(np.int32), new[L.meet_table[ix]].astype(np.int32)
    )


def _shuffled(L, seed):
    """A random renumbering of L that moves the bottom off index 0."""
    new = np.random.default_rng(seed).permutation(L.size)
    if new[L.bottom] == 0:
        new = (new + 1) % L.size
    return _permuted(L, new)


def _pentagon_cutoff_lattice():
    """Side 0 heads the least pentagon, bottom 1. Side 5 heads one with the same
    bottom, and its row also repeats the key (0, 8) on the incomparable 6, 7,
    so row 5 is scanned and only the strict best-bottom cutoff skips its
    pentagon."""
    covers = [(1, 0), (1, 2), (1, 3), (3, 4), (4, 9), (2, 9), (0, 5), (0, 6), (0, 7),
              (5, 8), (6, 8), (7, 8), (8, 9)]
    return FiniteLattice.from_covers(10, covers)


def _diamond_cutoff_lattice():
    """M4 on 2..5 over bottom 1 and a chain 7 < 8 beside it: the least diamond
    is (1, 2, 3, 4, 6); row 3 heads (1, 3, 4, 5, 6) with the same bottom and
    repeats the key (0, 9) on 7 < 8, so only the strict cutoff skips it."""
    covers = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 6), (5, 6),
              (6, 9), (0, 7), (7, 8), (8, 9)]
    return FiniteLattice.from_covers(10, covers)


def _two_diamond_tops():
    """Diamonds {1, 2, 3} and {1, 4, 5} over bottom 0, with tops 7 and 6: the
    first diamond through 1 has the larger top."""
    covers = [(0, i) for i in range(1, 6)]
    covers += [(1, 7), (2, 7), (3, 7), (1, 6), (4, 6), (5, 6), (6, 8), (7, 8)]
    return FiniteLattice.from_covers(9, covers)


def _random_lattices(seed, cfg, count=20):
    rng = SplitMix64(seed)
    return [build_lcm_lattice(random_monomial_ideal(cfg, rng)).lattice for _ in range(count)]


def _sample_lattices():
    """(test id, lattice) pairs."""
    N5, M3 = pentagon_lattice(), diamond_lattice()
    cfg = GeneratorConfig(n_range=(3, 5), m_range=(2, 4), max_exponent=3)
    # larger lattices, where one side element can head several pentagons with
    # the same bottom, so the (x, y) tie-break of pentagon_search is exercised
    larger = _random_lattices(3, GeneratorConfig(n_range=(4, 5), m_range=(3, 5), max_exponent=3))
    sized = [chain_lattice(4), N5, M3, boolean_lattice(3), product(N5, chain_lattice(3)),
             *_random_lattices(7, cfg), *larger]
    yield from ((f"n{L.size}", L) for L in sized)
    # modular but not distributive: fibers collide, yet no pentagon exists
    yield "M3xM3", product(M3, M3)
    yield "M3xchain3", product(M3, chain_lattice(3))
    # every cancellation fiber a singleton
    yield "boolean5", boolean_lattice(5)
    yield "N5xM3", product(N5, M3)
    yield "pentagon_cutoff", _pentagon_cutoff_lattice()
    yield "diamond_cutoff", _diamond_cutoff_lattice()
    yield "two_diamond_tops", _two_diamond_tops()
    # renumbered copies: the bottom is not index 0 and the searches meet their
    # candidates, and lower their best-bottom cutoff, in a non-canonical order
    yield "shuffled_N5", _shuffled(N5, 0)
    yield "shuffled_N5xchain3", _shuffled(product(N5, chain_lattice(3)), 1)
    for i, L in enumerate(larger[::2]):
        yield f"shuffled_random{i}", _shuffled(L, i + 2)


def _assert_parity(lattice):
    tables = (lattice.join_table, lattice.meet_table, lattice.leq)
    modular = _modular_violation_loops(*tables)
    distributive = _distributive_violation_loops(*tables[:2])
    assert kernels.modular_violation(*tables) == modular
    assert kernels.distributive_violation(*tables[:2]) == distributive
    assert kernels.modular_by_valuation(*tables) == (modular is None)
    assert kernels.distributive_by_valuation(*tables) == (distributive is None)
    assert kernels.pentagon_search(*tables) == _pentagon_search_loops(*tables)
    assert kernels.diamond_search(*tables) == _diamond_search_loops(*tables)


_SAMPLES = list(_sample_lattices())


@pytest.mark.parametrize("lattice", [L for _, L in _SAMPLES], ids=[i for i, _ in _SAMPLES])
def test_backend_parity(lattice):
    """Each numpy kernel returns the same witness as its triple-loop oracle."""
    _assert_parity(lattice)


@pytest.mark.parametrize("lattice", [L for _, L in _SAMPLES], ids=[i for i, _ in _SAMPLES])
def test_search_parity_in_small_pair_chunks(lattice, monkeypatch):
    """The searches split a row group's fiber pairs into chunks; with chunks
    of 5 pairs, most groups span several, and the witness is unchanged."""
    monkeypatch.setattr(kernels, "_PAIRS_PER_CHUNK", 5)
    tables = (lattice.join_table, lattice.meet_table, lattice.leq)
    assert kernels.pentagon_search(*tables) == _pentagon_search_loops(*tables)
    assert kernels.diamond_search(*tables) == _diamond_search_loops(*tables)


@pytest.mark.parametrize("lattice", [L for _, L in _SAMPLES], ids=[i for i, _ in _SAMPLES])
def test_lattice_searches_share_one_key_table(lattice, monkeypatch):
    """A lattice's pentagon and diamond searches build the cancellation keys
    once, in whichever runs first, and the second drops them."""
    tables = (lattice.join_table, lattice.meet_table, lattice.leq)
    expected = {"pentagon": kernels.pentagon_search(*tables),
                "diamond": kernels.diamond_search(*tables)}
    built = []
    keys = kernels._cancellation_keys
    monkeypatch.setattr(kernels, "_cancellation_keys",
                        lambda join, meet: built.append(1) or keys(join, meet))
    for order in (("pentagon", "diamond"), ("diamond", "pentagon")):
        fresh = FiniteLattice(lattice.leq, lattice.join_table, lattice.meet_table)
        for name in order:
            assert getattr(fresh, name) == expected[name]
        assert "_cancellation_keys" not in vars(fresh)
    assert len(built) == 2


def test_distributive_lattice_holds_no_key_table():
    """Every key row of a distributive lattice is injective, so no row is
    searched: after is_modular the lattice holds the row bottoms for the
    diamond search, not the n x n keys."""
    B = boolean_lattice(4)
    assert is_modular(B).holds
    keys, low = vars(B)["_cancellation_keys"]
    assert keys is None and low.tolist() == [B.size] * B.size
    assert B.diamond is None and "_cancellation_keys" not in vars(B)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parity_on_random_ideals(data):
    """Parity on random lcm-lattices, renumbered by a random permutation."""
    L = build_lcm_lattice(data.draw(ideal_strategy(4, 6, 2))).lattice
    _assert_parity(_permuted(L, data.draw(st.permutations(range(L.size)))))


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


@pytest.mark.parametrize("lattice,modular,distributive", [
    (pentagon_lattice(), False, False),
    (diamond_lattice(), True, False),
    *[(chain_lattice(k), True, True) for k in range(1, 6)],
    *[(boolean_lattice(r), True, True) for r in range(5)],
    (product(diamond_lattice(), chain_lattice(3)), True, False),
], ids=["N5", "M3", *[f"chain{k}" for k in range(1, 6)], *[f"boolean{r}" for r in range(5)],
        "M3xchain3"])
def test_valuation_verdicts(lattice, modular, distributive):
    tables = (lattice.join_table, lattice.meet_table, lattice.leq)
    assert kernels.modular_by_valuation(*tables) is modular
    assert kernels.distributive_by_valuation(*tables) is distributive


@pytest.mark.parametrize("small,search,oracle", [
    (pentagon_lattice(), kernels.pentagon_search, _pentagon_search_loops),
    (pentagon_lattice(), kernels.diamond_search, _diamond_search_loops),
    (diamond_lattice(), kernels.pentagon_search, _pentagon_search_loops),
    (diamond_lattice(), kernels.diamond_search, _diamond_search_loops),
], ids=["N5-pentagon", "N5-diamond", "M3-pentagon", "M3-diamond"])
def test_least_witness_on_large_products(small, search, oracle):
    """2560 elements, past SWEEP_LIMIT, where the deciders rely on the
    searches alone and no loop oracle is affordable. In small x B9, a
    pentagon or diamond maps into the distributive B9 by a homomorphism that
    is constant on it (M3 is simple, and every congruence of N5 but the
    identity joins x and y), so it maps onto small one-to-one. The least
    witness is small's own, with B9's bottom 0 in every coordinate: element
    (i, j) sits at i * 512 + j. On the modular M3 x B9 no pentagon cuts
    pentagon_search short: it scans all 1536 rows with repeated keys."""
    L = product(small, boolean_lattice(9))
    expected = oracle(small.join_table, small.meet_table, small.leq)
    assert search(L.join_table, L.meet_table, L.leq) == (
        expected and tuple(512 * i for i in expected)
    )

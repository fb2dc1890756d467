import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from lcmlat.monomials import parse_ideal_text
from lcmlat.properties import is_modular
from reference import (
    _interval_sizes, distributive_by_valuation, from_covers, from_tables, join_irreducibles,
)
from strategies import ideal_strategy


def _search(search, join, meet, leq):
    """search on the tables and their cancellation keys, as FiniteLattice runs it."""
    return search(join, meet, leq, kernels._cancellation_keys(join, meet))


# --- triple-loop oracles: the definitions, scanned in each kernel's order; they
# index [i][j], so they also run on .tolist() copies of the tables, which loop
# several times faster than the arrays ---

def _modular_violation_loops(join, meet, leq):
    n = len(join)
    for z in range(n):
        for x in range(n):
            if not leq[x][z]:
                continue
            for y in range(n):
                if join[x][meet[y][z]] != meet[join[x][y]][z]:
                    return x, y, z
    return None


def _distributive_violation_loops(join, meet):
    n = len(join)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return x, y, z
    return None


def _pentagon_search_loops(join, meet, leq):
    n = len(join)
    best = None
    for a in range(n):
        for x in range(n):
            if leq[a][x] or leq[x][a]:
                continue
            z = int(meet[a][x])
            w = int(join[a][x])
            for y in range(n):
                if y == x or not leq[x][y]:
                    continue
                if leq[a][y] or leq[y][a]:
                    continue
                if meet[a][y] != z or join[a][y] != w:
                    continue
                if best is None or (z, a, x, y, w) < best:
                    best = (z, a, x, y, w)
    return best


def _diamond_search_loops(join, meet, leq):
    n = len(join)
    best = None
    for a in range(n):
        for b in range(a + 1, n):
            if leq[a][b] or leq[b][a]:
                continue
            z = int(meet[a][b])
            w = int(join[a][b])
            for c in range(b + 1, n):
                if leq[a][c] or leq[c][a] or leq[b][c] or leq[c][b]:
                    continue
                if meet[a][c] != z or meet[b][c] != z:
                    continue
                if join[a][c] != w or join[b][c] != w:
                    continue
                if best is None or (z, a, b, c, w) < best:
                    best = (z, a, b, c, w)
    return best


def _heights_per_element(leq):
    """1 + the longest chain from the bottom, one element at a time: sorting
    by down-set size gives a linear extension, where h(x) is final when x is
    reached, and x pushes h(x) + 1 to itself and every element above it."""
    h = np.zeros(leq.shape[0], dtype=np.int32)
    for x in np.argsort(leq.sum(axis=0)):
        np.maximum(h, leq[x] * (h[x] + 1), out=h)
    return h


def _permuted(L, new):
    """L with element i renumbered new[i]."""
    new = np.asarray(new)
    old = np.argsort(new)
    ix = np.ix_(old, old)
    return from_tables(
        new[L.join_table[ix]].astype(np.int32), new[L.meet_table[ix]].astype(np.int32)
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
    return from_covers(10, covers)


def _diamond_cutoff_lattice():
    """M4 on 2..5 over bottom 1 and a chain 7 < 8 beside it: the least diamond
    is (1, 2, 3, 4, 6); row 3 heads (1, 3, 4, 5, 6) with the same bottom and
    repeats the key (0, 9) on 7 < 8, so only the strict cutoff skips it."""
    covers = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 6), (5, 6),
              (6, 9), (0, 7), (7, 8), (8, 9)]
    return from_covers(10, covers)


def _two_diamond_tops():
    """Diamonds {1, 2, 3} and {1, 4, 5} over bottom 0, with tops 7 and 6: the
    first diamond through 1 has the larger top."""
    covers = [(0, i) for i in range(1, 6)]
    covers += [(1, 7), (2, 7), (3, 7), (1, 6), (4, 6), (5, 6), (6, 8), (7, 8)]
    return from_covers(9, covers)


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
    lists = [t.tolist() for t in tables]
    modular = _modular_violation_loops(*lists)
    distributive = _distributive_violation_loops(*lists[:2])
    assert kernels.modular_violation(*tables) == modular
    assert kernels.distributive_violation(*tables[:2]) == distributive
    assert kernels.modular_by_valuation(*tables) == (modular is None)
    assert distributive_by_valuation(*tables) == (distributive is None)
    assert _search(kernels.pentagon_search, *tables) == _pentagon_search_loops(*lists)
    assert _search(kernels.diamond_search, *tables) == _diamond_search_loops(*lists)


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
    assert _search(kernels.pentagon_search, *tables) == _pentagon_search_loops(*tables)
    assert _search(kernels.diamond_search, *tables) == _diamond_search_loops(*tables)


def _fiber_pairs_loops(keys, rows, limit, past_row):
    """Every (a, lo, hi, key) with keys[a][lo] == keys[a][hi] == key < limit
    and lo < hi, and a < lo too if past_row, in sorted order."""
    keys = keys.tolist()
    n = len(keys)
    return [(a, lo, hi, keys[a][lo]) for a in rows.tolist() for lo in range(n)
            for hi in range(lo + 1, n)
            if keys[a][lo] == keys[a][hi] < limit and (a < lo or not past_row)]


def _walked(keys, rows, limit, past_row):
    """The pairs _fiber_pairs yields, as sorted (a, lo, hi, key) tuples."""
    chunks = [np.stack(chunk, axis=1) for chunk in
              kernels._fiber_pairs(keys, rows, limit, past_row)]
    return sorted(map(tuple, np.concatenate(chunks).tolist())) if chunks else []


def _pair_keys(lattice):
    """keys[a, x] = (a ^ x) * n + (a v x) of every row, as _cancellation_keys
    builds them, also on a lattice where it holds none."""
    return lattice.meet_table * lattice.size + lattice.join_table


@pytest.mark.parametrize("chunk", [kernels._PAIRS_PER_CHUNK, 5], ids=["chunk_default", "chunk5"])
@pytest.mark.parametrize("past_row", [False, True], ids=["any_row", "past_row"])
@pytest.mark.parametrize("lattice", [L for _, L in _SAMPLES], ids=[i for i, _ in _SAMPLES])
def test_fiber_pairs_are_every_tied_pair(lattice, past_row, chunk, monkeypatch):
    """The walk yields each pair of equal keys below the limit once, over the
    rows that repeat a key; with 5-pair chunks a position's pairs may fill
    several chunks' worth, and the pairs are unchanged."""
    monkeypatch.setattr(kernels, "_PAIRS_PER_CHUNK", chunk)
    keys, n = _pair_keys(lattice), lattice.size
    rows = kernels._cancellation_keys(lattice.join_table, lattice.meet_table)[1] < n
    rows = rows.nonzero()[0]
    for limit in (n * n, n * n // 2):
        assert _walked(keys, rows, limit, past_row) == _fiber_pairs_loops(
            keys, rows, limit, past_row)


@pytest.mark.parametrize("lattice,rows,limit,past_row", [
    (boolean_lattice(5), range(32), 32 * 32, False),
    (diamond_lattice(), range(5), 0, False),
    # row 3 of M3 ties on the atoms 1 and 2 only, both below it
    (diamond_lattice(), [3], 25, True),
], ids=["boolean5", "M3_limit0", "M3_row3_past_row"])
def test_fiber_pairs_of_rows_without_a_tie_yield_nothing(lattice, rows, limit, past_row):
    rows = np.array(rows)
    assert list(kernels._fiber_pairs(_pair_keys(lattice), rows, limit, past_row)) == []


def test_diamond_search_walks_only_pairs_past_the_row(monkeypatch):
    """A diamond's witness has a < b < c, so the walk hands the diamond
    search's hit function no pair with lo <= a."""
    walk = kernels._fiber_pairs
    walked = []

    def recording(*args):
        for chunk in walk(*args):
            walked.append(chunk)
            yield chunk

    monkeypatch.setattr(kernels, "_fiber_pairs", recording)
    for _, L in _SAMPLES:
        _search(kernels.diamond_search, L.join_table, L.meet_table, L.leq)
    assert walked
    assert all((lo > a).all() for a, lo, _, _ in walked)


# seed-41 inputs of the random-ideals bench, each with the expected least
# diamond: 154 elements with no diamond, so the search walks every row that
# repeats a key, and 168 elements whose least diamond has bottom 9, so the
# best-bottom cutoff decides which rows are walked
BENCH_IDEALS = {
    "random154": ("ring 7\nx1^2*x2^2*x3^3*x4^3*x5*x6^2*x7\nx1^3*x2*x3^3*x4*x6^2\n"
                  "x3*x4^3*x6^3\nx3*x5^3*x6\nx2^2*x3*x4^2*x6^2*x7^3\nx1^2*x2*x3^3*x4^3*x7^2\n"
                  "x1*x2*x5^3*x6*x7^2\nx2^2*x3^2*x4^2*x7^3\nx1*x2*x3^3*x4*x6*x7^2\n"
                  "x1*x2^3*x3^2*x4*x5*x6^3*x7^3\nx1^2*x2^2*x3^2*x5^2*x6\n", None),
    "random168": ("ring 7\nx4*x5^3*x6*x7^3\nx3^3*x4^2*x6^3\nx2*x6*x7^2\n"
                  "x1*x2^3*x3*x4*x5^3*x7^3\nx2^2*x3^3*x4*x5*x7\nx2*x4*x5^2*x6\nx1*x2*x3^3*x7\n"
                  "x1^3*x2^2*x5^3*x6*x7\nx1^2*x2^2*x3^2*x4^2*x5*x6\nx2*x3^2*x5^2*x7\n"
                  "x1*x2^2*x3^2*x4*x6*x7\nx1^3*x2*x3*x4^2*x7\n", (9, 22, 24, 25, 41)),
}


@pytest.mark.parametrize("name", BENCH_IDEALS)
def test_parity_on_bench_sized_random_ideals(name):
    text, diamond = BENCH_IDEALS[name]
    L = build_lcm_lattice(parse_ideal_text(text)).lattice
    assert L.size == int(name[len("random"):])
    _assert_parity(L)
    assert L.diamond == diamond


@pytest.mark.parametrize("lattice", [L for _, L in _SAMPLES], ids=[i for i, _ in _SAMPLES])
def test_lattice_searches_share_one_key_table(lattice, monkeypatch):
    """A lattice's pentagon and diamond searches build the cancellation keys
    once, in whichever runs first, and the second drops them."""
    tables = (lattice.join_table, lattice.meet_table, lattice.leq)
    expected = {"pentagon": _search(kernels.pentagon_search, *tables),
                "diamond": _search(kernels.diamond_search, *tables)}
    built = []
    keys = kernels._cancellation_keys
    monkeypatch.setattr(kernels, "_cancellation_keys",
                        lambda join, meet: built.append(1) or keys(join, meet))
    for order in (("pentagon", "diamond"), ("diamond", "pentagon")):
        fresh = from_tables(lattice.join_table, lattice.meet_table)
        for name in order:
            assert getattr(fresh, name) == expected[name]
        assert "_cancellation_keys" not in vars(fresh)
    assert len(built) == 2


@pytest.mark.parametrize("lattice", [L for _, L in _SAMPLES], ids=[i for i, _ in _SAMPLES])
def test_interval_sizes_count_each_interval(lattice):
    leq = lattice.leq.tolist()
    n = lattice.size
    sizes = [[sum(leq[a][c] and leq[c][b] for c in range(n)) for b in range(n)]
             for a in range(n)]
    assert _interval_sizes(lattice).tolist() == sizes


@pytest.mark.parametrize("lattice", [L for _, L in _SAMPLES], ids=[i for i, _ in _SAMPLES])
def test_join_irreducibles_by_definition(lattice):
    """x is join-reducible iff x = a v b for some a, b both other than x."""
    join = lattice.join_table.tolist()
    n = lattice.size
    reducible = {join[a][b] for a in range(n) for b in range(n) if join[a][b] not in (a, b)}
    expected = [x not in reducible for x in range(n)]
    assert join_irreducibles(lattice.join_table, lattice.leq).tolist() == expected


# built inside the test, so B12's 144 MB of tables live for one test only
_LARGE = {
    "chain1500": lambda: chain_lattice(1500),
    "boolean12": lambda: boolean_lattice(12),
    "M3xB6": lambda: product(diamond_lattice(), boolean_lattice(6)),
}


@pytest.mark.parametrize("make", [*(lambda L=L: L for _, L in _SAMPLES), *_LARGE.values()],
                         ids=[*(i for i, _ in _SAMPLES), *_LARGE])
def test_heights_by_levels_match_the_per_element_oracle(make):
    leq = make().leq
    assert kernels._heights(leq).tolist() == _heights_per_element(leq).tolist()


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
    assert _search(kernels.pentagon_search, *tables) == (0, 3, 1, 2, 4)
    assert kernels.modular_violation(*tables) is not None
    M3 = diamond_lattice()
    tables = (M3.join_table, M3.meet_table, M3.leq)
    assert _search(kernels.diamond_search, *tables) == (0, 1, 2, 3, 4)
    assert kernels.modular_violation(*tables) is None
    assert _search(kernels.pentagon_search, *tables) is None


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
    assert distributive_by_valuation(*tables) is distributive


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
    assert _search(search, L.join_table, L.meet_table, L.leq) == (
        expected and tuple(512 * i for i in expected)
    )

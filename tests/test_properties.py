import operator
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlat import audit, kernels, properties
from lcmlat.lattice import (
    LcmLattice,
    boolean_lattice,
    build_lcm_lattice,
    chain_lattice,
    diamond_lattice,
    enumerate_subset_lcms,
    interval,
    pentagon_lattice,
    product,
)
from lcmlat.monomials import (
    Hypergraph,
    MonomialIdeal,
    edge_ideal,
    monomial_str,
    subset_lcms,
    unit,
)
from lcmlat.properties import (
    PROPERTIES,
    PropertyVerdict,
    all_properties,
    complements_of,
    decide,
    find_m3,
    find_n5,
    is_boolean,
    is_complemented,
    is_distributive,
    is_modular,
    is_relatively_complemented,
)
import reference
from reference import (
    _interval_sizes, atom_indices, first_3_element_interval, join_irreducibles, lcm,
)
from strategies import exhaustive_hypergraphs, ideal_strategy


def _edge_ideal_strategy(n_max=6, m_max=6):
    return st.integers(2, n_max).flatmap(
        lambda n: st.lists(st.sets(st.integers(1, n), min_size=2, max_size=2),
                           min_size=1, max_size=m_max, unique_by=frozenset)
        .map(lambda edges: edge_ideal(Hypergraph.make(n, edges)))
    )


@pytest.fixture(scope="module")
def triangle_lattice():
    return build_lcm_lattice(edge_ideal(Hypergraph.make(3, [{1, 2}, {1, 3}, {2, 3}])))


def _matching(m):
    """The lcm-lattice of the m-edge matching, the Boolean lattice on m atoms."""
    return build_lcm_lattice(edge_ideal(Hypergraph.make(
        2 * m, [{2 * i + 1, 2 * i + 2} for i in range(m)])))


@pytest.fixture(scope="module")
def matching3_lattice():
    return _matching(3)


class TestBoolean:
    def test_disjoint_supports(self):
        I = MonomialIdeal.make(6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)])
        L = build_lcm_lattice(I)
        assert L.size == 8
        assert is_boolean(L).holds

    def test_fig3_collision_witness(self, fig3_lattice):
        verdict = is_boolean(fig3_lattice)
        assert not verdict.holds
        assert verdict.witness == {
            "subset_a": [1, 2, 3],
            "subset_b": [1, 3],
            "shared_lcm": "x1*x2*x3*x4*x5*x6",
        }

    def test_single_generator(self):
        L = build_lcm_lattice(MonomialIdeal.make(2, [(1, 1)]))
        assert is_boolean(L).holds

    def test_sixteen_generators_small_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("is_boolean must not build a reference lattice")

        monkeypatch.setattr("lcmlat.properties.boolean_lattice", refuse)
        monkeypatch.setattr("lcmlat.properties.is_isomorphic", refuse)
        I = MonomialIdeal.make(2, [(i, 15 - i) for i in range(16)])
        L = build_lcm_lattice(I)
        assert (L.atom_count, L.size) == (16, 137)
        verdict = is_boolean(L)
        assert not verdict.holds
        assert verdict.witness == _first_collision_from_scratch(L)
        assert verdict.witness["subset_a"] == [1, 2, 3]

    def test_twenty_four_generators_scan_holds_what_it_reads(self):
        # the scan stops within |L| + 1 = 302 masks and holds only the lcms
        # it has read, not a table of all 2^24 (128 MiB of pointers)
        L = build_lcm_lattice(MonomialIdeal.make(2, [(i, 23 - i) for i in range(24)]))
        tracemalloc.start()
        try:
            verdict = is_boolean(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (L.atom_count, L.size) == (24, 301)
        assert verdict.witness == _first_collision_from_scratch(L)
        assert peak < 1 << 20

    @pytest.mark.parametrize("edges", [
        [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)],  # Boolean, 8 elements
        [(1, 1, 1, 0, 0, 0), (0, 1, 1, 1, 0, 0), (0, 0, 0, 1, 1, 1)],  # not, 7 elements
    ])
    def test_routes_disagree_raises(self, edges):
        L = build_lcm_lattice(MonomialIdeal.make(6, edges))
        # drop or repeat one element so the count says the opposite of the scan
        wrong = replace(L, elements=(L.elements * 2)[:15 - L.size])
        with pytest.raises(RuntimeError, match="boolean routes disagree"):
            is_boolean(wrong)

    def test_ten_edge_matching(self):
        L = build_lcm_lattice(edge_ideal(Hypergraph.make(
            20, [{2 * i + 1, 2 * i + 2} for i in range(10)])))
        assert L.size == 1024
        verdict = is_boolean(L)
        assert verdict.holds and verdict.witness is None
        assert "lattice" not in vars(L)

    def test_fig3_reads_no_table(self, fig3_hypergraph):
        L = build_lcm_lattice(edge_ideal(fig3_hypergraph))
        assert not is_boolean(L).holds
        assert "lattice" not in vars(L)

    @pytest.mark.parametrize("edges", [
        [{1, 2, 3}, {2, 3, 4}, {4, 5, 6}],  # not Boolean
        [{1, 2}, {3, 4}, {5, 6}],           # Boolean
    ])
    def test_boolean_audit_reads_no_table(self, edges, monkeypatch):
        built = []

        def recording(I, *args, **kwargs):
            built.append(build_lcm_lattice(I, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(audit, "build_lcm_lattice", recording)
        report = audit.audit_instance("boolean", Hypergraph.make(6, edges))
        assert report.agree
        assert len(built) == 1 and "lattice" not in vars(built[0])


def _boolean_by_full_scan(I):
    return len(enumerate_subset_lcms(I)) == 1 << len(I.generators)


def _staircase(g):
    """x1^i*x2^(g-1-i) for i < g: Boolean at g = 2 only."""
    return MonomialIdeal(2, tuple((i, g - 1 - i) for i in range(g)))


def _star(edges, ring):
    """x_i*x_(edges+1) for i <= edges in `ring` variables: Boolean, every
    edge's private vertex x_i."""
    return MonomialIdeal(ring, tuple(
        tuple(int(v in (i, edges)) for v in range(ring)) for i in range(edges)))


class TestGeneratorCertificate:
    """properties._independent (no generator divides the lcm of the others)
    against the full subset scan (all 2^m subset lcms distinct)."""

    def test_exhaustive_boolean_and_modular_streams(self):
        for H in exhaustive_hypergraphs("boolean", "modular"):
            I = edge_ideal(H)
            assert properties._independent(I.generators) is _boolean_by_full_scan(I), H

    @settings(max_examples=300, deadline=None)
    @given(ideal_strategy(5, 8, 3))
    def test_hypothesis_ideals(self, I):
        assert properties._independent(I.generators) is _boolean_by_full_scan(I)

    @pytest.mark.parametrize("g", range(2, 25))
    def test_staircases(self, g):
        # the full scan is 2^g lcms; past 16 generators the collision scan,
        # which stops at the first repeat, stands in for it
        I = _staircase(g)
        scan = (_boolean_by_full_scan(I) if g <= 16
                else properties._first_lcm_collision(I.generators, 2) is None)
        assert properties._independent(I.generators) is scan is (g == 2)

    def test_ten_edge_star_in_a_wide_ring(self):
        I = _star(10, 4096)
        assert properties._independent(I.generators) is _boolean_by_full_scan(I) is True
        assert is_boolean(build_lcm_lattice(I)).holds


class TestBooleanScanCalls:
    """A Boolean verdict runs no subset scan; any other runs one, a single
    subset_lcms call read up to the first repeated lcm."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []

        def counting(gens, n):
            calls.append([0])
            for pair in subset_lcms(gens, n):
                calls[-1][0] += 1
                yield pair

        monkeypatch.setattr(properties, "subset_lcms", counting)
        return calls

    @pytest.mark.parametrize("I", [
        _star(10, 4096), _staircase(2),
        edge_ideal(Hypergraph.make(8, [{1, 2}, {3, 4}, {5, 6}, {7, 8}])),
    ], ids=["star10", "staircase2", "matching4"])
    def test_boolean_runs_no_scan(self, I, reads):
        assert is_boolean(build_lcm_lattice(I)).holds
        assert reads == []

    @pytest.mark.parametrize("I", [
        _staircase(3), _staircase(16), _staircase(24),
        edge_ideal(Hypergraph.make(6, [{1, 2, 3}, {2, 3, 4}, {4, 5, 6}])),
        edge_ideal(Hypergraph.make(3, [{1, 2}, {1, 3}, {2, 3}])),
    ], ids=["staircase3", "staircase16", "staircase24", "fig3", "triangle"])
    def test_non_boolean_scans_to_the_first_repeat(self, I, reads):
        verdict = is_boolean(build_lcm_lattice(I))
        assert not verdict.holds
        repeat = sum(1 << (i - 1) for i in verdict.witness["subset_a"])
        assert reads == [[repeat + 1]]


def _first_collision_from_scratch(L):
    """Each subset's lcm folded from the unit, masks in increasing order."""
    gens, m = L.ideal.generators, L.atom_count
    seen = {}
    for mask in range(1 << m):
        acc = unit(L.ideal.ring_dimension)
        for i in range(m):
            if mask >> i & 1:
                acc = lcm(acc, gens[i])
        if acc in seen:
            return {
                "subset_a": [i + 1 for i in range(m) if mask >> i & 1],
                "subset_b": [i + 1 for i in range(m) if seen[acc] >> i & 1],
                "shared_lcm": monomial_str(acc),
            }
        seen[acc] = mask
    return None


def _counting(monkeypatch, name):
    """Wrap kernels.<name> to record the size of each lattice it is called on."""
    calls = []
    original = getattr(kernels, name)

    def counting(*tables):
        calls.append(tables[0].shape[0])
        return original(*tables)

    monkeypatch.setattr(kernels, name, counting)
    return calls


class TestModular:
    def test_fig3_witness_matches_worked_example(self, fig3_lattice):
        verdict = is_modular(fig3_lattice.lattice)
        assert not verdict.holds
        w = verdict.witness
        assert w["x"]["label"] == "x1*x2*x3"
        assert w["y"]["label"] == "x4*x5*x6"
        assert w["z"]["label"] == "x1*x2*x3*x4"
        assert w["lhs"]["label"] == "x1*x2*x3"
        assert w["rhs"]["label"] == "x1*x2*x3*x4"

    def test_tetrahedron_modular(self, tetra_lattice):
        assert is_modular(tetra_lattice.lattice).holds

    def test_chain_modular(self):
        assert is_modular(chain_lattice(5)).holds

    def test_n5_not_modular(self):
        assert not is_modular(pentagon_lattice()).holds

    def test_m3_modular(self):
        assert is_modular(diamond_lattice()).holds

    def test_modular_below_sweep_limit_runs_no_sweep(self, monkeypatch):
        sweeps = _counting(monkeypatch, "modular_violation")
        valuations = _counting(monkeypatch, "modular_by_valuation")
        L = product(diamond_lattice(), boolean_lattice(6))
        assert L.size <= properties.SWEEP_LIMIT
        assert is_modular(L).holds
        assert sweeps == [] and valuations == [L.size]

    @pytest.mark.parametrize("name", ["P4", "N5"])
    def test_witness_is_the_sweeps_triple(self, name, p4_lattice, monkeypatch):
        L = p4_lattice.lattice if name == "P4" else pentagon_lattice()
        x, y, z = kernels.modular_violation(L.join_table, L.meet_table, L.leq)
        sweeps = _counting(monkeypatch, "modular_violation")
        valuations = _counting(monkeypatch, "modular_by_valuation")
        verdict = is_modular(L)
        assert not verdict.holds
        assert [verdict.witness[k]["index"] for k in "xyz"] == [x, y, z]
        assert sweeps == [L.size] and valuations == []

    @pytest.mark.parametrize("lattice,kernel,flip", [
        (diamond_lattice(), "modular_by_valuation", operator.not_),
        (product(pentagon_lattice(), boolean_lattice(7)), "modular_by_valuation", operator.not_),
        (pentagon_lattice(), "modular_violation", lambda triple: None),
    ], ids=["M3-valuation", "N5xB7-valuation", "N5-sweep"])
    def test_routes_disagree_raises(self, lattice, kernel, flip, monkeypatch):
        original = getattr(kernels, kernel)
        monkeypatch.setattr(kernels, kernel, lambda *tables: flip(original(*tables)))
        with pytest.raises(RuntimeError, match="modular routes disagree"):
            is_modular(lattice)


class TestForbiddenSublattices:
    def test_fig3_pentagon(self, fig3_lattice):
        lat = fig3_lattice.lattice
        pent = find_n5(lat)
        assert pent is not None
        z, a, x, y, w = pent
        # validate directly against the tables
        assert lat.leq[x, y] and x != y
        assert not lat.leq[a, x] and not lat.leq[x, a]
        assert not lat.leq[a, y] and not lat.leq[y, a]
        assert lat.meet(a, x) == lat.meet(a, y) == z
        assert lat.join(a, x) == lat.join(a, y) == w

    def test_boolean_has_no_pentagon_or_diamond(self):
        B = boolean_lattice(3)
        assert find_n5(B) is None
        assert find_m3(B) is None

    def test_m3_has_no_pentagon(self):
        assert find_n5(diamond_lattice()) is None

    def test_triangle_graph_is_m3(self, triangle_lattice):
        lat = triangle_lattice.lattice
        assert lat.size == 5
        dia = find_m3(lat)
        assert dia is not None
        z, a, b, c, w = dia
        assert z == 0 and w == lat.top
        assert {a, b, c} == set(atom_indices(triangle_lattice))

    def test_all_properties_searches_once(self, monkeypatch):
        pentagons = _counting(monkeypatch, "pentagon_search")
        diamonds = _counting(monkeypatch, "diamond_search")
        # a fresh P4 lattice: not modular, so not distributive either
        L = build_lcm_lattice(edge_ideal(Hypergraph.make(4, [{1, 2}, {2, 3}, {3, 4}])))
        verdicts = properties.all_properties(L)
        assert [v.holds for v in verdicts[1:3]] == [False, False]
        assert pentagons == [L.size] and diamonds == [L.size]

    def test_tetra_diamond(self, tetra_lattice):
        dia = find_m3(tetra_lattice.lattice)
        assert dia is not None

    def test_boolean2_no_diamond(self):
        assert find_m3(boolean_lattice(2)) is None


class TestDistributive:
    def test_boolean3(self):
        assert is_distributive(_matching(3)).holds

    def test_boolean6_runs_no_sweep(self, monkeypatch):
        sweeps = _counting(monkeypatch, "distributive_violation")
        assert is_distributive(_matching(6)).holds
        assert sweeps == []

    @pytest.mark.parametrize("fixture,searched", [
        ("matching3_lattice", (0, 1, 2, 3, 4)),  # a pentagon the Boolean B3 does not hold
        ("p4_lattice", None),                     # P4 holds a pentagon
        ("triangle_lattice", None),               # the triangle is M3
    ], ids=["B3", "N5", "M3"])
    def test_routes_disagree_raises(self, fixture, searched, request, monkeypatch):
        # the searches are made to say the opposite of the count
        monkeypatch.setattr(properties, "find_n5", lambda lat: searched)
        monkeypatch.setattr(properties, "find_m3", lambda lat: None)
        with pytest.raises(RuntimeError, match="distributive routes disagree"):
            is_distributive(request.getfixturevalue(fixture))

    def test_tetra_fails_via_diamond(self, tetra_lattice):
        verdict = is_distributive(tetra_lattice)
        assert not verdict.holds
        assert "diamond" in verdict.witness

    def test_fig3_fails_via_pentagon(self, fig3_lattice):
        verdict = is_distributive(fig3_lattice)
        assert not verdict.holds
        assert "pentagon" in verdict.witness

    def test_unique_complements_in_distributive(self):
        L = _matching(3)
        assert is_distributive(L).holds
        for x in range(L.size):
            assert len(complements_of(L.lattice, x)) <= 1


class TestComplements:
    def test_fig5_element_13(self, fig5_lattice):
        lat = fig5_lattice.lattice
        comp = complements_of(lat, lat.labels.index("x1*x3"))
        # the known pair (13, 24) plus 124, which also meets at 0 and joins at 1
        labels = {lat.labels[i] for i in comp}
        assert "x2*x4" in labels
        for i in comp:
            assert lat.meet(lat.labels.index("x1*x3"), i) == 0
            assert lat.join(lat.labels.index("x1*x3"), i) == lat.top

    def test_fig5_element_12_has_none(self, fig5_lattice):
        lat = fig5_lattice.lattice
        assert complements_of(lat, lat.labels.index("x1*x2")) == []

    def test_bottom_complements_top(self, fig3_lattice):
        lat = fig3_lattice.lattice
        assert complements_of(lat, 0) == [lat.top]

    def test_index_out_of_range(self, fig3_lattice):
        with pytest.raises(IndexError):
            complements_of(fig3_lattice.lattice, 42)


class TestComplemented:
    def test_fig5_not_complemented(self, fig5_lattice):
        verdict = is_complemented(fig5_lattice.lattice)
        assert not verdict.holds
        assert verdict.witness["element"]["label"] == "x1*x2"

    def test_boolean(self):
        for r in range(4):
            assert is_complemented(boolean_lattice(r)).holds

    def test_fig3_witness(self, fig3_lattice):
        verdict = is_complemented(fig3_lattice.lattice)
        assert not verdict.holds
        assert verdict.witness["element"]["label"] == "x2*x3*x4"


def _graph_lattice(n, edges):
    return lambda: build_lcm_lattice(edge_ideal(Hypergraph.make(n, edges)))


# lcm-lattices, decided by is_relatively_complemented, and lattices of no
# lcm-lattice's shape (not atomistic, or of one element), on which the
# reference's first 3-element interval stands for Björner's test
_FIXED_LATTICES = {
    **{f"chain{n}": (lambda n=n: chain_lattice(n)) for n in (1, 3, 4, 5)},
    "chain2": lambda: build_lcm_lattice(MonomialIdeal.make(1, [(1,)])),
    "N5": pentagon_lattice,
    "M3": _graph_lattice(3, [{1, 2}, {1, 3}, {2, 3}]),
    "boolean0": lambda: boolean_lattice(0),
    **{f"boolean{r}": (lambda r=r: _matching(r)) for r in range(1, 4)},
    "N5xchain3": lambda: product(pentagon_lattice(), chain_lattice(3)),
    # the edge ideal of two disjoint triangles: its lcm-lattice is M3 x M3
    "M3xM3": _graph_lattice(6, [{1, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 6}, {5, 6}]),
    "P4": _graph_lattice(4, [{1, 2}, {2, 3}, {3, 4}]),
    "triangle": _graph_lattice(3, [{1, 2}, {1, 3}, {2, 3}]),
    "fig3": _graph_lattice(6, [{1, 2, 3}, {2, 3, 4}, {4, 5, 6}]),
    "fig5": _graph_lattice(4, [{1, 2}, {1, 3}, {2, 4}]),
    "tetra": _graph_lattice(4, [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]),
    # least failing intervals of equal size, where sorting ties by (y, x)
    # instead of (x, y) picks another one
    "P5-relabeled": _graph_lattice(5, [{2, 4}, {3, 5}, {1, 2}, {4, 5}]),
    "five-generators": lambda: build_lcm_lattice(MonomialIdeal.make(
        3, [(0, 2, 1), (2, 1, 0), (1, 1, 1), (0, 1, 2), (1, 0, 2)])),
}


class TestRelativelyComplemented:
    def test_p4_fails_with_chain_interval(self, p4_lattice):
        verdict = is_relatively_complemented(p4_lattice)
        lat = p4_lattice.lattice
        assert not verdict.holds
        w = verdict.witness
        # the witness interval is a minimal failing one: a 3-chain
        sub, _ = reference.interval(
            lat, w["interval_bottom"]["index"], w["interval_top"]["index"]
        )
        assert sub.size == 3
        assert not is_complemented(sub).holds
        # the specific interval from the theorem's proof also fails
        above_12, _ = reference.interval(lat, lat.labels.index("x1*x2"), lat.top)
        assert not is_complemented(above_12).holds

    def test_boolean(self):
        assert is_relatively_complemented(_matching(3)).holds

    def test_triangle_lattice(self, triangle_lattice):
        assert is_relatively_complemented(triangle_lattice).holds

    @pytest.mark.parametrize("name", sorted(_FIXED_LATTICES))
    def test_matches_interval_scan_fixed(self, name):
        L = _FIXED_LATTICES[name]()
        if isinstance(L, LcmLattice):
            assert is_relatively_complemented(L) == _relatively_complemented_by_intervals(
                L.lattice)
        else:
            scan = _relatively_complemented_by_intervals(L)
            assert first_3_element_interval(_interval_sizes(L)) == (None if scan.holds else (
                scan.witness["interval_bottom"]["index"], scan.witness["interval_top"]["index"]))

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(ideal_strategy(3, 5, 2), _edge_ideal_strategy()))
    def test_matches_interval_scan_random(self, I):
        L = build_lcm_lattice(I)
        assert is_relatively_complemented(L) == _relatively_complemented_by_intervals(L.lattice)

    def test_builds_one_sublattice_on_failure_none_on_success(self, p4_lattice,
                                                              monkeypatch):
        calls = []

        def counting(L, x, y):
            calls.append((x, y))
            return interval(L, x, y)

        monkeypatch.setattr(properties, "interval", counting)
        is_relatively_complemented(p4_lattice)
        assert len(calls) == 1
        calls.clear()
        L = _matching(3)
        is_relatively_complemented(L)
        assert calls == [] and "lattice" not in vars(L)

    def test_routes_disagree_raises(self, p4_lattice, monkeypatch):
        monkeypatch.setattr(properties, "is_complemented",
                            lambda sub: PropertyVerdict("complemented", True))
        with pytest.raises(RuntimeError, match="relatively-complemented routes disagree"):
            is_relatively_complemented(p4_lattice)

    def test_ten_edge_matching(self):
        L = _matching(10)
        assert L.size == 1024
        verdict = is_relatively_complemented(L)
        assert verdict.holds and verdict.witness is None
        assert "lattice" not in vars(L)

    def test_near_cap_holds_without_a_table(self):
        # M3 x B10, 5120 elements: modular and atomistic, so relatively
        # complemented; its join and meet tables alone would take 210 MB
        L = build_lcm_lattice(edge_ideal(Hypergraph.make(
            23, [{1, 2}, {1, 3}, {2, 3}] + [{4 + 2 * i, 5 + 2 * i} for i in range(10)])))
        tracemalloc.start()
        try:
            verdict = is_relatively_complemented(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds and L.size == 5120
        assert "lattice" not in vars(L)
        assert peak < 64 << 20

    def test_near_cap_fails_without_a_table(self):
        # P4 x B9, 3584 elements: not relatively complemented; the witness
        # interval is read and confirmed from the keys, where filling the
        # join and meet tables alone would take 103 MB
        L = build_lcm_lattice(edge_ideal(Hypergraph.make(
            22, [{1, 2}, {2, 3}, {3, 4}] + [{5 + 2 * i, 6 + 2 * i} for i in range(9)])))
        tracemalloc.start()
        try:
            verdict = is_relatively_complemented(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not verdict.holds and L.size == 3584
        assert "lattice" not in vars(L)
        assert peak < 16 << 20


def _relatively_complemented_by_intervals(L):
    """Oracle: build every interval [x, y] of the FiniteLattice L as a
    sublattice, smallest first (ties by (x, y)), and test it with
    is_complemented."""
    sizes = []
    for x in range(L.size):
        for y in range(L.size):
            if L.leq[x, y]:
                sizes.append((int((L.leq[x] & L.leq[:, y]).sum()), x, y))
    for _, x, y in sorted(sizes):
        sub, idx = reference.interval(L, x, y)
        verdict = is_complemented(sub)
        if not verdict.holds:
            inner = idx[verdict.witness["element"]["index"]]
            return PropertyVerdict("relatively-complemented", False, {
                "interval_bottom": {"index": x, "label": L.labels[x]},
                "interval_top": {"index": y, "label": L.labels[y]},
                "element": {"index": inner, "label": L.labels[inner]},
            })
    return PropertyVerdict("relatively-complemented", True)


class TestDecide:
    @pytest.mark.parametrize("fixture", [
        "fig3_lattice", "tetra_lattice", "fig5_lattice", "p4_lattice", "triangle_lattice",
    ])
    def test_each_name_is_its_decider(self, fixture, request):
        L = request.getfixturevalue(fixture)
        named = {
            "boolean": lambda: is_boolean(L),
            "modular": lambda: is_modular(L.lattice),
            "distributive": lambda: is_distributive(L),
            "complemented": lambda: is_complemented(L.lattice),
            "relatively-complemented": lambda: is_relatively_complemented(L),
        }
        assert PROPERTIES == tuple(named)  # also the order of `check --property all`
        for name in PROPERTIES:
            verdict = decide(name, L)
            assert verdict == named[name]()
            assert verdict.property == name
        assert all_properties(L) == [decide(name, L) for name in PROPERTIES]

    @pytest.mark.parametrize("fixture", ["matching3_lattice", "p4_lattice", "fig3_lattice"])
    def test_all_properties_runs_is_boolean_once(self, fixture, request, monkeypatch):
        L = request.getfixturevalue(fixture)
        expected = [decide(name, L) for name in PROPERTIES]
        calls = []
        original = properties.is_boolean
        monkeypatch.setattr(properties, "is_boolean", lambda L: calls.append(L) or original(L))
        assert all_properties(L) == expected
        assert calls == [L]

    def test_decider_is_looked_up_per_call(self, monkeypatch, p4_lattice):
        seen = []
        original = properties.is_relatively_complemented

        def recording(L):
            seen.append(L)
            return original(L)

        monkeypatch.setattr(properties, "is_relatively_complemented", recording)
        decide("relatively-complemented", p4_lattice)
        assert seen == [p4_lattice]

    def test_unknown_name(self, p4_lattice):
        # is_isomorphic is an attribute of the module, but not a property
        with pytest.raises(ValueError, match="unknown property 'isomorphic'"):
            decide("isomorphic", p4_lattice)


def _by_tables(L):
    """Each decider's full verdict on L, none of them shortcut by the count:
    distributivity from the pentagon and diamond searches alone, modularity
    and complementation on L.lattice, relative complementation on L."""
    lat = L.lattice
    pentagon, diamond = find_n5(lat), find_m3(lat)
    witness = {}
    if pentagon is not None:
        witness["pentagon"] = properties._pentagon_witness(lat, pentagon)
    if diamond is not None:
        witness["diamond"] = properties._diamond_witness(lat, diamond)
    return [
        is_boolean(L),
        is_modular(lat),
        PropertyVerdict("distributive", not witness, witness or None),
        is_complemented(lat),
        is_relatively_complemented(L),
    ]


def _assert_atomistic_facts(L):
    """decide agrees with the full deciders; distributive iff Boolean, and
    modular => relatively complemented => complemented, as on every
    atomistic lattice; the join-irreducibles are the bottom and the atoms."""
    verdicts = [decide(name, L) for name in PROPERTIES]
    assert verdicts == _by_tables(L)
    b, m, d, c, r = (v.holds for v in verdicts)
    assert d == b
    assert b <= d <= m <= r <= c
    lat = L.lattice
    assert join_irreducibles(lat.join_table, lat.leq).tolist() == [
        i == 0 or L.keys[i].bit_count() == 1 for i in range(L.size)]


class TestImplicationChain:
    @pytest.mark.parametrize("edges,n", [
        ([{1, 2}, {3, 4}], 4),
        ([{1, 2}, {2, 3}], 3),
        ([{1, 2, 3}, {2, 3, 4}, {4, 5, 6}], 6),
        ([{1, 2}, {1, 3}, {2, 3}], 3),
        ([{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}], 4),
    ])
    def test_boolean_implies_distributive_implies_modular(self, edges, n):
        _assert_atomistic_facts(build_lcm_lattice(edge_ideal(Hypergraph.make(n, edges))))

    def test_exhaustive_stream_lattices(self):
        ideals = dict.fromkeys(map(edge_ideal, exhaustive_hypergraphs()))
        for I in ideals:
            _assert_atomistic_facts(build_lcm_lattice(I))

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matching(self, m):
        _assert_atomistic_facts(_matching(m))

    @settings(max_examples=60, deadline=None)
    @given(I=ideal_strategy(4, 6, 2))
    def test_random_ideals(self, I):
        _assert_atomistic_facts(build_lcm_lattice(I))

    def test_boolean_lattice_fills_no_table(self):
        L = _matching(8)
        assert all(v.holds for v in all_properties(L))
        assert "lattice" not in vars(L)

    def test_one_element_lattice(self):
        L = build_lcm_lattice(MonomialIdeal.make(1, [(1,)]))
        one, _ = reference.interval(L.lattice, 0, 0)
        assert is_modular(one).holds
        assert is_complemented(one).holds

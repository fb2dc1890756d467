import json
import tracemalloc
from itertools import combinations
from operator import le
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlat import kernels, lattice
from lcmlat.audit import GeneratorConfig, SplitMix64, random_monomial_ideal, small_lattice_pool
from lcmlat.lattice import (
    FiniteLattice,
    SizeLimitError,
    boolean_lattice,
    build_lcm_lattice,
    chain_lattice,
    diamond_lattice,
    enumerate_subset_lcms,
    hasse_edges,
    interval,
    is_isomorphic,
    lattice_json,
    lattice_dot,
    pentagon_lattice,
    product,
)
from lcmlat.monomials import (
    MAX_EXPONENT,
    Hypergraph,
    MonomialIdeal,
    edge_ideal,
    minimalize,
    monomial_str,
    polarize,
)
from lcmlat.properties import SWEEP_LIMIT, all_properties, is_complemented
import reference
from reference import (
    _interval_sizes, atom_indices, first_3_element_interval, from_covers, from_leq, lcm,
)
from strategies import exhaustive_hypergraphs, ideal_strategy


class TestBuild:
    def test_fig3_elements(self, fig3_lattice):
        assert fig3_lattice.size == 7
        assert fig3_lattice.lattice.labels == (
            "1",
            "x4*x5*x6",
            "x2*x3*x4",
            "x1*x2*x3",
            "x1*x2*x3*x4",
            "x2*x3*x4*x5*x6",
            "x1*x2*x3*x4*x5*x6",
        )
        assert sorted(atom_indices(fig3_lattice)) == [1, 2, 3]

    def test_labels_render_on_first_read(self, fig3_hypergraph, monkeypatch):
        rendered = []
        monkeypatch.setattr(lattice, "monomial_str",
                            lambda m: rendered.append(m) or monomial_str(m))
        L = build_lcm_lattice(edge_ideal(fig3_hypergraph))
        lat = L.lattice
        assert not rendered
        assert lat.labels == tuple(map(monomial_str, L.elements))
        assert lat.labels is lat.labels
        assert rendered == list(L.elements)

    def test_witnesses_render_only_the_labels_they_name(self, monkeypatch):
        rendered = []
        monkeypatch.setattr(lattice, "monomial_str",
                            lambda m: rendered.append(m) or monomial_str(m))
        L = build_lcm_lattice(MonomialIdeal.make(2, _staircase(17)))
        assert L.size == 154
        verdicts = json.dumps([v.to_json_dict() for v in all_properties(L)])
        named = {m for m in L.elements if f'"label": "{monomial_str(m)}"' in verdicts}
        # the witnesses name 14 labels of 7 elements, each rendered once
        assert len(named) == 7
        assert sorted(rendered) == sorted(named)

    def test_tetrahedron_elements(self, tetra_lattice):
        assert tetra_lattice.size == 6
        assert tetra_lattice.elements[-1] == (1, 1, 1, 1)
        assert len(atom_indices(tetra_lattice)) == 4

    def test_single_generator(self):
        L = build_lcm_lattice(MonomialIdeal.make(2, [(1, 1)]))
        assert L.size == 2

    def test_bottom_and_top(self, fig3_lattice):
        lat = fig3_lattice.lattice
        assert lat.bottom == 0
        assert lat.top == lat.size - 1


class TestJoinMeet:
    def test_fig3_join_to_top(self, fig3_lattice):
        lat = fig3_lattice.lattice
        x123 = lat.labels.index("x1*x2*x3")
        x456 = lat.labels.index("x4*x5*x6")
        assert lat.join(x123, x456) == lat.top

    def test_bottom_identity(self, fig3_lattice):
        lat = fig3_lattice.lattice
        for e in range(lat.size):
            assert lat.join(0, e) == e
            assert lat.meet(lat.top, e) == e

    def test_tetra_atom_joins_are_top(self, tetra_lattice):
        lat = tetra_lattice.lattice
        a, b = atom_indices(tetra_lattice)[:2]
        assert lat.join(a, b) == lat.top

    def test_fig3_meets(self, fig3_lattice):
        lat = fig3_lattice.lattice
        x456 = lat.labels.index("x4*x5*x6")
        x1234 = lat.labels.index("x1*x2*x3*x4")
        x23456 = lat.labels.index("x2*x3*x4*x5*x6")
        x234 = lat.labels.index("x2*x3*x4")
        assert lat.meet(x456, x1234) == 0
        assert lat.meet(x1234, x23456) == x234

    def test_index_out_of_range(self, fig3_lattice):
        with pytest.raises(IndexError):
            fig3_lattice.lattice.join(0, 99)

    def test_join_table_matches_lcm(self, fig3_lattice):
        lat = fig3_lattice.lattice
        elems = fig3_lattice.elements
        for a in range(lat.size):
            for b in range(lat.size):
                assert elems[lat.join(a, b)] == lcm(elems[a], elems[b])

    def test_absorption(self, tetra_lattice):
        lat = tetra_lattice.lattice
        for a in range(lat.size):
            for b in range(lat.size):
                assert lat.meet(a, lat.join(a, b)) == a
                assert lat.join(a, lat.meet(a, b)) == a


class TestInterval:
    def test_whole_lattice(self, fig3_lattice):
        lat = fig3_lattice.lattice
        sub, idx = reference.interval(lat, 0, lat.top)
        assert sub.size == lat.size
        assert idx == list(range(lat.size))

    def test_p4_upper_interval_is_chain(self, p4_lattice):
        lat = p4_lattice.lattice
        x12 = lat.labels.index("x1*x2")
        sub, idx = reference.interval(lat, x12, lat.top)
        assert sub.size == 3
        assert [lat.labels[i] for i in idx] == [
            "x1*x2", "x1*x2*x3", "x1*x2*x3*x4",
        ]

    def test_singleton(self, fig3_lattice):
        sub, _ = reference.interval(fig3_lattice.lattice, 2, 2)
        assert sub.size == 1

    def test_incomparable_rejected(self, fig3_lattice):
        lat = fig3_lattice.lattice
        with pytest.raises(ValueError):
            reference.interval(lat, 1, 3)


def _assert_interval_is_the_reference(L, x, y):
    """interval(L, x, y), read from the keys of the LcmLattice L, has the
    tables, covers, labels and original indices that the reference cuts out
    of L's tables."""
    sub, original = interval(L, x, y)
    ref, ref_original = reference.interval(L.lattice, x, y)
    assert original == ref_original
    for got, want in ((sub.join_table, ref.join_table), (sub.meet_table, ref.meet_table)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert hasse_edges(sub) == hasse_edges(ref)
    assert sub.labels == ref.labels


class TestIntervalFromKeys:
    """interval reads [x, y] from an lcm-lattice's keys; reference.interval,
    the oracle, cuts it out of the lattice's tables."""

    @pytest.mark.parametrize("fixture", ["fig3_lattice", "fig5_lattice", "tetra_lattice"])
    def test_every_interval(self, fixture, request):
        L = request.getfixturevalue(fixture)
        pairs = list(zip(*np.nonzero(L.lattice.leq)))
        assert len(pairs) > L.size
        for x, y in pairs:
            _assert_interval_is_the_reference(L, int(x), int(y))

    def test_first_3_element_interval_of_the_exhaustive_streams(self):
        ideals = dict.fromkeys(map(edge_ideal, exhaustive_hypergraphs()))
        # the keys fix the lattice
        distinct = {L.keys: L for L in map(build_lcm_lattice, ideals)}
        hits = [(L, L.first_3_element_interval()) for L in distinct.values()]
        hits = [(L, hit) for L, hit in hits if hit is not None]
        assert hits
        for L, (x, y) in hits:
            _assert_interval_is_the_reference(L, x, y)

    @settings(max_examples=60, deadline=None)
    @given(I=ideal_strategy(4, 6, 2))
    def test_random_ideals(self, I):
        L = build_lcm_lattice(I)
        # the top has the largest total degree, so it comes last
        _assert_interval_is_the_reference(L, 0, L.size - 1)
        hit = L.first_3_element_interval()
        if hit is not None:
            _assert_interval_is_the_reference(L, *hit)

    def test_p4xb9(self):
        n, edges = _NEAR_CAP["p4xb9"]
        L = build_lcm_lattice(edge_ideal(Hypergraph.make(n, edges)))
        hit = L.first_3_element_interval()
        assert L.size == 3584 and hit is not None
        _assert_interval_is_the_reference(L, *hit)

    @pytest.mark.parametrize("x, y", [(-1, 6), (0, -1), (-7, 6), (7, 0), (0, 7)])
    def test_index_out_of_range_refused(self, fig3_hypergraph, x, y):
        L = build_lcm_lattice(edge_ideal(fig3_hypergraph))
        with pytest.raises(IndexError, match="out of range for size 7"):
            interval(L, x, y)
        assert "lattice" not in vars(L)

    @pytest.mark.parametrize("x, y", [(1, 3), (6, 0), (4, 1)])
    def test_x_not_below_y_refused(self, fig3_hypergraph, x, y):
        L = build_lcm_lattice(edge_ideal(fig3_hypergraph))
        with pytest.raises(ValueError, match=f"interval requires x <= y; got {x} and {y}"):
            interval(L, x, y)
        assert "lattice" not in vars(L)


class TestProduct:
    def test_two_chains_give_boolean_rank_2(self):
        P = product(chain_lattice(2), chain_lattice(2))
        assert is_isomorphic(P, boolean_lattice(2)) is not None

    def test_chain3_product_not_complemented(self):
        P = product(chain_lattice(3), boolean_lattice(2))
        assert not is_complemented(P).holds

    def test_n5_squared_complemented(self):
        P = product(pentagon_lattice(), pentagon_lattice())
        assert P.size == 25
        assert is_complemented(P).holds

    def test_componentwise_order(self):
        L1, L2 = chain_lattice(3), pentagon_lattice()
        P = product(L1, L2)
        for i1 in range(L1.size):
            for j1 in range(L2.size):
                for i2 in range(L1.size):
                    for j2 in range(L2.size):
                        expected = L1.leq[i1, i2] and L2.leq[j1, j2]
                        assert P.leq[i1 * L2.size + j1, i2 * L2.size + j2] == expected

    def test_size_cap(self):
        with pytest.raises(SizeLimitError, match="product size 6480 exceeds the cap 6400$"):
            product(chain_lattice(81), chain_lattice(80))

    def test_default_cap_refuses_just_past_it_before_allocating(self):
        L1, L2 = chain_lattice(37), chain_lattice(173)
        assert L1.size * L2.size == lattice.MAX_PRODUCT + 1
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="product size 6401 exceeds the cap 6400"):
                product(L1, L2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_default_cap_keeps_peak_under_1gb(self):
        # peak bytes per table cell of a small product, scaled to the cap
        tracemalloc.start()
        try:
            P = product(chain_lattice(30), chain_lattice(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / P.size**2 * lattice.MAX_PRODUCT**2 < 1e9

    def test_tables_are_the_peak(self):
        # the int32 join/meet are 8 bytes per cell; no wider temporary of
        # the product's size is built
        L1, L2 = boolean_lattice(5), boolean_lattice(5)
        tracemalloc.start()
        try:
            P = product(L1, L2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / P.size**2 < 12
        assert np.array_equal(P.join_table, boolean_lattice(10).join_table)
        assert np.array_equal(P.meet_table, boolean_lattice(10).meet_table)


class TestBooleanLattice:
    @pytest.mark.parametrize("r,size", [(0, 1), (2, 4), (3, 8)])
    def test_sizes(self, r, size):
        assert boolean_lattice(r).size == size

    def test_default_rank_cap_follows_the_element_cap(self):
        # 2^13 = 8192 elements pass MAX_ELEMENTS = 6000; refused
        # before the two 8192^2 int32 tables exist
        with pytest.raises(SizeLimitError, match="rank 13 exceeds the cap 12$"):
            boolean_lattice(13)

    def test_rank3_cover_count(self):
        assert len(hasse_edges(boolean_lattice(3))) == 12


class TestChainLattice:
    def test_size_cap(self):
        with pytest.raises(SizeLimitError, match="chain size 6001 exceeds the cap 6000$"):
            chain_lattice(6001)


class TestFiveElementLattices:
    @pytest.mark.parametrize("literal,covers,labels", [
        (pentagon_lattice, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], ("0", "x", "y", "a", "1")),
        (diamond_lattice, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
         ("0", "a", "b", "c", "1")),
    ])
    def test_literal_tables_equal_the_reference_build(self, literal, covers, labels):
        L, ref = literal(), from_covers(5, covers, labels)
        for table in ("join_table", "meet_table"):
            assert getattr(L, table).dtype == np.int32
            assert np.array_equal(getattr(L, table), getattr(ref, table))
        assert L.labels == ref.labels == labels


class TestHasse:
    def test_fig3_cover_relation(self, fig3_lattice):
        lat = fig3_lattice.lattice
        names = lat.labels
        covers = {
            (names[a], names[b]) for a, b in hasse_edges(lat)
        }
        assert covers == {
            ("1", "x1*x2*x3"),
            ("1", "x2*x3*x4"),
            ("1", "x4*x5*x6"),
            ("x1*x2*x3", "x1*x2*x3*x4"),
            ("x2*x3*x4", "x1*x2*x3*x4"),
            ("x2*x3*x4", "x2*x3*x4*x5*x6"),
            ("x4*x5*x6", "x2*x3*x4*x5*x6"),
            ("x1*x2*x3*x4", "x1*x2*x3*x4*x5*x6"),
            ("x2*x3*x4*x5*x6", "x1*x2*x3*x4*x5*x6"),
        }

    def test_two_chain(self):
        assert hasse_edges(chain_lattice(2)) == [(0, 1)]

    def test_path_counts_do_not_wrap(self):
        # 256 elements strictly between 0 and 257 once wrapped a uint8 count
        lat = chain_lattice(258)
        covers = hasse_edges(lat)
        assert len(covers) == 257
        assert (0, 257) not in covers
        assert lat.to_json_dict()["atoms"] == [1]


def _iso_pruned_by_join_and_meet(L1, L2):
    """Oracle for is_isomorphic: the same search, which also rejects a
    candidate whose joins or meets with the placed elements map to placed
    images other than the joins or meets of those images."""
    if L1.size != L2.size:
        return None
    n = L1.size
    c1, c2 = lattice._refine_invariants(L1), lattice._refine_invariants(L2)
    if sorted(c1) != sorted(c2):
        return None
    by_color = {}
    for j, c in enumerate(c2):
        by_color.setdefault(c, []).append(j)
    candidates = [by_color[c] for c in c1]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    placed_order = np.array(order)
    mapping = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)

    def consistent(i, j, pos):
        placed = placed_order[:pos]
        image = mapping[placed]
        if (L1.leq[i, placed] != L2.leq[j, image]).any() or (
            L1.leq[placed, i] != L2.leq[image, j]
        ).any():
            return False
        for t1, t2 in ((L1.join_table, L2.join_table), (L1.meet_table, L2.meet_table)):
            mapped = mapping[t1[i, placed]]
            if ((mapped != t2[j, image]) & (mapped != -1)).any():
                return False
        return True

    tried = [0] * n
    pos = 0
    while 0 <= pos < n:
        i = order[pos]
        if mapping[i] != -1:
            used[mapping[i]] = False
            mapping[i] = -1
        cands = candidates[i]
        k = tried[pos]
        while k < len(cands) and (used[cands[k]] or not consistent(i, cands[k], pos)):
            k += 1
        if k == len(cands):
            tried[pos] = 0
            pos -= 1
            continue
        tried[pos] = k + 1
        mapping[i] = cands[k]
        used[cands[k]] = True
        pos += 1
    return None if pos < 0 else mapping.tolist()


def _relabeled_pair(n, edges):
    """The edge ideal of edges in n variables and a copy with the variables
    renamed by a seeded permutation and the edges reversed."""
    rename = np.random.default_rng(n).permutation(n) + 1
    renamed = [{int(rename[v - 1]) for v in e} for e in edges[::-1]]
    return [build_lcm_lattice(edge_ideal(Hypergraph.make(n, es))).lattice
            for es in (edges, renamed)]


def _with_matching(n, edges, k):
    """edges plus k disjoint edges on new variables: the lattice times B_k."""
    return n + 2 * k, edges + [{n + 2 * i + 1, n + 2 * i + 2} for i in range(k)]


def _assert_covers_are_2_intervals(L):
    """L's covers, as its builder derives them, equal the 2-element
    intervals of its order (the reference's float32 product). An
    LcmLattice's are checked both from its keys and on its tables, and the
    first 3-element interval it reads from its keys is the product's."""
    lattices = [L, L.lattice] if hasattr(L, "lattice") else [L]
    sizes = _interval_sizes(lattices[-1])
    expected = list(zip(*(idx.tolist() for idx in np.nonzero(sizes == 2))))
    for lat in lattices:
        assert hasse_edges(lat) == expected
    if len(lattices) == 2:
        assert L.first_3_element_interval() == first_3_element_interval(sizes)


def _matching_lattice(m):
    return build_lcm_lattice(edge_ideal(Hypergraph.make(
        2 * m, [{2 * i + 1, 2 * i + 2} for i in range(m)])))


# M3 x B10 and P4 x B9: the triangle and the path P4, each plus disjoint
# edges; M3 x B6 is the same shape a sixteenth the size
_NEAR_CAP = {"m3xb6": _with_matching(3, [{1, 2}, {1, 3}, {2, 3}], 6),
             "m3xb10": _with_matching(3, [{1, 2}, {1, 3}, {2, 3}], 10),
             "p4xb9": _with_matching(4, [{1, 2}, {2, 3}, {3, 4}], 9)}


class TestCovers:
    """Each builder's covers against the reference's 2-element intervals,
    and each lcm-lattice's first 3-element interval against the reference's."""

    def test_exhaustive_stream_lattices(self):
        ideals = dict.fromkeys(map(edge_ideal, exhaustive_hypergraphs()))
        # the keys fix the lattice, its covers among them
        distinct = {L.keys: L for L in map(build_lcm_lattice, ideals)}
        for L in distinct.values():
            _assert_covers_are_2_intervals(L)

    @settings(max_examples=60, deadline=None)
    @given(I=ideal_strategy(4, 6, 2))
    def test_random_ideals(self, I):
        _assert_covers_are_2_intervals(build_lcm_lattice(I))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matching(self, m):
        _assert_covers_are_2_intervals(_matching_lattice(m))

    @pytest.mark.parametrize("name", _NEAR_CAP)
    def test_near_cap_products(self, name):
        n, edges = _NEAR_CAP[name]
        _assert_covers_are_2_intervals(build_lcm_lattice(edge_ideal(Hypergraph.make(n, edges))))

    def test_products_of_the_pool(self):
        pool = [L for _, L in small_lattice_pool()]
        for L1 in pool:
            for L2 in pool:
                _assert_covers_are_2_intervals(product(L1, L2))

    @pytest.mark.parametrize("L", [boolean_lattice(r) for r in range(7)]
                             + [chain_lattice(n) for n in range(1, 9)]
                             + [pentagon_lattice(), diamond_lattice()])
    def test_literal_builders(self, L):
        _assert_covers_are_2_intervals(L)

    @pytest.mark.parametrize("fixture", ["fig3_lattice", "fig5_lattice", "tetra_lattice"])
    def test_intervals(self, fixture, request):
        lat = request.getfixturevalue(fixture).lattice
        for x, y in zip(*np.nonzero(lat.leq)):
            _assert_covers_are_2_intervals(reference.interval(lat, int(x), int(y))[0])

    def test_exports_fill_no_table(self):
        L = _matching_lattice(8)
        text, dot = lattice_json(L), lattice_dot(L)
        assert "lattice" not in vars(L)
        assert text == lattice_json(L.lattice)
        assert dot.count(" -> ") == 8 << 7

    def test_json_export_near_the_cap_stays_small(self):
        # the 4096 x 4096 join, meet and order tables alone would take 151 MB
        L = _matching_lattice(12)
        tracemalloc.start()
        try:
            lattice_json(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestIsomorphism:
    def test_polarization_example(self):
        I = MonomialIdeal.make(2, [(2, 1), (0, 3)])
        Ip, _ = polarize(I)
        L = build_lcm_lattice(I)
        Lp = build_lcm_lattice(Ip)
        assert is_isomorphic(L.lattice, Lp.lattice) is not None
        assert is_isomorphic(L.lattice, boolean_lattice(2)) is not None

    def test_fig5_vs_fig3(self, fig5_lattice, fig3_lattice):
        mapping = is_isomorphic(fig5_lattice.lattice, fig3_lattice.lattice)
        assert mapping is not None
        # sanity: the bijection preserves join
        l1, l2 = fig5_lattice.lattice, fig3_lattice.lattice
        for a in range(l1.size):
            for b in range(l1.size):
                assert mapping[l1.join(a, b)] == l2.join(mapping[a], mapping[b])

    def test_n5_not_m3(self):
        assert is_isomorphic(pentagon_lattice(), diamond_lattice()) is None

    def test_reflexive(self, fig3_lattice):
        n = fig3_lattice.size
        assert is_isomorphic(fig3_lattice.lattice, fig3_lattice.lattice) == list(range(n))

    def test_long_chain_needs_no_recursion(self):
        # one search level per element, deeper than the default recursion limit
        assert is_isomorphic(chain_lattice(1500), chain_lattice(1500)) == list(range(1500))

    @pytest.mark.parametrize("n,edges", [
        _with_matching(0, [], 6),
        _with_matching(0, [], 8),
        _with_matching(0, [], 10),
        _with_matching(0, [], 12),
        _with_matching(3, [{1, 2}, {1, 3}, {2, 3}], 4),   # M3 x B4
        _with_matching(3, [{1, 2}, {1, 3}, {2, 3}], 6),   # M3 x B6
        _with_matching(4, [{1, 2}, {2, 3}, {3, 4}], 5),   # P4 x B5
    ], ids=["matching6", "matching8", "matching10", "matching12", "M3xB4", "M3xB6", "P4xB5"])
    def test_first_mapping_equals_the_join_meet_pruned_search(self, n, edges):
        # many automorphisms: the order-only search must find the same
        # first mapping, not just some isomorphism
        L1, L2 = _relabeled_pair(n, edges)
        mapping = is_isomorphic(L1, L2)
        assert mapping is not None
        assert mapping == _iso_pruned_by_join_and_meet(L1, L2)

    def test_symmetric(self, fig5_lattice, fig3_lattice):
        ab = is_isomorphic(fig5_lattice.lattice, fig3_lattice.lattice)
        ba = is_isomorphic(fig3_lattice.lattice, fig5_lattice.lattice)
        assert (ab is None) == (ba is None)


def _staircase(g):
    """x^i y^(g-1-i): g generators, 1 + g(g+1)/2 elements."""
    return [(i, g - 1 - i) for i in range(g)]


def _divisor_keys(I, elements):
    """Oracle for LcmLattice.keys: the bitmask of the generators dividing
    each element, by direct divisibility."""
    return tuple(sum(1 << j for j, g in enumerate(I.generators) if all(map(le, g, e)))
                 for e in elements)


def antichain_ideal_strategy(n_max=3, m_max=8, e_max=3):
    # g followed by (e_max - g): every generator has total degree n * e_max,
    # so distinct ones form an antichain and none is lost to minimalization
    return st.integers(2, n_max).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, e_max)] * n), min_size=1, max_size=m_max, unique=True
        ).map(
            lambda gens: MonomialIdeal.make(
                2 * n, [g + tuple(e_max - e for e in g) for g in gens]
            )
        )
    )


def equal_degree_ideal_strategy():
    # 12-16 distinct generators of one total degree in 2-4 variables, so
    # none divides another and minimalization keeps them all
    def ideal(n):
        e = {2: 15, 3: 5, 4: 3}[n]
        head = st.tuples(*[st.integers(0, e)] * (n - 1))
        return st.lists(head, min_size=12, max_size=16, unique=True).map(
            lambda heads: MonomialIdeal.make(n, [h + ((n - 1) * e - sum(h),) for h in heads])
        )

    return st.integers(2, 4).flatmap(ideal)


def squarefree_edge_ideal_strategy(n_max=7, m_max=8):
    return st.integers(2, n_max).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(1, n), min_size=2, max_size=2),
            min_size=1,
            max_size=m_max,
            unique_by=frozenset,
        ).map(lambda edges: edge_ideal(Hypergraph.make(n, edges)))
    )


def wide_ideal_strategy(n_min=70, n_max=80, m_max=6):
    # sparse exponent vectors, exponents up to the cap: neither the ring
    # dimension nor the exponent size may overflow the builder's key
    def ideal(n):
        monomial = st.dictionaries(
            st.sampled_from(range(n)), st.integers(1, MAX_EXPONENT), min_size=1, max_size=6
        ).map(lambda exps: tuple(exps.get(i, 0) for i in range(n)))
        return st.lists(monomial, min_size=1, max_size=m_max).map(
            lambda gens: MonomialIdeal.make(n, gens)
        )

    return st.integers(n_min, n_max).flatmap(ideal)


class TestClosureOracle:
    """build_lcm_lattice against routes that do not share its code."""

    @staticmethod
    def check(I):
        L = build_lcm_lattice(I)
        # the tables and labels are filled on the first read of .lattice
        assert "lattice" not in vars(L)
        assert L.lattice is L.lattice
        expected = enumerate_subset_lcms(I)
        assert list(L.elements) == expected
        exps = np.array(expected, dtype=np.int64)
        divides = (exps[:, None, :] <= exps[None, :, :]).all(axis=2)
        assert np.array_equal(L.lattice.leq, divides)
        ref = from_leq(divides)
        assert np.array_equal(L.lattice.join_table, ref.join_table)
        assert np.array_equal(L.lattice.meet_table, ref.meet_table)
        assert atom_indices(L) == tuple(expected.index(g) for g in I.generators)
        assert L.keys == _divisor_keys(I, expected)
        assert L.lattice.labels == tuple(monomial_str(e) for e in expected)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(ideal_strategy(4, 8, 3), antichain_ideal_strategy()))
    def test_join_closure_equals_subset_enumeration(self, I):
        self.check(I)

    @settings(max_examples=60, deadline=None)
    @given(ideal_strategy(4, 8, 3))
    def test_oracle_equals_a_fold_over_each_subset(self, I):
        # the fold the oracle used before it shared monomials.subset_lcms
        n = I.ring_dimension
        seen = {(0,) * n}
        for r in range(1, len(I.generators) + 1):
            for subset in combinations(I.generators, r):
                acc = subset[0]
                for g in subset[1:]:
                    acc = lcm(acc, g)
                seen.add(acc)
        assert enumerate_subset_lcms(I) == sorted(seen, key=lambda m: (sum(m), m))

    @pytest.mark.parametrize("name", ["fig3_lattice", "tetra_lattice", "fig5_lattice", "p4_lattice"])
    def test_fixture_ideals(self, name, request):
        self.check(request.getfixturevalue(name).ideal)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_random_ideals(self, seed):
        cfg = GeneratorConfig(n_range=(1, 5), m_range=(1, 7), max_exponent=3)
        rng = SplitMix64(seed)
        for _ in range(12):
            try:
                I = random_monomial_ideal(cfg, rng)
            except ValueError:  # no antichain of m monomials in n variables
                continue
            self.check(I)

    def test_element_count_bound(self, fig3_lattice):
        assert fig3_lattice.size <= 1 << fig3_lattice.atom_count

    @settings(max_examples=40, deadline=None)
    @given(squarefree_edge_ideal_strategy())
    def test_edge_ideals(self, I):
        self.check(I)

    @settings(max_examples=15, deadline=None)
    @given(wide_ideal_strategy())
    def test_wide_rings(self, I):
        self.check(I)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(antichain_ideal_strategy(), squarefree_edge_ideal_strategy()))
    def test_tiny_block_budget(self, I):
        # one row per block in each table at 16 bytes a block
        blocks = []
        original = lattice._row_blocks

        def row_blocks(rows, row_bytes):
            blocks.append(original(rows, row_bytes))
            return blocks[-1]

        with mock.patch.object(kernels, "BLOCK_BYTES", 16), \
                mock.patch.object(lattice, "_row_blocks", row_blocks):
            self.check(I)
        size = len(enumerate_subset_lcms(I))
        assert [len(b) for b in blocks] == [size] and size > 1

    @settings(max_examples=15, deadline=None)
    @given(st.one_of(st.just(MonomialIdeal.make(2, _staircase(16))), equal_degree_ideal_strategy()))
    def test_many_generators_few_elements(self, I):
        # 12-16 generators, |L| far below 2^m: the elements, the atoms and
        # the order against the subset oracle
        L = build_lcm_lattice(I)
        expected = enumerate_subset_lcms(I)
        assert L.size < 1 << (len(I.generators) - 2)
        assert list(L.elements) == expected
        assert atom_indices(L) == tuple(expected.index(g) for g in I.generators)
        assert L.keys == _divisor_keys(I, expected)
        exps = np.array(expected, dtype=np.int64)
        divides = (exps[:, None, :] <= exps[None, :, :]).all(axis=2)
        assert np.array_equal(L.lattice.leq, divides)

    def test_closure_never_holds_the_generator_subsets(self):
        # 24 generators, 301 elements: the 2^24 rows of a closure that keeps
        # duplicates would take 256 MiB, and even deduplicating them once
        # per kernels.BLOCK_BYTES of rows passes 1 MiB
        g = lattice.MAX_KEY_BITS
        I = MonomialIdeal.make(2, _staircase(g))
        tracemalloc.start()
        try:
            L = build_lcm_lattice(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert L.size == 1 + g * (g + 1) // 2
        assert peak < 1 << 20

    def test_element_cap_refuses_in_the_round_it_is_passed(self, monkeypatch):
        # a 12-edge matching holds 2^k distinct rows after round k, so a cap
        # of 100 is passed in round 7 and the last 5 generators go unread
        I = edge_ideal(Hypergraph.make(24, [{2 * i + 1, 2 * i + 2} for i in range(12)]))
        monkeypatch.setattr(lattice, "MAX_ELEMENTS", 100)
        rounds = []
        maximum = np.maximum
        monkeypatch.setattr(lattice.np, "maximum",
                            lambda *args: rounds.append(len(args[0])) or maximum(*args))
        with pytest.raises(SizeLimitError, match="lattice exceeds the element cap 100$"):
            build_lcm_lattice(I)
        assert rounds == [1, 2, 4, 8, 16, 32, 64]

    def test_cell_cap_refuses_in_the_round_it_is_passed(self, monkeypatch):
        # a 12-edge star x_i*x_13 holds 2^k rows after round k, so a cap of
        # 32 * 13 cells holds after round 5 and is passed in round 6
        I = edge_ideal(Hypergraph.make(13, [{i, 13} for i in range(1, 13)]))
        monkeypatch.setattr(lattice, "MAX_CELLS", 32 * 13)
        rounds = []
        maximum = np.maximum
        monkeypatch.setattr(lattice.np, "maximum",
                            lambda *args: rounds.append(len(args[0])) or maximum(*args))
        with pytest.raises(SizeLimitError,
                           match="cell cap 416: 64 elements x 13 ring variables$"):
            build_lcm_lattice(I)
        assert rounds == [1, 2, 4, 8, 16, 32]

    def test_cell_cap_boundary(self, monkeypatch):
        # a 5-edge star: 32 elements x 6 variables
        I = edge_ideal(Hypergraph.make(6, [{i, 6} for i in range(1, 6)]))
        monkeypatch.setattr(lattice, "MAX_CELLS", 32 * 6)
        assert build_lcm_lattice(I).size == 32
        monkeypatch.setattr(lattice, "MAX_CELLS", 32 * 6 - 1)
        with pytest.raises(SizeLimitError, match="32 elements x 6 ring variables$"):
            build_lcm_lattice(I)

    @settings(max_examples=20, deadline=None)
    @given(ideal_strategy(4, 6, 3))
    def test_element_cap_boundary(self, I):
        size = len(enumerate_subset_lcms(I))
        # hypothesis runs the body many times per test, so each run undoes
        # its own patch rather than use the monkeypatch fixture
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "MAX_ELEMENTS", size)
            assert build_lcm_lattice(I).size == size
            mp.setattr(lattice, "MAX_ELEMENTS", size - 1)
            with pytest.raises(SizeLimitError,
                               match=f"lattice exceeds the element cap {size - 1}$"):
                build_lcm_lattice(I)

    def test_key_width_cap(self):
        n = 25
        I = MonomialIdeal.make(n, [tuple(int(i == j) for i in range(n)) for j in range(n)])
        with pytest.raises(SizeLimitError, match="at most 24"):
            build_lcm_lattice(I)

    def test_key_width_cap_builds(self):
        # the widest subset table the fill takes: 2^24 entries
        g = lattice.MAX_KEY_BITS
        I = MonomialIdeal.make(2, _staircase(g))
        L = build_lcm_lattice(I)
        assert L.size == 1 + g * (g + 1) // 2
        assert L.keys == _divisor_keys(I, L.elements)
        exps = np.array(L.elements, dtype=np.int64)
        divides = (exps[:, None, :] <= exps[None, :, :]).all(axis=2)
        ref = from_leq(divides)
        assert np.array_equal(L.lattice.leq, divides)
        assert np.array_equal(L.lattice.join_table, ref.join_table)
        assert np.array_equal(L.lattice.meet_table, ref.meet_table)

    def test_past_key_width_refused_before_allocating(self):
        g = lattice.MAX_KEY_BITS + 1
        I = MonomialIdeal.make(2, _staircase(g))
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=f"at most {g - 1}$"):
                build_lcm_lattice(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_wide_polarized_ring_costs_no_memory_per_variable(self):
        # 60,000 variables after polarization, 16 elements: the sort is
        # over the elements, not over the variables
        I, _ = polarize(MonomialIdeal.make(
            3, [(20000, 1, 0), (0, 20000, 1), (1, 0, 20000), (7000, 7000, 7000)]))
        assert I.ring_dimension == 60000
        tracemalloc.start()
        try:
            L = build_lcm_lattice(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 << 20
        assert list(L.elements) == enumerate_subset_lcms(I)

    def test_wide_ring_holds_each_element_once(self):
        # 9,000 variables after polarization, 39 elements: the element
        # tuples hold 8 bytes per variable each, and the build peaks under
        # twice that, so no second full-width copy of the elements is held
        I, _ = polarize(MonomialIdeal.make(3, [
            (3000, 1, 0), (0, 3000, 1), (1, 0, 3000), (1000, 1000, 1000),
            (2000, 500, 10), (10, 2000, 500)]))
        tracemalloc.start()
        try:
            L = build_lcm_lattice(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (I.ring_dimension, L.size) == (9000, 39)
        assert peak < 2 * 8 * I.ring_dimension * L.size
        assert list(L.elements) == enumerate_subset_lcms(I)

    def test_boolean_join_and_meet_are_union_and_intersection(self):
        # a 12-edge matching: every generator subset is an element key
        L = build_lcm_lattice(_disjoint_ideal([[(1, 1)]] * 12))
        assert L.size == 1 << 12
        keys = np.array(L.keys, dtype=np.int64)
        assert np.array_equal(np.sort(keys), np.arange(1 << 12))
        for blk in kernels._row_blocks(L.size, 64 * L.size):
            ka, kb = keys[blk, None], keys[None, :]
            assert np.array_equal(keys[L.lattice.join_table[blk]], ka | kb)
            assert np.array_equal(keys[L.lattice.meet_table[blk]], ka & kb)


def _disjoint_ideal(blocks):
    """The sum of ideals in disjoint variables, whose lcm-lattice is the product."""
    n = sum(len(block[0]) for block in blocks)
    gens, offset = [], 0
    for block in blocks:
        for g in block:
            gens.append((0,) * offset + g + (0,) * (n - offset - len(g)))
        offset += len(block[0])
    return MonomialIdeal.make(n, gens)


class TestElementCap:
    def test_default_cap_keeps_check_peak_under_1gb(self):
        # peak bytes per table cell of building and checking lattices past
        # SWEEP_LIMIT (the tables plus the searches' n x n key temporaries),
        # scaled to the cap; nothing of the cap's size is built
        assert lattice.MAX_ELEMENTS >= 1 << 12  # a 12-edge matching builds
        edge, m3, p4 = [(1, 1)], [(1, 1, 0), (0, 1, 1), (1, 0, 1)], [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
        for blocks in ([edge] * 9, [edge] * 6 + [p4], [m3] * 3 + [edge] * 2):
            tracemalloc.start()
            try:
                L = build_lcm_lattice(_disjoint_ideal(blocks))
                all_properties(L)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert L.size > SWEEP_LIMIT
            assert peak / L.size**2 * lattice.MAX_ELEMENTS**2 < 1e9

    def test_default_cap_refuses_past_it_before_allocating(self):
        # 2 * 7 * 16 * 29 = 6496 elements from 16 generators; the tables alone
        # would take 6496^2 * 9 bytes = 380 MB
        blocks = [[(1,)]] + [_staircase(g) for g in (3, 5, 7)]
        assert [build_lcm_lattice(_disjoint_ideal([b])).size for b in blocks] == [2, 7, 16, 29]
        I = _disjoint_ideal(blocks)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="lattice exceeds the element cap 6000$"):
                build_lcm_lattice(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


FIG3_DOT = """\
digraph lcmlattice {
  rankdir=BT;
  "1" [label="0̂"];
  "x4*x5*x6" [label="x4*x5*x6"];
  "x2*x3*x4" [label="x2*x3*x4"];
  "x1*x2*x3" [label="x1*x2*x3"];
  "x1*x2*x3*x4" [label="x1*x2*x3*x4"];
  "x2*x3*x4*x5*x6" [label="x2*x3*x4*x5*x6"];
  "x1*x2*x3*x4*x5*x6" [label="x1*x2*x3*x4*x5*x6"];
  { rank=same; "1" }
  { rank=same; "x4*x5*x6" "x2*x3*x4" "x1*x2*x3" }
  { rank=same; "x1*x2*x3*x4" }
  { rank=same; "x2*x3*x4*x5*x6" }
  { rank=same; "x1*x2*x3*x4*x5*x6" }
  "1" -> "x4*x5*x6";
  "1" -> "x2*x3*x4";
  "1" -> "x1*x2*x3";
  "x4*x5*x6" -> "x2*x3*x4*x5*x6";
  "x2*x3*x4" -> "x1*x2*x3*x4";
  "x2*x3*x4" -> "x2*x3*x4*x5*x6";
  "x1*x2*x3" -> "x1*x2*x3*x4";
  "x1*x2*x3*x4" -> "x1*x2*x3*x4*x5*x6";
  "x2*x3*x4*x5*x6" -> "x1*x2*x3*x4*x5*x6";
}
"""


def _lcm_keys_order(L):
    """The order _fill_tables used to store: key(a) a subset of key(b)."""
    keys = np.array(L.keys, dtype=np.int64)
    return (keys[:, None] & ~keys[None, :]) == 0


def _built_with_their_orders():
    """(lattice, the order its builder used to store) for every builder."""
    cases = []
    for I in (edge_ideal(Hypergraph.make(6, [{1, 2, 3}, {2, 3, 4}, {4, 5, 6}])),
              MonomialIdeal.make(2, _staircase(9)),
              random_monomial_ideal(GeneratorConfig(seed=5, n_range=(4, 4), m_range=(6, 6)))):
        L = build_lcm_lattice(I)
        cases.append((L.lattice, _lcm_keys_order(L)))
    L1, L2 = pentagon_lattice(), cases[0][0]
    n = L1.size * L2.size
    cases.append((product(L1, L2),
                   (L1.leq[:, None, :, None] & L2.leq[None, :, None, :]).reshape(n, n)))
    masks = np.arange(1 << 4, dtype=np.int64)
    subsets = (masks[:, None] & masks[None, :]) == masks[:, None]
    cases.append((boolean_lattice(4), subsets))
    idx = np.arange(6)
    chain = idx[:, None] <= idx[None, :]
    cases.append((chain_lattice(6), chain))
    whole = cases[1][0]
    sub, original = reference.interval(whole, 1, whole.size - 3)
    cases.append((sub, whole.leq[np.ix_(original, original)]))
    # the tests' reference builder, with labels and without
    cases.append((from_leq(subsets, [f"s{i}" for i in range(16)]), subsets))
    cases.append((from_leq(chain), chain))
    return cases


class TestDerivedOrder:
    """The order is read off the meet table: a <= b exactly when a ^ b = a."""

    @pytest.mark.parametrize("L,order", _built_with_their_orders())
    def test_derived_order_equals_the_builders_formula(self, L, order):
        assert np.array_equal(L.leq, order)
        assert L.leq is L.leq

    @pytest.mark.parametrize("L,_", _built_with_their_orders())
    def test_tables_are_read_only(self, L, _):
        for table in (L.leq, L.join_table, L.meet_table):
            with pytest.raises(ValueError):
                table[0, 0] = table[0, 0]
        with pytest.raises(AttributeError):
            L.leq = np.ones_like(L.leq)

    @pytest.mark.parametrize("L,_", _built_with_their_orders())
    def test_label_agrees_with_labels(self, L, _):
        assert [L.names(i) for i in range(L.size)] == list(L.labels)

    def test_product_renders_no_factor_label_until_one_is_read(self):
        rendered = []

        def counting(L):
            return FiniteLattice(L.join_table, L.meet_table,
                                 lambda i: rendered.append(i) or str(i), covers=L.covers)

        P = product(counting(boolean_lattice(3)), counting(chain_lattice(4)))
        assert not rendered
        assert P.names(13) == "(3,1)"
        assert rendered == [3, 1]


class TestExports:
    def test_json_shape(self, fig3_lattice):
        import json

        obj = json.loads(lattice_json(fig3_lattice.lattice))
        assert set(obj) == {"elements", "atoms", "covers"}
        assert len(obj["elements"]) == 7
        assert len(obj["covers"]) == 9
        assert sorted(obj["atoms"]) == [1, 2, 3]

    def test_dot_output(self, fig3_lattice):
        dot = lattice_dot(fig3_lattice)
        assert dot.startswith("digraph")
        assert dot.count(" -> ") == 9
        assert '"1" [label="0̂"]' in dot

    def test_dot_is_pinned(self, fig3_lattice):
        assert lattice_dot(fig3_lattice) == FIG3_DOT

import json
import tracemalloc
from itertools import combinations
from operator import le
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlat import lattice
from lcmlat.audit import GeneratorConfig, SplitMix64, random_monomial_ideal
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
    lcm,
    minimalize,
    monomial_str,
    polarize,
)
from lcmlat.properties import SWEEP_LIMIT, all_properties, is_complemented
from strategies import ideal_strategy


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
        assert sorted(fig3_lattice.atom_indices) == [1, 2, 3]

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
        L = build_lcm_lattice(MonomialIdeal.make(2, _staircase(17)), max_generators=17)
        assert L.size == 154
        verdicts = json.dumps([v.to_json_dict() for v in all_properties(L)])
        named = {m for m in L.elements if f'"label": "{monomial_str(m)}"' in verdicts}
        # the witnesses name 14 labels of 7 elements, each rendered once
        assert len(named) == 7
        assert sorted(rendered) == sorted(named)

    def test_tetrahedron_elements(self, tetra_lattice):
        assert tetra_lattice.size == 6
        assert tetra_lattice.elements[-1] == (1, 1, 1, 1)
        assert len(tetra_lattice.atom_indices) == 4

    def test_single_generator(self):
        L = build_lcm_lattice(MonomialIdeal.make(2, [(1, 1)]))
        assert L.size == 2

    def test_generator_cap(self):
        I = MonomialIdeal.make(3, [(1, 1, 0), (0, 1, 1)])
        with pytest.raises(SizeLimitError):
            build_lcm_lattice(I, max_generators=1)

    def test_bottom_and_top(self, fig3_lattice):
        lat = fig3_lattice.lattice
        assert lat.bottom == 0
        assert lat.top == lat.size - 1


class TestJoinMeet:
    def test_fig3_join_to_top(self, fig3_lattice):
        lat = fig3_lattice.lattice
        x123 = lat.index_of_label("x1*x2*x3")
        x456 = lat.index_of_label("x4*x5*x6")
        assert lat.join(x123, x456) == lat.top

    def test_bottom_identity(self, fig3_lattice):
        lat = fig3_lattice.lattice
        for e in range(lat.size):
            assert lat.join(0, e) == e
            assert lat.meet(lat.top, e) == e

    def test_tetra_atom_joins_are_top(self, tetra_lattice):
        lat = tetra_lattice.lattice
        a, b = tetra_lattice.atom_indices[:2]
        assert lat.join(a, b) == lat.top

    def test_fig3_meets(self, fig3_lattice):
        lat = fig3_lattice.lattice
        x456 = lat.index_of_label("x4*x5*x6")
        x1234 = lat.index_of_label("x1*x2*x3*x4")
        x23456 = lat.index_of_label("x2*x3*x4*x5*x6")
        x234 = lat.index_of_label("x2*x3*x4")
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
        sub, idx = interval(lat, 0, lat.top)
        assert sub.size == lat.size
        assert idx == list(range(lat.size))

    def test_p4_upper_interval_is_chain(self, p4_lattice):
        lat = p4_lattice.lattice
        x12 = lat.index_of_label("x1*x2")
        sub, idx = interval(lat, x12, lat.top)
        assert sub.size == 3
        assert [lat.labels[i] for i in idx] == [
            "x1*x2", "x1*x2*x3", "x1*x2*x3*x4",
        ]

    def test_singleton(self, fig3_lattice):
        sub, _ = interval(fig3_lattice.lattice, 2, 2)
        assert sub.size == 1

    def test_incomparable_rejected(self, fig3_lattice):
        lat = fig3_lattice.lattice
        with pytest.raises(ValueError):
            interval(lat, 1, 3)


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
        with pytest.raises(SizeLimitError):
            product(boolean_lattice(3), boolean_lattice(3), max_size=10)

    def test_default_cap_refuses_just_past_it_before_allocating(self):
        L1, L2 = chain_lattice(37), chain_lattice(173)
        assert L1.size * L2.size == lattice.DEFAULT_MAX_PRODUCT + 1
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
        assert peak / P.size**2 * lattice.DEFAULT_MAX_PRODUCT**2 < 1e9

    def test_tables_are_the_peak(self):
        # the bool leq and int32 join/meet are 9 bytes per cell; no wider
        # temporary of the product's size is built
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

    def test_rank_cap(self):
        with pytest.raises(SizeLimitError):
            boolean_lattice(5, max_rank=4)

    def test_rank3_cover_count(self):
        assert len(hasse_edges(boolean_lattice(3))) == 12


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
        ref = FiniteLattice.from_leq(divides)
        assert np.array_equal(L.lattice.join_table, ref.join_table)
        assert np.array_equal(L.lattice.meet_table, ref.meet_table)
        assert L.atom_indices == tuple(expected.index(g) for g in I.generators)
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
        # many row blocks in each table
        with mock.patch.object(lattice, "BLOCK_BYTES", 64):
            self.check(I)

    @settings(max_examples=15, deadline=None)
    @given(st.one_of(st.just(MonomialIdeal.make(2, _staircase(16))), equal_degree_ideal_strategy()))
    def test_many_generators_few_elements(self, I):
        # 12-16 generators, |L| far below 2^m: the elements, the atoms and
        # the order against the subset oracle
        L = build_lcm_lattice(I)
        expected = enumerate_subset_lcms(I)
        assert L.size < 1 << (len(I.generators) - 2)
        assert list(L.elements) == expected
        assert L.atom_indices == tuple(expected.index(g) for g in I.generators)
        assert L.keys == _divisor_keys(I, expected)
        exps = np.array(expected, dtype=np.int64)
        divides = (exps[:, None, :] <= exps[None, :, :]).all(axis=2)
        assert np.array_equal(L.lattice.leq, divides)

    def test_closure_never_holds_the_generator_subsets(self):
        # 24 generators, 301 elements: the 2^24 rows of a closure that keeps
        # duplicates would take 256 MiB, and even deduplicating them once
        # per BLOCK_BYTES of rows passes 1 MiB
        g = lattice.MAX_KEY_BITS
        I = MonomialIdeal.make(2, _staircase(g))
        tracemalloc.start()
        try:
            L = build_lcm_lattice(I, max_generators=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert L.size == 1 + g * (g + 1) // 2
        assert peak < 1 << 20

    def test_element_cap_refuses_in_the_round_it_is_passed(self, monkeypatch):
        # a 12-edge matching holds 2^k distinct rows after round k, so a cap
        # of 100 is passed in round 7 and the last 5 generators go unread
        I = edge_ideal(Hypergraph.make(24, [{2 * i + 1, 2 * i + 2} for i in range(12)]))
        rounds = []
        maximum = np.maximum
        monkeypatch.setattr(lattice.np, "maximum",
                            lambda *args: rounds.append(len(args[0])) or maximum(*args))
        with pytest.raises(SizeLimitError, match="lattice exceeds the element cap 100$"):
            build_lcm_lattice(I, max_elements=100)
        assert rounds == [1, 2, 4, 8, 16, 32, 64]

    @settings(max_examples=20, deadline=None)
    @given(ideal_strategy(4, 6, 3))
    def test_element_cap_boundary(self, I):
        size = len(enumerate_subset_lcms(I))
        assert build_lcm_lattice(I, max_elements=size).size == size
        with pytest.raises(SizeLimitError, match=f"lattice exceeds the element cap {size - 1}$"):
            build_lcm_lattice(I, max_elements=size - 1)

    def test_key_width_cap(self):
        n = 25
        I = MonomialIdeal.make(n, [tuple(int(i == j) for i in range(n)) for j in range(n)])
        with pytest.raises(SizeLimitError, match="at most 24"):
            build_lcm_lattice(I, max_generators=n)

    def test_key_width_cap_builds(self):
        # the widest subset table the fill takes: 2^24 entries
        g = lattice.MAX_KEY_BITS
        I = MonomialIdeal.make(2, _staircase(g))
        L = build_lcm_lattice(I, max_generators=g)
        assert L.size == 1 + g * (g + 1) // 2
        assert L.keys == _divisor_keys(I, L.elements)
        exps = np.array(L.elements, dtype=np.int64)
        divides = (exps[:, None, :] <= exps[None, :, :]).all(axis=2)
        ref = FiniteLattice.from_leq(divides)
        assert np.array_equal(L.lattice.leq, divides)
        assert np.array_equal(L.lattice.join_table, ref.join_table)
        assert np.array_equal(L.lattice.meet_table, ref.meet_table)

    def test_past_key_width_refused_before_allocating(self):
        g = lattice.MAX_KEY_BITS + 1
        I = MonomialIdeal.make(2, _staircase(g))
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=f"at most {g - 1}$"):
                build_lcm_lattice(I, max_generators=g)
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

    def test_boolean_join_and_meet_are_union_and_intersection(self):
        # a 12-edge matching: every generator subset is an element key
        L = build_lcm_lattice(_disjoint_ideal([[(1, 1)]] * 12))
        assert L.size == 1 << 12
        keys = np.array(L.keys, dtype=np.int64)
        assert np.array_equal(np.sort(keys), np.arange(1 << 12))
        for blk in lattice._row_blocks(L.size, 64 * L.size):
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
        assert lattice.DEFAULT_MAX_ELEMENTS >= 1 << 12  # a 12-edge matching builds
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
            assert peak / L.size**2 * lattice.DEFAULT_MAX_ELEMENTS**2 < 1e9

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

import time
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlat.audit import GeneratorConfig, _instances_for
from lcmlat.monomials import (
    MAX_CELLS,
    MAX_EXPONENT,
    MAX_KEY_BITS,
    MAX_RING_DIMENSION,
    DimensionMismatch,
    Hypergraph,
    MonomialIdeal,
    edge_ideal,
    ideal_to_text,
    minimalize,
    monomial_str,
    parse_hypergraph_json,
    parse_ideal_text,
    parse_monomial,
    polarize,
    subset_lcms,
    unit,
)
from reference import divides, lcm
from strategies import exhaustive_hypergraphs, ideal_strategy

monomials = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.integers(0, 6)] * n)
)


def same_dim_triples():
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(*[st.tuples(*[st.integers(0, 6)] * n)] * 3)
    )


class TestLcmDivides:
    """The tests' reference lcm and divides (tests/reference.py)."""

    def test_lcm_worked_example(self):
        assert lcm((2, 1), (0, 3)) == (2, 3)

    def test_unit_is_identity(self):
        m = (3, 0, 2)
        assert lcm(m, unit(3)) == m

    def test_figure3_element(self):
        assert lcm((1, 1, 1, 0), (0, 1, 1, 1)) == (1, 1, 1, 1)

    def test_divides_hasse_edge(self):
        # x2x3x4 | x2x3x4x5x6
        assert divides((0, 1, 1, 1, 0, 0), (0, 1, 1, 1, 1, 1))

    def test_divides_reflexive(self):
        assert divides((2, 0, 1), (2, 0, 1))

    def test_divides_incomparable(self):
        assert not divides((1, 1, 1, 0), (0, 1, 1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lcm((1, 0), (1, 0, 0))
        with pytest.raises(DimensionMismatch):
            divides((1,), (1, 0))

    @given(same_dim_triples())
    def test_lcm_laws(self, triple):
        a, b, c = triple
        assert lcm(a, b) == lcm(b, a)
        assert lcm(a, lcm(b, c)) == lcm(lcm(a, b), c)
        assert lcm(a, a) == a
        assert lcm(a, unit(len(a))) == a

    @given(same_dim_triples())
    def test_divides_antisymmetry(self, triple):
        a, b, _ = triple
        if divides(a, b) and divides(b, a):
            assert a == b


class TestSubsetLcms:
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6)))
    def test_each_mask_is_the_lcm_of_its_generators(self, gens):
        n = len(gens[0]) if gens else 2
        got = list(subset_lcms(gens, n))
        assert [mask for mask, _ in got] == list(range(1 << len(gens)))
        for mask, m in got:
            acc = unit(n)
            for i, g in enumerate(gens):
                if mask >> i & 1:
                    acc = lcm(acc, g)
            assert m == acc


class TestMinimalize:
    def test_containment(self):
        assert minimalize([(1, 1, 0), (1, 1, 1)]) == [(1, 1, 0)]

    def test_incomparable_kept(self):
        gens = [(1, 1, 0, 0), (0, 0, 1, 1)]
        assert minimalize(gens) == gens

    def test_dominated_third(self):
        gens = [(2, 1), (1, 2), (2, 2)]
        assert minimalize(gens) == [(2, 1), (1, 2)]

    def test_all_units_rejected(self):
        with pytest.raises(ValueError):
            minimalize([(0, 0), (0, 0)])

    @given(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=8))
    def test_idempotent(self, gens):
        try:
            once = minimalize(gens)
        except ValueError:
            return
        assert minimalize(once) == once


class TestEdgeIdeal:
    def test_fig3(self, fig3_hypergraph):
        I = edge_ideal(fig3_hypergraph)
        assert I.generator_strings() == ["x1*x2*x3", "x2*x3*x4", "x4*x5*x6"]

    def test_tetrahedron(self, tetrahedron):
        I = edge_ideal(tetrahedron)
        assert I.generator_strings() == [
            "x1*x2*x3", "x1*x2*x4", "x1*x3*x4", "x2*x3*x4",
        ]

    def test_single_edge(self):
        I = edge_ideal(Hypergraph.make(2, [{1, 2}]))
        assert I.generator_strings() == ["x1*x2"]


def _rechecked(I):
    """I rebuilt by the public constructor, which runs every check."""
    return MonomialIdeal(I.ring_dimension, I.generators)


class TestMinimalByConstruction:
    """make, edge_ideal, polarize and the audit's ideal sampler skip the
    constructor's checks; their outputs pass them all."""

    @settings(max_examples=200, deadline=None)
    @given(ideal_strategy(5, 7, 4))
    def test_make_hypothesis_ideals(self, I):
        # ideal_strategy builds each ideal with MonomialIdeal.make
        assert _rechecked(I) == I

    def test_make_keeps_the_ring_check(self):
        with pytest.raises(DimensionMismatch, match="expected 3 exponents, got 2"):
            MonomialIdeal.make(3, [(1, 0), (0, 1)])

    # the audit-stream bench's two seeded ideal streams (seed 41, m 1..5)
    @pytest.mark.parametrize("n_range, count", [((1, 4), 200), ((1, 5), 480)])
    def test_sampler_bench_streams(self, n_range, count):
        cfg = GeneratorConfig(seed=41, n_range=n_range, m_range=(1, 5), count=count)
        ideals = list(_instances_for("birkhoff-crosscheck", cfg))
        assert len(ideals) == count
        for I in ideals:
            assert _rechecked(I) == I

    def test_exhaustive_streams(self):
        for H in exhaustive_hypergraphs():
            I = edge_ideal(H)
            assert _rechecked(I) == I
            Ip = polarize(I)[0]
            assert _rechecked(Ip) == Ip

    @settings(max_examples=200, deadline=None)
    @given(ideal_strategy(5, 7, 4))
    def test_polarize_hypothesis_ideals(self, I):
        Ip = polarize(I)[0]
        assert _rechecked(Ip) == Ip

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.frozensets(st.integers(1, n), min_size=1), min_size=1, max_size=8,
        unique=True).map(lambda edges: (n, edges))))
    def test_edge_ideal_hypothesis_hypergraphs(self, drawn):
        n, edges = drawn
        antichain = [e for e in edges if not any(f < e for f in edges)]
        I = edge_ideal(Hypergraph.make(n, antichain))
        Ip = polarize(I)[0]
        assert _rechecked(I) == I and _rechecked(Ip) == Ip

    def test_no_edges_is_refused(self):
        with pytest.raises(ValueError, match="at least one generator"):
            edge_ideal(Hypergraph.make(3, []))

    def test_wide_edge_ideal_is_refused_before_any_row(self):
        # 33 one-vertex edges in the widest readable ring: 33 * 2^20 cells,
        # one edge's worth over MAX_CELLS = 2^25; the rows would take 8 MB each
        H = Hypergraph.make(MAX_RING_DIMENSION, [{v} for v in range(1, 34)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"edge ideal exceeds the cell cap {MAX_CELLS}: "
                                                 "33 edges x 1048576 ring variables"):
                edge_ideal(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_edge_ideal_past_key_width_is_refused_before_any_row(self):
        # 25 one-vertex edges in the widest readable ring, under the cell cap;
        # the lattice builder would refuse the ideal after 25 rows of 8 MB
        H = Hypergraph.make(MAX_RING_DIMENSION, [{v} for v in range(1, MAX_KEY_BITS + 2)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^ideal has 25 generators; the subset table "
                                                 "of the lattice fill holds at most 24$"):
                edge_ideal(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_polarize_wide_staircase_in_under_a_second(self):
        # x1^a*x2^(1000-a), 0 < a < 1000: 999 generators in 1998 slots; the
        # pairwise re-check alone would compare 498,501 pairs of 1998 slots
        I = MonomialIdeal(2, tuple((a, 1000 - a) for a in range(1, 1000)))
        start = time.perf_counter()
        Ip, pmap = polarize(I)
        assert time.perf_counter() - start < 1.0
        assert (Ip.ring_dimension, len(Ip.generators)) == (1998, 999)


class TestHypergraph:
    def test_nested_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.make(3, [{1, 2}, {1, 2, 3}])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph.make(3, [{1, 2}, {2, 1}])

    def test_uniformity(self, fig3_hypergraph):
        assert fig3_hypergraph.uniformity() == 3
        mixed = Hypergraph.make(4, [{1, 2}, {2, 3, 4}])
        assert mixed.uniformity() is None

    def test_connectivity(self):
        assert Hypergraph.make(3, [{1, 2}, {2, 3}]).is_connected()
        assert not Hypergraph.make(4, [{1, 2}, {3, 4}]).is_connected()
        # isolated vertex disconnects
        assert not Hypergraph.make(3, [{1, 2}]).is_connected()

    def test_uncovered_vertex_disconnects_without_per_vertex_cost(self):
        H = Hypergraph.make(MAX_RING_DIMENSION, [{1, 2}, {2, 3}])
        tracemalloc.start()
        try:
            assert not H.is_connected()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _pure_powers(n: int) -> MonomialIdeal:
    """x_i^MAX_EXPONENT for i <= n: n * MAX_EXPONENT polarized variables."""
    return MonomialIdeal.make(n, [tuple(MAX_EXPONENT * (i == j) for i in range(n))
                                  for j in range(n)])


class TestPolarize:
    def test_ring_over_cap_is_refused_before_any_generator(self):
        # 17 * 65536 = 1,114,112 slots: no file reader accepts that ring
        I = _pure_powers(17)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="polarized ring dimension 1114112 "
                                                 "exceeds the cap 1048576"):
                polarize(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20

    def test_cells_over_cap_are_refused_before_any_generator(self):
        # 33 generators in a ring of 16 * 65536 = 2^20 slots, the ring cap:
        # 33 * 2^20 cells, one generator's worth over MAX_CELLS = 2^25
        gens = _pure_powers(16).generators + tuple(
            (a, MAX_EXPONENT - a) + (0,) * 14 for a in range(1, 18))
        I = MonomialIdeal(16, gens)
        assert len(I.generators) * 16 * MAX_EXPONENT == MAX_CELLS + (1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"exceeds the cell cap {MAX_CELLS}: "
                                                 "33 generators x 1048576 ring variables"):
                polarize(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_worked_example(self):
        I = MonomialIdeal.make(2, [(2, 1), (0, 3)])
        Ip, pmap = polarize(I)
        assert pmap.slot_counts == (2, 3)
        assert Ip.ring_dimension == 5
        # x11 x12 x21 and x21 x22 x23
        assert Ip.generators == ((1, 1, 1, 0, 0), (0, 0, 1, 1, 1))
        assert pmap.variable_names() == ["x1_1", "x1_2", "x2_1", "x2_2", "x2_3"]

    def test_pure_power(self):
        I = MonomialIdeal.make(1, [(3,)])
        Ip, _ = polarize(I)
        assert Ip.generators == ((1, 1, 1),)

    def test_squarefree_fixed_up_to_renaming(self, fig3_hypergraph):
        I = edge_ideal(fig3_hypergraph)
        Ip, pmap = polarize(I)
        assert Ip.ring_dimension == I.ring_dimension
        assert set(Ip.generators) == set(I.generators)
        assert all(max(g) <= 1 for g in Ip.generators)

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=5))
    def test_depolarize_recovers_generators(self, raw):
        raw = [g for g in raw if any(g)]
        if not raw:
            return
        I = MonomialIdeal.make(3, raw)
        Ip, pmap = polarize(I)
        # collapse each variable's slots back to its exponent
        ends = list(accumulate(pmap.slot_counts))
        starts = [0] + ends[:-1]
        collapsed = [tuple(sum(g[a:b]) for a, b in zip(starts, ends)) for g in Ip.generators]
        assert collapsed == list(I.generators)

    @staticmethod
    def per_slot(I):
        """Oracle: (slot counts, generators) with each slot's index looked up
        one at a time, as the sum of the slot counts of the earlier variables."""
        n = I.ring_dimension
        slot_counts = tuple(max(g[i] for g in I.generators) for i in range(n))
        gens = []
        for g in I.generators:
            exps = [0] * sum(slot_counts)
            for i in range(1, n + 1):
                for k in range(1, g[i - 1] + 1):
                    exps[sum(slot_counts[: i - 1]) + k - 1] = 1
            gens.append(tuple(exps))
        return slot_counts, tuple(gens)

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=5))
    def test_matches_per_slot_oracle(self, raw):
        raw = [g for g in raw if any(g)]
        if not raw:
            return
        I = MonomialIdeal.make(3, raw)
        Ip, pmap = polarize(I)
        assert (pmap.slot_counts, Ip.generators) == self.per_slot(I)

    def test_matches_per_slot_oracle_at_exponent_cap(self):
        # x1^cap*x2, x2^cap*x3, ..., x5^cap*x1: 5 * cap polarized variables
        gens = [tuple(MAX_EXPONENT if j == i else int(j == (i + 1) % 5) for j in range(5))
                for i in range(5)]
        I = MonomialIdeal(5, tuple(gens))
        Ip, pmap = polarize(I)
        assert Ip.ring_dimension == 5 * MAX_EXPONENT
        assert (pmap.slot_counts, Ip.generators) == self.per_slot(I)


class TestIdealInvariants:
    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 0), (1, 1)))

    def test_non_minimal_names_first_pair(self):
        # two offending pairs, (x1*x2, x1) and (x3, x3*x4): the first in
        # generator-pair order is named, in generator order
        with pytest.raises(ValueError, match=r"^generating set not minimal: x1\*x2 vs x1$"):
            MonomialIdeal(4, ((1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 1, 1)))

    def test_unit_generator_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((0, 0),))

    def test_exponent_cap(self):
        with pytest.raises(ValueError):
            MonomialIdeal(1, ((1 << 17,),))


class TestParsing:
    def test_monomial_grammar(self):
        assert parse_monomial("x1^2*x2", 3) == (2, 1, 0)
        assert parse_monomial("1", 2) == (0, 0)
        assert parse_monomial("x3", 3) == (0, 0, 1)

    def test_monomial_str_roundtrip(self):
        for m in [(2, 1, 0), (0, 0, 0), (1, 0, 3)]:
            assert parse_monomial(monomial_str(m), 3) == m

    def test_bad_monomials(self):
        with pytest.raises(ValueError):
            parse_monomial("x0", 2)
        with pytest.raises(ValueError):
            parse_monomial("y1", 2)
        with pytest.raises(ValueError):
            parse_monomial("x5", 2)

    def test_ideal_file_roundtrip(self):
        text = "# a comment\nring 2\nx1^2*x2\nx2^3\n"
        I = parse_ideal_text(text)
        assert I.generators == ((2, 1), (0, 3))
        assert parse_ideal_text(ideal_to_text(I)).generators == I.generators

    def test_ideal_file_minimalizes(self):
        I = parse_ideal_text("ring 2\nx1\nx1*x2\n")
        assert I.generators == ((1, 0),)

    def test_hypergraph_json(self):
        H = parse_hypergraph_json('{"n": 4, "edges": [[1,2],[2,3,4]]}')
        assert H.vertex_count == 4
        assert H.sorted_edges() == [(1, 2), (2, 3, 4)]

    def test_hypergraph_repeated_vertex_refused(self):
        with pytest.raises(ValueError, match=r"edge \[1, 1, 2\] lists a vertex more than once"):
            parse_hypergraph_json('{"n": 3, "edges": [[1, 1, 2], [2, 3]]}')

    def test_ring_dimension_cap_is_admitted(self):
        I = parse_ideal_text(f"ring {MAX_RING_DIMENSION}\nx{MAX_RING_DIMENSION}\n")
        assert I.ring_dimension == MAX_RING_DIMENSION
        assert I.generators[0][-1] == 1
        H = parse_hypergraph_json(f'{{"n": {MAX_RING_DIMENSION}, "edges": [[1, 2]]}}')
        assert H.vertex_count == MAX_RING_DIMENSION

    @pytest.mark.parametrize("parse, text, message", [
        (parse_ideal_text, f"ring {MAX_RING_DIMENSION + 1}\nx1\n", "ring dimension"),
        (parse_hypergraph_json, f'{{"n": {MAX_RING_DIMENSION + 1}, "edges": [[1, 2]]}}',
         "vertex count"),
    ])
    def test_over_the_cap_refused_before_allocation(self, parse, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{message} {MAX_RING_DIMENSION + 1} "
                                                 f"exceeds the cap {MAX_RING_DIMENSION}$"):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_ideal_header(self):
        with pytest.raises(ValueError):
            parse_ideal_text("x1*x2\n")

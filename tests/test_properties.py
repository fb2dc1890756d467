from dataclasses import replace

import pytest

from lcmlat.lattice import (
    boolean_lattice,
    build_lcm_lattice,
    chain_lattice,
    diamond_lattice,
    interval,
    pentagon_lattice,
)
from lcmlat.monomials import Hypergraph, MonomialIdeal, edge_ideal, lcm, monomial_str, unit
from lcmlat.properties import (
    complements_of,
    find_m3,
    find_n5,
    is_boolean,
    is_complemented,
    is_distributive,
    is_modular,
    is_relatively_complemented,
)


@pytest.fixture(scope="module")
def triangle_lattice():
    return build_lcm_lattice(edge_ideal(Hypergraph.make(3, [{1, 2}, {1, 3}, {2, 3}])))


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
        assert {a, b, c} == set(triangle_lattice.atom_indices)

    def test_tetra_diamond(self, tetra_lattice):
        dia = find_m3(tetra_lattice.lattice)
        assert dia is not None

    def test_boolean2_no_diamond(self):
        assert find_m3(boolean_lattice(2)) is None


class TestDistributive:
    def test_boolean3(self):
        assert is_distributive(boolean_lattice(3)).holds

    def test_tetra_fails_via_diamond(self, tetra_lattice):
        verdict = is_distributive(tetra_lattice.lattice)
        assert not verdict.holds
        assert "diamond" in verdict.witness

    def test_fig3_fails_via_pentagon(self, fig3_lattice):
        verdict = is_distributive(fig3_lattice.lattice)
        assert not verdict.holds
        assert "pentagon" in verdict.witness

    def test_unique_complements_in_distributive(self):
        for L in (boolean_lattice(3), chain_lattice(4)):
            assert is_distributive(L).holds
            for x in range(L.size):
                assert len(complements_of(L, x)) <= 1


class TestComplements:
    def test_fig5_element_13(self, fig5_lattice):
        lat = fig5_lattice.lattice
        comp = complements_of(lat, lat.index_of_label("x1*x3"))
        # the known pair (13, 24) plus 124, which also meets at 0 and joins at 1
        labels = {lat.labels[i] for i in comp}
        assert "x2*x4" in labels
        for i in comp:
            assert lat.meet(lat.index_of_label("x1*x3"), i) == 0
            assert lat.join(lat.index_of_label("x1*x3"), i) == lat.top

    def test_fig5_element_12_has_none(self, fig5_lattice):
        lat = fig5_lattice.lattice
        assert complements_of(lat, lat.index_of_label("x1*x2")) == []

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


class TestRelativelyComplemented:
    def test_p4_fails_with_chain_interval(self, p4_lattice):
        lat = p4_lattice.lattice
        verdict = is_relatively_complemented(lat)
        assert not verdict.holds
        w = verdict.witness
        # the witness interval is a minimal failing one: a 3-chain
        sub, _ = interval(
            lat, w["interval_bottom"]["index"], w["interval_top"]["index"]
        )
        assert sub.size == 3
        assert not is_complemented(sub).holds
        # the specific interval from the theorem's proof also fails
        above_12, _ = interval(lat, lat.index_of_label("x1*x2"), lat.top)
        assert not is_complemented(above_12).holds

    def test_boolean(self):
        assert is_relatively_complemented(boolean_lattice(3)).holds

    def test_triangle_lattice(self, triangle_lattice):
        assert is_relatively_complemented(triangle_lattice.lattice).holds


class TestImplicationChain:
    @pytest.mark.parametrize("edges,n", [
        ([{1, 2}, {3, 4}], 4),
        ([{1, 2}, {2, 3}], 3),
        ([{1, 2, 3}, {2, 3, 4}, {4, 5, 6}], 6),
        ([{1, 2}, {1, 3}, {2, 3}], 3),
        ([{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}], 4),
    ])
    def test_boolean_implies_distributive_implies_modular(self, edges, n):
        L = build_lcm_lattice(edge_ideal(Hypergraph.make(n, edges)))
        b = is_boolean(L).holds
        d = is_distributive(L.lattice).holds
        m = is_modular(L.lattice).holds
        if b:
            assert d
        if d:
            assert m

    def test_one_element_lattice(self):
        L = build_lcm_lattice(MonomialIdeal.make(1, [(1,)]))
        one, _ = interval(L.lattice, 0, 0)
        assert is_modular(one).holds
        assert is_distributive(one).holds
        assert is_complemented(one).holds
        assert is_relatively_complemented(one).holds

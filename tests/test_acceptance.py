"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Runtime budgets come from the criteria themselves and are asserted, not
just observed. Criterion 3 has one sub-assertion that conflicts with the
complement definition (see test_criterion_3_complements_of_13_exact_set);
it is kept verbatim and marked strict-xfail rather than weakened.
"""

import time

import pytest

from lcmlat.audit import GeneratorConfig, audit_batch, audit_instance, small_lattice_pool
from lcmlat.lattice import (
    build_lcm_lattice,
    enumerate_subset_lcms,
    hasse_edges,
    is_isomorphic,
)
from lcmlat.monomials import MonomialIdeal, edge_ideal, polarize
from lcmlat.properties import (
    complements_of,
    find_m3,
    find_n5,
    is_complemented,
    is_distributive,
    is_modular,
)
from lcmlat.conditions import degree1_path_check, predicts_modular


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # pay first-call costs before the first timed criterion
    from lcmlat.monomials import Hypergraph

    lat = build_lcm_lattice(
        edge_ideal(Hypergraph.make(4, [{1, 2}, {2, 3}, {3, 4}]))
    ).lattice
    is_modular(lat)
    is_distributive(lat)


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.criterion} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_figure3_fixture(fig3_lattice):
    with _Budget("1 figure-3 fixture", 1.0):
        lat = fig3_lattice.lattice
        assert fig3_lattice.size == 7
        names = lat.labels
        covers = {(names[a], names[b]) for a, b in hasse_edges(lat)}
        assert covers == {
            ("1", "x1*x2*x3"), ("1", "x2*x3*x4"), ("1", "x4*x5*x6"),
            ("x1*x2*x3", "x1*x2*x3*x4"), ("x2*x3*x4", "x1*x2*x3*x4"),
            ("x2*x3*x4", "x2*x3*x4*x5*x6"), ("x4*x5*x6", "x2*x3*x4*x5*x6"),
            ("x1*x2*x3*x4", "x1*x2*x3*x4*x5*x6"),
            ("x2*x3*x4*x5*x6", "x1*x2*x3*x4*x5*x6"),
        }
        verdict = is_modular(lat)
        assert not verdict.holds
        assert verdict.witness["lhs"]["label"] == "x1*x2*x3"
        assert verdict.witness["rhs"]["label"] == "x1*x2*x3*x4"
        pent = find_n5(lat)
        assert pent is not None
        z, a, x, y, w = pent
        assert lat.leq[x, y] and x != y
        assert not (lat.leq[a, x] or lat.leq[x, a] or lat.leq[a, y] or lat.leq[y, a])
        assert lat.meet(a, x) == lat.meet(a, y) == z
        assert lat.join(a, x) == lat.join(a, y) == w


def test_criterion_2_figure7_fixture(tetrahedron, tetra_lattice):
    with _Budget("2 figure-7 fixture", 1.0):
        lat = tetra_lattice.lattice
        assert tetra_lattice.size == 6
        assert is_modular(lat).holds
        assert find_m3(lat) is not None
        assert not is_distributive(lat).holds
        prediction = predicts_modular(tetrahedron)
        assert prediction.holds
        assert prediction.evidence["via"] == "uniform-n-minus-1"


def test_criterion_3_figure5_fixture(fig5_graph, fig5_lattice, fig3_lattice):
    with _Budget("3 figure-5 fixture", 1.0):
        lat = fig5_lattice.lattice
        assert set(lat.labels) == {
            "1", "x1*x2", "x1*x3", "x2*x4", "x1*x2*x3", "x1*x2*x4", "x1*x2*x3*x4",
        }
        i13 = lat.index_of_label("x1*x3")
        i24 = lat.index_of_label("x2*x4")
        i12 = lat.index_of_label("x1*x2")
        assert i24 in complements_of(lat, i13)
        assert complements_of(lat, i12) == []
        assert not is_complemented(lat).holds
        path = degree1_path_check(fig5_graph)
        assert path.holds and path.evidence["path"] == [3, 1, 2, 4]
        assert is_isomorphic(lat, fig3_lattice.lattice) is not None


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated as complements_of(13) = {24}, but x1*x2*x4 is in the lattice "
        "(12 v 24) with 13 ^ 124 = 0 and 13 v 124 = 1, so by the complement "
        "definition the full set is {24, 124}; the source example only says "
        "13 and 24 are complements of each other, not that 24 is unique"
    ),
)
def test_criterion_3_complements_of_13_exact_set(fig5_lattice):
    lat = fig5_lattice.lattice
    comp = complements_of(lat, lat.index_of_label("x1*x3"))
    assert {lat.labels[i] for i in comp} == {"x2*x4"}


def test_criterion_4_polarization_lemma():
    with _Budget("4 polarization lemma", 30.0):
        I = MonomialIdeal.make(2, [(2, 1), (0, 3)])
        Ip, _ = polarize(I)
        L, Lp = build_lcm_lattice(I), build_lcm_lattice(Ip)
        assert L.size == Lp.size and L.atom_count == Lp.atom_count
        assert is_isomorphic(L.lattice, Lp.lattice) is not None

        cfg = GeneratorConfig(seed=2024, n_range=(1, 4), m_range=(1, 5),
                              max_exponent=3, count=200)
        summary, _ = audit_batch("polarization-iso", cfg)
        assert summary["total"] == 200
        assert summary["agree"] == 200


def test_criterion_5_birkhoff_crosscheck():
    with _Budget("5 birkhoff cross-check", 60.0):
        cfg = GeneratorConfig(seed=1905, n_range=(1, 5), m_range=(1, 5),
                              max_exponent=3, count=500)
        summary, reports = audit_batch("birkhoff-crosscheck", cfg)
        assert summary["total"] == 500
        assert summary["agree"] == 500
        for r in reports:
            w = r.lattice_witness
            assert w["modular_sweep"] == w["pentagon_absent"]
            assert w["distributive_sweep"] == w["forbidden_absent"]


def test_criterion_6_boolean_theorem_exhaustive():
    with _Budget("6 boolean theorem exhaustive", 60.0):
        cfg = GeneratorConfig(n_range=(2, 6), k_range=(2, 3), m_range=(1, 4))
        summary, _ = audit_batch("boolean", cfg, exhaustive=True)
        assert summary["total"] > 5000
        assert summary["disagree"] == 0
        assert summary["agree"] == summary["total"]


def test_criterion_7_product_proposition():
    with _Budget("7 product proposition", 30.0):
        pool = small_lattice_pool()
        assert len(pool) >= 12
        summary, _ = audit_batch("product-complemented", GeneratorConfig())
        assert summary["total"] == len(pool) ** 2
        assert summary["agree"] == summary["total"]


def test_criterion_8_theorem_audit_batches():
    with _Budget("8 exhaustive theorem audits", 120.0):
        configs = {
            "modular": GeneratorConfig(n_range=(2, 5), k_range=(2, 4), m_range=(3, 5)),
            "graph-complemented": GeneratorConfig(n_range=(2, 5), k_range=(2, 2),
                                                  m_range=(1, 10)),
            "hypergraph-complemented": GeneratorConfig(n_range=(2, 5), k_range=(2, 4),
                                                       m_range=(1, 5)),
            "relatively-complemented": GeneratorConfig(n_range=(2, 5), k_range=(2, 2),
                                                       m_range=(1, 10)),
        }
        for theorem, cfg in configs.items():
            first, reports1 = audit_batch(theorem, cfg, exhaustive=True)
            second, reports2 = audit_batch(theorem, cfg, exhaustive=True)
            # complete and deterministic either way; disagreement is data
            assert first == second
            assert [r.to_json_line() for r in reports1] == [
                r.to_json_line() for r in reports2
            ]
            counted = first["agree"] + first["disagree"] + first["hypothesis_not_met"]
            assert counted == first["total"] > 0
            if first["disagree"]:
                assert first["minimal_disagreement"] is not None
            print(f"  {theorem}: {first['agree']}/{first['total']} agree, "
                  f"{first['disagree']} disagree, "
                  f"{first['hypothesis_not_met']} hypothesis-not-met")


def test_criterion_9_oracle_equivalence():
    with _Budget("9 closure vs enumeration oracle", 30.0):
        from lcmlat.audit import SplitMix64, random_monomial_ideal

        rng = SplitMix64(7777)
        cfg = GeneratorConfig(n_range=(2, 6), m_range=(1, 10), max_exponent=3)
        checked = 0
        attempts = 0
        while checked < 200:
            attempts += 1
            assert attempts < 2000, "ideal stream stalled"
            try:
                I = random_monomial_ideal(cfg, rng)
            except ValueError:
                continue
            L = build_lcm_lattice(I)
            assert list(L.elements) == enumerate_subset_lcms(I)
            checked += 1


def test_criterion_10_deterministic_audit_output():
    with _Budget("10 byte-identical audit reruns", 30.0):
        for theorem, cfg in [
            ("polarization-iso",
             GeneratorConfig(seed=5, n_range=(1, 4), m_range=(1, 4), count=40)),
            ("modular",
             GeneratorConfig(seed=5, n_range=(3, 5), k_range=(2, 3), m_range=(3, 4))),
        ]:
            runs = []
            for _ in range(2):
                summary, reports = audit_batch(theorem, cfg)
                runs.append(
                    "\n".join(r.to_json_line() for r in reports)
                    + "\n" + str(sorted(summary.items()))
                )
            assert runs[0] == runs[1]

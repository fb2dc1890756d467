"""Hypothesis strategies and audit streams shared by the test modules."""

from hypothesis import strategies as st

from lcmlat.audit import GeneratorConfig, _instances_for
from lcmlat.monomials import MonomialIdeal

# the exhaustive streams of acceptance criteria 6 and 8, 13146 hypergraphs
EXHAUSTIVE_STREAMS = {
    "boolean": GeneratorConfig(n_range=(2, 6), k_range=(2, 3), m_range=(1, 4)),
    "modular": GeneratorConfig(n_range=(2, 5), k_range=(2, 4), m_range=(3, 5)),
    "graph-complemented": GeneratorConfig(n_range=(2, 5), k_range=(2, 2), m_range=(1, 10)),
    "hypergraph-complemented": GeneratorConfig(n_range=(2, 5), k_range=(2, 4), m_range=(1, 5)),
    "relatively-complemented": GeneratorConfig(n_range=(2, 5), k_range=(2, 2), m_range=(1, 10)),
}


def exhaustive_hypergraphs(*theorems):
    """Every hypergraph of the named exhaustive streams, in stream order."""
    for theorem in theorems or EXHAUSTIVE_STREAMS:
        yield from _instances_for(theorem, EXHAUSTIVE_STREAMS[theorem], True)


def ideal_strategy(n_max, m_max, e_max):
    """Ideals in 2..n_max variables from at most m_max generators with
    exponents up to e_max (the unit monomial dropped, so it never absorbs)."""
    return (
        st.integers(2, n_max)
        .flatmap(lambda n: st.lists(st.tuples(*[st.integers(0, e_max)] * n),
                                    min_size=1, max_size=m_max))
        .map(lambda gens: [g for g in gens if any(g)])
        .filter(bool)
        .map(lambda gens: MonomialIdeal.make(len(gens[0]), gens))
    )

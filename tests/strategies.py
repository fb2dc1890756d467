"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from lcmlat.monomials import MonomialIdeal


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

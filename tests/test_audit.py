import hashlib
import json
import math
import tracemalloc
from itertools import combinations

import pytest

from lcmlat import audit
from lcmlat.audit import (
    _REDRAW_LIMIT,
    THEOREMS,
    AuditReport,
    GeneratorConfig,
    SplitMix64,
    _describe_ideal,
    _instances_for,
    audit_batch,
    audit_instance,
    random_monomial_ideal,
    random_uniform_hypergraph,
    small_lattice_pool,
)
from lcmlat.lattice import build_lcm_lattice, is_isomorphic
from lcmlat.monomials import MAX_EXPONENT, Hypergraph, MonomialIdeal, minimalize, polarize
from strategies import EXHAUSTIVE_STREAMS


class TestPrng:
    def test_documented_recurrence(self):
        # reference values computed from the stated constants by hand
        rng = SplitMix64(0)
        first = rng.draws(0, SplitMix64.MASK, 1)[0]
        rng2 = SplitMix64(0)
        state = (0 + SplitMix64.GAMMA) & SplitMix64.MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & SplitMix64.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & SplitMix64.MASK
        assert first == z ^ (z >> 31)
        assert rng2.draws(0, SplitMix64.MASK, 1)[0] == first

    def test_streams_repeat(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        mask = SplitMix64.MASK
        assert ([a.draws(0, mask, 1)[0] for _ in range(50)]
                == [b.draws(0, mask, 1)[0] for _ in range(50)])

    def test_in_range(self):
        rng = SplitMix64(5)
        draws = [rng.in_range(2, 4) for _ in range(100)]
        assert set(draws) <= {2, 3, 4}


def _pool_hypergraph(cfg, rng):
    """Oracle for random_uniform_hypergraph: each edge popped from the list
    of every k-subset at a drawn position."""
    n = rng.in_range(*cfg.n_range)
    k_hi = min(cfg.k_range[1], n)
    if cfg.k_range[0] > k_hi:
        raise ValueError(f"no feasible k in {cfg.k_range} for n={n}")
    k = rng.in_range(cfg.k_range[0], k_hi)
    pool = list(combinations(range(1, n + 1), k))
    m_hi = min(cfg.m_range[1], len(pool))
    if cfg.m_range[0] > m_hi:
        raise ValueError(
            f"infeasible edge count: need at least {cfg.m_range[0]} of {len(pool)} possible edges"
        )
    m = rng.in_range(cfg.m_range[0], m_hi)
    return Hypergraph.make(n, [pool.pop(rng.below(len(pool))) for _ in range(m)])


def _drawn(sampler, cfg, rng):
    """The edges in draw order, or the error message."""
    try:
        return (sampler(cfg, rng).edges, None)
    except ValueError as e:
        return (None, str(e))


class TestGenerators:
    def test_forced_tetrahedron(self):
        cfg = GeneratorConfig(seed=1, n_range=(4, 4), k_range=(3, 3), m_range=(4, 4))
        H = random_uniform_hypergraph(cfg)
        assert H.sorted_edges() == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_determinism(self):
        cfg = GeneratorConfig(seed=99, n_range=(6, 6), k_range=(3, 3), m_range=(3, 3))
        assert random_uniform_hypergraph(cfg) == random_uniform_hypergraph(cfg)

    def test_infeasible(self):
        cfg = GeneratorConfig(seed=1, n_range=(3, 3), k_range=(2, 2), m_range=(4, 4))
        with pytest.raises(ValueError):
            random_uniform_hypergraph(cfg)

    @pytest.mark.parametrize("cfg", [
        GeneratorConfig(n_range=(2, 9), k_range=(1, 5), m_range=(1, 12)),
        GeneratorConfig(n_range=(3, 6), k_range=(2, 4), m_range=(5, 20)),
    ])
    def test_rank_draws_equal_the_pool_oracle(self, cfg):
        # equal hypergraphs (edges in draw order), errors and stream states
        for seed in range(100):
            ours, theirs = SplitMix64(seed), SplitMix64(seed)
            for _ in range(5):
                assert _drawn(random_uniform_hypergraph, cfg, ours) == _drawn(
                    _pool_hypergraph, cfg, theirs)
                assert ours.state == theirs.state

    def test_edge_size_below_1_refused_before_a_draw(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match=r"edges need k >= 1; got k range \(0, 2\)"):
            random_uniform_hypergraph(GeneratorConfig(k_range=(0, 2)), rng)
        assert rng.state == 1

    @pytest.mark.parametrize("theorem,cfg", [
        *((t, cfg) for t, cfg in EXHAUSTIVE_STREAMS.items()),
        ("graph-complemented", GeneratorConfig(seed=3, n_range=(6, 9), m_range=(5, 10))),
        ("hypergraph-complemented",
         GeneratorConfig(seed=4, n_range=(6, 8), k_range=(2, 4), m_range=(3, 6))),
        ("modular", GeneratorConfig(seed=7, n_range=(1, 12), k_range=(1, 6), m_range=(1, 9))),
    ], ids=[*EXHAUSTIVE_STREAMS, "graph-sampled", "hypergraph-sampled", "modular-sampled"])
    def test_streams_pass_the_public_constructor(self, theorem, cfg):
        # the streams build without Hypergraph's checks; each instance must
        # pass them, and equal what the checked constructor builds
        for H in _instances_for(theorem, cfg):
            assert Hypergraph.make(H.vertex_count, H.edges) == H

    def test_sampler_builds_no_subset_pool(self):
        # C(20, 10) = 184,756 subsets: a list of them takes about 25 MB
        cfg = GeneratorConfig(seed=3, n_range=(20, 20), k_range=(10, 10), m_range=(1, 3))
        tracemalloc.start()
        try:
            H = random_uniform_hypergraph(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {len(e) for e in H.edges} == {10}
        assert peak < 1 << 16

    def test_ideal_minimal_and_deterministic(self):
        cfg = GeneratorConfig(seed=3, n_range=(2, 2), m_range=(2, 2), max_exponent=3)
        I = random_monomial_ideal(cfg)
        assert len(I.generators) == 2
        assert tuple(minimalize(I.generators)) == I.generators
        assert random_monomial_ideal(cfg) == I

    def test_one_variable_retry_exhaustion(self):
        cfg = GeneratorConfig(seed=2, n_range=(1, 1), m_range=(2, 2), max_exponent=3)
        with pytest.raises(ValueError):
            random_monomial_ideal(cfg)


def _minimalize_per_round_ideal(cfg, rng):
    """Oracle: the sampler that re-minimalizes every draw so far in each round."""
    n = rng.in_range(*cfg.n_range)
    m = rng.in_range(*cfg.m_range)

    def draw():
        while True:
            mono = tuple(rng.in_range(0, cfg.max_exponent) for _ in range(n))
            if any(mono):
                return mono

    gens = minimalize([draw() for _ in range(m)])
    for _ in range(_REDRAW_LIMIT):
        if len(gens) >= m:
            break
        gens = minimalize(gens + [draw() for _ in range(m - len(gens))])
    else:
        raise ValueError(
            f"could not reach {m} minimal generators in {n} variables "
            f"within the retry budget"
        )
    return MonomialIdeal(n, tuple(gens))


def _outcome(sample, cfg, rng):
    """(ideal, error message, rng state after the call)."""
    try:
        return sample(cfg, rng), None, rng.state
    except ValueError as exc:
        return None, str(exc), rng.state


class TestSamplerOracle:
    # the two seeded audit configs; n = 1 with m >= 2 has no antichain of
    # size m, so those draws exhaust the redraw budget
    @pytest.mark.parametrize("n_range", [(1, 4), (1, 5)])
    @pytest.mark.parametrize("seed", range(8))
    def test_same_ideals_errors_and_state(self, seed, n_range):
        cfg = GeneratorConfig(seed=seed, n_range=n_range, m_range=(1, 5), max_exponent=3)
        new, old = SplitMix64(seed), SplitMix64(seed)
        errors = 0
        for _ in range(40):
            got = _outcome(random_monomial_ideal, cfg, new)
            assert got == _outcome(_minimalize_per_round_ideal, cfg, old)
            errors += got[1] is not None
        assert errors > 0

    # the seeded streams of the bench and the acceptance tests, as groups of
    # (n range, m range, ideals kept, draws made), each group drawn until
    # either count is reached: the polarization-iso stream (n 1..4, 200
    # ideals), the birkhoff-crosscheck stream (n 1..5, 480 ideals), both
    # with m 1..5, and random-ideals' 16 draws for each m of 8..12 in n 4..8
    STREAMS = {
        "polarization-iso": [((1, 4), (1, 5), 200, math.inf)],
        "birkhoff-crosscheck": [((1, 5), (1, 5), 480, math.inf)],
        "random-ideals": [((4, 8), (m, m), math.inf, 16) for m in range(8, 13)],
    }

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("seed", [41, 2024, 1905])
    def test_bench_streams(self, seed, stream):
        new, old = SplitMix64(seed), SplitMix64(seed)
        # the count of each bulk draw: only the all-variables shortcut draws
        # with below_array, a round draws one monomial per call of draws
        bulk = []
        below_array = new.below_array

        def spy(bound, count):
            bulk.append(count)
            return below_array(bound, count)

        new.below_array = spy
        errors = 0
        for n_range, m_range, ideals, tries in self.STREAMS[stream]:
            cfg = GeneratorConfig(seed=seed, n_range=n_range, m_range=m_range,
                                  max_exponent=3)
            kept = tried = 0
            while kept < ideals and tried < tries:
                tried += 1
                got = _outcome(random_monomial_ideal, cfg, new)
                assert got == _outcome(_minimalize_per_round_ideal, cfg, old)
                kept += got[1] is None
                errors += got[1] is not None
        assert errors > 0 and bulk

    def test_draws_match_in_range(self):
        a, b = SplitMix64(17), SplitMix64(17)
        assert a.draws(3, 9, 50) == [b.in_range(3, 9) for _ in range(50)]
        assert a.state == b.state

    @pytest.mark.parametrize("seed", [0, 41, (1 << 63) + 5, (1 << 64) - 1])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_below_array_matches_draws(self, seed, n):
        # the shortcut's bulk draws: values, all-zero n-groups and state
        for max_exponent in (1, 3, MAX_EXPONENT):
            for need in (1, 7, 600):
                a, b = SplitMix64(seed + need), SplitMix64(seed + need)
                scalar = a.draws(0, max_exponent, n * need)
                bulk = b.below_array(max_exponent + 1, n * need)
                assert bulk.tolist() == scalar
                assert a.state == b.state
                zero_groups = sum(not any(scalar[i:i + n]) for i in range(0, n * need, n))
                assert (bulk.reshape(-1, n) == 0).all(axis=1).sum() == zero_groups

    def test_below_array_bounds(self):
        rng = SplitMix64(3)
        assert rng.below_array((1 << 64) - 1, 4).tolist() == SplitMix64(3).draws(0, (1 << 64) - 2, 4)
        for bound in (0, 1 << 64):
            with pytest.raises(ValueError, match="bound must be in"):
                rng.below_array(bound, 4)


def _polarization_report_by_search(I):
    """Oracle: the polarization-iso report with is_isomorphic's mapping."""
    L, Lp = build_lcm_lattice(I), build_lcm_lattice(polarize(I)[0])
    iso = is_isomorphic(L.lattice, Lp.lattice)
    actual = L.size == Lp.size and L.atom_count == Lp.atom_count and iso is not None
    return AuditReport(
        "polarization-iso", _describe_ideal(I), True, actual, actual, None,
        {"element_counts": [L.size, Lp.size], "atom_counts": [L.atom_count, Lp.atom_count],
         "isomorphism": iso},
    )


class TestPolarizationKeys:
    @staticmethod
    def searches(monkeypatch):
        """The is_isomorphic calls that audit_instance makes, as a list."""
        calls = []
        monkeypatch.setattr(audit, "is_isomorphic",
                            lambda L1, L2: calls.append(1) or is_isomorphic(L1, L2))
        return calls

    # the polarization-iso streams of the bench and the acceptance tests (n
    # 1..4, m 1..5, 200 ideals) and the CLI's default ones (n 2..5, m 1..4,
    # 100 ideals) for the seeds that the CLI byte check runs
    STREAMS = ([(seed, (1, 4), (1, 5), 200) for seed in (41, 2024, 1905)]
               + [(seed, (2, 5), (1, 4), 100) for seed in (0, 1, 2, 9)])

    @pytest.mark.parametrize("seed, n_range, m_range, count", STREAMS)
    def test_key_match_equals_is_isomorphic(self, seed, n_range, m_range, count, monkeypatch):
        cfg = GeneratorConfig(seed=seed, n_range=n_range, m_range=m_range, count=count)
        ideals = list(_instances_for("polarization-iso", cfg))
        calls = self.searches(monkeypatch)
        for I in ideals:
            got = audit_instance("polarization-iso", I).to_json_line()
            assert got == _polarization_report_by_search(I).to_json_line()
        assert not calls

    def test_keys_that_differ_raise(self, monkeypatch):
        # polarize with its generators reversed: the same Boolean B2 for x1^2
        # and x2, but x2 (key 0b10 in L) now has key 0b01
        def reversed_polarize(I):
            P, slots = polarize(I)
            return MonomialIdeal(P.ring_dimension, P.generators[::-1]), slots

        monkeypatch.setattr(audit, "polarize", reversed_polarize)
        calls = self.searches(monkeypatch)
        I = MonomialIdeal(2, ((2, 0), (0, 1)))
        assert build_lcm_lattice(I).keys == (0, 2, 1, 3)
        assert build_lcm_lattice(reversed_polarize(I)[0]).keys == (0, 1, 2, 3)
        with pytest.raises(RuntimeError, match="polarize changed the keys"):
            audit_instance("polarization-iso", I)
        assert not calls

    def test_a_stand_in_of_another_size_raises(self, monkeypatch):
        # a one-generator stand-in: two elements against four
        monkeypatch.setattr(audit, "polarize",
                            lambda _: (MonomialIdeal(2, ((1, 1),)), None))
        with pytest.raises(RuntimeError, match="polarize changed the keys"):
            audit_instance("polarization-iso", MonomialIdeal(2, ((2, 0), (0, 1))))


class TestAuditInstance:
    def test_boolean_fig3(self, fig3_hypergraph):
        report = audit_instance("boolean", fig3_hypergraph)
        assert report.predicted is False
        assert report.actual is False
        assert report.agree

    def test_modular_tetrahedron(self, tetrahedron):
        report = audit_instance("modular", tetrahedron)
        assert report.predicted is True and report.actual is True and report.agree

    def test_modular_hypothesis_not_met(self):
        report = audit_instance("modular", Hypergraph.make(4, [{1, 2}, {3, 4}]))
        assert report.predicted == "hypothesis-not-met"
        assert report.actual is True
        assert not report.agree

    def test_polarization_example(self):
        I = MonomialIdeal.make(2, [(2, 1), (0, 3)])
        report = audit_instance("polarization-iso", I)
        assert report.actual and report.agree
        assert report.lattice_witness["element_counts"][0] == report.lattice_witness["element_counts"][1]

    def test_graph_complemented(self, fig5_graph):
        report = audit_instance("graph-complemented", fig5_graph)
        assert report.predicted is False and report.actual is False and report.agree

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            audit_instance("no-such-theorem", None)


class TestAuditBatch:
    # sha256 of the default stream's report lines, one per hypergraph theorem;
    # the audits' own output is the contract, so any change here is a change
    # of verdict, witness or evidence
    DIGESTS = {
        "boolean": "a526ffac1e9746df4916950c8cd3e3d3d895e40b4db1be1c92544fc64d2ae78f",
        "modular": "407c7779e2d338c5c45f72d9e4d864a392d87582411bba2897e56f2a943f8fe3",
        "graph-complemented":
            "b9b47305f6ff0fb8414763a978a3f92317b5105febe285f57ed1d90d146e50d3",
        "hypergraph-complemented":
            "147b87a2ea26536eed73841b55e2be6402f975bd0c0db52b397df7cb0140cc74",
        "relatively-complemented":
            "8432e68dd0d6dbedbf59ad9b1acc25bea22c33d9cf8e8bf5259de5f01f811d56",
    }

    @pytest.mark.parametrize("theorem", sorted(DIGESTS))
    def test_default_stream_is_pinned(self, theorem):
        _, reports = audit_batch(theorem, GeneratorConfig())
        blob = "\n".join(r.to_json_line() for r in reports).encode()
        assert hashlib.sha256(blob).hexdigest() == self.DIGESTS[theorem]

    # the first 16 hex digits of the same sha256 for three sampled streams,
    # the path a space over EXHAUSTIVE_THRESHOLD takes
    SAMPLED = [
        ("graph-complemented", dict(seed=3, n_range=(6, 9), m_range=(5, 10)),
         "29670d7f0da9977a"),
        ("relatively-complemented", dict(seed=5, n_range=(5, 8), m_range=(4, 9)),
         "13e2fd9cba32c26e"),
        ("hypergraph-complemented",
         dict(seed=4, n_range=(6, 8), k_range=(2, 4), m_range=(3, 6)), "f2bdfd7287a7b50c"),
    ]

    @pytest.mark.parametrize("theorem, ranges, digest", SAMPLED)
    def test_sampled_stream_is_pinned(self, theorem, ranges, digest):
        _, reports = audit_batch(theorem, GeneratorConfig(count=100, **ranges))
        assert len(reports) == 100
        blob = "\n".join(r.to_json_line() for r in reports).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest

    def test_theorem_order(self):
        # argparse's choices text and the unknown-theorem message print it
        assert THEOREMS == (
            "boolean", "modular", "graph-complemented", "hypergraph-complemented",
            "relatively-complemented", "product-complemented", "polarization-iso",
            "birkhoff-crosscheck",
        )

    def test_birkhoff_sample(self):
        cfg = GeneratorConfig(seed=11, n_range=(2, 4), m_range=(1, 4), count=40)
        summary, reports = audit_batch("birkhoff-crosscheck", cfg)
        assert summary["total"] == 40
        assert summary["agree"] == 40

    def test_product_pool(self):
        pool = small_lattice_pool()
        assert len(pool) >= 12
        summary, reports = audit_batch("product-complemented", GeneratorConfig())
        assert summary["total"] == len(pool) ** 2
        assert summary["disagree"] == 0

    def test_exhaustive_boolean_tiny(self):
        cfg = GeneratorConfig(n_range=(2, 3), k_range=(2, 2), m_range=(1, 3))
        summary, reports = audit_batch("boolean", cfg)
        assert summary["total"] > 0
        assert summary["disagree"] == 0
        # instance space: C(1,1..3) + C(3,1..3) = 1 + 7
        assert summary["total"] == 8

    def test_byte_identical_reruns(self):
        cfg = GeneratorConfig(seed=21, n_range=(2, 4), m_range=(1, 3), count=25)
        out1 = [r.to_json_line() for r in audit_batch("polarization-iso", cfg)[1]]
        out2 = [r.to_json_line() for r in audit_batch("polarization-iso", cfg)[1]]
        assert out1 == out2

    def test_counterexample_corpus(self, tmp_path):
        # relatively-complemented disagrees on e.g. the triangle (see the
        # converse-gap note): prediction says relatively complemented only
        # without induced P4, and the triangle agrees, but scan broadly
        cfg = GeneratorConfig(n_range=(2, 4), k_range=(2, 2), m_range=(1, 4))
        summary, reports = audit_batch(
            "relatively-complemented", cfg, counterexample_dir=str(tmp_path)
        )
        files = list(tmp_path.glob("*.json"))
        assert len(files) == summary["disagree"]
        for f in files:
            obj = json.loads(f.read_text())
            assert obj["agree"] is False

    @pytest.mark.parametrize("theorem", ["boolean", "hypergraph-complemented"])
    def test_unwritable_counterexamples_refused_before_the_first_instance(
            self, theorem, tmp_path, monkeypatch):
        # the default boolean stream has no disagreement, the
        # hypergraph-complemented one has some: both refuse the path alike
        blocked = tmp_path / "plain"
        blocked.write_text("")
        audited = []
        monkeypatch.setattr(audit, "audit_instance", lambda *args: audited.append(args))
        with pytest.raises(ValueError, match=f"cannot write {blocked / 'x'}: "):
            audit_batch(theorem, GeneratorConfig(), counterexample_dir=str(blocked / "x"))
        assert audited == []

    @pytest.mark.parametrize("theorem", ["boolean", "polarization-iso", "modular"])
    def test_bad_config_leaves_no_counterexample_directory(self, theorem, tmp_path):
        out = tmp_path / "new" / "corpus"
        with pytest.raises(ValueError, match="audit needs m >= 1"):
            audit_batch(theorem, GeneratorConfig(m_range=(0, 0)), counterexample_dir=str(out))
        assert not (tmp_path / "new").exists()

    def test_report_json_roundtrip(self, fig3_hypergraph):
        report = audit_instance("boolean", fig3_hypergraph)
        obj = json.loads(report.to_json_line())
        assert obj["theorem"] == "boolean"
        assert obj["instance"]["edges"] == [[1, 2, 3], [2, 3, 4], [4, 5, 6]]

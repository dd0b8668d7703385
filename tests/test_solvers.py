import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprofile import (
    KIND_ORDER,
    MetricKind,
    VertexCapError,
    VertexSet,
    all_profiles,
    branch_bound_extremal,
    complement,
    complete,
    cycle,
    empty,
    extremal_exhaustive,
    from_edge_list,
    hypercube,
    profile_branch_bound,
    profile_by_reduction,
    profile_exhaustive,
    star,
    subset_metrics,
)

from oracle import brute_all_profiles, brute_extremal


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return from_edge_list(n, [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1])


class TestExhaustive:
    def test_c4_densest_pair_and_witness(self):
        value, witness = extremal_exhaustive(cycle(4), MetricKind.MAX_INDUCED, 2)
        assert value == 1
        assert witness == VertexSet.from_vertices(4, [0, 1])

    def test_empty_size(self):
        value, witness = extremal_exhaustive(cycle(4), MetricKind.MAX_INDUCED, 0)
        assert value == 0 and len(witness) == 0

    def test_star_min_cover_singleton(self):
        # each leaf covers exactly one edge, the center covers three
        value, witness = extremal_exhaustive(star(4), MetricKind.MIN_COVERED, 1)
        assert value == 1
        assert witness == VertexSet.from_vertices(4, [1])

    # profile values below are frozen from the brute-force oracle
    def test_c4_profiles(self):
        g = cycle(4)
        assert profile_exhaustive(g)[MetricKind.MAX_INDUCED].values == (0, 0, 1, 2, 4)
        assert profile_exhaustive(g)[MetricKind.MIN_INDUCED].values == (0, 0, 0, 2, 4)
        assert profile_exhaustive(g)[MetricKind.MAX_COVERED].values == (0, 2, 4, 4, 4)
        assert profile_exhaustive(g)[MetricKind.MIN_COVERED].values == (0, 2, 3, 4, 4)
        assert profile_exhaustive(g)[MetricKind.MAX_CUT].values == (0, 2, 4, 2, 0)
        assert profile_exhaustive(g)[MetricKind.MIN_CUT].values == (0, 2, 2, 2, 0)

    def test_star4_max_induced(self):
        assert profile_exhaustive(star(4))[MetricKind.MAX_INDUCED].values == (0, 0, 1, 2, 3)

    def test_k3_max_cut(self):
        assert profile_exhaustive(complete(3))[MetricKind.MAX_CUT].values == (0, 2, 2, 0)

    def test_complete5_max_induced_is_binomial(self):
        assert profile_exhaustive(complete(5))[MetricKind.MAX_INDUCED].values == (0, 0, 1, 3, 6, 10)

    def test_cut_max_witness_is_lexicographic_first(self):
        profile = profile_exhaustive(cycle(4))[MetricKind.MAX_CUT]
        assert profile.witnesses[2] == VertexSet.from_vertices(4, [0, 2])

    def test_size_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            extremal_exhaustive(cycle(4), MetricKind.MAX_INDUCED, 5)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_witnesses_match_naive_first_witness(self, g):
        # pins the Gray-code walk's tie-break to lexicographic enumeration
        profiles = profile_exhaustive(g)
        edges = g.edges()
        for kind in KIND_ORDER:
            for i in range(g.n + 1):
                value, first = brute_extremal(g.n, edges, kind.counter, kind.sense, i)
                assert profiles[kind].values[i] == value, (kind.key, i)
                assert set(profiles[kind].witnesses[i]) == first, (kind.key, i)


class TestBranchBound:
    def test_q3_min_cut_facet(self):
        profile = profile_branch_bound(hypercube(3), MetricKind.MIN_CUT)
        assert profile.values[4] == 4
        assert profile.values == (0, 3, 4, 5, 4, 5, 4, 3, 0)

    def test_single_size_entry_point(self):
        value, witness = branch_bound_extremal(cycle(5), MetricKind.MIN_CUT, 2)
        assert value == 2
        assert subset_metrics(cycle(5), witness).cut == 2

    @given(small_graphs())
    @settings(max_examples=120, deadline=None)
    def test_values_match_exhaustive(self, g):
        for kind in KIND_ORDER:
            assert (
                profile_branch_bound(g, kind).values
                == profile_exhaustive(g)[kind].values
            )


class TestProfileInvariants:
    def test_witnesses_reevaluate(self, corpus):
        for name, g in corpus[:80]:
            for kind in KIND_ORDER:
                profile = profile_exhaustive(g)[kind]
                for i, witness in enumerate(profile.witnesses):
                    assert len(witness) == i, name
                    metrics = subset_metrics(g, witness)
                    assert getattr(metrics, kind.counter) == profile.values[i], name

    def test_monotone_and_sandwich(self, corpus):
        for name, g in corpus[:120]:
            ps = {kind: profile_exhaustive(g)[kind].values for kind in KIND_ORDER}
            for kind in (
                MetricKind.MAX_INDUCED,
                MetricKind.MIN_INDUCED,
                MetricKind.MAX_COVERED,
                MetricKind.MIN_COVERED,
            ):
                vals = ps[kind]
                assert all(vals[i] <= vals[i + 1] for i in range(g.n)), name
            assert all(
                ps[MetricKind.MIN_INDUCED][i] <= ps[MetricKind.MAX_INDUCED][i]
                for i in range(g.n + 1)
            ), name
            assert all(
                ps[MetricKind.MIN_COVERED][i] <= ps[MetricKind.MAX_COVERED][i]
                for i in range(g.n + 1)
            ), name
            assert all(
                ps[MetricKind.MIN_CUT][i] <= ps[MetricKind.MAX_CUT][i]
                for i in range(g.n + 1)
            ), name

    def test_boundary_values(self, corpus):
        for name, g in corpus[:120]:
            dense = profile_exhaustive(g)[MetricKind.MAX_INDUCED].values
            cut_max = profile_exhaustive(g)[MetricKind.MAX_CUT].values
            d = min(g.degrees)
            assert dense[g.n] == g.m, name
            assert dense[g.n - 1] == g.m - d, name
            assert cut_max[0] == 0 and cut_max[g.n] == 0, name


class TestReductions:
    def test_max_covered_from_min_induced_on_c4(self):
        g = cycle(4)
        sparse = profile_exhaustive(g)[MetricKind.MIN_INDUCED]
        derived = profile_by_reduction(g, MetricKind.MAX_COVERED, bases={MetricKind.MIN_INDUCED: sparse})
        assert derived.values == profile_exhaustive(g)[MetricKind.MAX_COVERED].values

    def test_min_covered_from_max_induced_on_star(self):
        g = star(4)
        dense = profile_exhaustive(g)[MetricKind.MAX_INDUCED]
        derived = profile_by_reduction(g, MetricKind.MIN_COVERED, bases={MetricKind.MAX_INDUCED: dense})
        assert derived.values == (0, 1, 2, 3, 3)

    def test_induced_via_complement(self):
        g = cycle(5)
        co = complement(g)
        derived = profile_by_reduction(
            g,
            MetricKind.MAX_INDUCED,
            complement_bases={MetricKind.MIN_INDUCED: profile_exhaustive(co)[MetricKind.MIN_INDUCED]},
        )
        assert derived.values == profile_exhaustive(g)[MetricKind.MAX_INDUCED].values

    def test_cut_mirror(self):
        g = star(5)
        base = profile_exhaustive(g)[MetricKind.MAX_CUT]
        mirrored = profile_by_reduction(g, MetricKind.MAX_CUT, bases={MetricKind.MAX_CUT: base})
        assert mirrored.values == base.values

    def test_reduction_witnesses_reevaluate(self):
        g = cycle(6)
        sparse = profile_exhaustive(g)[MetricKind.MIN_INDUCED]
        derived = profile_by_reduction(g, MetricKind.MAX_COVERED, bases={MetricKind.MIN_INDUCED: sparse})
        for i, witness in enumerate(derived.witnesses):
            assert len(witness) == i
            assert subset_metrics(g, witness).covered == derived.values[i]

    def test_missing_base(self):
        with pytest.raises(ValueError, match="missing base profile"):
            profile_by_reduction(cycle(4), MetricKind.MAX_COVERED)

    def test_reduction_equivalence_sample(self, corpus):
        for name, g in corpus[:60]:
            ex = {kind: profile_exhaustive(g)[kind] for kind in KIND_ORDER}
            co = complement(g)
            co_min = profile_exhaustive(co)[MetricKind.MIN_INDUCED]
            checks = [
                profile_by_reduction(g, MetricKind.MAX_COVERED, bases={MetricKind.MIN_INDUCED: ex[MetricKind.MIN_INDUCED]}),
                profile_by_reduction(g, MetricKind.MIN_COVERED, bases={MetricKind.MAX_INDUCED: ex[MetricKind.MAX_INDUCED]}),
                profile_by_reduction(g, MetricKind.MAX_INDUCED, complement_bases={MetricKind.MIN_INDUCED: co_min}),
                profile_by_reduction(g, MetricKind.MAX_CUT, bases={MetricKind.MAX_CUT: ex[MetricKind.MAX_CUT]}),
                profile_by_reduction(g, MetricKind.MIN_CUT, bases={MetricKind.MIN_CUT: ex[MetricKind.MIN_CUT]}),
            ]
            for derived in checks:
                assert derived.values == ex[derived.kind].values, (name, derived.provenance)


class TestAllProfiles:
    def test_k2_all_six(self):
        ps = all_profiles(complete(2))
        assert ps[MetricKind.MAX_INDUCED].values == (0, 0, 1)
        assert ps[MetricKind.MIN_INDUCED].values == (0, 0, 1)
        assert ps[MetricKind.MAX_COVERED].values == (0, 1, 1)
        assert ps[MetricKind.MIN_COVERED].values == (0, 1, 1)
        assert ps[MetricKind.MAX_CUT].values == (0, 1, 0)
        assert ps[MetricKind.MIN_CUT].values == (0, 1, 0)

    def test_empty_graph_all_zero(self):
        ps = all_profiles(empty(3))
        for kind in KIND_ORDER:
            assert ps[kind].values == (0, 0, 0, 0)

    def test_strategies_agree(self, corpus):
        for name, g in corpus[:40]:
            reference = None
            for strategy in ("oracle", "bb", "reduced", "checked"):
                ps = all_profiles(g, strategy=strategy)
                values = [ps[kind].values for kind in KIND_ORDER]
                if reference is None:
                    reference = values
                else:
                    assert values == reference, (name, strategy)

    def test_checked_provenance(self):
        ps = all_profiles(cycle(4), strategy="checked")
        assert all(p.provenance == "cross-checked" for p in ps.values())

    def test_auto_resolution(self):
        assert all_profiles(cycle(4))[MetricKind.MAX_INDUCED].provenance == "cross-checked"
        big = cycle(9)
        assert "branch-and-bound" in all_profiles(big)[MetricKind.MAX_INDUCED].provenance

    @pytest.mark.parametrize("strategy, walks", [("checked", 2), ("oracle", 1), ("reduced", 0), ("bb", 0)])
    def test_exhaustive_walks_per_strategy(self, monkeypatch, strategy, walks):
        import isoprofile.solvers as solvers_mod

        real = solvers_mod.profile_exhaustive
        calls = []

        def counting(graph, **kwargs):
            calls.append(graph)
            return real(graph, **kwargs)

        monkeypatch.setattr(solvers_mod, "profile_exhaustive", counting)
        all_profiles(cycle(6), strategy=strategy)
        assert len(calls) == walks

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            all_profiles(cycle(4), strategy="psychic")

    def test_mirrored_witnesses_reevaluate(self):
        g = cycle(7)
        ps = all_profiles(g, strategy="bb")
        for kind in (MetricKind.MAX_CUT, MetricKind.MIN_CUT):
            profile = ps[kind]
            for i, witness in enumerate(profile.witnesses):
                assert len(witness) == i
                assert subset_metrics(g, witness).cut == profile.values[i]


class TestCap:
    def test_default_cap_blocks_25_vertices(self):
        g = empty(25)
        with pytest.raises(VertexCapError, match="cap of 24"):
            profile_exhaustive(g)[MetricKind.MAX_INDUCED]

    def test_override_allows(self):
        g = empty(25)
        profile = profile_branch_bound(g, MetricKind.MAX_INDUCED, cap=25)
        assert set(profile.values) == {0}

    def test_constructors_ignore_cap(self):
        assert empty(30).n == 30

    def test_all_profiles_cap(self):
        with pytest.raises(VertexCapError):
            all_profiles(empty(25))


@given(small_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_all_routes_match_naive_oracle(g):
    ref = brute_all_profiles(g.n, g.edges())
    ps = all_profiles(g, strategy="checked")
    for kind in KIND_ORDER:
        assert list(ps[kind].values) == ref[kind.key]


def test_equivalence_above_corpus_scale():
    # the n <= 8 corpus sweep lives in the acceptance suite; spot-check
    # the pruned search against full enumeration where the default
    # strategy starts trusting it
    from isoprofile import random_graph

    for k, n in enumerate((9, 10, 11, 12, 13)):
        g = random_graph(n, (0.3, 0.5, 0.7)[k % 3], 42000 + k)
        for strategy in ("bb", "reduced"):
            ps = all_profiles(g, strategy=strategy)
            for kind in KIND_ORDER:
                expected = profile_exhaustive(g)[kind].values
                assert ps[kind].values == expected, (n, strategy, kind.key)

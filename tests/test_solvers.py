import json
import math
from itertools import combinations
from pathlib import Path
from unittest import mock

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
    from_spec,
    hypercube,
    metrics_from_mask,
    path,
    profile_branch_bound,
    profile_by_reduction,
    profile_exhaustive,
    star,
    subset_metrics,
)
from isoprofile import solvers
from isoprofile.formats import load_graph_text

from oracle import brute_all_profiles, brute_count, brute_extremal

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return from_edge_list(n, [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1])


def _count_solver_calls(monkeypatch, graph, strategy):
    # walk: profile_exhaustive calls; search: branch-and-bound profiles,
    # through the public entry point or the strategies' private one
    import isoprofile.solvers as solvers_mod

    calls = {"walk": 0, "search": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solvers_mod, "profile_exhaustive", counting("walk", solvers_mod.profile_exhaustive))
    monkeypatch.setattr(solvers_mod, "_branch_bound_profile", counting("search", solvers_mod._branch_bound_profile))
    all_profiles(graph, strategy=strategy)
    return calls


def _assert_naive_first_witnesses(g, profiles):
    edges = g.edges()
    for kind in KIND_ORDER:
        for i in range(g.n + 1):
            value, first = brute_extremal(g.n, edges, kind.counter, kind.sense, i)
            assert profiles[kind].values[i] == value, (kind.key, i)
            assert set(profiles[kind].witnesses[i]) == first, (kind.key, i)


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
        _assert_naive_first_witnesses(g, profile_exhaustive(g))

    @pytest.mark.parametrize(
        "g, width",
        [
            pytest.param(g, width, id=name if width == 10 else f"{name}-block{width}")
            for width in (10, 2)
            for g, name in zip(
                [star(9), complete(9), empty(9), cycle(9), hypercube(3)],
                ["star9", "complete9", "empty9", "cycle9", "hypercube3"],
            )
        ],
    )
    def test_tied_witnesses_match_naive_first_witness(self, g, width):
        # ties abound here: a size's optimum is often attained both by sets
        # without vertex n-1 (walked) and by sets with it (complements of
        # walked ones), and the fold must still return the first of all;
        # a block of 2 walks 2^(n-3) high sets, most of which only tie
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_BLOCK", width)
            profiles = profile_exhaustive(g)
        _assert_naive_first_witnesses(g, profiles)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @given(g=small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_block_seams_match_naive_first_witness(self, width, g):
        # a narrow block leaves most walked bits to the Gray code over the
        # high sets, so one size's ties are merged across many of them
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_BLOCK", width)
            profiles = profile_exhaustive(g)
        _assert_naive_first_witnesses(g, profiles)

    def test_walk_decodes_do_not_regress(self, monkeypatch):
        # timing-free regression signal: a step decodes a packed vector
        # only when the threshold test finds a beaten best in it; of the
        # 512 steps x 3 vectors at n = 20, the pinned counts are decoded
        decodes = []
        real = solvers._fields
        monkeypatch.setattr(solvers, "_fields", lambda *args: decodes.append(args) or real(*args))
        pinned = {"regular:20:4@1729": (from_spec("regular:20:4", 1729), 105), "empty:20": (empty(20), 30)}
        for name, (g, pin) in pinned.items():
            decodes.clear()
            profile_exhaustive(g)
            assert 0 < len(decodes) <= pin, (name, len(decodes))

    def test_witnesses_match_golden(self):
        # (value, witness bits) of every kind and size, written before the
        # walk was blocked; from n = 12 on the walked bits outnumber the block
        graphs = {
            "random:11:0.5@3": from_spec("random:11:0.5", 3),
            "regular:12:3@3": from_spec("regular:12:3", 3),
            "empty:12": empty(12),
            "complete:12": complete(12),
            "star:13": star(13),
            "random:16:0.5@1729": from_spec("random:16:0.5", 1729),
        }
        golden = json.loads((GOLDEN / "walk_witnesses.json").read_text())
        assert set(golden) == set(graphs)
        for name, g in graphs.items():
            profiles = profile_exhaustive(g)
            for kind in KIND_ORDER:
                profile = profiles[kind]
                found = [[value, witness.bits] for value, witness in zip(profile.values, profile.witnesses)]
                assert found == golden[name][kind.key], (name, kind.key)


class TestClosedForms:
    # every expected value comes from its formula, never from a solver

    @pytest.mark.parametrize("n", [11, 13, 16, 20])
    def test_empty(self, n):
        profiles = profile_exhaustive(empty(n))
        for kind in KIND_ORDER:
            assert profiles[kind].values == (0,) * (n + 1), kind.key
            assert [set(w) for w in profiles[kind].witnesses] == [set(range(i)) for i in range(n + 1)], kind.key

    @pytest.mark.parametrize("n", [11, 13, 16, 20])
    def test_complete(self, n):
        formulas = {
            "induced": lambda i: math.comb(i, 2),
            "covered": lambda i: math.comb(n, 2) - math.comb(n - i, 2),
            "cut": lambda i: i * (n - i),
        }
        profiles = profile_exhaustive(complete(n))
        for kind in KIND_ORDER:
            expected = tuple(formulas[kind.counter](i) for i in range(n + 1))
            assert profiles[kind].values == expected, kind.key
            assert [set(w) for w in profiles[kind].witnesses] == [set(range(i)) for i in range(n + 1)], kind.key

    @pytest.mark.parametrize("n", [11, 13, 16, 20])
    def test_star(self, n):
        # i vertices with the centre: induced i - 1, covered n - 1, cut n - i;
        # i vertices without it: 0, i, i
        def candidates(i):
            if i >= 1:
                yield {"induced": i - 1, "covered": n - 1, "cut": n - i}
            if i <= n - 1:
                yield {"induced": 0, "covered": i, "cut": i}

        profiles = profile_exhaustive(star(n))
        for kind in KIND_ORDER:
            best = max if kind.is_max else min
            expected = tuple(best(c[kind.counter] for c in candidates(i)) for i in range(n + 1))
            assert profiles[kind].values == expected, kind.key

    @pytest.mark.parametrize("n", [11, 13, 16, 20])
    def test_cycle(self, n):
        # below i = n, i consecutive vertices induce i - 1 edges, and i
        # vertices spread out induce max(0, 2i - n); covered = 2i - induced
        # and cut = 2i - 2 induced, so their max takes the sparsest set
        def expected(kind, i):
            if i == n:
                return 0 if kind.counter == "cut" else n
            densest, sparsest = max(i - 1, 0), max(0, 2 * i - n)
            if kind.counter == "induced":
                return densest if kind.is_max else sparsest
            induced = sparsest if kind.is_max else densest
            return 2 * i - (1 if kind.counter == "covered" else 2) * induced

        g = cycle(n)
        walked = profile_exhaustive(g)
        for kind in KIND_ORDER:
            values = tuple(expected(kind, i) for i in range(n + 1))
            assert walked[kind].values == values, kind.key
            assert profile_branch_bound(g, kind).values == values, kind.key

    @pytest.mark.parametrize("n", [11, 13, 16])
    def test_path(self, n):
        # an inner vertex covers two edges and an end vertex one: spread
        # inner vertices cover or cut 2i edges, a prefix covers i and cuts 1
        formulas = {
            MetricKind.MAX_INDUCED: lambda i: max(i - 1, 0),
            MetricKind.MIN_INDUCED: lambda i: max(0, 2 * i - n - 1),
            MetricKind.MAX_COVERED: lambda i: min(n - 1, 2 * i),
            MetricKind.MIN_COVERED: lambda i: min(i, n - 1),
            MetricKind.MAX_CUT: lambda i: min(2 * i, 2 * (n - i), n - 1),
            MetricKind.MIN_CUT: lambda i: 0 if i in (0, n) else 1,
        }
        g = path(n)
        walked = profile_exhaustive(g)
        for kind, formula in formulas.items():
            values = tuple(formula(i) for i in range(n + 1))
            assert walked[kind].values == values, kind.key
            assert profile_branch_bound(g, kind).values == values, kind.key


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


@st.composite
def bound_cases(draw):
    # a graph, a vertex order, a prefix order[:start] holding the chosen
    # set, and 1 <= r <= n - start picks still to make from order[start:]
    g = draw(small_graphs())
    order = draw(st.permutations(range(g.n)))
    start = draw(st.integers(min_value=0, max_value=g.n - 1))
    chosen = {v for v in order[:start] if draw(st.booleans())}
    r = draw(st.integers(min_value=1, max_value=g.n - start))
    return g, order, start, chosen, r


def _count_bound_calls(monkeypatch):
    # one bounds call per search node that has a live size two or more
    # picks away
    calls = dict.fromkeys(KIND_ORDER, 0)
    real = solvers._bound_fn

    def counting(kind, *args):
        bounds, refine = real(kind, *args)

        def counted(*call):
            calls[kind] += 1
            return bounds(*call)

        return counted, refine

    monkeypatch.setattr(solvers, "_bound_fn", counting)
    return calls


class TestBound:
    @given(bound_cases())
    @settings(max_examples=200, deadline=None)
    def test_bound_is_admissible(self, case):
        g, order, start, chosen, r = case
        edges = g.edges()
        mask = sum(1 << v for v in chosen)
        for kind in KIND_ORDER:
            bounds, refine = solvers._bound_fn(kind, g.adj, g.degrees, order)
            found = bounds(start, mask, r)
            value = brute_count(edges, chosen, kind.counter)
            for picked in range(1, r + 1):
                completions = [
                    brute_count(edges, chosen | set(picks), kind.counter)
                    for picks in combinations(order[start:], picked)
                ]
                for bound in [found[picked]] + ([refine(start, mask, picked)] if refine else []):
                    if kind.is_max:
                        assert value + bound >= max(completions), (kind.key, picked)
                    else:
                        assert value + bound <= min(completions), (kind.key, picked)

    def test_max_induced_counts_each_future_edge_once(self):
        # four picks from K8 induce C(4, 2) = 6 edges; counting every edge
        # from both ends would give 12
        k8 = complete(8)
        bounds, _ = solvers._bound_fn(MetricKind.MAX_INDUCED, k8.adj, k8.degrees, list(range(8)))
        assert bounds(0, 0, 4)[4] == 6

    def test_search_nodes_do_not_regress(self, monkeypatch):
        # timing-free regression signal: bounds calls per kind in the one
        # search that solves every size, on two fixed graphs; a search per
        # size made 274/428/428/274/428/371 calls on regular:10:3 and
        # 994/5753/4057/3475/7961/6298 on random:16:0.5
        pinned = {
            ("regular:10:3", 3): (74, 87, 87, 74, 87, 95),
            ("random:16:0.5", 1729): (218, 1455, 1010, 723, 1995, 1150),
        }
        for (spec, seed), counts in pinned.items():
            calls = _count_bound_calls(monkeypatch)
            g = from_spec(spec, seed)
            walked = profile_exhaustive(g)
            for kind in KIND_ORDER:
                assert profile_branch_bound(g, kind).values == walked[kind].values, (spec, kind.key)
            for kind, pin in zip(KIND_ORDER, counts):
                assert calls[kind] <= pin, (spec, kind.key, calls[kind])

    @given(small_graphs(max_n=8))
    @settings(max_examples=120, deadline=None)
    def test_one_search_matches_size_by_size(self, g):
        # the search over every size returns, at each size, the value and
        # witness of a search for that size alone, and bounds each node once
        real = solvers._bound_fn
        for kind in KIND_ORDER:
            seen = []

            def recording(*args):
                bounds, refine = real(*args)

                def recorded(start, chosen, top):
                    seen.append((start, chosen))
                    return bounds(start, chosen, top)

                return recorded, refine

            with mock.patch.object(solvers, "_bound_fn", recording):
                search = solvers._searcher(g, kind)
            together = search(1, g.n - 1)
            assert len(set(seen)) == len(seen), kind.key
            for size in range(g.n + 1):
                assert together[size] == search(size, size)[size], (kind.key, size)

    def test_witnesses_match_golden(self):
        # an admissible bound prunes only subtrees that cannot beat the
        # incumbent, so tightening it keeps the sequence of improving leaves
        # and with it every witness the search returns
        graphs = {
            "cycle:7": cycle(7),
            "hypercube:3": hypercube(3),
            "petersen": load_graph_text((FIXTURES / "petersen.g6").read_text()),
            "random:9:0.4@5": from_spec("random:9:0.4", 5),
        }
        golden = json.loads((GOLDEN / "branch_bound_witnesses.json").read_text())
        assert set(golden) == set(graphs)
        for name, g in graphs.items():
            for kind in KIND_ORDER:
                found = []
                for i in range(g.n + 1):
                    value, witness = branch_bound_extremal(g, kind, i)
                    found.append([value, witness.bits])
                assert found == golden[name][kind.key], (name, kind.key)


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
            for strategy in ("oracle", "reduced", "checked"):
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
        assert all_profiles(big)[MetricKind.MAX_INDUCED].provenance == "exhaustive"

    @pytest.mark.parametrize("strategy, walks", [("checked", 2), ("oracle", 1), ("reduced", 0)])
    def test_exhaustive_walks_per_strategy(self, monkeypatch, strategy, walks):
        assert _count_solver_calls(monkeypatch, cycle(6), strategy)["walk"] == walks

    def test_auto_above_eight_vertices_walks_once(self, monkeypatch):
        # above n = 8, auto is one unchecked walk: no complement walk and
        # no branch and bound
        assert _count_solver_calls(monkeypatch, cycle(9), "auto") == {"walk": 1, "search": 0}

    def test_checked_at_benchmark_scale(self, monkeypatch):
        # the checked route at n = 16: both walks and a branch-and-bound
        # profile per kind, every value and witness cross-checked
        g = from_spec("random:16:0.5", 1729)
        calls = _count_solver_calls(monkeypatch, g, "checked")
        assert calls == {"walk": 2, "search": len(KIND_ORDER)}

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            all_profiles(cycle(4), strategy="psychic")

    def test_mirrored_witnesses_reevaluate(self):
        g = cycle(7)
        ps = all_profiles(g, strategy="reduced")
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

    def test_walk_refuses_more_than_64_vertices(self):
        # a raised cap admits the graph, but the walk could never finish
        with pytest.raises(VertexCapError, match="at most 64"):
            profile_exhaustive(empty(65), cap=65)

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
    # the n <= 8 corpus sweep lives in the acceptance suite; above it the
    # default strategy trusts one unchecked walk, so spot-check that every
    # walk witness attains its value and the pruned search agrees
    from isoprofile import random_graph

    for k, n in enumerate((9, 10, 11, 12, 13)):
        g = random_graph(n, (0.3, 0.5, 0.7)[k % 3], 42000 + k)
        walked = profile_exhaustive(g)
        for kind in KIND_ORDER:
            for i, witness in enumerate(walked[kind].witnesses):
                metrics = metrics_from_mask(g, witness.bits)
                assert metrics.size == i, (n, kind.key, i)
                assert getattr(metrics, kind.counter) == walked[kind].values[i], (n, kind.key, i)
        ps = all_profiles(g, strategy="reduced")
        for kind in KIND_ORDER:
            assert ps[kind].values == walked[kind].values, (n, kind.key)

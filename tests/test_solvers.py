import json
import math
import operator
import sys
from itertools import accumulate, combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoprofile import (
    KIND_ORDER,
    InternalInconsistencyError,
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
    verify_theorem,
)
from isoprofile import solvers
from isoprofile.formats import load_graph_text

from oracle import brute_all_profiles, brute_count, walk_witnesses

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return from_edge_list(n, [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1])


def _count_solver_calls(monkeypatch, graph, strategy):
    # walk: calls of _walk, which the graph's walk and the complement's
    # values-only walk both go through; search: branch-and-bound
    # searches, one per kind whichever strategy runs it
    import isoprofile.solvers as solvers_mod

    calls = {"walk": 0, "search": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solvers_mod, "_walk", counting("walk", solvers_mod._walk))
    monkeypatch.setattr(solvers_mod, "_search", counting("search", solvers_mod._search))
    all_profiles(graph, strategy=strategy)
    return calls


def _assert_naive_first_witnesses(g, profiles, width=solvers._BLOCK):
    # every value, and every witness the first optimal set of the walk's
    # order for a block of width bits, as the naive oracle finds them
    edges = g.edges()
    for kind in KIND_ORDER:
        for i, (value, first) in enumerate(walk_witnesses(g.n, edges, kind.counter, kind.sense, width)):
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

    def test_cut_max_witness_is_first_walked(self):
        # at n = 4 step 0 is the whole walk, so the first optimal set it
        # meets is the lexicographically first one without vertex 3
        profile = profile_exhaustive(cycle(4))[MetricKind.MAX_CUT]
        assert profile.witnesses[2] == VertexSet.from_vertices(4, [0, 2])

    def test_size_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            extremal_exhaustive(cycle(4), MetricKind.MAX_INDUCED, 5)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_witnesses_match_naive_first_witness(self, g):
        # pins each walk witness to the first optimum of the naive walk order
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
        # walked ones), and the fold must still prefer the walked one;
        # a block of 2 walks 2^(n-3) high sets, most of which only tie
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_BLOCK", width)
            profiles = profile_exhaustive(g)
        _assert_naive_first_witnesses(g, profiles, width)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @given(g=small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_block_seams_match_naive_first_witness(self, width, g):
        # a narrow block leaves most walked bits to the Gray code over the
        # high sets, so one size's best is beaten across many of them
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_BLOCK", width)
            profiles = profile_exhaustive(g)
        _assert_naive_first_witnesses(g, profiles, width)

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    def test_first_step_matches_naive_first_witness(self, n, density):
        # step 0 seeds every tracker from one decode per table; at n = 11
        # it is the whole walk, at n = 12 the Gray code takes one more step
        g = from_spec(f"random:{n}:{density}", 11)
        _assert_naive_first_witnesses(g, profile_exhaustive(g))

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
        # (value, witness bits) of every kind and size; the values were
        # written before the walk was blocked, and the witnesses come from
        # the naive oracle's walk order. From n = 12 on the walked bits
        # outnumber the block
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


def _first_walked(n, j):
    # The walk's witness at size j where every j-set ties, as in the empty
    # and complete graphs, read off the naive walk order. With k =
    # min(_BLOCK, n - 1) block vertices n - 1 - k .. n - 2, step 0 meets the
    # first j of them for j <= k. A larger j needs j - k high vertices, and
    # the first Gray-code set of that many is the lowest j - k high walk
    # bits, the vertices just below the block: the run n - 1 - j .. n - 2.
    # Size n is only a complement, of the empty set.
    k = min(solvers._BLOCK, n - 1)
    if j == n:
        return set(range(n))
    return set(range(n - 1 - k, n - 1 - k + j)) if j <= k else set(range(n - 1 - j, n - 1))


class TestClosedForms:
    # every expected value comes from its formula, never from a solver

    @pytest.mark.parametrize("n", [11, 13, 16, 20])
    def test_empty(self, n):
        profiles = profile_exhaustive(empty(n))
        for kind in KIND_ORDER:
            assert profiles[kind].values == (0,) * (n + 1), kind.key
            assert [set(w) for w in profiles[kind].witnesses] == [_first_walked(n, i) for i in range(n + 1)], kind.key

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
            assert [set(w) for w in profiles[kind].witnesses] == [_first_walked(n, i) for i in range(n + 1)], kind.key

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
        # values only: the pair keeps its shape, and only the walk
        # returns a witness
        value, witness = branch_bound_extremal(cycle(5), MetricKind.MIN_CUT, 2)
        assert value == 2
        assert witness is None

    @given(small_graphs())
    @settings(max_examples=120, deadline=None)
    def test_values_match_exhaustive(self, g):
        for kind in KIND_ORDER:
            assert (
                profile_branch_bound(g, kind).values
                == profile_exhaustive(g)[kind].values
            )


@st.composite
def dense_or_sparse_graphs(draw, max_n=7):
    # each pair is an edge with probability density / 10, for a density
    # drawn from 1..9, so sparse and dense graphs both turn up
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    draws = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [pair for pair, x in zip(pairs, draws) if x < density])


@st.composite
def bound_cases(draw):
    # a graph, a vertex order, a prefix order[:start] holding the chosen
    # set, and 1 <= r <= n - start picks still to make from order[start:]
    g = draw(dense_or_sparse_graphs())
    order = draw(st.permutations(range(g.n)))
    start = draw(st.integers(min_value=0, max_value=g.n - 1))
    chosen = {v for v in order[:start] if draw(st.booleans())}
    r = draw(st.integers(min_value=1, max_value=g.n - start))
    return g, order, start, chosen, r


def _bound(g, kind, order):
    # the bound over order, with the pool masks the search passes it
    pool_mask = list(accumulate([1 << v for v in reversed(order)], operator.or_, initial=0))[::-1]
    return solvers._bound_fn(kind, g.adj, g.degrees, order, pool_mask)


def _count_bound_calls(monkeypatch):
    # per kind, [bounds calls, refine calls]: one bounds call per search
    # node that has a live size two or more picks away, and one refine
    # call per live size that its screen leaves inexact and passes
    calls = {kind: [0, 0] for kind in KIND_ORDER}
    real = solvers._bound_fn

    def counting(kind, *args):
        functions = real(kind, *args)

        def counted(which):
            def call(*call_args):
                calls[kind][which] += 1
                return functions[which](*call_args)

            return call

        return counted(0), counted(1)

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
            sign = 1 if kind.is_max else -1
            bounds, refine = _bound(g, kind, order)
            found, exact, terms = bounds(start, mask, r)
            value = brute_count(edges, chosen, kind.counter)
            for picked in range(1, r + 1):
                best = max(
                    sign * brute_count(edges, chosen | set(picks), kind.counter)
                    for picks in combinations(order[start:], picked)
                )
                for bound in (found[picked], refine(terms, picked)):
                    assert sign * value + bound >= best, (kind.key, picked)
                if picked >= exact:
                    # the search skips refine here, so the screen must be it
                    assert found[picked] == refine(terms, picked), (kind.key, picked)

    @pytest.mark.parametrize("kind, bound", [
        (MetricKind.MAX_INDUCED, 0),
        (MetricKind.MIN_COVERED, 4),
        (MetricKind.MIN_CUT, 4),
    ])
    def test_skipped_vertices_are_no_neighbours(self, kind, bound):
        # star(8) with its centre skipped: four picks among the leaves
        # induce no edge, cover four and cut four. Counting the centre as
        # a neighbour, as deg(x) - a does, gives 2, 2 and 0
        sign = 1 if kind.is_max else -1
        bounds, refine = _bound(star(8), kind, list(range(8)))
        found, _, terms = bounds(1, 0, 4)
        assert sign * found[4] == bound
        assert sign * refine(terms, 4) == bound

    def test_max_induced_counts_each_future_edge_once(self):
        # four picks from K8 induce C(4, 2) = 6 edges; counting every edge
        # from both ends would give 12
        k8 = complete(8)
        bounds, _ = _bound(k8, MetricKind.MAX_INDUCED, list(range(8)))
        assert bounds(0, 0, 4)[0][4] == 6

    def test_building_the_bound_allocates_no_pool_degree_table(self):
        # the pool degree p(x) is counted at each call, and the largest p
        # is kept once per start: an n x n table of p would take about
        # 8 MB here
        import tracemalloc

        g = from_spec("random:1024:0.5", 1)
        order = list(range(g.n))
        tracemalloc.start()
        try:
            bounds, _ = _bound(g, MetricKind.MAX_INDUCED, order)
            bounds(0, 0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_search_nodes_do_not_regress(self, monkeypatch):
        # timing-free regression signal: (bounds, refine) calls per kind in
        # the one search that solves every size, on three fixed graphs.
        # Leaves of 8 pool vertices made (13, 3)/(13, 0)/(13, 0)/(13, 3)/
        # (13, 0)/(13, 5) on regular:10:3, 139/612/473/496/722/819 bounds
        # calls on random:16:0.5 and 3370/8386/8386/3370/8386/5136 on
        # regular:20:4. Capping inside edges by deg(x) - a instead of the
        # pool degree made 201/612/473/554/722/824 and 9897/8386/8386/9897/
        # 8386/11281 on the last two; a search per size made 274/428/428/
        # 274/428/371 and 994/5753/4057/3475/7961/6298 on the first two
        _assert_bound_calls_within(monkeypatch, {
            ("regular:10:3", 3): ((1, 2), (1, 0), (1, 0), (1, 2), (1, 0), (1, 2)),
            ("random:16:0.5", 1729): ((68, 50), (72, 0), (83, 0), (87, 212), (86, 0), (88, 381)),
            ("regular:20:4", 1729): ((1138, 222), (1099, 0), (1099, 0), (1138, 222), (1099, 0), (1247, 437)),
        })

    def test_half_range_nodes_do_not_regress(self, monkeypatch):
        # the same signal on the plan the strategies run: each kind searched
        # on sizes 1..n//2, its greedy chain stopping there too
        _assert_bound_calls_within(monkeypatch, {
            ("random:16:0.5", 1729): ((68, 31), (72, 0), (83, 0), (87, 86), (86, 0), (88, 205)),
            ("regular:20:4", 1729): ((1020, 205), (957, 0), (957, 0), (1020, 205), (957, 0), (1166, 399)),
        }, half=True)

    def test_search_nodes_do_not_regress_without_leaf_tables(self, monkeypatch):
        # the bound's own pruning, down to single picks; capping inside
        # edges by deg(x) - a made 74/87/87/74/87/95 and 218/1455/1010/
        # 723/1995/1150 bounds calls
        monkeypatch.setattr(solvers, "_LEAF", 0)
        _assert_bound_calls_within(monkeypatch, {
            ("regular:10:3", 3): ((48, 5), (87, 0), (87, 0), (48, 5), (87, 0), (70, 10)),
            ("random:16:0.5", 1729): ((154, 69), (1455, 0), (1010, 0), (647, 807), (1995, 0), (1070, 2075)),
        })

    @given(small_graphs(max_n=8))
    @settings(max_examples=120, deadline=None)
    def test_one_search_matches_size_by_size(self, g):
        # the search over every size returns, at each size, the value and
        # witness of a search for that size alone, and bounds each node
        # once; every graph here is one leaf table at the root
        _assert_one_search_matches_size_by_size(g)

    @pytest.mark.parametrize("leaf", [0, 3])
    @given(g=small_graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_one_search_matches_size_by_size_below_leaf(self, leaf, g):
        # the same through the branching: no leaf table, or pools of 3
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_LEAF", leaf)
            _assert_one_search_matches_size_by_size(g)

    @given(small_graphs(max_n=11))
    @settings(max_examples=60, deadline=None)
    def test_leaf_tables_keep_every_value(self, g):
        # a leaf table reads the maximum of its fields, so every value is
        # the one of the search without tables
        for kind in KIND_ORDER:
            scored = solvers._search(g, kind, 1, g.n - 1)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solvers, "_LEAF", 0)
                branched = solvers._search(g, kind, 1, g.n - 1)
            assert scored == branched, kind.key

    def test_values_match_golden(self):
        # an admissible bound prunes only subtrees that cannot beat the
        # incumbent, so every size ends at its optimum
        _assert_branch_bound_golden()

    @pytest.mark.parametrize("leaf", [0, 3])
    def test_values_match_golden_below_leaf(self, monkeypatch, leaf):
        # cycle:7 and hypercube:3 are one leaf table at the root by default
        monkeypatch.setattr(solvers, "_LEAF", leaf)
        _assert_branch_bound_golden()

    @pytest.mark.parametrize("spec, seed", [
        ("random:13:0.5", 1),
        ("random:14:0.3", 2),
        ("regular:15:4", 3),
        ("random:16:0.7", 4),
    ])
    def test_partial_leaves_keep_every_value(self, spec, seed):
        # above the leaf size the root branches, and many of its leaves
        # score only one or two live sizes: values do not depend on where
        # the branching stops
        g = from_spec(spec, seed)
        for kind in KIND_ORDER:
            found = {}
            for leaf in (0, 8, solvers._LEAF):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(solvers, "_LEAF", leaf)
                    found[leaf] = solvers._search(g, kind, 1, g.n)
            assert found[0] == found[8] == found[solvers._LEAF], kind.key

    @pytest.mark.parametrize("p, lo, hi", [
        (0, 0, 0), (1, 0, 1), (3, 1, 1), (4, 0, 4), (5, 2, 3), (6, 0, 3), (6, 3, 6), (6, 6, 6),
    ])
    def test_layout_matches_combinations(self, p, lo, hi):
        # the one layout of the walk's block, the leaves and the values-only
        # root: sizes lo..hi ascending, each in combinations order, with
        # per-size spans, the all-ones int and one indicator int per position
        subsets, spans, ones, members = solvers._layout(p, lo, hi)
        expected = [set(combo) for t in range(lo, hi + 1) for combo in combinations(range(p), t)]
        assert [{j for j in range(p) if mask >> j & 1} for mask in subsets] == expected
        ends = list(accumulate((math.comb(p, t) for t in range(lo, hi + 1)), initial=0))
        assert spans == list(zip(ends, ends[1:]))
        assert all(len(expected[i]) == t for t, (a, z) in zip(range(lo, hi + 1), spans) for i in range(a, z))

        def decoded(packed):
            assert packed >> 16 * len(expected) == 0
            return [packed >> 16 * i & 0xFFFF for i in range(len(expected))]

        assert decoded(ones) == [1] * len(expected)
        assert len(members) == p
        for j, member in enumerate(members):
            assert decoded(member) == [int(j in inside) for inside in expected], j

    def test_leaf_tables_are_built_lazily_and_shared(self, monkeypatch):
        # random:10:0.5 is one leaf at the root, and each kind's search on
        # sizes 1..5 reads the sums of its whole order at t = 1..5 only;
        # the max kinds share one order and the min kinds another, so six
        # searches sharing one dict build each (pool, t) once. Nothing
        # outlives the dict: six more searches with a new one build them
        # all again.
        built = []
        real = solvers._sums

        def counting(graph, pool, members):
            # every field of a leaf's layout is a t-subset T, and the
            # indicators sum to |T| in field T
            built.append((pool, sum(members) & 0xFFFF))
            return real(graph, pool, members)

        g = from_spec("random:10:0.5", 2)
        # the walk's block reads _sums too, so it walks before the patch
        walked = profile_exhaustive(g)
        monkeypatch.setattr(solvers, "_sums", counting)
        orders = {tuple(sorted(range(g.n), key=lambda v: (-sign * g.degrees[v], v))) for sign in (1, -1)}
        assert len(orders) == 2
        once = sorted((order, t) for order in orders for t in range(1, 6))
        sums = {}
        for kind in KIND_ORDER:
            assert solvers._search(g, kind, 1, 5, sums) == list(walked[kind].values[:6]), kind.key
        assert sorted(built) == once
        sums = {}
        for kind in KIND_ORDER:
            solvers._search(g, kind, 1, 5, sums)
        assert sorted(built) == sorted(once * 2)

    def test_search_refuses_more_vertices_than_its_fields_hold(self):
        # at the solvers' limit of 64 vertices a leaf table field lies in
        # [1, _LEAF * (2n - 1)] and the least value a field must reach to
        # beat its incumbent in [1 - m, m + n * _LEAF + 1]; the threshold
        # test adds 0x8000 - least to every field, so both the largest
        # least and the largest field minus the smallest least must stay
        # below 2^15 for no field to borrow from or carry into the next
        limit = 64
        assert math.comb(limit, 2) + limit * solvers._LEAF + 1 < 1 << 15
        assert solvers._LEAF * (2 * limit - 1) + math.comb(limit, 2) - 1 < 1 << 15
        with pytest.raises(VertexCapError, match=f"at most {limit} vertices"):
            profile_branch_bound(empty(limit + 1), MetricKind.MAX_INDUCED, cap=limit + 1)


def _assert_bound_calls_within(monkeypatch, pins, half=False):
    # the full-range search per kind, or with half the plan of checked and
    # reduced, which searches each kind on sizes 1..n//2
    for (spec, seed), counts in pins.items():
        calls = _count_bound_calls(monkeypatch)
        g = from_spec(spec, seed)
        walked = profile_exhaustive(g, witnesses=False)
        if half:
            searched = {kind: profile.values for kind, profile in solvers._half_searched(g).items()}
        else:
            searched = {kind: profile_branch_bound(g, kind).values for kind in KIND_ORDER}
        for kind in KIND_ORDER:
            assert searched[kind] == walked[kind].values, (spec, kind.key)
        for kind, pin in zip(KIND_ORDER, counts):
            assert all(made <= most for made, most in zip(calls[kind], pin)), (spec, kind.key, calls[kind])


def _assert_plans_match_walk(g):
    # the half-range plan's values equal the full-range search's and the
    # walk's for every kind and size, so the n <= 12 table plan is checked
    # against a search too
    walked = profile_exhaustive(g, witnesses=False)
    plan = solvers._half_searched(g)
    for kind in KIND_ORDER:
        assert plan[kind].values == profile_branch_bound(g, kind).values == walked[kind].values, kind.key


def _greedy_picks(plan):
    # plan's result and the lines of its greedy picks: each is the one
    # list.remove that _search itself calls
    picks = []

    def profiler(frame, event, arg):
        if event == "c_call" and frame.f_code.co_name == "_search" and getattr(arg, "__name__", "") == "remove":
            picks.append(frame.f_lineno)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        return plan(), picks
    finally:
        sys.setprofile(previous)


def _assert_one_search_matches_size_by_size(g):
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
            together = solvers._search(g, kind, 1, g.n)
        assert len(set(seen)) == len(seen), kind.key
        for size in range(g.n + 1):
            assert together[size] == solvers._search(g, kind, size, size)[size], (kind.key, size)


def _assert_branch_bound_golden():
    graphs = {
        "cycle:7": cycle(7),
        "hypercube:3": hypercube(3),
        "petersen": load_graph_text((FIXTURES / "petersen.g6").read_text()),
        "random:9:0.4@5": from_spec("random:9:0.4", 5),
    }
    golden = json.loads((GOLDEN / "branch_bound_values.json").read_text())
    assert set(golden) == set(graphs)
    for name, g in graphs.items():
        for kind in KIND_ORDER:
            found = [branch_bound_extremal(g, kind, i)[0] for i in range(g.n + 1)]
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


class TestKindAlgebra:
    # MetricKind's sign, gains and dual against the independent counters
    # of metrics_from_mask, on every subset of each graph

    @given(small_graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_gains_and_duals_match_the_counters(self, g):
        full = (1 << g.n) - 1
        counters = [metrics_from_mask(g, mask) for mask in range(full + 1)]
        for mask, here in enumerate(counters):
            there = counters[full ^ mask]
            for kind in KIND_ORDER:
                x = getattr(here, kind.counter)
                for v in range(g.n):
                    if not mask >> v & 1:
                        gain = kind.per_degree * g.degrees[v] + kind.per_inside * (g.adj[v] & mask).bit_count()
                        assert getattr(counters[mask | 1 << v], kind.counter) - x == gain, (kind.key, mask, v)
                y = getattr(here, kind.dual.counter)
                expected = y if kind.counter == "cut" else g.m - y
                assert getattr(there, kind.counter) == expected == kind.from_dual(y, g.m), (kind.key, mask)

    def test_dual_is_an_involution_that_flips_the_sense_off_the_cut(self):
        for kind in KIND_ORDER:
            assert kind.dual.dual is kind
            assert (kind.dual.is_max != kind.is_max) == (kind.counter != "cut"), kind.key
            assert kind.sign == (1 if kind.is_max else -1)

    @pytest.mark.parametrize(
        "wrong",
        [
            {MetricKind.MAX_COVERED: MetricKind.MAX_INDUCED, MetricKind.MIN_COVERED: MetricKind.MIN_INDUCED},
            {MetricKind.MAX_CUT: MetricKind.MIN_CUT, MetricKind.MIN_CUT: MetricKind.MAX_CUT},
            {MetricKind.MAX_INDUCED: MetricKind.MAX_INDUCED},
        ],
        ids=["covered-duals-swapped", "cut-kinds-crossed", "max-induced-self-dual"],
    )
    @pytest.mark.parametrize("spec", ["cycle:6", "star:6", "random:9:0.4", "random:14:0.5"])
    def test_wrong_dual_is_caught_under_checked(self, monkeypatch, wrong, spec):
        g = from_spec(spec)
        for kind, dual in wrong.items():
            monkeypatch.setattr(kind, "dual", dual)
        with pytest.raises(InternalInconsistencyError):
            all_profiles(g, "checked")


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

    def test_missing_base(self):
        with pytest.raises(ValueError, match="missing base profile"):
            profile_by_reduction(cycle(4), MetricKind.MAX_COVERED)

    @given(small_graphs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_every_reduction_keeps_the_walk_values(self, g):
        # every kind, n/2 included: a covered or cut kind reads its base at
        # n - i, an induced kind the complement graph's at i
        walked = profile_exhaustive(g)
        co = profile_exhaustive(complement(g))
        for kind in KIND_ORDER:
            derived = profile_by_reduction(g, kind, bases=walked, complement_bases=co)
            assert derived.values == walked[kind].values, kind.key
            assert derived.witnesses is None, kind.key

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

    # Work counts of checked with witnesses on the two sweep-small
    # generators and on random:16:0.5: each distinct walk witness is
    # evaluated once (18 of 66, 37 of 60 and 78 of 102 witnesses, counted
    # on the naive oracle's walk order), and the only sets built are the
    # walk's own witnesses.
    CHECKED_WORK = [("regular:10:3", 3, 18), ("random:9:0.4", 1729, 37), ("random:16:0.5", 1729, 78)]

    @pytest.mark.parametrize("spec, seed, distinct", CHECKED_WORK)
    def test_checked_evaluates_each_distinct_witness_once(self, monkeypatch, spec, seed, distinct):
        g = from_spec(spec, seed)
        walked = {w.bits for profile in profile_exhaustive(g).values() for w in profile.witnesses}
        masks = []
        real = solvers.metrics_from_mask
        monkeypatch.setattr(solvers, "metrics_from_mask", lambda graph, mask: masks.append(mask) or real(graph, mask))
        all_profiles(g, strategy="checked")
        assert len(masks) == len(set(masks)) == distinct
        assert set(masks) == walked

    @pytest.mark.parametrize("spec, seed, distinct", CHECKED_WORK)
    def test_checked_builds_no_complement_witness(self, monkeypatch, spec, seed, distinct):
        g = from_spec(spec, seed)
        built = []
        real = VertexSet.__init__
        monkeypatch.setattr(VertexSet, "__init__", lambda self, n, bits: built.append(bits) or real(self, n, bits))
        profiles, co = solvers._solve(g, "checked", None)
        assert all(profile.witnesses is None for profile in co.values())
        assert sorted(built) == sorted({w.bits for profile in profiles.values() for w in profile.witnesses})
        assert len(built) == distinct

    # Neither verify nor the profile command prints a witness, so under
    # every strategy they build no witness set and evaluate none, on the
    # same graphs.
    @staticmethod
    def _witness_work(monkeypatch):
        # the masks of the sets the solver routes build (their VertexSets
        # and the reductions' complements) and of those they evaluate
        built, evaluated = [], []
        real_set, real_complement, real_metrics = solvers.VertexSet, VertexSet.complement, solvers.metrics_from_mask
        monkeypatch.setattr(solvers, "VertexSet", lambda n, bits: built.append(bits) or real_set(n, bits))
        monkeypatch.setattr(VertexSet, "complement", lambda self: built.append(self.bits) or real_complement(self))
        monkeypatch.setattr(solvers, "metrics_from_mask", lambda graph, mask: evaluated.append(mask) or real_metrics(graph, mask))
        return built, evaluated

    @pytest.mark.parametrize("strategy", solvers.STRATEGIES)
    @pytest.mark.parametrize("spec, seed", [(spec, seed) for spec, seed, _ in CHECKED_WORK])
    def test_verify_builds_and_evaluates_no_witness(self, monkeypatch, strategy, spec, seed):
        g = from_spec(spec, seed)
        built, evaluated = self._witness_work(monkeypatch)
        assert verify_theorem(g, strategy).consistent
        assert built == [] and evaluated == []

    @pytest.mark.parametrize("strategy", solvers.STRATEGIES)
    @pytest.mark.parametrize("spec, seed", [(spec, seed) for spec, seed, _ in CHECKED_WORK])
    def test_profile_command_builds_and_evaluates_no_witness(self, monkeypatch, capsys, strategy, spec, seed):
        from isoprofile.cli import main

        built, evaluated = self._witness_work(monkeypatch)
        for fmt in ("csv", "json", "human"):
            assert main(["profile", "--gen", spec, "--seed", str(seed), "--strategy", strategy, "--format", fmt]) == 0
        assert built == [] and evaluated == []

    @pytest.mark.parametrize("spec, seed, distinct", CHECKED_WORK)
    def test_checked_with_witnesses_still_evaluates_them(self, monkeypatch, spec, seed, distinct):
        # the pins above count what they should: all_profiles still builds
        # and evaluates every distinct witness
        built, evaluated = self._witness_work(monkeypatch)
        all_profiles(from_spec(spec, seed), "checked")
        assert len(set(built)) == len(evaluated) == distinct

    # the sweep-small graphs and random:16:0.5, and graphs whose walk runs the Gray code
    @pytest.mark.parametrize(
        "spec, seed",
        [(spec, seed) for spec, seed, _ in CHECKED_WORK] + [("random:12:0.5", 2), ("regular:14:3", 2), ("random:17:0.3", 1)],
    )
    def test_values_only_walk_matches_walk(self, spec, seed):
        co = complement(from_spec(spec, seed))
        assert {kind: p.values for kind, p in solvers._walk(co, False).items()} == {
            kind: p.values for kind, p in profile_exhaustive(co).items()
        }

    # a block of 2 leaves most of the walk to the Gray code
    @pytest.mark.parametrize("width", [10, 2])
    @given(g=small_graphs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_values_only_walk_matches_walk_sample(self, width, g):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_BLOCK", width)
            values, walked = solvers._walk(g, False), profile_exhaustive(g)
        for kind, profile in walked.items():
            assert values[kind].values == profile.values
            assert values[kind].witnesses is None

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            all_profiles(cycle(4), strategy="psychic")

    # checked and reduced search each kind on the lower half of the sizes
    # only, and read the upper half off the dual kind. Their plan is
    # values only, so up to 12 vertices it searches nothing.
    @pytest.mark.parametrize("strategy", ["checked", "reduced"])
    @pytest.mark.parametrize("spec, seed", [("cycle:6", 0), ("cycle:7", 0), ("random:13:0.5", 1), ("regular:14:3", 2)])
    def test_each_kind_searched_up_to_half(self, monkeypatch, strategy, spec, seed):
        g = from_spec(spec, seed)
        asked = []
        real = solvers._search

        def recording(graph, kind, lo, hi, sums=None):
            asked.append((kind, lo, hi))
            return real(graph, kind, lo, hi, sums)

        monkeypatch.setattr(solvers, "_search", recording)
        all_profiles(g, strategy=strategy)
        searched = g.n > solvers._LEAF
        expected = [(kind, 1, g.n // 2) for kind in KIND_ORDER] if searched else []
        assert sorted(asked, key=lambda call: KIND_ORDER.index(call[0])) == expected

    # Above 12 vertices each search of the half-range plan makes one
    # greedy pick per size it returns, n // 2 of them, where it used to
    # pick all n vertices and drop the top half; up to 12 the plan runs no
    # search and so picks nothing. A pick removes its vertex from the
    # remaining ones, the only list.remove that search itself calls.
    @pytest.mark.parametrize(
        "spec, seed",
        [("cycle:7", 0), ("regular:10:3", 3), ("random:9:0.4", 1729), ("random:16:0.5", 1729), ("regular:14:3", 2)],
    )
    def test_half_range_greedy_chains_stop_at_half(self, spec, seed):
        g = from_spec(spec, seed)
        plan, picks = _greedy_picks(lambda: solvers._half_searched(g))
        assert len(picks) == (len(KIND_ORDER) * (g.n // 2) if g.n > solvers._LEAF else 0)
        walked = profile_exhaustive(g)
        assert all(plan[kind].values == walked[kind].values for kind in KIND_ORDER)

    # The half-range plan at n <= _LEAF searches nothing and reads every
    # size off one table per counter: its values are the full-range
    # search's and the walk's
    @given(g=small_graphs(max_n=12))
    @example(g=empty(1))
    @example(g=from_edge_list(2, [(0, 1)]))
    @example(g=empty(12))
    @example(g=complete(12))
    @example(g=star(12))
    @example(g=from_edge_list(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_values_only_leaf_root_is_exact(self, g):
        _assert_plans_match_walk(g)

    # on either side of the switch from one table per counter (n <= 12)
    # to branch and bound (n = 13)
    @pytest.mark.parametrize(
        "spec",
        ["regular:12:3", "regular:12:5", "regular:13:4", "random:12:0.5", "random:13:0.5", "empty:12", "complete:12"],
    )
    def test_values_only_plan_matches_across_leaf_switch(self, spec):
        _assert_plans_match_walk(from_spec(spec, 1729))

    # The half-range plan at n <= _LEAF makes no greedy pick and runs no
    # search: it reads the size-range layout once, builds its degree and
    # edge sums once and decodes one table per counter. checked and
    # reduced both run it, whether or not their caller wants witnesses.
    @pytest.mark.parametrize("spec, seed", [("regular:10:3", 3), ("random:9:0.4", 1729)])
    def test_values_only_leaf_root_reads_one_table_per_counter(self, monkeypatch, spec, seed):
        g = from_spec(spec, seed)
        calls = {name: [] for name in ("_fields", "_layout", "_sums", "_search")}
        for name, seen in calls.items():
            real = getattr(solvers, name)
            monkeypatch.setattr(solvers, name, lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
        decodes, layouts, built, asked = calls.values()
        plan, picks = _greedy_picks(lambda: solvers._half_searched(g))
        assert (picks, len(decodes), layouts, len(built), asked) == ([], 3, [(g.n, 0, g.n // 2)], 1, [])
        walked = profile_exhaustive(g, witnesses=False)
        assert all(plan[kind].values == walked[kind].values for kind in KIND_ORDER)
        all_profiles(g, "checked")
        assert asked == []
        for witnesses in (True, False):
            asked.clear()
            solvers._solve(g, "reduced", None, witnesses)
            assert asked == []

    # Only the walk returns witnesses: the search, its plan, the reduced
    # strategy and checked without witnesses build no VertexSet, while
    # oracle with witnesses does
    @pytest.mark.parametrize("spec, seed", [("cycle:7", 0), ("regular:14:3", 2)])
    def test_only_the_walk_builds_witnesses(self, monkeypatch, spec, seed):
        g = from_spec(spec, seed)
        built = []
        real = solvers.VertexSet
        monkeypatch.setattr(solvers, "VertexSet", lambda n, bits: built.append(bits) or real(n, bits))
        all_profiles(g, "reduced")
        solvers._half_searched(g)
        solvers._solve(g, "checked", None, False)
        for kind in KIND_ORDER:
            profile_branch_bound(g, kind)
            for i in range(g.n + 1):
                branch_bound_extremal(g, kind, i)
        assert built == []
        all_profiles(g, "oracle")
        assert built


class TestCap:
    def test_default_cap_blocks_25_vertices(self):
        g = empty(25)
        with pytest.raises(VertexCapError, match="cap of 24"):
            profile_exhaustive(g)[MetricKind.MAX_INDUCED]

    def test_override_allows(self):
        g = empty(25)
        profile = profile_branch_bound(g, MetricKind.MAX_INDUCED, cap=25)
        assert set(profile.values) == {0}

    @pytest.mark.parametrize(
        "route",
        [
            lambda g: profile_exhaustive(g, cap=65),
            lambda g: profile_branch_bound(g, MetricKind.MIN_CUT, cap=65),
            lambda g: branch_bound_extremal(g, MetricKind.MAX_INDUCED, 3, cap=65),
            *[lambda g, strategy=strategy: all_profiles(g, strategy, cap=65) for strategy in solvers.STRATEGIES],
            lambda g: verify_theorem(g, cap=65),
        ],
        ids=["exhaustive", "branch_bound", "extremal", *solvers.STRATEGIES, "verify"],
    )
    def test_every_route_refuses_more_than_64_vertices(self, route):
        # a raised cap admits the graph, but the walk could never finish,
        # and every other route shares its limit
        with pytest.raises(VertexCapError, match="at most 64 vertices"):
            route(empty(65))

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

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprofile import (
    Graph,
    VertexSet,
    complement,
    complete,
    cycle,
    degree_summary,
    empty,
    from_edge_list,
    from_spec,
    hypercube,
    is_connected,
    path,
    random_graph,
    random_regular,
    star,
    to_graph6,
)
from isoprofile.graphs import _GENERATORS, _spec_order


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
    return from_edge_list(n, edges)


class TestConstruction:
    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3 and g.m == 3
        assert g.degrees == (2, 2, 2)

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_cycle4_degree_sequence(self):
        assert from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).degrees == (2, 2, 2, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            from_edge_list(3, [(0, 3)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(0, [])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, [0b10, 0b00])

    def test_edges_roundtrip(self):
        edges = [(0, 2), (1, 3), (2, 3)]
        assert from_edge_list(4, edges).edges() == sorted(edges)


class TestGenerators:
    def test_complete4(self):
        g = complete(4)
        assert g.m == 6
        assert degree_summary(g).is_regular

    def test_star4(self):
        g = star(4)
        assert g.m == 3
        assert sorted(g.degrees) == [1, 1, 1, 3]
        assert not degree_summary(g).is_regular

    def test_cycle5(self):
        g = cycle(5)
        assert g.m == 5
        assert degree_summary(g) == degree_summary(g)
        assert degree_summary(g).min_degree == degree_summary(g).max_degree == 2

    def test_path_and_empty(self):
        assert path(2).m == 1
        assert path(1).m == 0
        assert empty(5).m == 0

    def test_cycle_minimum(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_star_minimum(self):
        with pytest.raises(ValueError):
            star(1)

    @pytest.mark.parametrize("d,n,m", [(1, 2, 1), (2, 4, 4), (3, 8, 12)])
    def test_hypercube_shape(self, d, n, m):
        g = hypercube(d)
        assert g.n == n and g.m == m
        assert set(g.degrees) == {d}

    def test_hypercube_adjacency_is_hamming(self):
        g = hypercube(3)
        for u in range(8):
            for v in range(8):
                assert g.has_edge(u, v) == (bin(u ^ v).count("1") == 1)

    def test_hypercube_range(self):
        with pytest.raises(ValueError):
            hypercube(0)


class TestComplementAndConnectivity:
    def test_complement_of_complete_is_empty(self):
        assert complement(complete(4)) == empty(4)

    def test_complement_of_cycle5_is_two_regular(self):
        summary = degree_summary(complement(cycle(5)))
        assert summary.is_regular and summary.min_degree == 2

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_complement_degrees(self, g):
        co = complement(g)
        for v in range(g.n):
            assert g.degrees[v] + co.degrees[v] == g.n - 1

    def test_disconnected(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_connected(self):
        assert is_connected(cycle(6))
        assert is_connected(path(1))
        assert not is_connected(empty(2))

    @given(small_graphs(max_n=10), st.integers(min_value=0, max_value=(1 << 10) - 1))
    @settings(max_examples=100, deadline=None)
    def test_bit_iteration_matches_has_edge_and_networkx(self, g, side):
        # dropping every edge across the split (side, rest) makes most
        # samples disconnected
        g = Graph(g.n, [row & side if (side >> v) & 1 else row & ~side for v, row in enumerate(g.adj)])
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]
        assert g.edges() == pairs
        for v in range(g.n):
            assert g.neighbors(v) == tuple(u for u in range(g.n) if g.has_edge(v, u))
        reference = nx.Graph(pairs)
        reference.add_nodes_from(range(g.n))
        assert is_connected(g) == nx.is_connected(reference)


class TestRandomGraphs:
    def test_p_zero_and_one(self):
        assert random_graph(6, 0.0, 1).m == 0
        assert random_graph(6, 1.0, 1) == complete(6)

    def test_deterministic_per_seed(self):
        assert random_graph(10, 0.5, 42) == random_graph(10, 0.5, 42)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_graph(4, 1.5, 1)

    def test_regular_output_is_regular(self):
        for seed in range(5):
            g = random_regular(8, 3, seed)
            summary = degree_summary(g)
            assert summary.is_regular and summary.min_degree == 3

    def test_two_regular_is_cycle_union(self):
        g = random_regular(6, 2, 0)
        assert set(g.degrees) == {2}

    def test_infeasible_parity(self):
        with pytest.raises(ValueError, match="odd"):
            random_regular(5, 3, 0)

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            random_regular(4, 4, 0)

    def test_deterministic_regular(self):
        assert random_regular(8, 3, 7) == random_regular(8, 3, 7)

    @pytest.mark.parametrize("n, d", [(16, 7), (20, 9), (24, 11)])
    def test_dense_regular_within_cap(self, n, d):
        # the pairing model gives up on these; the switch chain builds them
        g = random_regular(n, d, 1729)
        assert set(g.degrees) == {d} and g.m == n * d // 2
        assert g == random_regular(n, d, 1729)

    @pytest.mark.parametrize(
        "spec, seed, graph6",
        [
            ("regular:8:3", 7, "Gbok`K"),
            ("regular:10:3", 5, "I`U_IOq_o"),
            ("regular:12:5", 3, "Kwcixr?XGjq["),
            ("regular:20:4", 1729, "SAO@?wCLH?O?U_?@?oKDOo@?@Gk@I@OQ?"),
            ("regular:10:3", 1, "I`eB@HSAo"),
        ],
    )
    def test_pairing_streams_frozen(self, spec, seed, graph6):
        # graphs the pairing model builds keep their bytes across changes
        # to the fallback
        assert to_graph6(from_spec(spec, seed)) == graph6

    def test_switch_chain_stream_frozen(self):
        # the pairing model gives up on regular:10:7, so the switch chain
        # builds it; a fixed seed keeps its bytes
        assert to_graph6(from_spec("regular:10:7", 1)) == "I^v~T\\ztw"

    @pytest.mark.parametrize(
        "n, d, graph6",
        [(8, 3, "GkEZ@S"), (12, 5, "KxNsOCLUSfG]"), (16, 7, "OAEorEL^D]ySw\\Bh\\GNcB")],
    )
    def test_switch_chain_only_streams_frozen(self, monkeypatch, n, d, graph6):
        import isoprofile.graphs as graphs_mod

        monkeypatch.setattr(graphs_mod, "PAIRING_RESAMPLE_BUDGET", 0)
        assert to_graph6(random_regular(n, d, n + d)) == graph6

    def test_switch_chain_on_every_small_spec(self, monkeypatch):
        import isoprofile.graphs as graphs_mod

        monkeypatch.setattr(graphs_mod, "PAIRING_RESAMPLE_BUDGET", 0)
        for n in range(1, 11):
            for d in range(n):
                if n * d % 2:
                    continue
                g = random_regular(n, d, n + d)
                assert set(g.degrees) == {d}, (n, d)
                assert g == random_regular(n, d, n + d), (n, d)


class TestVertexSet:
    def test_complement_partition(self):
        s = VertexSet.from_vertices(5, [0, 2])
        assert len(s) + len(s.complement()) == 5
        assert s.complement().complement() == s

    def test_membership_and_iteration(self):
        s = VertexSet.from_vertices(6, [5, 1, 3])
        assert list(s) == [1, 3, 5]
        assert 3 in s and 0 not in s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.from_vertices(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, 0b1000)
        with pytest.raises(ValueError):
            VertexSet(3, -1)
        with pytest.raises(ValueError):
            VertexSet(0, 0)

    def test_value_semantics(self):
        import copy
        import pickle

        s = VertexSet(6, 0b101010)
        assert s == VertexSet.from_vertices(6, [1, 3, 5]) and hash(s) == hash(VertexSet(6, 0b101010))
        assert s != VertexSet(7, 0b101010) and s != (6, 0b101010)
        assert pickle.loads(pickle.dumps(s)) == s and copy.deepcopy(s) == s
        assert len({s, VertexSet(6, 0b101010), s.complement()}) == 2
        # Graph shares the frozen base, and pickles and copies by value too
        g = cycle(5)
        assert g == from_edge_list(5, g.edges()) and hash(g) == hash(cycle(5))
        assert pickle.loads(pickle.dumps(g)) == g and copy.deepcopy(g) == g and copy.copy(g) == g

    def test_refuses_assignment(self):
        s = VertexSet(4, 0b11)
        for name, value in (("bits", 0b1), ("n", 5), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        with pytest.raises(AttributeError):
            del s.bits
        assert (s.n, s.bits) == (4, 0b11)
        g = cycle(5)
        for name, value in (("n", 6), ("adj", ()), ("degrees", ()), ("m", 7), ("extra", 1)):
            with pytest.raises(AttributeError, match=f"field '{name}' of an immutable Graph"):
                setattr(g, name, value)
            with pytest.raises(AttributeError, match=f"field '{name}' of an immutable Graph"):
                delattr(g, name)
        assert (g.n, g.m, hash(g)) == (5, 5, hash(cycle(5)))


class TestFromSpec:
    def test_known_specs(self):
        assert from_spec("hypercube:3").n == 8
        assert from_spec("complete:4").m == 6
        assert from_spec("random:6:0", seed=1).m == 0
        assert degree_summary(from_spec("regular:6:2", seed=3)).is_regular

    def test_spec_deterministic_in_seed(self):
        assert from_spec("random:8:0.5", seed=11) == from_spec("random:8:0.5", seed=11)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown generator 'blob'"):
            from_spec("blob:3")

    def test_bad_argument_named(self):
        with pytest.raises(ValueError, match="random:x:0.4"):
            from_spec("random:x:0.4")

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="takes 1 argument"):
            from_spec("cycle:3:4")

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_spec_order_matches_built_graph(self, name):
        # one valid spec per generator table row; a new row needs one here
        spec = {
            "complete": "complete:5",
            "cycle": "cycle:6",
            "empty": "empty:4",
            "hypercube": "hypercube:3",
            "path": "path:7",
            "random": "random:9:0.5",
            "regular": "regular:10:3",
            "star": "star:5",
        }[name]
        assert _spec_order(spec) == from_spec(spec, 7).n

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("blob:3", "unknown generator 'blob'"),
            ("cycle:3:4", "takes 1 argument"),
            ("random:x:0.4", "expected integer at position 1"),
            ("hypercube:0", "dimension must be in 1..26"),
        ],
    )
    def test_spec_order_raises_parser_errors(self, spec, message):
        with pytest.raises(ValueError, match=message):
            _spec_order(spec)

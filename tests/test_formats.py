import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprofile import (
    Graph6Error,
    complete,
    cycle,
    empty,
    format_edge_list,
    from_edge_list,
    load_graph_text,
    parse_edge_list,
    parse_graph6,
    random_graph,
    to_graph6,
)
from isoprofile.formats import _text_order


@st.composite
def small_graphs(draw, max_n=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return from_edge_list(n, [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1])


class TestGraph6Decode:
    def test_single_edge(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_five_vertex_star(self):
        # hand decode of "D?{": bits 6..9 of the column-major upper
        # triangle are set, i.e. edges (0,4) (1,4) (2,4) (3,4);
        # cross-checked against networkx's decoder
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_optional_header(self):
        assert parse_graph6(">>graph6<<A_").m == 1

    def test_empty_input(self):
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6("")

    def test_zero_vertices(self):
        with pytest.raises(Graph6Error, match="no vertices"):
            parse_graph6("?")

    def test_invalid_byte_offset_reported(self):
        with pytest.raises(Graph6Error, match="offset 1"):
            parse_graph6("A ")

    def test_nonzero_padding(self):
        # n=2 uses 1 adjacency bit; 'O' sets a padding bit
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("AO")

    def test_nonzero_padding_in_later_byte(self):
        # n=5 uses 10 adjacency bits; 'A' sets the last padding bit of byte 2
        with pytest.raises(Graph6Error, match="nonzero padding bit at offset 2"):
            parse_graph6("D?A")

    def test_length_mismatch(self):
        with pytest.raises(Graph6Error, match="expected 2"):
            parse_graph6("D?")
        with pytest.raises(Graph6Error, match="adjacency section"):
            parse_graph6("A_?")

    def test_truncated_long_header(self):
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("~A")


class TestGraph6Encode:
    def test_known_strings(self):
        assert to_graph6(complete(2)) == "A_"
        assert to_graph6(cycle(4)) == "Cl"

    def test_long_size_header_roundtrip(self):
        g = empty(63)
        s = to_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g

    @given(small_graphs())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @given(small_graphs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, g):
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(G, header=False).decode().strip() == to_graph6(g)
        decoded = nx.from_graph6_bytes(to_graph6(g).encode())
        assert sorted(tuple(sorted(e)) for e in decoded.edges()) == g.edges()

    @pytest.mark.parametrize("n", [63, 64, 100])
    def test_matches_networkx_beyond_short_header(self, n):
        g = random_graph(n, 0.5, 4000 + n)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert theirs == to_graph6(g)
        assert parse_graph6(theirs) == g


class TestEdgeList:
    def test_roundtrip(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a path\n\n3 2\n0 1\n# middle comment\n1 2\n"
        assert parse_edge_list(text) == from_edge_list(3, [(0, 1), (1, 2)])

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_edge_list("3\n0 1\n")
        with pytest.raises(ValueError, match="two integers"):
            parse_edge_list("a b\n")

    def test_header_without_vertices(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            parse_edge_list("-5 2\n0 1\n1 2\n")

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="declares 2"):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_edge_line(self):
        with pytest.raises(ValueError, match="edge line"):
            parse_edge_list("2 1\n0 1 2\n")

    def test_no_content(self):
        with pytest.raises(ValueError, match="content"):
            parse_edge_list("# nothing\n")

    def test_duplicate_edge_contradicts_header(self):
        # two edge lines for one edge: the graph has m = 1, not the declared 2
        with pytest.raises(ValueError, match="declares 2 edges but lists 1 distinct"):
            parse_edge_list("3 2\n0 1\n1 0\n")


class TestLoader:
    def test_sniffs_edge_list(self):
        assert load_graph_text("2 1\n0 1\n") == complete(2)

    def test_sniffs_graph6(self):
        assert load_graph_text("A_\n") == complete(2)

    def test_graph6_after_comment(self):
        assert load_graph_text("# fixture\nCl\n") == cycle(4)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            load_graph_text("")

    def test_several_graph6_lines_refused(self):
        # K4 then the empty graph on 5 vertices: not cut to the first graph
        text = "C~\n# next\nD??\n"
        with pytest.raises(Graph6Error, match="holds 2 graph6 lines; pass one graph per run"):
            load_graph_text(text)
        with pytest.raises(Graph6Error, match="holds 2 graph6 lines"):
            _text_order(text)

    @given(
        small_graphs(),
        st.booleans(),
        st.lists(st.sampled_from(["", "   ", "# note", "  # indented note"]), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_text_order_matches_loaded_graph(self, g, as_graph6, preamble):
        body = to_graph6(g) + "\n" if as_graph6 else format_edge_list(g)
        text = "".join(line + "\n" for line in preamble) + body
        assert _text_order(text) == load_graph_text(text).n == g.n


def test_many_random_roundtrips():
    for k in range(200):
        n = 1 + (k % 16)
        g = random_graph(n, (0.1, 0.3, 0.5, 0.8)[k % 4], 31000 + k)
        assert parse_graph6(to_graph6(g)) == g

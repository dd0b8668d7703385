"""Text formats: graph6 and a plain edge-list format.

graph6 packs the upper triangle of the adjacency matrix, read column by
column, into 6-bit groups offset by 63 into printable ASCII. The size
header is a single byte n+63 for n <= 62, or '~' followed by three
6-bit bytes for 63 <= n <= 258047. Adjacency bits are zero padded to a
multiple of 6; nonzero padding is rejected. Both directions go through
one bit string: decoding joins the 6-bit groups and reads it back column
by column, encoding joins the columns and cuts it into groups.

The edge-list format is line oriented: a header line "n m" followed by
m lines "u v" with 0-based endpoints, each edge listed once. Lines
starting with '#' and blank lines are ignored. A graph file holds one
graph: either an edge list or a single graph6 line.
"""

from __future__ import annotations

from .graphs import Graph, from_edge_list

__all__ = [
    "Graph6Error",
    "format_edge_list",
    "load_graph_text",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
]

_OFFSET = 63
_OPTIONAL_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; messages carry the offending byte offset."""


def _read_size(data: bytes) -> tuple[int, int]:
    if data[0] != 126:  # '~'
        return data[0] - _OFFSET, 1
    if len(data) < 4:
        raise Graph6Error("truncated size header: '~' needs three following bytes")
    if data[1] == 126:
        raise Graph6Error("8-byte graph6 size headers are not supported")
    n = ((data[1] - _OFFSET) << 12) | ((data[2] - _OFFSET) << 6) | (data[3] - _OFFSET)
    if n < 63:
        raise Graph6Error(f"non-canonical long size header for n={n}")
    return n, 4


def _graph6_bytes(text: str) -> bytes:
    s = text.strip()
    if s.startswith(_OPTIONAL_HEADER):
        s = s[len(_OPTIONAL_HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 input")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise Graph6Error("graph6 input is not ASCII") from None
    for offset, byte in enumerate(data):
        if not _OFFSET <= byte <= 126:
            raise Graph6Error(f"invalid graph6 byte 0x{byte:02x} at offset {offset}")
    return data


def _graph6_order(text: str) -> int:
    """Vertex count in a graph6 line's size header, without decoding the
    adjacency; raises the parser's errors for a malformed line."""
    return _read_size(_graph6_bytes(text))[0]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (an optional '>>graph6<<' prefix is allowed)."""
    data = _graph6_bytes(text)
    n, pos = _read_size(data)
    if n == 0:
        raise Graph6Error("graph6 input encodes a graph with no vertices")
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    got = len(data) - pos
    if got != need_bytes:
        raise Graph6Error(
            f"adjacency section has {got} bytes starting at offset {pos}, "
            f"expected {need_bytes} for n={n}"
        )
    bits = "".join(format(byte - _OFFSET, "06b") for byte in data[pos:])
    if "1" in bits[need_bits:]:
        raise Graph6Error(f"nonzero padding bit at offset {len(data) - 1}")
    adj = [0] * n
    for j in range(1, n):
        # column j holds rows 0..j-1, row i at string index i
        column = bits[j * (j - 1) // 2:j * (j + 1) // 2]
        adj[j] = int(column[::-1], 2)
        # inline rather than over VertexSet, which decodes a dense
        # 1000-vertex graph6 15-25% slower
        for i, bit in enumerate(column):
            if bit == "1":
                adj[i] |= 1 << j
    return Graph(n, adj)


def to_graph6(graph: Graph) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    n = graph.n
    if n <= 62:
        chars = [chr(_OFFSET + n)]
    elif n <= 258047:
        chars = [
            "~",
            chr(_OFFSET + ((n >> 12) & 63)),
            chr(_OFFSET + ((n >> 6) & 63)),
            chr(_OFFSET + (n & 63)),
        ]
    else:
        raise Graph6Error(f"graph on {n} vertices exceeds the supported graph6 size range")
    bits = "".join(format(graph.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    chars.extend(chr(_OFFSET + int(bits[k:k + 6], 2)) for k in range(0, len(bits), 6))
    return "".join(chars)


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _two_ints(line: str, what: str, form: str) -> tuple[int, int]:
    # The two integers on a line; ValueError naming the line otherwise.
    tokens = line.split()
    if len(tokens) != 2:
        raise ValueError(f"{what} must be {form!r}, got {line!r}")
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"{what} must be two integers, got {line!r}") from None


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" edge-list format defined in the module docstring."""
    lines = _content_lines(text)
    if not lines:
        raise ValueError("edge-list input has no content lines")
    n, m = _two_ints(lines[0], "edge-list header", "n m")
    # before any edge line: a negative n would name a range like 0..-6
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    if len(lines) - 1 != m:
        raise ValueError(f"edge-list declares {m} edges but has {len(lines) - 1} edge lines")
    graph = from_edge_list(n, [_two_ints(line, "edge line", "u v") for line in lines[1:]])
    if graph.m != m:
        raise ValueError(f"edge-list declares {m} edges but lists {graph.m} distinct ones")
    return graph


def format_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def _sniff(text: str) -> tuple[str, int | None]:
    # The first content line, and n when it is an "n m" edge-list header.
    # Any other content is one graph6 line: a file of several graphs is
    # refused rather than cut to its first.
    lines = _content_lines(text)
    if not lines:
        raise ValueError("no graph content found in input")
    try:
        return lines[0], _two_ints(lines[0], "edge-list header", "n m")[0]
    except ValueError:
        if len(lines) > 1:
            raise Graph6Error(f"graph file holds {len(lines)} graph6 lines; pass one graph per run") from None
        return lines[0], None


def load_graph_text(text: str) -> Graph:
    """Sniff edge-list versus graph6 content and parse accordingly.

    A two-integer first content line means the edge-list format; anything
    else is treated as a graph6 line. The two cannot collide because a
    space is not a valid graph6 byte.
    """
    line, n = _sniff(text)
    return parse_graph6(line) if n is None else parse_edge_list(text)


def _text_order(text: str) -> int:
    """Vertex count in the header of graph file content, sniffed as
    load_graph_text does, without parsing the rest; raises its errors
    for a missing or malformed header."""
    line, n = _sniff(text)
    return _graph6_order(line) if n is None else n

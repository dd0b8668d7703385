"""Bitset-backed simple undirected graphs.

Vertices are labeled 0..n-1 and every neighborhood is stored as a Python
int used as a bitset, which keeps the subset arithmetic underneath the
solvers (intersection, complement, popcount) cheap and allocation-free.

Graphs and vertex sets are immutable after construction and safe to
share across threads. Constructors validate adjacency symmetry and the
absence of self-loops, so every reachable ``Graph`` is well formed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DEFAULT_SEED",
    "PAIRING_RESAMPLE_BUDGET",
    "DegreeSummary",
    "Graph",
    "VertexSet",
    "complement",
    "complete",
    "cycle",
    "degree_summary",
    "empty",
    "from_edge_list",
    "from_spec",
    "hypercube",
    "is_connected",
    "path",
    "random_graph",
    "random_regular",
    "star",
]

# Documented default so bare invocations are reproducible.
DEFAULT_SEED = 1729

# Attempts allowed to the pairing model before the switch chain takes over.
PAIRING_RESAMPLE_BUDGET = 10_000

# Switch attempts per edge made by that chain.
SWITCHES_PER_EDGE = 10


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices 0..n-1 of an ambient graph, as a bitset."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient vertex count must be at least 1")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bitset mentions vertices outside 0..{self.n - 1}")

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside 0..{n - 1}")
            bits |= 1 << v
        return cls(n, bits)

    def vertices(self) -> tuple[int, ...]:
        return tuple(self)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) ^ self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor bitset of vertex ``v``. The edge count
    ``m`` and the per-vertex ``degrees`` are derived once here and then
    shared by everything downstream.
    """

    __slots__ = ("n", "adj", "degrees", "m")

    def __init__(self, n: int, adjacency: Sequence[int]):
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        if len(adjacency) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adjacency)}")
        adj = tuple(adjacency)
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise ValueError(f"adjacency row {v} mentions vertices outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(n):
            row = adj[v]
            while row:
                low = row & -row
                u = low.bit_length() - 1
                row ^= low
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        self.n = n
        self.adj = adj
        self.degrees = tuple(row.bit_count() for row in adj)
        self.m = sum(self.degrees) // 2

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and (self.adj[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(VertexSet(self.n, self.adj[v])) if self.adj[v] else ()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    def vertex_set(self) -> VertexSet:
        return VertexSet(self.n, (1 << self.n) - 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeSummary:
    """Degree extremes of a graph; regular means min == max."""

    min_degree: int
    max_degree: int
    is_regular: bool
    degree_sequence: tuple[int, ...]


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs.

    Duplicate edges collapse silently; self-loops are rejected because
    they would corrupt every counting identity downstream.
    """
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def empty(n: int) -> Graph:
    return from_edge_list(n, [])


def complete(n: int) -> Graph:
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def star(n: int) -> Graph:
    """Center 0 joined to leaves 1..n-1; the canonical non-regular fixture."""
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    return from_edge_list(n, [(0, v) for v in range(1, n)])


def _hypercube_order(d: int) -> int:
    """Vertex count 2**d of the d-dimensional hypercube; ValueError outside 1..26."""
    if not 1 <= d <= 26:
        raise ValueError("hypercube dimension must be in 1..26")
    return 1 << d


def hypercube(d: int) -> Graph:
    """The d-dimensional hypercube: 2**d vertices, adjacent iff the labels
    differ in exactly one bit. d-regular with d * 2**(d-1) edges."""
    n = _hypercube_order(d)
    adj = [0] * n
    for v in range(n):
        for b in range(d):
            adj[v] |= 1 << (v ^ (1 << b))
    return Graph(n, adj)


def complement(graph: Graph) -> Graph:
    full = (1 << graph.n) - 1
    adj = [(full ^ graph.adj[v]) & ~(1 << v) for v in range(graph.n)]
    return Graph(graph.n, adj)


def is_connected(graph: Graph) -> bool:
    """Breadth-first reachability from vertex 0 over neighbor bitsets."""
    reached = 1
    frontier = 1
    while frontier:
        grown = 0
        bits = frontier
        while bits:
            low = bits & -bits
            grown |= graph.adj[low.bit_length() - 1]
            bits ^= low
        frontier = grown & ~reached
        reached |= frontier
    return reached == (1 << graph.n) - 1


def degree_summary(graph: Graph) -> DegreeSummary:
    lo = min(graph.degrees)
    hi = max(graph.degrees)
    return DegreeSummary(lo, hi, lo == hi, tuple(sorted(graph.degrees)))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Independent edges with probability p; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model, or a switch chain.

    Each vertex gets d stubs; a shuffled perfect matching of the stubs is
    kept only if it produces no loop or repeated edge. A matching is
    simple with probability about exp((1 - d^2) / 4), so for d >= 7 the
    model rarely succeeds; after PAIRING_RESAMPLE_BUDGET failed attempts
    the same random stream drives a double-edge-switch chain started from
    the circulant d-regular graph instead (see Steger & Wormald,
    "Generating random regular graphs quickly", 1999, on the pairing
    model's rejection rate). Either result is re-verified d-regular
    before return.
    """
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    if not 0 <= d < n:
        raise ValueError("degree must satisfy 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError(f"infeasible degree spec: n*d = {n * d} is odd")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(PAIRING_RESAMPLE_BUDGET):
        rng.shuffle(stubs)
        adj = [0] * n
        ok = True
        for k in range(0, len(stubs), 2):
            u, v = stubs[k], stubs[k + 1]
            if u == v or (adj[u] >> v) & 1:
                ok = False
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if ok:
            break
    else:
        adj = _switch_chain(n, d, rng)
    graph = Graph(n, adj)
    if not (degree_summary(graph).is_regular and graph.degrees[0] == d):
        raise RuntimeError(f"regular generator produced a graph that is not {d}-regular on {n} vertices")
    return graph


def _switch_chain(n: int, d: int, rng: random.Random) -> list[int]:
    """Adjacency rows after SWITCHES_PER_EDGE switch attempts per edge.

    Starts from the circulant graph joining v to v +- 1..d//2, and for
    odd d (so even n) to v + n/2. Each attempt picks two edges ab and ce
    and replaces them by ac and be unless that makes a loop or a repeated
    edge; every step keeps all degrees at d.
    """
    offsets = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    edges = [(v, (v + k) % n) for v in range(n) for k in offsets if k < n - k or v < n // 2]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for _ in range(SWITCHES_PER_EDGE * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        a, b = edges[i]
        c, e = edges[j] if rng.random() < 0.5 else edges[j][::-1]
        if len({a, b, c, e}) < 4 or (adj[a] >> c) & 1 or (adj[b] >> e) & 1:
            continue
        adj[a] ^= (1 << b) | (1 << c)
        adj[b] ^= (1 << a) | (1 << e)
        adj[c] ^= (1 << e) | (1 << a)
        adj[e] ^= (1 << c) | (1 << b)
        edges[i], edges[j] = (a, c), (b, e)
    return adj


# Generator spec "name:arg1:arg2": name -> (constructor, argument parsers,
# whether the constructor takes the seed after its arguments).
_GENERATORS = {
    "complete": (complete, (int,), False),
    "cycle": (cycle, (int,), False),
    "path": (path, (int,), False),
    "star": (star, (int,), False),
    "empty": (empty, (int,), False),
    "hypercube": (hypercube, (int,), False),
    "random": (random_graph, (int, float), True),
    "regular": (random_regular, (int, int), True),
}


def _parse_spec(spec: str) -> tuple[str, list]:
    """Generator name and parsed arguments of a spec; ValueError if malformed."""
    name, *args = spec.split(":")
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r} in {spec!r}")
    parsers = _GENERATORS[name][1]
    if len(args) != len(parsers):
        raise ValueError(f"generator {name!r} takes {len(parsers)} argument(s), got {len(args)} in {spec!r}")
    values = []
    for position, (parse, arg) in enumerate(zip(parsers, args), start=1):
        try:
            values.append(parse(arg))
        except ValueError:
            expected = "integer" if parse is int else "number"
            raise ValueError(
                f"bad generator argument in {spec!r}: expected {expected} at position {position}"
            ) from None
    return name, values


def from_spec(spec: str, seed: int = DEFAULT_SEED) -> Graph:
    """Build a graph from a "name:arg1:arg2" generator spec.

    Known names: complete:n, cycle:n, path:n, star:n, empty:n,
    hypercube:d, random:n:p, regular:n:d. The seed feeds the random
    generators and is ignored by the deterministic ones.
    """
    name, values = _parse_spec(spec)
    constructor, _, seeded = _GENERATORS[name]
    return constructor(*values, seed) if seeded else constructor(*values)


def _spec_order(spec: str) -> int | None:
    """Vertex count from_spec(spec) would build, read from the spec alone.

    The first argument, or 2**d for hypercube:d. None when from_spec
    would refuse the spec before building anything (unknown name, wrong
    argument count, an argument that does not parse, dimension outside
    1..26).
    """
    try:
        name, values = _parse_spec(spec)
        return _hypercube_order(values[0]) if name == "hypercube" else values[0]
    except ValueError:
        return None

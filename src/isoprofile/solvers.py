"""Exact solvers for the six fixed-size extremal edge counts.

For a graph on n vertices, each size i in [0, n], one of the three
subset counters (induced, covered, cut edges), and one sense (max or
min), the optimum over all i-subsets is computed by three independent
routes:

* ``profile_exhaustive``: one walk over the 2^(n-1) subsets without
  vertex n-1 yields all six profiles at once. It is blocked: the sets of
  the last 10 walked vertices are tabulated once as packed 16-bit fields
  of one int, and a reflected Gray code steps over the other vertices
  only, updating every tabulated set per step with a few int additions.
  The first step decodes each table once and seeds every size's best
  with one C-level max or min; at n <= 11 it is the whole walk. From the
  second step on, a broadword threshold test (one add or subtract and an
  AND on the packed int) marks the fields that strictly beat their
  size's best value so far; most steps mark none, and a size whose best
  is beaten is decoded and reduced with one C-level max or min. Every
  other subset is the complement of a walked one, and an O(n) fold after
  the walk reads its counters off the walked set's (induced and covered
  trade places as m minus each other, cut stays). This is the ground
  truth; each witness is the first optimal set the walk meets, and a
  walked set comes before the complement of one.
* ``profile_branch_bound``: one search body for all six kinds (a min
  kind maximizes its negated counter), and per kind one depth-first
  search for every size at once. Each node carries the sizes that no
  ancestor pruned, and bounds them all from one sorted list of
  admissible completion terms; greedy picks seed each size's
  incumbent. A node with at most 12 pool vertices stops branching and
  scores each live size t from one packed table of 16-bit fields over
  the pool's t-subsets, in depth-first order. The walk's threshold test
  (one multiply, one add and an AND) finds whether any field strictly
  beats the incumbent, and only then is the table decoded and the first
  field of its maximum taken, which is the set the branching would
  keep. A table is built the first time a node reads it. Its degree and
  edge sums are shared within one search plan by the kinds that order
  the vertices alike, and nothing outlives the plan. A field holds at
  most 12 (2n - 1), below 2^15 at the solvers' limit of 64 vertices.
  Values match the exhaustive route; witnesses are the first optimum it
  reaches. The walk's block and the search's leaves read one table
  layout (``_layout``): the subsets of a few positions by size and then
  in ``combinations`` order, with bit v of every mask being vertex v;
  one helper (``_sums``) fills their degree and edge sums.
* ``profile_by_reduction``: derive one profile from already computed
  ones through exact counting identities. An induced count is C(i, 2)
  minus the complement graph's, read off its induced profile of the
  opposite sense. A covered or cut profile at i is read off its dual
  kind (``MetricKind.dual``) at n - i, since the complement of an i-set
  is an (n - i)-set: a cover count is m minus the induced count of the
  complementary subset, and a cut is its complement's.

``all_profiles`` wires the routes into strategies, including a checked
mode that runs all of them and refuses to return if they disagree. The
checked and reduced strategies share one branch-and-bound plan: each
kind is searched on sizes 1..n/2 only, and each size i above n/2 is read
off the dual kind at n - i (``MetricKind.dual``), so no optimisation
problem is searched twice. checked compares values only, so its plan
always wants values only, and reduced's does when its caller wants no
witness. Such a plan at n <= 12 searches nothing, as only witnesses have
ties to break: it reads every size off one table per counter over the
t-subsets of all n vertices, t = 0..n/2, one decode giving each size's
max and min with one C-level max or min.

Every route refuses a graph above the caller's cap (default 24) and,
whatever the cap, above 64 vertices: the walk could never finish beyond
them, and the search's leaf fields and recursion depth are sized for
them.

The branch and bound bounds in its signed frame (always maximize, sign
= +-1), where a pick x adds sign * (per_degree * deg(x) + per_inside * a)
to the counter of a partial set S, a = |adj(x) & S|, and r picks T from
the pool P = order[start:] add inside * e(T) more for the e(T) edges
inside T, inside = sign * per_inside. By the handshake lemma e(T) = ½
Σ_{x∈T} deg_T(x), and 0 <= deg_T(x) <= min(p(x), r - 1) with p(x) =
|adj(x) & P|: the vertices the search skipped are never picked. So one
rule bounds all six kinds: the doubled term of pick x among r picks is

  2 · (sign · per_degree · deg(x) + inside · a) + max(inside, 0) · min(p(x), r - 1)

and the sum of the r largest terms over the pool, halved once and
rounded down, is at least the gain of any completion T, so pruning on an
incumbent is safe. Where inside < 0 (min induced, max covered, max cut)
no term depends on r, and one sort is exact for every r. Where inside >
0 (max induced, min covered, min cut) one sort of the terms of the
largest live r screens every live size, as those terms are admissible
for each smaller r; a size that passes is bounded again with its own
terms only while r does not exceed the largest p over the pool, since
beyond it min(p(x), r - 1) = p(x) for every pool vertex and the screen
is exact.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from enum import Enum
from itertools import accumulate, combinations, islice
from typing import Callable, Mapping, NamedTuple, Sequence

from .graphs import Graph, VertexSet, complement
from .metrics import metrics_from_mask

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "KIND_ORDER",
    "STRATEGIES",
    "InternalInconsistencyError",
    "MetricKind",
    "Profile",
    "VertexCapError",
    "all_profiles",
    "branch_bound_extremal",
    "extremal_exhaustive",
    "kind_from_key",
    "profile_branch_bound",
    "profile_by_reduction",
    "profile_exhaustive",
]

# The walk visits 2^(n-1) subsets: at n = 24 it takes under half a second.
DEFAULT_VERTEX_CAP = 24

STRATEGIES = ("auto", "oracle", "reduced", "checked")


class VertexCapError(ValueError):
    """A solver was asked to run above its vertex cap."""


class InternalInconsistencyError(RuntimeError):
    """Independent solver routes disagree: a bug, never a finding."""


class MetricKind(Enum):
    """One optimized counter plus a sense; the six members are the profiles."""

    MAX_INDUCED = ("induced", "max")
    MIN_INDUCED = ("induced", "min")
    MAX_COVERED = ("covered", "max")
    MIN_COVERED = ("covered", "min")
    MAX_CUT = ("cut", "max")
    MIN_CUT = ("cut", "min")

    # Members are singletons, so identity hashing is exact, and it is
    # C-level: Enum's own __hash__ hashes the name in Python, once per
    # dict read keyed by a kind. No output iterates a set of kinds.
    __hash__ = object.__hash__

    def __init__(self, counter: str, sense: str) -> None:
        # plain attributes: the checks read them per witness and per size
        self.counter = counter
        self.sense = sense
        self.is_max = sense == "max"
        self.sign = 1 if self.is_max else -1
        self.key = self.name.lower()
        # a vertex v added to S adds per_degree * deg(v) + per_inside *
        # |adj(v) & S| to the counter of S
        self.per_degree, self.per_inside = {"induced": (0, 1), "covered": (1, -1), "cut": (1, -2)}[counter]

    def from_dual(self, x: int, m: int) -> int:
        """This kind's counter of V - S, given the dual kind's counter x of S."""
        return x if self.counter == "cut" else m - x


# kind.dual is the kind whose optimum at n - i, read off the complements
# V - S, is this kind's at i: induced(V - S) = m - covered(S), covered(V -
# S) = m - induced(S) and cut(V - S) = cut(S), so induced and covered
# swap, each taking the other sense, and a cut kind is its own dual. A
# plain attribute beside sign, set once the members exist.
for _kind in MetricKind:
    _kind.dual = _kind if _kind.counter == "cut" else MetricKind(
        ("covered" if _kind.counter == "induced" else "induced", "min" if _kind.is_max else "max")
    )
del _kind

# the declaration order, which the csv header follows
KIND_ORDER = tuple(MetricKind)


def kind_from_key(key: str) -> MetricKind:
    for kind in MetricKind:
        if kind.key == key:
            return kind
    raise ValueError(f"unknown metric kind {key!r}")


class Profile(NamedTuple):
    """Extremal values of one kind for every size i in [0, n].

    ``values[0]`` is 0 by the empty-set convention (a convention, not a
    derived fact). ``witnesses``, when present, holds one optimal subset
    per size. Indexing reads ``values``: ``profile[i] == profile.values[i]``.
    """

    kind: MetricKind
    values: tuple[int, ...]
    witnesses: tuple[VertexSet, ...] | None = None
    provenance: str = ""

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i: int) -> int:
        return self.values[i]


def _require_within_cap(n: int, cap: int | None) -> None:
    # the one place every route and the command line check a vertex count
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if n > limit:
        raise VertexCapError(
            f"graph on {n} vertices exceeds the solver cap of {limit}; "
            f"pass a larger cap explicitly to proceed"
        )
    if n > 64:
        raise VertexCapError(f"graph on {n} vertices: the solvers take at most 64 vertices, whatever the cap")


# ---------------------------------------------------------------------------
# Exhaustive route


# The walk tabulates the sets of its last _BLOCK walked vertices, up to
# n - 2, at once, as 16-bit fields of one int in _layout's order. A field
# holds at most 2m while a step sums it and a counter at most m < 2^15 at
# any walkable n, so the threshold test's 0x8000 - 1 plus or minus a best
# value, plus or minus a counter, stays in [0, 2^16): no field ever
# carries into or borrows from the next.
_BLOCK = 10


def _pack(fields: Sequence[int]) -> int:
    # one int of 16-bit fields, the first field lowest
    return int.from_bytes(struct.pack(f"{len(fields)}H", *fields), sys.byteorder)


def _fields(packed: int, width: int) -> memoryview:
    # The 16-bit fields of a packed int, in field order: the one decode of
    # the walk and of the leaves, which each make only for an int holding
    # a beaten best, and of the values-only plan's tables.
    return memoryview(packed.to_bytes(width, sys.byteorder)).cast("H")


@functools.cache
def _layout(p: int, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]], int, list[int]]:
    # The one table layout of the walk's block and the search's leaves:
    # the subsets T of positions 0..p-1 with lo <= |T| <= hi, by size and
    # then in combinations order, which is the order a depth-first search
    # over the positions reaches them. Returns each T as a position mask,
    # per size lo..hi its field range [a, z), the int with every field 1,
    # and per position j the int whose field T is 1 when T holds j; their
    # sum holds |T| in field T.
    subsets, spans = [], []
    for t in range(lo, hi + 1):
        spans.append((len(subsets), len(subsets) + math.comb(p, t)))
        subsets += map(sum, combinations([1 << j for j in range(p)], t))
    packed, ones = _pack(subsets), _pack([1] * len(subsets))
    return subsets, spans, ones, [packed >> j & ones for j in range(p)]


def _sums(graph: Graph, pool: Sequence[int], members: Sequence[int]) -> tuple[int, int]:
    # the ints whose field T holds the degree sum of T and the number of
    # edges inside T, where members[j] is the indicator int of pool[j]
    adj = graph.adj
    degrees = sum([graph.degrees[v] * member for v, member in zip(pool, members)])
    edges = sum([members[j] & members[k] for (j, u), (k, v) in combinations(enumerate(pool), 2) if adj[u] >> v & 1])
    return degrees, edges


def _fold(graph: Graph, trackers, witnesses: bool) -> dict[MetricKind, Profile]:
    # Size j is attained either by a walked set (direct, size j) or by the
    # complement of one: the kind's dual tracker at size n - j, its value
    # read through kind.from_dual. Each size is one max or min of the two
    # values. With witnesses, the walked set is kept when it attains the
    # optimum and the complement otherwise, and each distinct mask becomes
    # one VertexSet.
    n, m, full = graph.n, graph.m, (1 << graph.n) - 1
    values, walked = [], []
    for kind, (direct, first, _) in trackers.items():
        mirror, mirror_first, _ = trackers[kind.dual]
        best = list(map(max if kind.is_max else min, direct, [kind.from_dual(b, m) for b in reversed(mirror)]))
        values += best
        if witnesses:
            walked += [wa if a == v else wb ^ full for v, a, wa, wb in zip(best, direct, first, reversed(mirror_first))]
    if witnesses:
        sets = {bits: VertexSet(n, bits) for bits in set(walked)}
        walked = list(map(sets.__getitem__, walked))
    return {
        kind: Profile(kind, tuple(values[at : at + n + 1]), tuple(walked[at : at + n + 1]) if witnesses else None, "exhaustive")
        for kind, at in zip(trackers, range(0, len(values), n + 1))
    }


def profile_exhaustive(graph: Graph, *, cap: int | None = None, witnesses: bool = True) -> dict[MetricKind, Profile]:
    """Ground truth: all six profiles from one walk over half the subsets.

    With ``witnesses`` false the profiles hold values only (witnesses
    None): the walk is the same, and the fold builds no witness set.

    The walk covers the 2^(n-1) subsets S without vertex n-1, as masks
    whose bit v is vertex v. Every other subset is a complement V - S,
    whose counters are exact: induced(V - S) = m - covered(S),
    covered(V - S) = m - induced(S), cut(V - S) = cut(S). So per size
    each of the six trackers keeps its best value, and an O(n) fold after
    the walk sets size j's optimum against the matching tracker at size
    n - j, e.g. max_induced(j) = max(max_induced(j), m - min_covered(n - j)).

    The walk is blocked. With k = min(10, n - 1), the vertices n-1-k..n-2
    form the block, and the vertices below them are high. A table over
    the block's 2^k sets L is one int of 16-bit fields in ``_layout``'s
    order, the one the search's leaves read too: by |L|, and then in
    ``combinations`` order. Each block vertex has an indicator table whose
    field L is 1 when L holds it. Sums of indicators give the degree sum
    of L, induced(L) (per edge inside the block, its two indicators
    ANDed; ``_sums``) and, for each high vertex u, the vector |adj(u) & L|
    over all L. A reflected Gray code (Knuth, TAOCP 4A, 7.2.1.1) then
    steps over the high sets H only, step s flipping vertex n-1-k-j where
    2^(j-1) is the lowest set bit of s; each step adds or subtracts u's
    vector, so for every L at once, with no borrow between fields,

      induced(H + L) = (sum of H's vectors)[L] + induced(L) + induced(H)
      covered(H + L) = degree sum(H) + degree sum(L) - induced(H + L)
      cut(H + L)     = covered(H + L) - induced(H + L)

    Most steps change no tracker, and a broadword threshold test (Knuth,
    TAOCP 4A, 7.1.3) finds the fields that do without decoding the
    vector. Per high size |H| each tracker caches one threshold int whose
    fields of size |L| = t hold 0x8000 - best(|H| + t) - 1 for a max
    tracker and 0x8000 + best(|H| + t) - 1 for a min tracker, and it
    drops the cache whenever one of its best values changes. Bit 15 of
    each field of (vector + threshold), or of (threshold - vector) for a
    min tracker, is then set exactly where the field strictly beats its
    size's best. Every field is nonnegative and at most m < 2^15, so no
    field carries into or borrows from the next. At step 0 H is empty and
    every best is still its sentinel, so there is nothing to test: each
    of the three tables is decoded once, and per size one C-level max or
    min seeds each tracker. The Gray code and the threshold test start
    at step 1; at n <= 11 step 0 is the whole walk. The marks, as bytes,
    are searched for the sizes they touch, read off one byte per field,
    and each such size is decoded (``_fields``, the walk's only decode)
    and reduced with one C-level max or min.

    Each witness is the first optimal set the walk meets, and a walked
    set comes before a complement. Per size a tracker keeps the first
    field that holds its best, at step 0 and at each beat: the set that
    first beat that size's best. The fold keeps that set when it attains
    size j's optimum, and otherwise complements the dual tracker's set at
    n - j.
    """
    _require_within_cap(graph.n, cap)
    return _walk(graph, witnesses)


def _walk(graph: Graph, witnesses: bool) -> dict[MetricKind, Profile]:
    # profile_exhaustive's walk and fold; without witnesses the fold
    # keeps the values only
    n, m, adj, degrees = graph.n, graph.m, graph.adj, graph.degrees
    # the block is the vertices low..n-2, layout position j being vertex
    # low + j; the Gray code steps over the vertices below low
    k = min(_BLOCK, n - 1)
    low = n - 1 - k
    masks, spans, ones, members = _layout(k, 0, k)
    degrees_l, induced_l = _sums(graph, range(low, n - 1), members)
    # field L of crossing[u] is |adj(u) & L| for the high vertex u
    crossing = [sum([member for j, member in enumerate(members) if adj[u] >> low + j & 1]) for u in range(low)]

    def tracker(sign: int) -> tuple[list[int], list[int], dict[int, int]]:
        # best value and the mask that first reached it per size, and the
        # threshold ints by |H|. Size n is never walked, so its sentinel
        # (beaten by every real value, flipped or not) stays.
        return [-1 if sign > 0 else m + 1] * (n + 1), [0] * (n + 1), {}

    # per counter, its max tracker and then its min tracker
    trackers = {kind: tracker(kind.sign) for kind in KIND_ORDER}
    rows = list(trackers.values())
    pairs = rows[0:2], rows[2:4], rows[4:6]
    width, order, top = 2 * len(masks), sys.byteorder, ones << 15
    # step 0: H is empty, so the fields of size t are the sets of size t,
    # and their max and min, each first taken, are the bests
    for packed, pair in zip((induced_l, degrees_l - induced_l, degrees_l - 2 * induced_l), pairs):
        fields = _fields(packed, width).tolist()
        for t, (a, z) in enumerate(spans):
            found = set(fields[a:z])
            for pick, (values, first, _) in zip((max, min), pair):
                values[t] = value = pick(found)
                if witnesses:
                    first[t] = masks[fields.index(value, a)] << low
    # per field its size, read where a threshold test marks the field
    where = b"".join([bytes([t]) * (z - a) for t, (a, z) in enumerate(spans)]) if low else b""
    high = cross = high_induced = high_degrees = size = 0
    for step in range(1, 1 << low):
        u = low - (step & -step).bit_length()
        high ^= 1 << u
        sign = 1 if high >> u & 1 else -1
        cross += sign * crossing[u]
        high_induced += sign * (adj[u] & high).bit_count()
        high_degrees += sign * degrees[u]
        size += sign
        induced = cross + induced_l + high_induced * ones
        covered = degrees_l + high_degrees * ones - induced
        for packed, pair in zip((induced, covered, covered - induced), pairs):
            fields = None
            for sign, (values, first, thresholds) in zip((1, -1), pair):
                if size not in thresholds:
                    pieces = [(0x8000 - sign * best - 1).to_bytes(2, order) * (z - a) for best, (a, z) in zip(values[size:], spans)]
                    thresholds[size] = int.from_bytes(b"".join(pieces), order)
                beat = (thresholds[size] + packed if sign > 0 else thresholds[size] - packed) & top
                if not beat:
                    continue
                if fields is None:
                    fields, groups = _fields(packed, width), {}
                # a beaten field's high byte reads 0x80
                marks = beat.to_bytes(width, order)
                at = marks.find(0x80)
                while at >= 0:
                    t = where[at >> 1]
                    a, z = spans[t]
                    group = groups.get(t) or groups.setdefault(t, fields[a:z].tolist())
                    values[size + t] = value = max(group) if sign > 0 else min(group)
                    first[size + t] = high | masks[a + group.index(value)] << low
                    at = marks.find(0x80, 2 * z)
                thresholds.clear()
    return _fold(graph, trackers, witnesses)


def extremal_exhaustive(
    graph: Graph, kind: MetricKind, size: int, cap: int | None = None
) -> tuple[int, VertexSet]:
    """Exact optimum for one size; the witness is profile_exhaustive's:
    the first optimal set the walk meets, a walked set before a complement."""
    if not 0 <= size <= graph.n:
        raise ValueError(f"subset size {size} outside 0..{graph.n}")
    profile = profile_exhaustive(graph, cap=cap)[kind]
    return profile.values[size], profile.witnesses[size]


# ---------------------------------------------------------------------------
# Branch and bound route


# A search node whose pool has at most _LEAF vertices scores its live
# sizes from tables over the pool's subsets instead of branching. A field
# of such a table holds n per pick plus the signed counter change of its
# picks, which each change the counter by at most n - 1 either way, so it
# lies in [1, _LEAF * (2n - 1)]. At the solvers' 64 vertices it exceeds the
# least value it must reach, at least 1 - m, by less than 2^15, as the
# threshold test needs.
_LEAF = 12


def _bound_fn(kind: MetricKind, adj, degrees, order, pool_mask) -> tuple[Callable[..., tuple[list[int], int, list]], Callable[..., int]]:
    """(bounds, refine), in the search's signed frame. bounds(start,
    chosen, top) returns (sums, exact, terms): sums[r], for r in [0, top],
    is at least what r more picks from the pool order[start:], the set
    pool_mask[start], can add to the signed counter of the set chosen.
    terms are the node's terms, and refine(terms, r) is the module
    docstring's rule for one r, reusing them.

    sums[r] sums the r largest terms of r = top, which are admissible for
    each r <= top, and equals refine(terms, r) from r = exact on: for
    every r where inside < 0, whose terms do not depend on r (exact is
    0), and where inside > 0 once r exceeds the largest p over the pool
    (exact is the smaller of top and that p plus one). The search refines
    only the live sizes below exact.
    """
    inside = kind.sign * kind.per_inside
    pool = [(adj[v], kind.sign * kind.per_degree * degrees[v]) for v in order]
    if inside < 0:
        # deg_T(x) >= 0 drops the inside-edge term, so the doubled terms
        # are even and the same for every r: summed undoubled, one sort is
        # exact for every r
        def bounds(start: int, chosen: int, top: int) -> tuple[list[int], int, list[int]]:
            gains = sorted([d + inside * (nb & chosen).bit_count() for nb, d in pool[start:]], reverse=True)
            return list(accumulate(gains, initial=0)), 0, gains

        def refine(gains: list[int], r: int) -> int:
            return sum(gains[:r])

        return bounds, refine

    def doubled(terms: list[tuple[int, int]], k: int) -> list[int]:
        # the doubled term of each pool vertex among k + 1 picks, largest first
        return sorted([fixed + inside * (p if p < k else k) for fixed, p in terms], reverse=True)

    # per start, the largest p over the pool plus one, which chosen does not change
    widest: dict[int, int] = {}
    pool, twice = [(nb, 2 * d) for nb, d in pool], 2 * inside

    def bounds(start: int, chosen: int, top: int) -> tuple[list[int], int, list[tuple[int, int]]]:
        # per pool vertex, its doubled term without the inside-edge cap, and p
        free = pool_mask[start]
        terms = [(d + twice * (nb & chosen).bit_count(), (nb & free).bit_count()) for nb, d in pool[start:]]
        exact = widest.get(start)
        if exact is None:
            exact = widest[start] = max([p for _, p in terms], default=0) + 1
        sums = accumulate(doubled(terms, top - 1), initial=0)
        return [total // 2 for total in islice(sums, top + 1)], min(top, exact), terms

    def refine(terms: list[tuple[int, int]], r: int) -> int:
        return sum(doubled(terms, r - 1)[:r]) // 2

    return bounds, refine


def _searcher(graph: Graph, kind: MetricKind, sums: dict | None = None) -> Callable[[int, int], list[tuple[int, int]]]:
    """search(lo, hi) -> [(value, mask)] per size 0..hi, for hi <= n: one
    branch and bound solves the sizes in [lo, hi] of one kind; the other
    entries hold the greedy seed, which is exact at sizes 0 and n.

    The search always maximizes; a min kind maximizes its negated
    counter, where a pick v adds sign * (per_degree * deg(v) + per_inside
    * |adj(v) & S|). Greedy picks, the lowest vertex of best gain, ignore
    the size, so one chain of hi picks seeds every size it returns: its
    first s picks are the incumbent of size s, whatever hi is.

    One depth-first search serves every size. A node with p picks is the
    candidate of size p, and carries down the live sizes: those above p
    that no ancestor pruned and that its pool can still fill. A size its
    pool fills exactly has one completion, the whole pool, which the node
    scores at once. Size p + 1 needs no bound, as its completions are the
    node's children. The node bounds the other sizes in one call, drops
    each whose bound cannot beat its incumbent, and expands while a size
    stays live, looping children up to n - (smallest live size - p).

    Restricted to one size, each node's pruning and the strict test of
    its leaves see the incumbents they would see in a search for that
    size alone, in the same depth-first order; a skipped bound or a
    completion scored early only saves nodes none of whose leaves could
    beat the incumbent. So each size's witness is its greedy seed if that
    is optimal and otherwise the first optimal set in depth-first order,
    as in a search for that size alone.

    A node whose pool holds p <= _LEAF vertices does not branch: after
    the whole pool and the bound it scores each live size, t picks away,
    from one leaf table over the pool's C(p, t) subsets T of size t,
    packed as 16-bit fields of one int in ``_layout``'s order, which is
    the order the depth-first search below the node would reach the sets:
    lexicographic in their pool positions. Field T holds nt plus the
    signed counter that T adds to chosen: the part fixed by the pool
    (signed degree terms, inside times the edges inside T) is tabulated
    once per pool and t, and the node adds inside * |adj(v) & chosen|
    times the indicator int of each pool vertex v. A field
    beats the incumbent when it reaches the least such value d. As in
    the walk's threshold test (Knuth, TAOCP 4A, 7.1.3), adding 0x8000 - d
    to every field sets bit 15 of exactly the fields that reach d, so one
    test on the packed int says whether the size improves; on
    random:24:0.5 and regular:24:3 fewer than 1% of leaf reads do. Only
    then follow one decode (``_fields``) and one C-level max, and the
    size takes the first field of its maximum: the branching search
    would end this subtree holding exactly that set, the first of the
    best value it reaches, so values, witnesses and the state every
    later node sees are unchanged. At n <= _LEAF the root is such a node,
    and the search skips its bound and the pool and bound set-up, which
    nothing else reads: a size the bound would prune has no field that
    strictly beats its incumbent, so the threshold test passes it over.

    Only the live sizes are filled, and each table is built the first
    time a leaf reads it: its signed table once per searcher, and its
    degree and edge sums (``_sums``) once per (pool, t) key of ``sums``.
    A caller may share that dict between the searches of one graph, so
    kinds that order the vertices alike read one build; without it, the
    searcher makes its own. A leaf on random:24:0.5 or regular:24:3
    reads about three live sizes, a small part of all 2^p fields. A
    field lies in [1, _LEAF (2n - 1)] and the least value to beat in
    [1 - m, m + nt + 1], so a field plus 0x8000 - d stays in [0, 2^16)
    at the solvers' limit of 64 vertices, where the recursion is also at
    most 64 - _LEAF + 1 calls deep.
    """
    n, adj, sign = graph.n, graph.adj, kind.sign
    sums = {} if sums is None else sums
    base = [sign * kind.per_degree * d for d in graph.degrees]
    inside = sign * kind.per_inside
    order = tuple(sorted(range(n), key=lambda v: (-sign * graph.degrees[v], v)))

    # per leaf pool size p and pick count t, its layout and its table at
    # chosen = 0, built when a leaf first reads it
    leaf = min(_LEAF, n)
    leaves = [[None] * (p + 1) for p in range(leaf + 1)]

    def leaf_table(p: int, t: int) -> tuple[list[int], list[int], int, int, int]:
        # with the int of every field 1 and the int of every field's bit 15
        pool = order[n - p :]
        subsets, _, ones, members = _layout(p, t, t)
        if (pool, t) not in sums:
            sums[pool, t] = _sums(graph, pool, members)
        degrees, edges = sums[pool, t]
        table = n * t * ones + sign * kind.per_degree * degrees + inside * edges
        leaves[p][t] = found = (subsets, members, table, ones, ones << 15)
        return found

    # counters are never negative, and no max kind's bound beats m + 1
    ceiling = graph.m + 1 if sign > 0 else 0

    # per start, the pool order[start:] as a mask and its own signed
    # counter, and the bound: a root that is already a leaf reads none
    if n > leaf:
        pool_mask, pool_gain = [0] * (n + 1), [0] * (n + 1)
        for idx in range(n - 1, -1, -1):
            v = order[idx]
            pool_mask[idx] = pool_mask[idx + 1] | 1 << v
            pool_gain[idx] = pool_gain[idx + 1] + base[v] + inside * (adj[v] & pool_mask[idx + 1]).bit_count()
        bounds, refine = _bound_fn(kind, adj, graph.degrees, order, pool_mask)

    def search(lo: int, hi: int) -> list[tuple[int, int]]:
        # the greedy chain's first hi picks seed sizes 0..hi, the sizes returned
        incumbent, best = [0], [0]
        gains, rest = base[:], list(range(n))
        for _ in range(hi):
            v = max(rest, key=gains.__getitem__)
            rest.remove(v)
            incumbent.append(incumbent[-1] + gains[v])
            best.append(best[-1] | 1 << v)
            for u in rest:
                if adj[v] >> u & 1:
                    gains[u] += inside

        def score(start: int, chosen: int, picked: int, val: int, live: list[int]) -> None:
            # each live size from its leaf table over the pool order[start:]
            p, pool = n - start, order[start:]
            # per pool position j with a neighbour in chosen, a = their count
            counts = [((adj[v] & chosen).bit_count(), j) for j, v in enumerate(pool) if adj[v] & chosen]
            row = leaves[p]
            for s in live:
                t = s - picked
                subsets, members, table, ones, top = row[t] or leaf_table(p, t)
                packed = table + inside * sum([a * members[j] for a, j in counts])
                # A field beats the incumbent when it reaches least. With
                # 0x8000 - least added to every field, bit 15 of a field
                # is set exactly when it does: the walk's threshold test.
                least = incumbent[s] - val + n * t + 1
                if not (packed + (0x8000 - least) * ones) & top:
                    continue
                # the first field of the maximum is the first set the
                # depth-first search would reach with it
                fields = _fields(packed, 2 * len(subsets)).tolist()
                most = max(fields)
                picks = subsets[fields.index(most)]
                incumbent[s] = val + most - n * t
                best[s] = chosen | sum([1 << v for j, v in enumerate(pool) if picks >> j & 1])

        def dfs(start: int, chosen: int, picked: int, val: int, live: list[int]) -> None:
            # live is this call's own list
            if live[-1] == picked + n - start:
                full = live.pop()
                whole = val + pool_gain[start] + inside * sum([(adj[v] & chosen).bit_count() for v in order[start:]])
                if whole > incumbent[full]:
                    incumbent[full], best[full] = whole, chosen | pool_mask[start]
                if not live:
                    return
            top, one = live[-1], picked + 1
            if top > one:
                # a min kind's incumbent at its ceiling of 0 cannot improve
                found, exact, terms = bounds(start, chosen, top - picked)
                live = [
                    s for s in live
                    if s == one
                    or val + found[s - picked] > incumbent[s] < ceiling
                    and (s - picked >= exact or val + refine(terms, s - picked) > incumbent[s])
                ]
                if not live:
                    return
            if n - start <= leaf:
                score(start, chosen, picked, val, live)
                return
            first, low, high = live[0], live[0] == one, len(live)
            for idx in range(start, n - first + picked + 1):
                v = order[idx]
                child, child_val = chosen | 1 << v, val + base[v] + inside * (adj[v] & chosen).bit_count()
                if low and child_val > incumbent[first]:
                    incumbent[first], best[first] = child_val, child
                # each step leaves one slot fewer, so at most the largest size drops
                if live[high - 1] > n - idx + picked:
                    high -= 1
                if low < high:
                    dfs(idx + 1, child, one, child_val, live[low:high])

        sizes = list(range(max(lo, 1), min(hi, n - 1) + 1))
        if sizes:
            (dfs if n > leaf else score)(0, 0, 0, 0, sizes)
        return [(sign * value, mask) for value, mask in zip(incumbent, best)]

    return search


def branch_bound_extremal(
    graph: Graph, kind: MetricKind, size: int, cap: int | None = None
) -> tuple[int, VertexSet]:
    """Exact optimum for one size via branch and bound; witness unconstrained."""
    _require_within_cap(graph.n, cap)
    if not 0 <= size <= graph.n:
        raise ValueError(f"subset size {size} outside 0..{graph.n}")
    value, mask = _searcher(graph, kind)(size, size)[size]
    return value, VertexSet(graph.n, mask)


def profile_branch_bound(graph: Graph, kind: MetricKind, cap: int | None = None) -> Profile:
    """Same values as profile_exhaustive, computed by the pruned search."""
    _require_within_cap(graph.n, cap)
    values, masks = zip(*_searcher(graph, kind)(1, graph.n))
    return Profile(kind, values, tuple(VertexSet(graph.n, mask) for mask in masks), "branch-and-bound")


# ---------------------------------------------------------------------------
# Reduction route


def _need_base(
    table: Mapping[MetricKind, Profile],
    wanted: MetricKind,
    n: int,
    target: MetricKind,
    where: str,
) -> Profile:
    base = table.get(wanted)
    if base is None:
        raise ValueError(
            f"missing base profile: {target.key} by reduction needs {wanted.key} {where}"
        )
    if base.kind is not wanted:
        raise ValueError(f"base profile is {base.kind.key}, expected {wanted.key}")
    if base.n != n:
        raise ValueError(f"base profile covers n={base.n}, expected n={n}")
    return base


def profile_by_reduction(
    graph: Graph,
    kind: MetricKind,
    bases: Mapping[MetricKind, Profile] | None = None,
    complement_bases: Mapping[MetricKind, Profile] | None = None,
) -> Profile:
    """Derive a profile from base profiles through exact identities.

    Two plans, one per identity:

    graph complement, for the induced kinds (base: complement graph):
        max_induced(i) = C(i,2) - min_induced(i)
        min_induced(i) = C(i,2) - max_induced(i)
      each size reads the base at i and keeps its witness.

    set complement, for the covered and cut kinds (base: same graph):
        kind(i) = m - kind.dual(n-i)     e.g. max_covered from min_induced
        kind(i) = kind.dual(n-i)         a cut kind, its own dual
      each size reads the base at n - i and complements its witness.
    """
    n, m = graph.n, graph.m
    if kind.counter == "induced":
        opposite = MetricKind.MIN_INDUCED if kind.is_max else MetricKind.MAX_INDUCED
        base = _need_base(complement_bases or {}, opposite, n, kind, "of the complement graph")
        values = tuple(math.comb(i, 2) - x for i, x in enumerate(base.values))
        provenance = f"reduction({kind.key}(i) = C(i,2) - complement {opposite.key}(i))"
        return Profile(kind, values, base.witnesses or None, provenance)
    dual = kind.dual
    base = _need_base(bases or {}, dual, n, kind, "of the same graph")
    values = tuple(kind.from_dual(x, m) for x in reversed(base.values))
    witnesses = tuple(witness.complement() for witness in reversed(base.witnesses)) if base.witnesses else None
    minus = "" if dual is kind else "m - "
    return Profile(kind, values, witnesses, f"reduction({kind.key}(i) = {minus}{dual.key}(n-i))")


# ---------------------------------------------------------------------------
# Strategy layer


def _agree(kind: MetricKind, truth: Sequence[int], route: str, values: Sequence[int]) -> None:
    for i, (x, y) in enumerate(zip(truth, values)):
        if x != y:
            raise InternalInconsistencyError(
                f"solver routes disagree on {kind.key} at i={i}: exhaustive={x}, {route}={y}"
            )


def _half_searched(graph: Graph, witnesses: bool = True) -> dict[MetricKind, list[tuple[int, int]]]:
    # Per kind, (value, mask) for every size 0..n from one branch and bound
    # on sizes 1..n//2, the one search plan of checked and reduced; its
    # greedy chain stops there too, at n//2 picks. The complement of an
    # i-set is an (n - i)-set, so a size i above n//2 is the complement of
    # kind.dual's set at n - i, its value read through kind.from_dual. The
    # six searches share one dict of leaf sums, which ends with the plan.
    # Without witnesses the masks are meaningless, and at n <= _LEAF the
    # plan searches nothing: greedy seeds and the threshold test only
    # break ties between witnesses. Per counter one table over the
    # t-subsets T of all n vertices, t = 0..n//2 in _layout's order, holds
    # per_degree * deg(T) + per_inside * e(T) in field T, in [0, m], so no
    # field borrows; decoded once, each size's max is the max kind's and
    # its min the min kind's.
    n, m, full = graph.n, graph.m, (1 << graph.n) - 1
    if witnesses or n > _LEAF:
        sums = {}
        lower = {kind: _searcher(graph, kind, sums)(1, n // 2) for kind in KIND_ORDER}
    else:
        _, spans, _, members = _layout(n, 0, n // 2)
        degrees, edges = _sums(graph, range(n), members)
        lower = {}
        # KIND_ORDER holds each counter's max kind and then its min kind
        for most, least in zip(KIND_ORDER[::2], KIND_ORDER[1::2]):
            fields = _fields(most.per_degree * degrees + most.per_inside * edges, 2 * spans[-1][1]).tolist()
            lower[most] = [(max(fields[a:z]), 0) for a, z in spans]
            lower[least] = [(min(fields[a:z]), 0) for a, z in spans]
    return {
        kind: found + [(kind.from_dual(x, m), mask ^ full) for x, mask in reversed(lower[kind.dual][: n - n // 2])]
        for kind, found in lower.items()
    }


def _checked_profiles(
    graph: Graph, witnesses: bool
) -> tuple[dict[MetricKind, Profile], dict[MetricKind, Profile]]:
    # Returns the cross-checked profiles and the complement's walk, values
    # only, which the reductions have just checked against them. Per kind,
    # the branch-and-bound values and the reduction's are compared with the
    # walk's. With witnesses, every walk witness is then evaluated again,
    # each distinct set once; without them the walk keeps values only and
    # there is no witness to evaluate. Only values are compared, so neither
    # the search nor the reductions build a witness.
    exhaustive = profile_exhaustive(graph, cap=graph.n, witnesses=witnesses)
    co = profile_exhaustive(complement(graph), cap=graph.n, witnesses=False)
    bases = {kind: Profile(kind, profile.values) for kind, profile in exhaustive.items()}
    searched = _half_searched(graph, False)
    evaluated = {}
    for kind in KIND_ORDER:
        profile = exhaustive[kind]
        _agree(kind, profile.values, "branch-and-bound", [value for value, _ in searched[kind]])
        derived = profile_by_reduction(graph, kind, bases=bases, complement_bases=co)
        _agree(kind, profile.values, derived.provenance, derived.values)
        for i, witness in enumerate(profile.witnesses or ()):
            metrics = evaluated.get(witness.bits)
            if metrics is None:
                metrics = evaluated[witness.bits] = metrics_from_mask(graph, witness.bits)
            if metrics.size != i or getattr(metrics, kind.counter) != profile.values[i]:
                raise InternalInconsistencyError(
                    f"witness of {kind.key} at i={i} does not attain its value: "
                    f"{profile.values[i]} claimed, {metrics} found"
                )
    checked = {kind: Profile(kind, profile.values, profile.witnesses, "cross-checked") for kind, profile in exhaustive.items()}
    return checked, co


def _solve(
    graph: Graph, strategy: str, cap: int | None, witnesses: bool = True
) -> tuple[dict[MetricKind, Profile], dict[MetricKind, Profile] | None]:
    """Profiles under a strategy, plus the complement's when the route made them.

    With ``witnesses`` false every profile comes back with values only
    (witnesses None), and no route builds a witness set: oracle's fold
    builds none, reduced builds no VertexSet, and checked walks the
    graph values only and so has no witness to evaluate again, while it
    still compares the walk, the complement walk, the half-range search
    and every reduction. ``verify_theorem`` and the profile command pass
    False, as their output reads values only. checked's half-range plan
    is values only whatever the flag, since it compares values only, and
    reduced's follows the flag; at n <= 12 a values-only plan searches
    nothing and reads each size off one table per counter
    (``_half_searched``).

    The complement profiles come back only from checked: its walk of the
    complement, values only, which the reduction check already compared
    against the graph's own. Every other route returns None in their
    place, and ``identity_suite`` makes the same walk when it needs it.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    _require_within_cap(graph.n, cap)
    resolved = ("checked" if graph.n <= 8 else "oracle") if strategy == "auto" else strategy
    if resolved == "oracle":
        return profile_exhaustive(graph, cap=graph.n, witnesses=witnesses), None
    if resolved == "checked":
        return _checked_profiles(graph, witnesses)
    return {
        kind: Profile(
            kind,
            tuple(x for x, _ in found),
            tuple(VertexSet(graph.n, mask) for _, mask in found) if witnesses else None,
            "branch-and-bound",
        )
        for kind, found in _half_searched(graph, witnesses).items()
    }, None


def all_profiles(
    graph: Graph,
    strategy: str = "auto",
    cap: int | None = None,
) -> dict[MetricKind, Profile]:
    """All six profiles under one strategy.

    Every profile carries one witness per size. oracle: one exhaustive
    Gray-code walk, each witness the first optimal set it meets.
    reduced: branch and bound for every kind on sizes 1..n/2, each size
    above n/2 read off the dual kind's set at n - i and complemented;
    each witness attains its value. checked: the walk on the graph and,
    values only, on its complement, the same half-range plan values only
    (above 12 vertices the branch and bound, up to 12 one table per
    counter over the subsets of every size), and every reduction; raises
    InternalInconsistencyError if any value disagrees or any returned
    witness fails to attain its value.
    auto: checked for n <= 8, one walk (oracle) above. At n = 24 on a
    2-core VM (Python 3.11) the walk took 0.11-0.12 s, while the six
    half-range searches took 0.23 s on random:24:0.5 and on regular:24:3,
    0.36 s on random:24:0.8 and 1.03 s on regular:24:11.

    This function always returns witnesses, and checked always checks
    them. The command line prints values only, so its profile and
    verify paths solve through ``_solve`` without witnesses: no route
    then builds a witness set, and checked has none to evaluate again.
    """
    return _solve(graph, strategy, cap)[0]

"""Exact solvers for the six fixed-size extremal edge counts.

For a graph on n vertices, each size i in [0, n], one of the three
subset counters (induced, covered, cut edges), and one sense (max or
min), the optimum over all i-subsets is computed by three independent
routes:

* ``profile_exhaustive``: one walk over the 2^(n-1) subsets without
  vertex n-1 yields all six profiles at once. It is blocked: the sets of
  the low 10 walked vertices are tabulated once as packed 16-bit fields
  of one int, and a reflected Gray code steps over the other vertices
  only, updating every tabulated set per step with a few int additions.
  A broadword threshold test (one add, one subtract and two ANDs on the
  packed int) then marks the fields that match or beat their size's best
  value so far; most steps mark none, a size whose best is beaten is
  decoded and reduced with one C-level max or min, and a tie is read off
  the marks. Every other subset is the complement of a walked one, and
  an O(n) fold after the walk reads its counters off the walked set's
  (induced and covered trade places as m minus each other, cut stays).
  This is the ground truth; each witness is the lexicographically first
  optimal subset (compare the sorted vertex tuples), which for a
  complement means the lexicographically last tie among the walked sets.
* ``profile_branch_bound``: one search body for all six kinds (a min
  kind maximizes its negated counter), and per kind one depth-first
  search for every size at once. Each node carries the sizes that no
  ancestor pruned, and bounds them all from one sorted list of
  admissible completion terms; greedy picks seed each size's
  incumbent. Values match the exhaustive route; witnesses are the first
  optimum it reaches.
* ``profile_by_reduction``: derive one profile from already computed
  ones through exact counting identities (cover totals from induced
  counts of complementary subsets, induced counts through the
  complement graph, cut profiles mirrored around n/2).

``all_profiles`` wires the routes into strategies, including a checked
mode that runs all of them and refuses to return if they disagree.

Bound functions used by the branch and bound, for a partial set S with
r slots left and a candidate x with a = |adj(x) & S|:

  max induced:  ½ · (2a + min(deg(x) - a, r - 1))
  min induced:  a
  max covered:  deg(x) - a
  min covered:  ½ · (2(deg(x) - a) - min(deg(x) - a, r - 1))
  max cut:      deg(x) - 2a
  min cut:      deg(x) - 2a - min(r - 1, deg(x) - a)

Summing the r best (worst) candidate terms over the remaining pool
never underestimates (overestimates) any completion T, so pruning on an
incumbent is safe. The halved terms count each edge inside T once: by
the handshake lemma induced(T) = ½ Σ_{x∈T} deg_T(x), and deg_T(x) is at
most min(deg(x) - a, r - 1). They are summed doubled and the sum is
rounded once, down for max and up for min.

One ascending or descending sort of the terms serves every r at a node:
four kinds' terms do not depend on r, and the min covered term rises
with deg(x) - a for every r. The max induced and min cut terms of the
largest live r, R, are admissible for each r <= R, so they screen every
live size, and a size that passes is bounded again with its own terms.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from typing import Callable, Mapping

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

# C(24, 12) subsets per size keep even the exhaustive route feasible.
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

    @property
    def counter(self) -> str:
        return self.value[0]

    @property
    def sense(self) -> str:
        return self.value[1]

    @property
    def is_max(self) -> bool:
        return self.value[1] == "max"

    @property
    def key(self) -> str:
        return self.name.lower()


KIND_ORDER = (
    MetricKind.MAX_INDUCED,
    MetricKind.MIN_INDUCED,
    MetricKind.MAX_COVERED,
    MetricKind.MIN_COVERED,
    MetricKind.MAX_CUT,
    MetricKind.MIN_CUT,
)


def kind_from_key(key: str) -> MetricKind:
    for kind in MetricKind:
        if kind.key == key:
            return kind
    raise ValueError(f"unknown metric kind {key!r}")


@dataclass(frozen=True)
class Profile:
    """Extremal values of one kind for every size i in [0, n].

    ``values[0]`` is 0 by the empty-set convention (a convention, not a
    derived fact). ``witnesses``, when present, holds one optimal subset
    per size.
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
    limit = DEFAULT_VERTEX_CAP if cap is None else cap
    if n > limit:
        raise VertexCapError(
            f"graph on {n} vertices exceeds the solver cap of {limit}; "
            f"pass a larger cap explicitly to proceed"
        )


# ---------------------------------------------------------------------------
# Exhaustive route


_BIT_REVERSAL = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed(masks: list[int], n: int) -> list[int]:
    # Bit b of each n-bit mask (n <= 64) becomes bit n-1-b: the masks as
    # little-endian 64-bit words, the bits of each byte reversed by table,
    # read back big-endian and shifted down past the padding.
    words = struct.pack(f"<{len(masks)}Q", *masks).translate(_BIT_REVERSAL)
    return [word >> 64 - n for word in struct.unpack(f">{len(masks)}Q", words)]


# The walk tabulates its lowest _BLOCK bits at once, as 16-bit fields of
# one int. A field holds at most 2m while a step sums it and a counter at
# most m < 2^15 at any walkable n, so the threshold test's 0x8000 plus or
# minus a best value, plus or minus a counter, stays in [0, 2^16): no
# field ever carries into or borrows from the next.
_BLOCK = 10


@functools.cache
def _block_layout(k: int):
    # Field order over the 2^k low sets L (walk bits 1..k): by size, then
    # by descending mask, so that the first field of a size holding some
    # value is its lexicographically first L. Returns each field's mask,
    # each size's field range [a, z), per field its size t with the field
    # range [a, z) and the byte range [2a, 2z) of size t, the int with
    # every field 1, and per walk bit b <= k the int whose field L is 1
    # when L holds b.
    masks, spans, where = [], [], []
    for t in range(k + 1):
        a = len(masks)
        masks += [mask for mask in range((2 << k) - 2, -1, -2) if mask.bit_count() == t]
        spans.append((a, len(masks)))
        where += [(t, a, len(masks), 2 * a, 2 * len(masks))] * (len(masks) - a)
    pack = struct.Struct(f"{len(masks)}H").pack
    members = tuple(int.from_bytes(pack(*[mask >> b & 1 for mask in masks]), sys.byteorder) for b in range(k + 1))
    ones = int.from_bytes(pack(*[1] * len(masks)), sys.byteorder)
    return memoryview(pack(*masks)).cast("H"), tuple(spans), where, ones, members


def _fields(packed: int, width: int) -> memoryview:
    # The 16-bit fields of a packed vector, in field order: the walk's one
    # decode, which a step makes only for a vector holding a beaten best.
    return memoryview(packed.to_bytes(width, sys.byteorder)).cast("H")


def _fold(graph: Graph, trackers) -> dict[MetricKind, Profile]:
    # Size j is attained either by a walked set (direct, size j) or by the
    # complement of one (mirror, size n - j, value m - x when flipped, x
    # otherwise). The trackers run in KIND_ORDER; the mirror of max_induced
    # is min_covered, of min_induced max_covered and so on, and a cut kind
    # mirrors itself. The last walked tie has the first complement. All
    # the winning masks are reversed at once, and each distinct one
    # becomes one VertexSet.
    n, m = graph.n, graph.m
    full = (1 << n) - 1
    values, walked = [], []
    for kind, direct, mirror in zip(KIND_ORDER, trackers, [trackers[i] for i in (3, 2, 1, 0, 4, 5)]):
        maximize, flipped = kind.is_max, kind.counter != "cut"
        for a, wa, b, wb in zip(direct[0], direct[1], reversed(mirror[0]), reversed(mirror[2])):
            wb ^= full
            if flipped:
                b = m - b
            if a != b and (a > b) != maximize or a == b and wb > wa:
                a, wa = b, wb
            values.append(a)
            walked.append(wa)
    distinct = list(set(walked))
    sets = dict(zip(distinct, [VertexSet(n, bits) for bits in _reversed(distinct, n)]))
    witnesses = list(map(sets.__getitem__, walked))
    return {
        kind: Profile(kind, tuple(values[at : at + n + 1]), tuple(witnesses[at : at + n + 1]), "exhaustive")
        for kind, at in zip(KIND_ORDER, range(0, len(values), n + 1))
    }


def profile_exhaustive(graph: Graph, *, cap: int | None = None) -> dict[MetricKind, Profile]:
    """Ground truth: all six profiles from one walk over half the subsets.

    The walk covers the 2^(n-1) subsets S without vertex n-1, numbering
    vertex u as bit n-1-u, so that of two sets of one size the
    lexicographically earlier is the larger mask. Every other subset is
    a complement V - S, whose counters are exact: induced(V - S) =
    m - covered(S), covered(V - S) = m - induced(S), cut(V - S) = cut(S).
    So per size each of the six trackers keeps its best value, and an
    O(n) fold after the walk sets size j's optimum against the matching
    tracker at size n - j, e.g. max_induced(j) = max(max_induced(j),
    m - min_covered(n - j)).

    The walk is blocked. The low k = min(10, n - 1) walked bits form the
    block. A table over its 2^k sets L is one int of 16-bit fields,
    ordered by |L| and then by descending mask, and each block vertex
    has an indicator table whose field L is 1 when L holds it. Sums of
    indicators give the degree sum of L, induced(L) (per edge inside the
    block, its two indicators ANDed) and, for each high vertex u, the
    vector |adj(u) & L| over all L. A reflected Gray code (Knuth, TAOCP
    4A, 7.2.1.1) then steps over the high sets H only; each step adds or
    subtracts u's vector, so for every L at once, with no borrow between
    fields,

      induced(H + L) = (sum of H's vectors)[L] + induced(L) + induced(H)
      covered(H + L) = degree sum(H) + degree sum(L) - induced(H + L)
      cut(H + L)     = covered(H + L) - induced(H + L)

    Most steps change no tracker, and a broadword threshold test (Knuth,
    TAOCP 4A, 7.1.3) finds the fields that might without decoding the
    vector. Per high size |H| each tracker caches one threshold int whose
    fields of size |L| = t hold 0x8000 - best(|H| + t) for a max tracker
    and 0x8000 + best(|H| + t) for a min tracker, and it drops the cache
    whenever one of its best values changes. Bit 15 of each field of
    (vector + threshold), or of (threshold - vector) for a min tracker,
    is then set exactly where the field matches or beats its size's
    best, and subtracting the all-ones int first leaves only the fields
    that beat it. Every field is nonnegative and at most m < 2^15, so no
    field carries into or borrows from the next. Step 0 meets only the
    sentinels and reads every size.

    The marks, as bytes, are searched for the sizes they touch. A size
    with a beaten best is decoded (``_fields``, the walk's only decode)
    and reduced with one C-level max or min. A size that is only matched
    needs no decode: its first and last marked fields are its first and
    last ties. Ties change a tracker only in the two cases below, so a
    tracker that marks only ties while H lies between the last and the
    first tie of each of its sizes is passed over before its marks are
    read.

    Each witness is the lexicographically first optimal subset. A
    complement is lexicographically first exactly when its walked set is
    lexicographically last among the ties, so each tracker keeps both
    its first and its last tie, and the fold picks the earlier of the
    walked and the complemented candidate. Within a size the fields run
    from the first L to the last. The high bits lie above the block, so
    of two high sets the larger one's sets are all earlier: a tie from H
    replaces the tracker's first tie when H exceeds it and its last tie
    when H falls below it. These are the two cases.
    """
    _require_within_cap(graph.n, cap)
    if graph.n > 64:
        # masks are reversed as 64-bit words, and 2^63 steps never finish
        raise VertexCapError(f"the exhaustive walk takes at most 64 vertices, not {graph.n}")
    n, m = graph.n, graph.m
    adj = _reversed(graph.adj[::-1], n)
    degrees = graph.degrees[::-1]
    k = min(_BLOCK, n - 1)
    masks, spans, where, ones, members = _block_layout(k)

    # an edge from b down to c lies inside L where both fields are 1
    induced_l = sum(members[b] & members[c] for b in range(1, k + 1) for c in range(1, b) if adj[b] >> c & 1)
    degrees_l = sum(degrees[b] * members[b] for b in range(1, k + 1))
    # field L of crossing[j] is |adj(u) & L| for the high vertex u at bit k + 1 + j
    crossing = [sum(members[c] for c in range(1, k + 1) if adj[b] >> c & 1) for b in range(k + 1, n)]

    def tracker(sign: int) -> tuple[list[int], list[int], list[int], dict[int, int]]:
        # best value, first and last tie per size, and the threshold ints
        # by |H|. Size n is never walked, so its sentinel (beaten by every
        # real value, flipped or not) stays.
        return [-1 if sign > 0 else m + 1] * (n + 1), [0] * (n + 1), [0] * (n + 1), {}

    trackers = [tracker(sign) for _ in range(3) for sign in (1, -1)]
    pairs = trackers[0:2], trackers[2:4], trackers[4:6]
    width, order, top = 2 * len(masks), sys.byteorder, ones << 15
    everything = b"\x80" * width
    high = cross = high_induced = high_degrees = size = 0
    for step in range(1 << (n - 1 - k)):
        if step:
            b = k + (step & -step).bit_length()
            high ^= 1 << b
            sign = 1 if high >> b & 1 else -1
            cross += sign * crossing[b - k - 1]
            high_induced += sign * (adj[b] & high).bit_count()
            high_degrees += sign * degrees[b]
            size += sign
        induced = cross + induced_l + high_induced * ones
        covered = degrees_l + high_degrees * ones - induced
        for packed, pair in zip((induced, covered, covered - induced), pairs):
            fields = None
            for sign, (values, first, last, thresholds) in zip((1, -1), pair):
                if not step:
                    # every best is still a sentinel, which every field beats
                    marks = everything
                else:
                    if size not in thresholds:
                        pieces = [(0x8000 - sign * best).to_bytes(2, order) * (z - a) for best, (a, z) in zip(values[size:], spans)]
                        thresholds[size] = int.from_bytes(b"".join(pieces), order)
                    probe = thresholds[size] + packed if sign > 0 else thresholds[size] - packed
                    hit = probe & top
                    if not hit:
                        continue
                    beat = (probe - ones) & top
                    # ties alone move no witness while high lies between
                    # every size's last and first tie
                    if not beat and max(last[size : size + k + 1]) <= high <= min(first[size : size + k + 1]):
                        continue
                    # a matched or beaten field's high byte reads 0x80, and
                    # a beaten one's low byte too
                    marks = (hit | beat >> 8).to_bytes(width, order)
                at = marks.find(0x80)
                while at >= 0:
                    t, a, z, a2, z2 = where[at >> 1]
                    s = size + t
                    # two 0x80 bytes in a row hold a beaten field's low byte
                    if not step or marks.find(b"\x80\x80", a2, z2) >= 0:
                        if fields is None:
                            fields, groups = _fields(packed, width), {}
                        group = groups.get(t) or groups.setdefault(t, fields[a:z].tolist())
                        values[s] = value = max(group) if sign > 0 else min(group)
                        first[s] = high | masks[a + group.index(value)]
                        last[s] = high | masks[z - 1 - group[::-1].index(value)]
                        thresholds.clear()
                    elif high > first[s]:
                        first[s] = high | masks[at >> 1]
                    elif high < last[s]:
                        last[s] = high | masks[marks.rfind(0x80, a2, z2) >> 1]
                    at = marks.find(0x80, z2)
    return _fold(graph, trackers)


def extremal_exhaustive(
    graph: Graph, kind: MetricKind, size: int, cap: int | None = None
) -> tuple[int, VertexSet]:
    """Exact optimum for one size; witness is the lexicographically first."""
    if not 0 <= size <= graph.n:
        raise ValueError(f"subset size {size} outside 0..{graph.n}")
    profile = profile_exhaustive(graph, cap=cap)[kind]
    return profile.values[size], profile.witnesses[size]


# ---------------------------------------------------------------------------
# Branch and bound route


# a pick v adds per_degree * deg(v) + per_inside * |adj(v) & S| to the counter of S
_GAIN = {"induced": (0, 1), "covered": (1, -1), "cut": (1, -2)}


def _bound_fn(kind: MetricKind, adj, degrees, order) -> tuple[Callable[..., list[int]], Callable[..., int] | None]:
    """(bounds, refine). bounds(start, chosen, top)[r], for r in [0, top],
    is at most (max) or at least (min) what r more picks from
    order[start:] can add to the counter of the set chosen.

    Entry r sums the r best terms of the module docstring's table over
    the pool, doubled and rounded once for the two halved kinds, so one
    sort and its prefix sums serve every r. That is exact where the terms
    do not depend on r, and for min covered, whose term rises with
    f = deg(x) - a for every r: its r best are those of the r smallest f.
    Max induced and min cut list the sums of the terms of r = top, which
    are admissible for each r <= top but looser; refine(start, chosen, r)
    is their exact bound for one r, and None for the other four kinds.
    """
    maximize = kind.is_max
    if kind in (MetricKind.MAX_INDUCED, MetricKind.MIN_CUT):
        pool = [(adj[v], degrees[v]) for v in order]
        if maximize:
            def terms(start: int, chosen: int, k: int) -> list[int]:
                # 2a + min(deg - a, k)
                return [d + a if (a := (nb & chosen).bit_count()) + k >= d else 2 * a + k for nb, d in pool[start:]]
        else:
            def terms(start: int, chosen: int, k: int) -> list[int]:
                # deg - 2a - min(k, deg - a)
                return [-a if (a := (nb & chosen).bit_count()) + k >= d else d - 2 * a - k for nb, d in pool[start:]]

        # max induced's terms are the doubled ones, halved once per sum
        def bounds(start: int, chosen: int, top: int) -> list[int]:
            sums = accumulate(sorted(terms(start, chosen, top - 1), reverse=maximize), initial=0)
            return [total // 2 for total in sums] if maximize else list(sums)

        def refine(start: int, chosen: int, r: int) -> int:
            total = sum(sorted(terms(start, chosen, r - 1), reverse=maximize)[:r])
            return total // 2 if maximize else total

        return bounds, refine

    # the other kinds rank the pick's own gain: a, deg - a or deg - 2a
    per_degree, per_inside = _GAIN[kind.counter]
    pool = [(adj[v], per_degree * degrees[v]) for v in order]
    if kind is MetricKind.MIN_COVERED:
        def bounds(start: int, chosen: int, top: int) -> list[int]:
            free = sorted([d - (nb & chosen).bit_count() for nb, d in pool[start:]])
            sums = list(accumulate(free, initial=0))
            # the r smallest f, the j of them up to r - 1 once and the
            # others twice less r - 1, halved and rounded up
            return [
                -((sums[j := bisect_right(free, r - 1, 0, r)] + (r - j) * (r - 1) - 2 * sums[r]) // 2)
                for r in range(top + 1)
            ]
    else:
        def bounds(start: int, chosen: int, top: int) -> list[int]:
            ranked = sorted([d + per_inside * (nb & chosen).bit_count() for nb, d in pool[start:]], reverse=maximize)
            return list(accumulate(ranked, initial=0))

    return bounds, None


def _searcher(graph: Graph, kind: MetricKind) -> Callable[[int, int], list[tuple[int, int]]]:
    """search(lo, hi) -> [(value, mask)] per size 0..n: one branch and bound
    solves the sizes in [lo, hi] of one kind; the other entries hold the
    greedy seed, which is exact at sizes 0 and n.

    The search always maximizes; a min kind maximizes its negated
    counter, where a pick v adds sign * (per_degree * deg(v) + per_inside
    * |adj(v) & S|). Greedy picks, the lowest vertex of best gain, ignore
    the size, so one chain of n picks seeds every size: its first s picks
    are the incumbent of size s.

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
    """
    n, adj = graph.n, graph.adj
    sign = 1 if kind.is_max else -1
    per_degree, per_inside = _GAIN[kind.counter]
    base = [sign * per_degree * d for d in graph.degrees]
    inside = sign * per_inside
    order = sorted(range(n), key=lambda v: (-sign * graph.degrees[v], v))
    bounds, refine = _bound_fn(kind, adj, graph.degrees, order)
    # counters are never negative, and no max kind's bound beats m + 1
    ceiling = graph.m + 1 if sign > 0 else 0

    seeds = [(0, 0)]
    mask = value = 0
    gains, rest = base[:], list(range(n))
    for _ in range(n):
        v = max(rest, key=gains.__getitem__)
        rest.remove(v)
        value += gains[v]
        mask |= 1 << v
        seeds.append((value, mask))
        for u in rest:
            if adj[v] >> u & 1:
                gains[u] += inside

    # per start, the pool order[start:] as a mask and its own signed counter
    pool_mask, pool_gain = [0] * (n + 1), [0] * (n + 1)
    for idx in range(n - 1, -1, -1):
        v = order[idx]
        pool_mask[idx] = pool_mask[idx + 1] | 1 << v
        pool_gain[idx] = pool_gain[idx + 1] + base[v] + inside * (adj[v] & pool_mask[idx + 1]).bit_count()

    def search(lo: int, hi: int) -> list[tuple[int, int]]:
        incumbent = [value for value, _ in seeds]
        best = [mask for _, mask in seeds]

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
                found = bounds(start, chosen, top - picked)
                live = [
                    s for s in live
                    if s == one
                    or val + sign * found[s - picked] > incumbent[s] < ceiling
                    and (s == top or not refine or val + sign * refine(start, chosen, s - picked) > incumbent[s])
                ]
                if not live:
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
            dfs(0, 0, 0, 0, sizes)
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


def _branch_bound_profile(graph: Graph, kind: MetricKind, mirror_cut: bool) -> Profile:
    # Cut counts are invariant under complementing the subset, so with
    # mirror_cut a cut kind solves sizes up to n/2 and mirrors the rest.
    n = graph.n
    mirrored = mirror_cut and kind.counter == "cut"
    half = n // 2 if mirrored else n
    lower = _searcher(graph, kind)(1, half)
    values = []
    witnesses = []
    for i in range(n + 1):
        value, mask = lower[i if i <= half else n - i]
        values.append(value)
        witness = VertexSet(n, mask)
        witnesses.append(witness if i <= half else witness.complement())
    provenance = "branch-and-bound (lower half mirrored)" if mirrored else "branch-and-bound"
    return Profile(kind, tuple(values), tuple(witnesses), provenance)


def profile_branch_bound(graph: Graph, kind: MetricKind, cap: int | None = None) -> Profile:
    """Same values as profile_exhaustive, computed by the pruned search."""
    _require_within_cap(graph.n, cap)
    return _branch_bound_profile(graph, kind, mirror_cut=False)


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

    max_covered(i) = m - min_induced(n-i)          base: same graph
    min_covered(i) = m - max_induced(n-i)          base: same graph
    max_induced(i) = C(i,2) - min_induced(i)       base: complement graph
    min_induced(i) = C(i,2) - max_induced(i)       base: complement graph
    max_cut / min_cut: values mirrored around n/2  base: same graph, same
        kind (only the lower half of the base is read)

    Witnesses carry over: complements of the base witnesses for the
    cover reductions and the mirrored upper half, the base witnesses
    themselves otherwise.
    """
    bases = dict(bases) if bases else {}
    complement_bases = dict(complement_bases) if complement_bases else {}
    n = graph.n
    m = graph.m
    sizes = range(n + 1)

    if kind in (MetricKind.MAX_COVERED, MetricKind.MIN_COVERED):
        wanted = (
            MetricKind.MIN_INDUCED
            if kind is MetricKind.MAX_COVERED
            else MetricKind.MAX_INDUCED
        )
        base = _need_base(bases, wanted, n, kind, "of the same graph")
        values = tuple(m - base.values[n - i] for i in sizes)
        witnesses = (
            tuple(base.witnesses[n - i].complement() for i in sizes)
            if base.witnesses
            else None
        )
        provenance = f"reduction({kind.key}(i) = m - {wanted.key}(n-i))"
    elif kind in (MetricKind.MAX_INDUCED, MetricKind.MIN_INDUCED):
        wanted = (
            MetricKind.MIN_INDUCED
            if kind is MetricKind.MAX_INDUCED
            else MetricKind.MAX_INDUCED
        )
        base = _need_base(complement_bases, wanted, n, kind, "of the complement graph")
        values = tuple(math.comb(i, 2) - base.values[i] for i in sizes)
        witnesses = base.witnesses
        provenance = f"reduction({kind.key}(i) = C(i,2) - complement {wanted.key}(i))"
    else:
        base = _need_base(bases, kind, n, kind, "of the same graph")
        half = n // 2
        values = tuple(base.values[i if i <= half else n - i] for i in sizes)
        if base.witnesses:
            witnesses = tuple(
                base.witnesses[i] if i <= half else base.witnesses[n - i].complement()
                for i in sizes
            )
        else:
            witnesses = None
        provenance = f"reduction({kind.key} mirrored around n/2)"
    return Profile(kind, values, witnesses, provenance)


# ---------------------------------------------------------------------------
# Strategy layer


def _first_mismatch(a: Profile, b: Profile) -> int | None:
    for i, (x, y) in enumerate(zip(a.values, b.values)):
        if x != y:
            return i
    return None


def _checked_profiles(
    graph: Graph,
) -> tuple[dict[MetricKind, Profile], dict[MetricKind, Profile]]:
    # Returns the cross-checked profiles and the complement's walk, whose
    # values the reductions have just checked against them.
    exhaustive = profile_exhaustive(graph, cap=graph.n)
    for kind in KIND_ORDER:
        bounded = profile_branch_bound(graph, kind, cap=graph.n)
        i = _first_mismatch(exhaustive[kind], bounded)
        if i is not None:
            raise InternalInconsistencyError(
                f"solver routes disagree on {kind.key} at i={i}: "
                f"exhaustive={exhaustive[kind].values[i]}, "
                f"branch-and-bound={bounded.values[i]}"
            )
    co = profile_exhaustive(complement(graph), cap=graph.n)
    for kind in KIND_ORDER:
        derived = profile_by_reduction(graph, kind, bases=exhaustive, complement_bases=co)
        i = _first_mismatch(exhaustive[kind], derived)
        if i is not None:
            raise InternalInconsistencyError(
                f"reduction route disagrees on {kind.key} at i={i}: "
                f"exhaustive={exhaustive[kind].values[i]}, "
                f"derived={derived.values[i]} ({derived.provenance})"
            )
    for kind in KIND_ORDER:
        profile = exhaustive[kind]
        for i, witness in enumerate(profile.witnesses):
            metrics = metrics_from_mask(graph, witness.bits)
            if metrics.size != i or getattr(metrics, kind.counter) != profile.values[i]:
                raise InternalInconsistencyError(
                    f"witness of {kind.key} at i={i} does not attain its value: "
                    f"{profile.values[i]} claimed, {metrics} found"
                )
    checked = {kind: replace(exhaustive[kind], provenance="cross-checked") for kind in KIND_ORDER}
    return checked, co


def _solve(
    graph: Graph, strategy: str, cap: int | None
) -> tuple[dict[MetricKind, Profile], dict[MetricKind, Profile] | None]:
    """Profiles under a strategy, plus the complement's when the route made them.

    The complement profiles come back only from checked, whose reduction
    check already compared them against the graph's own; every other
    route returns None in their place.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    _require_within_cap(graph.n, cap)
    resolved = ("checked" if graph.n <= 8 else "oracle") if strategy == "auto" else strategy
    if resolved == "oracle":
        return profile_exhaustive(graph, cap=graph.n), None
    if resolved == "checked":
        return _checked_profiles(graph)
    searched = {
        kind: _branch_bound_profile(graph, kind, mirror_cut=True)
        for kind in KIND_ORDER
        if kind.counter != "covered"
    }
    reduced = {
        kind: searched[kind] if kind in searched else profile_by_reduction(graph, kind, bases=searched)
        for kind in KIND_ORDER
    }
    return reduced, None


def all_profiles(
    graph: Graph,
    strategy: str = "auto",
    cap: int | None = None,
) -> dict[MetricKind, Profile]:
    """All six profiles under one strategy.

    oracle: one exhaustive Gray-code walk, lexicographically first
    witnesses. reduced: branch and bound for the induced and cut kinds,
    cut kinds solved up to n/2 and mirrored, the covered kinds derived
    from the induced ones. checked: the walk on the graph and on its
    complement, branch and bound for every kind and size, and every
    reduction; raises InternalInconsistencyError if any value disagrees
    or any returned witness fails to attain its value. auto: checked for
    n <= 8, one walk (oracle) above: the walk visits half the subsets and
    beats branch and bound on all but the sparsest graphs near the cap.
    """
    return _solve(graph, strategy, cap)[0]

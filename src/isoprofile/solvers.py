"""Exact solvers for the six fixed-size extremal edge counts.

For a graph on n vertices, each size i in [0, n], one of the three
subset counters (induced, covered, cut edges), and one sense (max or
min), the optimum over all i-subsets is computed by three independent
routes:

* ``profile_exhaustive``: one walk over the 2^(n-1) subsets without
  vertex n-1 yields all six profiles at once. It is blocked: the sets of
  the low 10 walked vertices are tabulated once as packed 16-bit fields
  of one int, and a reflected Gray code steps over the other vertices
  only, updating every tabulated set per step with a few int additions
  and reducing each size with one C-level max and min. Every other
  subset is the complement of a walked one, and an O(n) fold after the
  walk reads its counters off the walked set's (induced and covered
  trade places as m minus each other, cut stays). This is the ground
  truth; each witness is the lexicographically first optimal subset
  (compare the sorted vertex tuples), which for a complement means the
  lexicographically last tie among the walked sets.
* ``profile_branch_bound``: one depth-first search for all six kinds
  (a min kind maximizes its negated counter) with admissible
  degree-sorted completion bounds and greedy incumbents. Values match
  the exhaustive route; witnesses are the first optimum it reaches.
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
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass, replace
from enum import Enum
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


def _reversed(bits: int, n: int) -> int:
    # Bit b of an n-bit mask becomes bit n-1-b: bit n marks where the
    # digits end, and the reversed slice stops before it and the "0b".
    return int(bin(bits | 1 << n)[:2:-1], 2)


# The walk tabulates its lowest _BLOCK bits at once, as 16-bit fields of
# one int; a field holds at most 2m, far below 2^16 at any walkable n.
_BLOCK = 10


@functools.cache
def _block_layout(k: int):
    # Field order over the 2^k low sets L (walk bits 1..k): by size, then
    # by descending mask, so that the first field of a size holding some
    # value is its lexicographically first L. Returns each field's mask,
    # each size's field range [a, z), the int with every field 1, and per
    # walk bit b <= k the int whose field L is 1 when L holds b.
    masks, spans = [], []
    for t in range(k + 1):
        start = len(masks)
        masks += [mask for mask in range((2 << k) - 2, -1, -2) if mask.bit_count() == t]
        spans.append((start, len(masks)))
    pack = struct.Struct(f"{len(masks)}H").pack
    members = tuple(int.from_bytes(pack(*[mask >> b & 1 for mask in masks]), sys.byteorder) for b in range(k + 1))
    ones = int.from_bytes(pack(*[1] * len(masks)), sys.byteorder)
    return memoryview(pack(*masks)).cast("H"), tuple(spans), ones, members


def _fold(kind: MetricKind, direct, mirror, flipped: bool, graph: Graph) -> Profile:
    # Size j is attained either by a walked set (direct, size j) or by the
    # complement of one (mirror, size n - j, value m - x when flipped, x
    # otherwise). The last walked tie has the first complement.
    n, m = graph.n, graph.m
    full = (1 << n) - 1
    direct_values, direct_first, _ = direct
    mirror_values, _, mirror_last = mirror
    maximize = kind.is_max
    values, witnesses = [], []
    for j in range(n + 1):
        a, wa = direct_values[j], direct_first[j]
        b, wb = mirror_values[n - j], full ^ mirror_last[n - j]
        if flipped:
            b = m - b
        if a != b and (a > b) != maximize or a == b and wb > wa:
            a, wa = b, wb
        values.append(a)
        witnesses.append(VertexSet(n, _reversed(wa, n)))
    return Profile(kind, tuple(values), tuple(witnesses), "exhaustive")


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

    The int's bytes, read through a memoryview as a list of 16-bit
    values, give per size |L| = t one C-level max and one min over its
    fields: the extremes of size |H| + t.

    Each witness is the lexicographically first optimal subset. A
    complement is lexicographically first exactly when its walked set is
    lexicographically last among the ties, so each tracker keeps both
    its first and its last tie, and the fold picks the earlier of the
    walked and the complemented candidate. Within a size the fields run
    from the first L to the last, and a size's first and last tied L
    are looked up only when its extreme matches or beats the tracker.
    The high bits lie above the block, so of two high sets the larger
    one's sets are all earlier: a tie from H replaces the tracker's
    first tie when H exceeds it and its last tie when H falls below it.
    """
    _require_within_cap(graph.n, cap)
    n, m = graph.n, graph.m
    adj = [_reversed(graph.adj[n - 1 - b], n) for b in range(n)]
    degrees = graph.degrees[::-1]
    k = min(_BLOCK, n - 1)
    masks, spans, ones, members = _block_layout(k)

    # an edge from b down to c lies inside L where both fields are 1
    induced_l = sum(members[b] & members[c] for b in range(1, k + 1) for c in range(1, b) if adj[b] >> c & 1)
    degrees_l = sum(degrees[b] * members[b] for b in range(1, k + 1))
    # field L of crossing[j] is |adj(u) & L| for the high vertex u at bit k + 1 + j
    crossing = [sum(members[c] for c in range(1, k + 1) if adj[b] >> c & 1) for b in range(k + 1, n)]

    def tracker(sentinel: int) -> tuple[list[int], list[int], list[int]]:
        # Size n is never walked, so its sentinel (beaten by every real
        # value, flipped or not) stays.
        return [sentinel] * (n + 1), [0] * (n + 1), [0] * (n + 1)

    hi_ind, hi_cov, hi_cut = (tracker(-1) for _ in range(3))
    lo_ind, lo_cov, lo_cut = (tracker(m + 1) for _ in range(3))

    def take(tracker, s: int, value: int, high: int, group: list[int], a: int) -> None:
        # group holds the fields from a on; the caller has seen its
        # extreme, value, match or beat the tracker's best at s.
        values, first, last = tracker
        new = value != values[s]
        values[s] = value
        if new or high > first[s]:
            first[s] = high | masks[a + group.index(value)]
        if new or high < last[s]:
            last[s] = high | masks[a + len(group) - 1 - group[::-1].index(value)]

    width, order = 2 * len(masks), sys.byteorder
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
        for packed, hi, lo in (
            (induced, hi_ind, lo_ind),
            (covered, hi_cov, lo_cov),
            (covered - induced, hi_cut, lo_cut),
        ):
            fields = memoryview(packed.to_bytes(width, order)).cast("H").tolist()
            for s, (a, z) in enumerate(spans, size):
                group = fields[a:z]
                value = max(group)
                if value >= hi[0][s]:
                    take(hi, s, value, high, group, a)
                value = min(group)
                if value <= lo[0][s]:
                    take(lo, s, value, high, group, a)
    pairs = (
        (hi_ind, lo_cov, True),
        (lo_ind, hi_cov, True),
        (hi_cov, lo_ind, True),
        (lo_cov, hi_ind, True),
        (hi_cut, hi_cut, False),
        (lo_cut, lo_cut, False),
    )
    return {
        kind: _fold(kind, direct, mirror, flipped, graph)
        for kind, (direct, mirror, flipped) in zip(KIND_ORDER, pairs)
    }


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


def _bound_fn(kind: MetricKind, adj, degrees, order) -> Callable[[int, int, int], int]:
    """bound(start, chosen, r): at most (max) or at least (min) what r more
    picks from order[start:] can add to the counter of the set chosen.

    It sums the r best terms of the module docstring's table over the
    pool, doubled and rounded once for the two halved kinds.
    """
    pool = [(adj[v], degrees[v]) for v in order]
    if kind is MetricKind.MAX_INDUCED:
        def terms(start: int, chosen: int, k: int) -> list[int]:
            return [2 * (a := (nb & chosen).bit_count()) + min(d - a, k) for nb, d in pool[start:]]
    elif kind is MetricKind.MIN_INDUCED:
        def terms(start: int, chosen: int, k: int) -> list[int]:
            return [(nb & chosen).bit_count() for nb, _ in pool[start:]]
    elif kind is MetricKind.MAX_COVERED:
        def terms(start: int, chosen: int, k: int) -> list[int]:
            return [d - (nb & chosen).bit_count() for nb, d in pool[start:]]
    elif kind is MetricKind.MIN_COVERED:
        def terms(start: int, chosen: int, k: int) -> list[int]:
            return [2 * (f := d - (nb & chosen).bit_count()) - min(f, k) for nb, d in pool[start:]]
    elif kind is MetricKind.MAX_CUT:
        def terms(start: int, chosen: int, k: int) -> list[int]:
            return [d - 2 * (nb & chosen).bit_count() for nb, d in pool[start:]]
    else:  # MIN_CUT
        def terms(start: int, chosen: int, k: int) -> list[int]:
            return [d - 2 * (a := (nb & chosen).bit_count()) - min(k, d - a) for nb, d in pool[start:]]
    maximize = kind.is_max
    halved = kind in (MetricKind.MAX_INDUCED, MetricKind.MIN_COVERED)

    def bound(start: int, chosen: int, r: int) -> int:
        best = terms(start, chosen, r - 1)
        best.sort(reverse=maximize)
        total = sum(best[:r])
        if not halved:
            return total
        return total // 2 if maximize else -(-total // 2)

    return bound


def _searcher(graph: Graph, kind: MetricKind) -> Callable[[int], tuple[int, int]]:
    """search(size) -> (value, mask): the optimum of one kind by branch and bound.

    The search always maximizes; a min kind maximizes its negated
    counter, where a pick v adds sign * (per_degree * deg(v) + per_inside
    * |adj(v) & S|). Greedy picks, the lowest vertex of best gain, ignore
    the size, so one chain of n picks seeds every size: its first s picks
    are the incumbent of size s, and the only set at sizes 0 and n.
    """
    n, adj = graph.n, graph.adj
    sign = 1 if kind.is_max else -1
    per_degree, per_inside = {"induced": (0, 1), "covered": (1, -1), "cut": (1, -2)}[kind.counter]
    base = [sign * per_degree * d for d in graph.degrees]
    inside = sign * per_inside
    order = sorted(range(n), key=lambda v: (-sign * graph.degrees[v], v))
    bound_fn = _bound_fn(kind, adj, graph.degrees, order)
    # counters are never negative, and no max kind's bound beats m + 1
    ceiling = graph.m + 1 if sign > 0 else 0

    def gain(v: int, chosen: int) -> int:
        return base[v] + inside * (adj[v] & chosen).bit_count()

    seeds = [(0, 0)]
    mask = value = 0
    for _ in range(n):
        v = max((u for u in range(n) if not mask >> u & 1), key=lambda u: gain(u, mask))
        value += gain(v, mask)
        mask |= 1 << v
        seeds.append((value, mask))

    def search(size: int) -> tuple[int, int]:
        incumbent, best = seeds[size]

        def dfs(start: int, chosen: int, picked: int, val: int) -> None:
            nonlocal incumbent, best
            if picked == size:
                if val > incumbent:
                    incumbent, best = val, chosen
                return
            r = size - picked
            if n - start < r:
                return
            bound = val + sign * bound_fn(start, chosen, r)
            if (bound if bound < ceiling else ceiling) <= incumbent:
                return
            for idx in range(start, n - r + 1):
                v = order[idx]
                dfs(idx + 1, chosen | 1 << v, picked + 1, val + gain(v, chosen))

        if 0 < size < n:
            dfs(0, 0, 0, 0)
        return sign * incumbent, best

    return search


def branch_bound_extremal(
    graph: Graph, kind: MetricKind, size: int, cap: int | None = None
) -> tuple[int, VertexSet]:
    """Exact optimum for one size via branch and bound; witness unconstrained."""
    _require_within_cap(graph.n, cap)
    if not 0 <= size <= graph.n:
        raise ValueError(f"subset size {size} outside 0..{graph.n}")
    value, mask = _searcher(graph, kind)(size)
    return value, VertexSet(graph.n, mask)


def _branch_bound_profile(graph: Graph, kind: MetricKind, mirror_cut: bool) -> Profile:
    # Cut counts are invariant under complementing the subset, so with
    # mirror_cut a cut kind solves sizes up to n/2 and mirrors the rest.
    n = graph.n
    mirrored = mirror_cut and kind.counter == "cut"
    half = n // 2 if mirrored else n
    search = _searcher(graph, kind)
    lower = [search(i) for i in range(half + 1)]
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

"""Exact solvers for the six fixed-size extremal edge counts.

For a graph on n vertices, each size i in [0, n], one of the three
subset counters (induced, covered, cut edges), and one sense (max or
min), the optimum over all i-subsets is computed by three independent
routes:

* ``profile_exhaustive``: one reflected Gray-code walk over all 2^n
  subsets yields all six profiles at once. This is the ground truth;
  each witness is the lexicographically first optimal subset (compare
  the sorted vertex tuples).
* ``profile_branch_bound``: depth-first subset extension with
  admissible degree-sorted completion bounds and a greedy incumbent.
  Values always match the exhaustive route; witnesses are whichever
  optimum the search reaches first.
* ``profile_by_reduction``: derive one profile from already computed
  ones through exact counting identities (cover totals from induced
  counts of complementary subsets, induced counts through the
  complement graph, cut profiles mirrored around n/2).

``all_profiles`` wires the routes into strategies, including a checked
mode that runs all of them and refuses to return if they disagree.

Bound functions used by the branch and bound, for a partial set S with
r slots left and a candidate x with a = |adj(x) & S|:

  max induced:  a + min(deg(x) - a, r - 1)
  min induced:  a
  max covered:  deg(x) - a
  min covered:  max(0, deg(x) - a - (r - 1))
  max cut:      deg(x) - 2a
  min cut:      deg(x) - 2a - min(r - 1, deg(x) - a)

Summing the r best (worst) candidate terms over the remaining pool
never underestimates (overestimates) any completion, so pruning on an
incumbent is safe.
"""

from __future__ import annotations

import math
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

STRATEGIES = ("auto", "oracle", "bb", "reduced", "checked")


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


def _earlier(mask: int, other: int) -> bool:
    # Of two equal-size sets, the one holding the lowest vertex of their
    # symmetric difference is lexicographically first.
    diff = mask ^ other
    return diff & -diff & mask != 0


def profile_exhaustive(graph: Graph, *, cap: int | None = None) -> dict[MetricKind, Profile]:
    """Ground truth: all six profiles from one walk over every subset.

    Consecutive subsets of the reflected Gray code differ in one vertex
    v, so the induced count moves by |adj(v) & S| and the degree sum by
    deg(v); covered = degree sum - induced and cut = degree sum -
    2 * induced follow. Each size keeps the lexicographically first
    optimal subset as its witness (Knuth, TAOCP 4A, 7.2.1.1).
    """
    _require_within_cap(graph.n, cap)
    n, adj, degrees = graph.n, graph.adj, graph.degrees
    top = n + 1
    # Sentinels every real value beats; size 0 holds the empty set.
    hi_ind, hi_cov, hi_cut = ([-1] * top for _ in range(3))
    lo_ind, lo_cov, lo_cut = ([graph.m + 1] * top for _ in range(3))
    for values in (hi_ind, hi_cov, hi_cut, lo_ind, lo_cov, lo_cut):
        values[0] = 0
    w_hi_ind, w_lo_ind, w_hi_cov, w_lo_cov, w_hi_cut, w_lo_cut = ([0] * top for _ in range(6))
    mask = induced = degree_sum = size = 0
    for step in range(1, 1 << n):
        v = (step & -step).bit_length() - 1
        bit = 1 << v
        mask ^= bit
        shared = (adj[v] & mask).bit_count()
        if mask & bit:
            induced += shared
            degree_sum += degrees[v]
            size += 1
        else:
            induced -= shared
            degree_sum -= degrees[v]
            size -= 1
        covered = degree_sum - induced
        cut = covered - induced
        best = hi_ind[size]
        if induced >= best and (induced > best or _earlier(mask, w_hi_ind[size])):
            hi_ind[size], w_hi_ind[size] = induced, mask
        best = lo_ind[size]
        if induced <= best and (induced < best or _earlier(mask, w_lo_ind[size])):
            lo_ind[size], w_lo_ind[size] = induced, mask
        best = hi_cov[size]
        if covered >= best and (covered > best or _earlier(mask, w_hi_cov[size])):
            hi_cov[size], w_hi_cov[size] = covered, mask
        best = lo_cov[size]
        if covered <= best and (covered < best or _earlier(mask, w_lo_cov[size])):
            lo_cov[size], w_lo_cov[size] = covered, mask
        best = hi_cut[size]
        if cut >= best and (cut > best or _earlier(mask, w_hi_cut[size])):
            hi_cut[size], w_hi_cut[size] = cut, mask
        best = lo_cut[size]
        if cut <= best and (cut < best or _earlier(mask, w_lo_cut[size])):
            lo_cut[size], w_lo_cut[size] = cut, mask
    table = (
        (hi_ind, w_hi_ind),
        (lo_ind, w_lo_ind),
        (hi_cov, w_hi_cov),
        (lo_cov, w_lo_cov),
        (hi_cut, w_hi_cut),
        (lo_cut, w_lo_cut),
    )
    return {
        kind: Profile(kind, tuple(values), tuple(VertexSet(n, w) for w in witnesses), "exhaustive")
        for kind, (values, witnesses) in zip(KIND_ORDER, table)
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


def _marginal_fn(kind: MetricKind, adj, degrees) -> Callable[[int, int], int]:
    counter = kind.counter
    if counter == "induced":
        return lambda v, s: (adj[v] & s).bit_count()
    if counter == "covered":
        return lambda v, s: degrees[v] - (adj[v] & s).bit_count()
    return lambda v, s: degrees[v] - 2 * (adj[v] & s).bit_count()


def _bound_term_fn(kind: MetricKind, adj, degrees) -> Callable[[int, int, int], int]:
    if kind is MetricKind.MAX_INDUCED:
        def term(v: int, s: int, r: int) -> int:
            a = (adj[v] & s).bit_count()
            return a + min(degrees[v] - a, r - 1)
    elif kind is MetricKind.MIN_INDUCED:
        def term(v: int, s: int, r: int) -> int:
            return (adj[v] & s).bit_count()
    elif kind is MetricKind.MAX_COVERED:
        def term(v: int, s: int, r: int) -> int:
            return degrees[v] - (adj[v] & s).bit_count()
    elif kind is MetricKind.MIN_COVERED:
        def term(v: int, s: int, r: int) -> int:
            a = (adj[v] & s).bit_count()
            return max(0, degrees[v] - a - (r - 1))
    elif kind is MetricKind.MAX_CUT:
        def term(v: int, s: int, r: int) -> int:
            return degrees[v] - 2 * (adj[v] & s).bit_count()
    else:  # MIN_CUT
        def term(v: int, s: int, r: int) -> int:
            a = (adj[v] & s).bit_count()
            return degrees[v] - 2 * a - min(r - 1, degrees[v] - a)
    return term


def _branch_bound_single(graph: Graph, kind: MetricKind, size: int) -> tuple[int, int]:
    n = graph.n
    adj = graph.adj
    degrees = graph.degrees
    if size == 0:
        return 0, 0
    full = (1 << n) - 1
    if size == n:
        metrics = metrics_from_mask(graph, full)
        return getattr(metrics, kind.counter), full

    maximize = kind.is_max
    marginal = _marginal_fn(kind, adj, degrees)
    term = _bound_term_fn(kind, adj, degrees)
    if maximize:
        order = sorted(range(n), key=lambda v: (-degrees[v], v))
    else:
        order = sorted(range(n), key=lambda v: (degrees[v], v))

    # Greedy completion seeds the incumbent, so a witness always exists.
    mask = 0
    value = 0
    for _ in range(size):
        best_v = -1
        best_gain = 0
        for v in range(n):
            if (mask >> v) & 1:
                continue
            gain = marginal(v, mask)
            if best_v < 0 or (gain > best_gain if maximize else gain < best_gain):
                best_v = v
                best_gain = gain
        mask |= 1 << best_v
        value += best_gain
    incumbent_value = value
    incumbent_mask = mask

    def dfs(start: int, chosen: int, picked: int, val: int) -> None:
        nonlocal incumbent_value, incumbent_mask
        if picked == size:
            if (val > incumbent_value) if maximize else (val < incumbent_value):
                incumbent_value = val
                incumbent_mask = chosen
            return
        r = size - picked
        if n - start < r:
            return
        terms = [term(order[idx], chosen, r) for idx in range(start, n)]
        terms.sort(reverse=maximize)
        bound = val + sum(terms[:r])
        if maximize:
            if bound <= incumbent_value:
                return
        else:
            if bound < 0:
                bound = 0  # counters are nonnegative
            if bound >= incumbent_value:
                return
        for idx in range(start, n - r + 1):
            v = order[idx]
            dfs(idx + 1, chosen | (1 << v), picked + 1, val + marginal(v, chosen))

    dfs(0, 0, 0, 0)
    return incumbent_value, incumbent_mask


def branch_bound_extremal(
    graph: Graph, kind: MetricKind, size: int, cap: int | None = None
) -> tuple[int, VertexSet]:
    """Exact optimum for one size via branch and bound; witness unconstrained."""
    _require_within_cap(graph.n, cap)
    if not 0 <= size <= graph.n:
        raise ValueError(f"subset size {size} outside 0..{graph.n}")
    value, mask = _branch_bound_single(graph, kind, size)
    return value, VertexSet(graph.n, mask)


def _branch_bound_profile(graph: Graph, kind: MetricKind, mirror_cut: bool) -> Profile:
    # Cut counts are invariant under complementing the subset, so with
    # mirror_cut a cut kind solves sizes up to n/2 and mirrors the rest.
    n = graph.n
    mirrored = mirror_cut and kind.counter == "cut"
    half = n // 2 if mirrored else n
    lower = [_branch_bound_single(graph, kind, i) for i in range(half + 1)]
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


def _checked_profiles(graph: Graph) -> dict[MetricKind, Profile]:
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
    return {kind: replace(exhaustive[kind], provenance="cross-checked") for kind in KIND_ORDER}


def all_profiles(
    graph: Graph,
    strategy: str = "auto",
    cap: int | None = None,
) -> dict[MetricKind, Profile]:
    """All six profiles under one strategy.

    oracle: one exhaustive Gray-code walk, lexicographically first
    witnesses. bb: branch and bound for every kind, cut kinds solved up
    to n/2 and mirrored. reduced: branch and bound for the induced and
    cut kinds, the covered kinds derived from the induced ones. checked:
    the walk on the graph and on its complement, branch and bound for
    every kind and size, and every reduction; raises
    InternalInconsistencyError if any value disagrees or any returned
    witness fails to attain its value. auto: checked for n <= 8, reduced
    above (free verification where it is cheap, speed where it is
    needed).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    _require_within_cap(graph.n, cap)
    resolved = ("checked" if graph.n <= 8 else "reduced") if strategy == "auto" else strategy
    if resolved == "oracle":
        return profile_exhaustive(graph, cap=graph.n)
    if resolved == "checked":
        return _checked_profiles(graph)
    if resolved == "bb":
        return {kind: _branch_bound_profile(graph, kind, mirror_cut=True) for kind in KIND_ORDER}
    searched = {
        kind: _branch_bound_profile(graph, kind, mirror_cut=True)
        for kind in KIND_ORDER
        if kind.counter != "covered"
    }
    return {
        kind: searched[kind] if kind in searched else profile_by_reduction(graph, kind, bases=searched)
        for kind in KIND_ORDER
    }

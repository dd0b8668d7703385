"""Naive reference implementations used to derive and freeze expected values.

Deliberately independent of the package under test: plain edge lists,
plain Python sets, itertools enumeration, and a direct scan of the edge
list per subset. Slow and obviously correct.
"""

from itertools import combinations


def brute_count(edges, inside, which):
    """Count edges relative to the vertex set ``inside`` by scanning the list."""
    total = 0
    for u, v in edges:
        u_in = u in inside
        v_in = v in inside
        if which == "induced":
            total += u_in and v_in
        elif which == "covered":
            total += u_in or v_in
        elif which == "cut":
            total += u_in != v_in
        else:
            raise ValueError(which)
    return total


def brute_profile(n, edges, which, sense):
    """Optimum of one counter over the subsets of each size 0..n."""
    pick = max if sense == "max" else min
    return [pick(brute_count(edges, set(combo), which) for combo in combinations(range(n), i)) for i in range(n + 1)]


def walk_order(n, width):
    """The subsets without vertex n - 1, in the exhaustive walk's order.

    The block is the vertices n - 1 - k .. n - 2, k = min(width, n - 1),
    and the high vertices are 0 .. n - 2 - k. High sets H come in reflected
    Gray order, step s flipping vertex n - 1 - k - lowbit(s) (lowbit counted
    from 1), and within one H the block sets L come by size and then in
    combinations order.
    """
    k = min(width, n - 1)
    high = n - 1 - k
    block = range(high, n - 1)
    for step in range(1 << high):
        gray = step ^ (step >> 1)
        # Gray bit j - 1 is vertex high - j
        chosen = {high - j for j in range(1, high + 1) if gray >> (j - 1) & 1}
        for t in range(k + 1):
            for combo in combinations(block, t):
                yield chosen | set(combo)


def walk_witnesses(n, edges, which, sense, width):
    """[(optimum, witness)] per size 0..n under the exhaustive walk's rule.

    Per size, each tracker keeps the first walked set that reaches its
    walked optimum. Size j's optimum is the better of the walked one and
    the complement of the dual tracker's at n - j (induced and covered
    swap, each taking the other sense, as m minus each other; a cut kind
    is its own dual), and the walked set wins a tie.
    """
    def firsts(which, sense):
        best = {}
        for inside in walk_order(n, width):
            value = brute_count(edges, inside, which)
            old = best.get(len(inside))
            if old is None or (value > old[0] if sense == "max" else value < old[0]):
                best[len(inside)] = (value, inside)
        return best

    m, pick = len(edges), (max if sense == "max" else min)
    if which == "cut":
        dual = firsts(which, sense)
    else:
        dual = firsts("covered" if which == "induced" else "induced", "min" if sense == "max" else "max")
    direct, found = firsts(which, sense), []
    for j in range(n + 1):
        candidates = [direct[j]] if j in direct else []
        if n - j in dual:
            x, inside = dual[n - j]
            candidates.append((x if which == "cut" else m - x, set(range(n)) - inside))
        value = pick(x for x, _ in candidates)
        found.append(next(c for c in candidates if c[0] == value))
    return found


def brute_all_profiles(n, edges):
    """The six profiles in canonical order as a dict keyed like MetricKind.key."""
    return {
        "max_induced": brute_profile(n, edges, "induced", "max"),
        "min_induced": brute_profile(n, edges, "induced", "min"),
        "max_covered": brute_profile(n, edges, "covered", "max"),
        "min_covered": brute_profile(n, edges, "covered", "min"),
        "max_cut": brute_profile(n, edges, "cut", "max"),
        "min_cut": brute_profile(n, edges, "cut", "min"),
    }


# Fixture edge lists, defined inline so this module stays self-contained.
C4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
K3_EDGES = [(0, 1), (1, 2), (0, 2)]
STAR4_EDGES = [(0, 1), (0, 2), (0, 3)]
K2_EDGES = [(0, 1)]


def hypercube_edges(d):
    n = 1 << d
    return [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)]

"""The six extremal profiles and their three independent solver routes.

For every subset size i the toolkit reports the best and worst induced,
covered, and cut edge counts. The exhaustive scan, the branch and
bound, and the identity-based reductions must agree; the checked
strategy enforces that on every call.
"""

from isoprofile import (
    KIND_ORDER,
    MetricKind,
    all_profiles,
    cycle,
    diff_sequence,
    extremal_exhaustive,
    star,
)


def print_profiles(graph, label):
    print(f"{label}: n={graph.n} m={graph.m}")
    profiles = all_profiles(graph, strategy="checked")
    header = ["i"] + [kind.key for kind in KIND_ORDER]
    print("  " + "  ".join(f"{h:>12}" for h in header))
    for i in range(graph.n + 1):
        row = [str(i)] + [str(profiles[kind].values[i]) for kind in KIND_ORDER]
        print("  " + "  ".join(f"{c:>12}" for c in row))
    print("  difference sequences (steps 1..n):")
    for kind in KIND_ORDER:
        print(f"    {kind.key:<12} {list(diff_sequence(profiles[kind]).values)}")
    print()


def main():
    print_profiles(cycle(4), "4-cycle")
    print_profiles(star(5), "star on 5 vertices")

    value, witness = extremal_exhaustive(cycle(4), MetricKind.MAX_INDUCED, 2)
    print(f"densest pair of the 4-cycle: {value} edge, witness {sorted(witness)}")
    print("(the witness is the first optimal subset the exhaustive walk meets)")


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen; without -s they appear in captured output on
failure. Every expected value is exact; the only tolerance anywhere is
the documented 1e-9 guard band inside the hypercube bound check.
"""

import functools
import random
import time
from pathlib import Path

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from isoprofile import (
    CHARACTERIZING_KINDS,
    CUT_KINDS,
    KIND_ORDER,
    MetricKind,
    SweepFinding,
    all_profiles,
    check_symmetry,
    complement,
    complete,
    cycle,
    degree_summary,
    diff_sequence,
    from_edge_list,
    hypercube,
    hypercube_inequality_check,
    identity_suite,
    is_connected,
    parse_graph6,
    profile_branch_bound,
    profile_by_reduction,
    profile_exhaustive,
    random_graph,
    random_regular,
    star,
    to_graph6,
    verify_theorem,
    write_findings,
)
from isoprofile.cli import main

from corpus import full_corpus

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {description}")
                raise
            print(f"[criterion {number}] PASS: {description}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Shared deterministic graph collections


@pytest.fixture(scope="module")
def corpus_profiles():
    """Exhaustive profiles (plus the complement sparsest profile) for the
    whole n <= 8 corpus; the ground truth reused by criteria 3, 4, 5, 6."""
    out = []
    for name, g in full_corpus():
        exhaustive = {kind: profile_exhaustive(g)[kind] for kind in KIND_ORDER}
        co = complement(g)
        co_profiles = {
            MetricKind.MIN_INDUCED: profile_exhaustive(co)[MetricKind.MIN_INDUCED],
            MetricKind.MAX_INDUCED: profile_exhaustive(co)[MetricKind.MAX_INDUCED],
        }
        out.append((name, g, exhaustive, co_profiles))
    return out


def _random_regular_connected(count, max_n=12):
    rng = random.Random(20250810)
    found = []
    attempt = 0
    while len(found) < count:
        n = rng.randrange(4, max_n + 1)
        feasible = [d for d in range(2, min(6, n)) if (n * d) % 2 == 0]
        d = rng.choice(feasible)
        g = random_regular(n, d, seed=31337 + attempt)
        attempt += 1
        if is_connected(g):
            found.append((f"regular n={n} d={d} #{attempt}", g))
        assert attempt < 100 * count, "regular generation budget exhausted"
    return found


def _random_connected_nonregular(count, max_n=12):
    rng = random.Random(77001)
    found = []
    attempt = 0
    while len(found) < count:
        n = rng.randrange(4, max_n + 1)
        p = rng.choice((0.3, 0.5, 0.7))
        g = random_graph(n, p, seed=52000 + attempt)
        attempt += 1
        if is_connected(g) and not degree_summary(g).is_regular:
            found.append((f"random n={n} p={p} #{attempt}", g))
        assert attempt < 100 * count, "non-regular generation budget exhausted"
    return found


def _atlas_connected_nonregular():
    """Every connected non-regular graph on at most 7 vertices, from the
    graph atlas shipped with networkx (all 1252 graphs of order <= 7)."""
    catalog = []
    connected_counts = {}
    for G in graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if not nx.is_connected(G):
            continue
        connected_counts[n] = connected_counts.get(n, 0) + 1
        degrees = {d for _, d in G.degree()}
        if len(degrees) == 1:
            continue
        g = from_edge_list(n, [tuple(sorted(e)) for e in G.edges()])
        catalog.append(g)
    # catalog sanity: the connected counts per order are classical
    assert connected_counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert len(catalog) == 980
    return catalog


def _four_sequence_verdicts(g, strategy="auto"):
    profiles = all_profiles(g, strategy=strategy)
    return {
        kind: check_symmetry(diff_sequence(profiles[kind]))
        for kind in CHARACTERIZING_KINDS
    }


# ---------------------------------------------------------------------------
# Criteria


@criterion(1, "forward direction: every connected regular graph has all four "
              "characterizing sequences symmetric")
def test_criterion_1_forward_direction():
    started = time.perf_counter()
    collection = []
    collection.extend((f"cycle:{n}", cycle(n)) for n in range(3, 11))
    collection.extend((f"complete:{n}", complete(n)) for n in range(2, 9))
    collection.extend((f"hypercube:{d}", hypercube(d)) for d in (1, 2, 3))
    collection.extend(_random_regular_connected(100))
    assert len(collection) == 118
    for name, g in collection:
        assert is_connected(g), name
        assert degree_summary(g).is_regular, name
        for kind, verdict in _four_sequence_verdicts(g).items():
            assert verdict.symmetric, (name, kind.key, verdict.violations)
            assert verdict.violations == (), (name, kind.key)
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"forward sweep took {elapsed:.1f}s, budget 300s"


@criterion(2, "reverse direction: no connected non-regular graph has any "
              "characterizing sequence symmetric")
def test_criterion_2_reverse_direction():
    exhaustive_catalog = _atlas_connected_nonregular()
    random_catalog = [g for _, g in _random_connected_nonregular(200)]
    for idx, g in enumerate(exhaustive_catalog + random_catalog):
        for kind, verdict in _four_sequence_verdicts(g).items():
            assert not verdict.symmetric, (idx, to_graph6(g), kind.key)


@criterion(3, "both cut difference sequences have pair sums identically zero "
              "on every corpus graph")
def test_criterion_3_cut_sequences(corpus_profiles):
    for name, g, exhaustive, _ in corpus_profiles:
        for kind in CUT_KINDS:
            verdict = check_symmetry(diff_sequence(exhaustive[kind]))
            assert verdict.symmetric and verdict.target == 0, (name, kind.key)
            seq = diff_sequence(exhaustive[kind]).values
            n = g.n
            for i in range(1, n + 1):
                assert seq[i - 1] + seq[n - i] == 0, (name, kind.key, i)


@criterion(4, "identity suite holds exactly at every applicable index on "
              "every corpus graph")
def test_criterion_4_identity_suite(corpus_profiles):
    required = {
        "max_covered_split",
        "min_covered_split",
        "complement_induced_split",
        "max_cut_mirror",
        "covered_induced_diff_coupling",
        "regular_induced_cut_split",
        "regular_densest_shift",
        "regular_handshake",
    }
    for name, g, exhaustive, co_profiles in corpus_profiles:
        results = identity_suite(g, exhaustive, complement_profiles=co_profiles)
        names = {r.name for r in results}
        assert required <= names, name
        regular = degree_summary(g).is_regular
        for result in results:
            if result.name.startswith("regular_"):
                assert result.applicable == regular, (name, result.name)
            if result.applicable:
                assert result.holds is True, (name, result.name, result.first_violation)
            else:
                assert result.holds is None, (name, result.name)


@criterion(5, "boundary values: dense(n)=m, dense(n-1)=m-d, first diff 0, "
              "last diff d on every corpus graph")
def test_criterion_5_boundaries(corpus_profiles):
    for name, g, exhaustive, _ in corpus_profiles:
        dense = exhaustive[MetricKind.MAX_INDUCED].values
        d = min(g.degrees)
        assert dense[g.n] == g.m, name
        assert dense[g.n - 1] == g.m - d, name
        steps = diff_sequence(exhaustive[MetricKind.MAX_INDUCED]).values
        assert steps[0] == 0, name
        assert steps[g.n - 1] == d, name


@criterion(6, "branch-and-bound and every reduction reproduce the exhaustive "
              "values on all six profiles across the corpus")
def test_criterion_6_oracle_equivalence(corpus_profiles):
    started = time.perf_counter()
    assert len(corpus_profiles) >= 250
    assert all(g.n <= 8 for _, g, _, _ in corpus_profiles)
    for name, g, exhaustive, co_profiles in corpus_profiles:
        for kind in KIND_ORDER:
            bounded = profile_branch_bound(g, kind)
            assert bounded.values == exhaustive[kind].values, (name, kind.key)
        reductions = [
            profile_by_reduction(
                g, MetricKind.MAX_COVERED,
                bases={MetricKind.MIN_INDUCED: exhaustive[MetricKind.MIN_INDUCED]},
            ),
            profile_by_reduction(
                g, MetricKind.MIN_COVERED,
                bases={MetricKind.MAX_INDUCED: exhaustive[MetricKind.MAX_INDUCED]},
            ),
            profile_by_reduction(
                g, MetricKind.MAX_INDUCED,
                complement_bases={MetricKind.MIN_INDUCED: co_profiles[MetricKind.MIN_INDUCED]},
            ),
            profile_by_reduction(
                g, MetricKind.MIN_INDUCED,
                complement_bases={MetricKind.MAX_INDUCED: co_profiles[MetricKind.MAX_INDUCED]},
            ),
            profile_by_reduction(
                g, MetricKind.MAX_CUT,
                bases={MetricKind.MAX_CUT: exhaustive[MetricKind.MAX_CUT]},
            ),
            profile_by_reduction(
                g, MetricKind.MIN_CUT,
                bases={MetricKind.MIN_CUT: exhaustive[MetricKind.MIN_CUT]},
            ),
        ]
        for derived in reductions:
            assert derived.values == exhaustive[derived.kind].values, (name, derived.provenance)
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"equivalence sweep took {elapsed:.1f}s, budget 600s"


@criterion(7, "hypercube bound min_cut(i) >= i*(d - log2 i) for d in 1..4, "
              "tight at powers of two, Q4 in budget")
def test_criterion_7_hypercube_inequality():
    for d in (1, 2, 3, 4):
        report = hypercube_inequality_check(d)
        assert report.all_hold, d
        assert report.guard_band == 1e-9
        for row in report.rows:
            if row.exact:
                # subcube cuts meet the bound with equality
                assert row.min_cut == int(row.bound_base2), (d, row.size)
    q3 = hypercube_inequality_check(3)
    assert q3.min_cut_profile[4] == 4
    started = time.perf_counter()
    full = profile_branch_bound(hypercube(4), MetricKind.MIN_CUT)
    elapsed = time.perf_counter() - started
    assert full.values[8] == 8
    assert full.values == tuple(reversed(full.values))
    assert elapsed < 600, f"Q4 min-cut profile took {elapsed:.1f}s, budget 600s"


@criterion(8, "sweep output is byte-identical across repeat runs and worker counts")
def test_criterion_8_sweep_determinism(tmp_path):
    outputs = []
    for label, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        target = tmp_path / f"sweep_{label}.json"
        code = main([
            "sweep",
            "--gen", "random:7:0.5,regular:8:3,cycle:6,star:6",
            "--count", "12",
            "--seed", "20140812",
            "--format", "json",
            "--workers", workers,
            "--out", str(target),
            "--findings", str(tmp_path / f"findings_{label}.txt"),
        ])
        assert code == 0
        outputs.append(target.read_bytes())
        assert not (tmp_path / f"findings_{label}.txt").exists()
    assert outputs[0] == outputs[1] == outputs[2]


@criterion(9, "graph6 encode/decode identity on 1000 random graphs and "
              "byte-exact csv and json golden files")
def test_criterion_9_format_fidelity(tmp_path):
    for k in range(1000):
        n = 1 + (k % 16)
        p = (0.1, 0.3, 0.5, 0.7, 0.9)[k % 5]
        g = random_graph(n, p, seed=640000 + k)
        assert parse_graph6(to_graph6(g)) == g, k
    for spec, golden_name in (("complete:2", "k2_profile.csv"), ("cycle:4", "c4_profile.csv")):
        target = tmp_path / golden_name
        code = main(["profile", "--gen", spec, "--format", "csv", "--out", str(target)])
        assert code == 0
        assert target.read_bytes() == (GOLDEN / golden_name).read_bytes()
    json_goldens = (
        (["verify", "--input", str(FIXTURES / "petersen.g6")], "petersen_verify.json"),
        (["verify", "--input", str(FIXTURES / "star6.txt")], "star6_verify.json"),
        (["profile", "--gen", "cycle:6"], "c6_profile.json"),
        (["sweep", "--gen", "cycle:5,star:5", "--count", "4", "--seed", "3",
          "--findings", str(tmp_path / "findings.txt")], "sweep_c5_s5.json"),
    )
    for argv, golden_name in json_goldens:
        target = tmp_path / golden_name
        assert main(argv + ["--format", "json", "--out", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN / golden_name).read_bytes(), golden_name
    # The writer's two lines for one fabricated finding; a correct sweep
    # never writes any.
    target = tmp_path / "star4_findings.txt"
    write_findings([SweepFinding(3, "star:4", "Cs", verify_theorem(star(4)))], target)
    assert target.read_bytes() == (GOLDEN / "star4_findings.txt").read_bytes()

"""Difference sequences, the symmetry test, and whole-graph verification.

The characterization under test: a graph is regular exactly when the
difference sequence of any one of the four induced/covered profiles is
symmetric, while the two cut difference sequences are symmetric on
every graph, with pair sums identically zero. ``verify_theorem`` checks
the biconditional on one graph, ``identity_suite`` checks every
counting identity behind it, ``hypercube_inequality_check`` evaluates
the isoperimetric lower bound on hypercubes, and ``counterexample_sweep``
stress-tests streams of generated graphs.

A sequence s(1..n) is symmetric when s(i) + s(n-i+1) is the same for
every i, equivalently equals s(1) + s(n). All symmetry tests are exact
integer comparisons; there is no tolerance anywhere in this module
except the explicit float guard band in the hypercube check.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .formats import to_graph6
from .graphs import (
    DEFAULT_SEED,
    DegreeSummary,
    Graph,
    complement,
    degree_summary,
    from_spec,
    hypercube,
    is_connected,
)
from .solvers import (
    KIND_ORDER,
    InternalInconsistencyError,
    MetricKind,
    Profile,
    all_profiles,
    kind_from_key,
)

__all__ = [
    "CHARACTERIZING_KINDS",
    "CUT_KINDS",
    "DiffSequence",
    "IdentityResult",
    "IsoperimetricReport",
    "IsoperimetricRow",
    "SweepFinding",
    "SweepSummary",
    "SymmetryVerdict",
    "VerificationReport",
    "check_symmetry",
    "counterexample_sweep",
    "diff_sequence",
    "hypercube_inequality_check",
    "identity_suite",
    "verify_theorem",
    "write_findings",
]

# The four sequences whose symmetry characterizes regularity.
CHARACTERIZING_KINDS = (
    MetricKind.MAX_INDUCED,
    MetricKind.MIN_INDUCED,
    MetricKind.MAX_COVERED,
    MetricKind.MIN_COVERED,
)

# The two sequences that are symmetric unconditionally.
CUT_KINDS = (MetricKind.MAX_CUT, MetricKind.MIN_CUT)


@dataclass(frozen=True)
class DiffSequence:
    """Consecutive differences s(1..n) of a profile; values[k] is s(k+1)."""

    kind: MetricKind
    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def step(self, i: int) -> int:
        """1-based accessor: step(i) == s(i)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"step index {i} outside 1..{self.n}")
        return self.values[i - 1]


def diff_sequence(profile: Profile) -> DiffSequence:
    vals = profile.values
    return DiffSequence(profile.kind, tuple(vals[i] - vals[i - 1] for i in range(1, len(vals))))


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of the exact symmetry test on one difference sequence."""

    symmetric: bool
    target: int
    violations: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "target": self.target,
            "violations": [list(v) for v in self.violations],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SymmetryVerdict":
        return cls(
            bool(data["symmetric"]),
            int(data["target"]),
            tuple((int(i), int(s)) for i, s in data["violations"]),
        )


def check_symmetry(seq: DiffSequence) -> SymmetryVerdict:
    """Exact test of s(i) + s(n-i+1) == s(1) + s(n) for every i in [n]."""
    vals = seq.values
    n = len(vals)
    target = vals[0] + vals[n - 1]
    violations = tuple(
        (i, vals[i - 1] + vals[n - i])
        for i in range(1, n + 1)
        if vals[i - 1] + vals[n - i] != target
    )
    return SymmetryVerdict(not violations, target, violations)


@dataclass(frozen=True)
class IdentityResult:
    """One counting identity checked at every applicable index.

    ``holds`` is None when the identity does not apply to this graph
    (the regular-only identities on an irregular graph).
    """

    name: str
    applicable: bool
    holds: bool | None
    first_violation: tuple[int, int, int] | None  # (i, lhs, rhs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "holds": self.holds,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "IdentityResult":
        fv = data["first_violation"]
        return cls(
            str(data["name"]),
            bool(data["applicable"]),
            None if data["holds"] is None else bool(data["holds"]),
            None if fv is None else (int(fv[0]), int(fv[1]), int(fv[2])),
        )


def _diffs(values: Sequence[int]) -> list[int]:
    return [values[i] - values[i - 1] for i in range(1, len(values))]


def identity_suite(
    graph: Graph,
    profiles: Mapping[MetricKind, Profile],
    complement_profiles: Mapping[MetricKind, Profile] | None = None,
    strategy: str = "auto",
    cap: int | None = None,
) -> tuple[IdentityResult, ...]:
    """Check every counting identity; failures are data, not exceptions.

    Complement-graph profiles are computed on demand when not supplied.
    Regular-only identities come back with applicable=False on irregular
    graphs.
    """
    if complement_profiles is None:
        complement_profiles = all_profiles(complement(graph), strategy=strategy, cap=cap)
    n, m = graph.n, graph.m
    summary = degree_summary(graph)
    d = summary.min_degree
    regular = summary.is_regular

    dense = profiles[MetricKind.MAX_INDUCED].values
    sparse = profiles[MetricKind.MIN_INDUCED].values
    cover_max = profiles[MetricKind.MAX_COVERED].values
    cover_min = profiles[MetricKind.MIN_COVERED].values
    cut_max = profiles[MetricKind.MAX_CUT].values
    cut_min = profiles[MetricKind.MIN_CUT].values
    co_sparse = complement_profiles[MetricKind.MIN_INDUCED].values

    dense_diff = _diffs(dense)
    sparse_diff = _diffs(sparse)
    cover_max_diff = _diffs(cover_max)
    co_sparse_diff = _diffs(co_sparse)

    results: list[IdentityResult] = []

    def check(name: str, pairs, applicable: bool = True) -> None:
        if not applicable:
            results.append(IdentityResult(name, False, None, None))
            return
        for i, lhs, rhs in pairs:
            if lhs != rhs:
                results.append(IdentityResult(name, True, False, (i, lhs, rhs)))
                return
        results.append(IdentityResult(name, True, True, None))

    full = range(n + 1)
    steps = range(1, n + 1)

    check("max_covered_split", ((i, cover_max[i] + sparse[n - i], m) for i in full))
    check("min_covered_split", ((i, cover_min[i] + dense[n - i], m) for i in full))
    check("complement_induced_split", ((i, dense[i] + co_sparse[i], math.comb(i, 2)) for i in full))
    check("max_cut_mirror", ((i, cut_max[i], cut_max[n - i]) for i in full))
    check("min_cut_mirror", ((i, cut_min[i], cut_min[n - i]) for i in full))
    check(
        "covered_induced_diff_coupling",
        (
            (i, cover_max_diff[i - 1] + cover_max_diff[n - i], sparse_diff[i - 1] + sparse_diff[n - i])
            for i in steps
        ),
    )
    check(
        "complement_diff_coupling",
        (
            (i, dense_diff[i - 1] + dense_diff[n - i] + co_sparse_diff[i - 1] + co_sparse_diff[n - i], n - 1)
            for i in steps
        ),
    )
    check(
        "regular_induced_cut_split",
        ((i, 2 * dense[i] + cut_min[i], i * d) for i in full),
        applicable=regular,
    )
    check(
        "regular_densest_shift",
        ((i, dense[n - i], m - i * d + dense[i]) for i in full),
        applicable=regular,
    )
    check("regular_handshake", ((0, 2 * m, n * d),), applicable=regular)
    check("densest_full_set", ((n, dense[n], m),))
    check("densest_drop_one", ((n - 1, dense[n - 1], m - d),))
    check("densest_diff_first", ((1, dense_diff[0], 0),))
    check("densest_diff_last", ((n, dense_diff[n - 1], d),))
    return tuple(results)


@dataclass(frozen=True)
class VerificationReport:
    """Self-contained outcome of the regularity/symmetry check on one graph."""

    n: int
    m: int
    degrees: DegreeSummary
    connected: bool
    strategy: str
    profiles: Mapping[MetricKind, tuple[int, ...]]
    diffs: Mapping[MetricKind, tuple[int, ...]]
    symmetry: Mapping[MetricKind, SymmetryVerdict]
    regular: bool
    biconditional: Mapping[MetricKind, bool]
    consistent: bool
    identities: tuple[IdentityResult, ...]
    note: str | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "degrees": {
                "min_degree": self.degrees.min_degree,
                "max_degree": self.degrees.max_degree,
                "is_regular": self.degrees.is_regular,
                "degree_sequence": list(self.degrees.degree_sequence),
            },
            "connected": self.connected,
            "strategy": self.strategy,
            "profiles": {k.key: list(v) for k, v in self.profiles.items()},
            "diffs": {k.key: list(v) for k, v in self.diffs.items()},
            "symmetry": {k.key: v.to_dict() for k, v in self.symmetry.items()},
            "regular": self.regular,
            "biconditional": {k.key: v for k, v in self.biconditional.items()},
            "consistent": self.consistent,
            "identities": [r.to_dict() for r in self.identities],
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "VerificationReport":
        deg = data["degrees"]
        return cls(
            n=int(data["n"]),
            m=int(data["m"]),
            degrees=DegreeSummary(
                int(deg["min_degree"]),
                int(deg["max_degree"]),
                bool(deg["is_regular"]),
                tuple(int(x) for x in deg["degree_sequence"]),
            ),
            connected=bool(data["connected"]),
            strategy=str(data["strategy"]),
            profiles={kind_from_key(k): tuple(int(x) for x in v) for k, v in data["profiles"].items()},
            diffs={kind_from_key(k): tuple(int(x) for x in v) for k, v in data["diffs"].items()},
            symmetry={kind_from_key(k): SymmetryVerdict.from_dict(v) for k, v in data["symmetry"].items()},
            regular=bool(data["regular"]),
            biconditional={kind_from_key(k): bool(v) for k, v in data["biconditional"].items()},
            consistent=bool(data["consistent"]),
            identities=tuple(IdentityResult.from_dict(r) for r in data["identities"]),
            note=data["note"],
        )


def verify_theorem(
    graph: Graph,
    strategy: str = "checked",
    cap: int | None = None,
) -> VerificationReport:
    """Full verification of one graph.

    Computes all six profiles (cross-checked by default), all six
    difference sequences and symmetry verdicts, evaluates the
    regular-iff-symmetric biconditional for the four characterizing
    sequences, asserts the unconditional symmetry of the two cut
    sequences, and runs the identity suite. A cut sequence failing its
    unconditional symmetry raises InternalInconsistencyError: that is a
    solver bug, never a counterexample.
    """
    profiles = all_profiles(graph, strategy=strategy, cap=cap)
    summary = degree_summary(graph)
    connected = is_connected(graph)
    diffs = {kind: diff_sequence(profiles[kind]) for kind in KIND_ORDER}
    verdicts = {kind: check_symmetry(diffs[kind]) for kind in KIND_ORDER}
    for kind in CUT_KINDS:
        v = verdicts[kind]
        if not v.symmetric or v.target != 0:
            raise InternalInconsistencyError(
                f"cut difference sequence {kind.key} failed its unconditional "
                f"symmetry (target {v.target}, first violations {v.violations[:3]})"
            )
    biconditional = {
        kind: verdicts[kind].symmetric == summary.is_regular for kind in CHARACTERIZING_KINDS
    }
    identities = identity_suite(graph, profiles, strategy=strategy, cap=cap)
    note = (
        None
        if connected
        else "graph is disconnected; the regularity characterization is stated for connected graphs"
    )
    return VerificationReport(
        n=graph.n,
        m=graph.m,
        degrees=summary,
        connected=connected,
        strategy=strategy,
        profiles={kind: profiles[kind].values for kind in KIND_ORDER},
        diffs={kind: diffs[kind].values for kind in KIND_ORDER},
        symmetry=verdicts,
        regular=summary.is_regular,
        biconditional=biconditional,
        consistent=all(biconditional.values()),
        identities=identities,
        note=note,
    )


# ---------------------------------------------------------------------------
# Hypercube isoperimetric bound


@dataclass(frozen=True)
class IsoperimetricRow:
    """One size i of the bound min_cut(i) >= i * (d - log2 i)."""

    size: int
    min_cut: int
    bound_base2: float
    holds_base2: bool
    exact: bool
    bound_natural: float
    holds_natural: bool

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "min_cut": self.min_cut,
            "bound_base2": self.bound_base2,
            "holds_base2": self.holds_base2,
            "exact": self.exact,
            "bound_natural": self.bound_natural,
            "holds_natural": self.holds_natural,
        }


@dataclass(frozen=True)
class IsoperimetricReport:
    dimension: int
    n: int
    min_cut_profile: tuple[int, ...]
    rows: tuple[IsoperimetricRow, ...]
    all_hold: bool
    guard_band: float
    note: str

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "n": self.n,
            "min_cut_profile": list(self.min_cut_profile),
            "rows": [r.to_dict() for r in self.rows],
            "all_hold": self.all_hold,
            "guard_band": self.guard_band,
            "note": self.note,
        }


_GUARD_BAND = 1e-9

_DIRECTION_NOTE = (
    "enforced direction: min_cut(i) >= i * (dimension - log2 i), the lower-bound "
    "reading of the isoperimetric ratio; log base 2 matches hypercube dimension "
    "conventions, and the natural-log column is informational only"
)


def hypercube_inequality_check(
    dimension: int,
    cap: int | None = None,
    strategy: str = "auto",
) -> IsoperimetricReport:
    """Evaluate min_cut(i) >= i * (d - log2 i) on the d-dimensional hypercube.

    Powers of two compare exactly in integer arithmetic; other sizes use
    a 1e-9 guard band on the real-valued right-hand side so float
    rounding cannot produce a false failure (the margin is far below 1,
    and min_cut is an integer).
    """
    graph = hypercube(dimension)
    min_cut = all_profiles(graph, strategy=strategy, cap=cap)[MetricKind.MIN_CUT]
    n = graph.n
    rows = []
    for i in range(1, n + 1):
        value = min_cut.values[i]
        power_of_two = i & (i - 1) == 0
        if power_of_two:
            rhs_int = i * (dimension - (i.bit_length() - 1))
            bound2 = float(rhs_int)
            holds2 = value >= rhs_int
        else:
            bound2 = i * (dimension - math.log2(i))
            holds2 = value >= bound2 - _GUARD_BAND
        bound_n = i * (dimension - math.log(i))
        holds_n = value >= bound_n - _GUARD_BAND
        rows.append(IsoperimetricRow(i, value, bound2, holds2, power_of_two, bound_n, holds_n))
    return IsoperimetricReport(
        dimension=dimension,
        n=n,
        min_cut_profile=min_cut.values,
        rows=tuple(rows),
        all_hold=all(r.holds_base2 for r in rows),
        guard_band=_GUARD_BAND,
        note=_DIRECTION_NOTE,
    )


# ---------------------------------------------------------------------------
# Counterexample sweep


@dataclass(frozen=True)
class SweepFinding:
    index: int
    spec: str
    graph6: str
    report: VerificationReport

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "spec": self.spec,
            "graph6": self.graph6,
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepFinding":
        return cls(
            int(data["index"]),
            str(data["spec"]),
            str(data["graph6"]),
            VerificationReport.from_dict(data["report"]),
        )


@dataclass(frozen=True)
class SweepSummary:
    seed: int
    count: int
    specs: tuple[str, ...]
    consistent: int
    inconsistent: int
    findings: tuple[SweepFinding, ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "specs": list(self.specs),
            "consistent": self.consistent,
            "inconsistent": self.inconsistent,
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSummary":
        return cls(
            int(data["seed"]),
            int(data["count"]),
            tuple(str(s) for s in data["specs"]),
            int(data["consistent"]),
            int(data["inconsistent"]),
            tuple(SweepFinding.from_dict(f) for f in data["findings"]),
        )


def _child_seed(seed: int, index: int) -> int:
    # Fixed integer mixing, never hash(): reproducible across runs and
    # independent of worker scheduling.
    return ((seed & (2**63 - 1)) * 1_000_000_007 + index + 1) & (2**63 - 1)


def write_findings(findings: Sequence[SweepFinding], path: str | Path) -> None:
    """One graph6 line followed by one compact JSON report line per finding."""
    lines = []
    for finding in findings:
        lines.append(finding.graph6)
        lines.append(json.dumps(finding.to_dict(), sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def counterexample_sweep(
    specs: Sequence[str],
    count: int,
    seed: int = DEFAULT_SEED,
    strategy: str = "checked",
    cap: int | None = None,
    workers: int = 1,
    findings_path: str | Path | None = None,
) -> SweepSummary:
    """Verify a deterministic stream of generated graphs.

    Graph k uses specs[k % len(specs)] with a seed derived from (seed, k),
    so the stream is reproducible for a fixed seed and count and the
    result does not depend on the worker count. The findings file is
    written only when some report is inconsistent.
    """
    if count < 0:
        raise ValueError("sweep count must be nonnegative")
    specs = tuple(specs)
    if count > 0 and not specs:
        raise ValueError("at least one generator spec is required")
    instances = [
        (k, specs[k % len(specs)], from_spec(specs[k % len(specs)], _child_seed(seed, k)))
        for k in range(count)
    ]

    def job(item):
        index, spec, graph = item
        return index, spec, graph, verify_theorem(graph, strategy=strategy, cap=cap)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, instances))
    else:
        results = [job(item) for item in instances]

    findings = tuple(
        SweepFinding(index, spec, to_graph6(graph), report)
        for index, spec, graph, report in results
        if not report.consistent
    )
    summary = SweepSummary(
        seed=seed,
        count=count,
        specs=specs,
        consistent=count - len(findings),
        inconsistent=len(findings),
        findings=findings,
    )
    if findings and findings_path is not None:
        write_findings(findings, findings_path)
    return summary

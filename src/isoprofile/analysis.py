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
import logging
import math
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Mapping, Sequence

from .formats import to_graph6
from .graphs import (
    DEFAULT_SEED,
    DegreeSummary,
    Graph,
    _hypercube_order,
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
    _require_within_cap,
    _solve,
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

log = logging.getLogger(__name__)

# The four sequences whose symmetry characterizes regularity.
CHARACTERIZING_KINDS = (
    MetricKind.MAX_INDUCED,
    MetricKind.MIN_INDUCED,
    MetricKind.MAX_COVERED,
    MetricKind.MIN_COVERED,
)

# The two sequences that are symmetric unconditionally.
CUT_KINDS = (MetricKind.MAX_CUT, MetricKind.MIN_CUT)


# ---------------------------------------------------------------------------
# Report serialization. Every JSON key is the name of a record field, so
# each record binds these two functions as its to_dict and from_dict.


def _encode(record):
    """JSON-ready form of a record, or of one of its field values.

    Scalars and None pass through, a tuple becomes a list, a
    MetricKind-keyed mapping a dict keyed by ``kind.key``, and a
    dataclass a dict over its fields. Scalars are tested first: they are
    most of the leaves.
    """
    if record is None or isinstance(record, (int, float, str)):
        return record
    if isinstance(record, tuple):
        return [_encode(item) for item in record]
    if isinstance(record, Mapping):
        return {kind.key: _encode(value) for kind, value in record.items()}
    return {f.name: _encode(getattr(record, f.name)) for f in fields(record)}


def _decode(cls, data):
    """Rebuild a value of type ``cls`` from its ``_encode`` form.

    ``cls`` is a record class or the type hint of one of its fields:
    int, bool, str or float (coerced), ``X | None``, ``tuple[X, ...]``,
    a fixed-length tuple, ``Mapping[MetricKind, V]`` or a nested record.
    A key missing from ``data`` raises KeyError. Field hints are
    resolved here, at each call, never at import time.
    """
    import collections.abc
    from dataclasses import is_dataclass
    from typing import get_args, get_origin, get_type_hints

    if is_dataclass(cls):
        hints = get_type_hints(cls)
        return cls(**{f.name: _decode(hints[f.name], data[f.name]) for f in fields(cls)})
    origin, args = get_origin(cls), get_args(cls)
    if type(None) in args:
        if data is None:
            return None
        (cls,) = (arg for arg in args if arg is not type(None))
        return _decode(cls, data)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], item) for item in data)
        return tuple(_decode(arg, item) for arg, item in zip(args, data, strict=True))
    if origin is collections.abc.Mapping:
        return {kind_from_key(key): _decode(args[1], value) for key, value in data.items()}
    return cls(data)


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


def _diffs(values: Sequence[int]) -> list[int]:
    return [values[i] - values[i - 1] for i in range(1, len(values))]


def diff_sequence(profile: Profile) -> DiffSequence:
    return DiffSequence(profile.kind, tuple(_diffs(profile.values)))


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of the exact symmetry test on one difference sequence."""

    symmetric: bool
    target: int
    violations: tuple[tuple[int, int], ...]

    to_dict = _encode
    from_dict = classmethod(_decode)


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

    to_dict = _encode
    from_dict = classmethod(_decode)


def identity_suite(
    graph: Graph,
    profiles: Mapping[MetricKind, Profile],
    complement_profiles: Mapping[MetricKind, Profile] | None = None,
    strategy: str = "auto",
    cap: int | None = None,
) -> tuple[IdentityResult, ...]:
    """Check every counting identity; failures are data, not exceptions.

    Complement-graph profiles are computed on demand when not supplied.
    verify_theorem supplies them under the checked strategy: they are the
    complement profiles the reduction route already cross-checked, so the
    complement is not solved a second time. Regular-only identities come
    back with applicable=False on irregular graphs.
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

    to_dict = _encode
    from_dict = classmethod(_decode)


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
    sequences, and runs the identity suite. Under checked (and auto for
    n <= 8) one solve yields both the graph's profiles and the complement
    profiles the identity suite needs: the complement walk that the
    reduction route already cross-checked. Other strategies, auto above
    n = 8 among them (one walk on the graph), solve the complement on
    demand. A cut sequence failing its unconditional
    symmetry raises InternalInconsistencyError: that is a solver bug,
    never a counterexample.
    """
    profiles, complement_profiles = _solve(graph, strategy, cap)
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
    identities = identity_suite(graph, profiles, complement_profiles, strategy=strategy, cap=cap)
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

    to_dict = _encode


@dataclass(frozen=True)
class IsoperimetricReport:
    dimension: int
    n: int
    min_cut_profile: tuple[int, ...]
    rows: tuple[IsoperimetricRow, ...]
    all_hold: bool
    guard_band: float
    note: str

    to_dict = _encode


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
    # refuse above the cap before building: the build grows 4x per dimension
    _require_within_cap(_hypercube_order(dimension), cap)
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

    to_dict = _encode
    from_dict = classmethod(_decode)


@dataclass(frozen=True)
class SweepSummary:
    seed: int
    count: int
    specs: tuple[str, ...]
    consistent: int
    inconsistent: int
    findings: tuple[SweepFinding, ...]

    to_dict = _encode
    from_dict = classmethod(_decode)


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


def _sweep_job(
    index: int, spec: str, graph_seed: int, strategy: str, cap: int | None
) -> SweepFinding | None:
    """Build and verify graph ``index``; a finding only if its report is inconsistent."""
    graph = from_spec(spec, graph_seed)
    try:
        report = verify_theorem(graph, strategy=strategy, cap=cap)
    except InternalInconsistencyError as exc:
        raise InternalInconsistencyError(
            f"graph {index} ({spec}, graph6 {to_graph6(graph)}): {exc}"
        ) from exc
    return None if report.consistent else SweepFinding(index, spec, to_graph6(graph), report)


def _run_block(jobs: Sequence[tuple]) -> tuple[bool, object, float]:
    """Run jobs in order: (True, findings, seconds) or (False, first exception, seconds)."""
    start = time.perf_counter()
    try:
        findings = [f for f in (_sweep_job(*job) for job in jobs) if f is not None]
    except Exception as exc:
        return False, exc, time.perf_counter() - start
    return True, findings, time.perf_counter() - start


def _fork_block(jobs: Sequence[tuple], readers: Sequence[BinaryIO]) -> tuple[int, BinaryIO]:
    """Run jobs in a forked child; return its pid and the read end of its pipe.

    The child closes the read ends it inherited (``readers`` and its own),
    so no pipe stays open once the parent closes its end. It writes one
    pickled ``_run_block`` outcome (cut short if that outcome cannot be
    pickled) and ends with ``os._exit``, skipping the stdio buffers and
    ``atexit`` hooks it inherited. Forking, not spawning, lets the child
    start without importing the package again; the sweep starts no thread.
    """
    # pickle and signal are imported only where a sweep forks: importing
    # them would cost every CLI start about 3 ms and 0.5 MB of memory.
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for stream in readers:
                stream.close()
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(_run_block(jobs), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _receive(pid: int, stream: BinaryIO, jobs: Sequence[tuple]) -> tuple[bool, object, float]:
    """Read the ``_run_block`` outcome that child ``pid`` wrote for ``jobs``."""
    import pickle  # see _fork_block

    try:
        with stream:
            return pickle.load(stream)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise RuntimeError(
            f"sweep worker {pid} for graphs {jobs[0][0]}..{jobs[-1][0]} "
            "ended without sending its result"
        ) from exc


def _reap(children: Sequence[tuple[int, BinaryIO]]) -> None:
    """Wait for every child; first kill those whose result was not read.

    An unread result is no longer wanted: an earlier block failed.
    """
    import signal  # see _fork_block

    for pid, stream in children:
        if not stream.closed:
            stream.close()
            os.kill(pid, signal.SIGKILL)
    for pid, _ in children:
        os.waitpid(pid, 0)


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
    so the stream is reproducible for a fixed seed and count. The stream
    is cut into at most ``workers`` contiguous blocks, never more than the
    graphs or the CPUs (``os.cpu_count()``), and a single block where
    ``os.fork`` does not exist. The calling process runs the first block;
    each other block runs in a forked child that builds and verifies its
    own graphs and sends back its findings. Blocks are collected in order,
    each logged at DEBUG level, so findings and the first error come back
    in index order and the result does not depend on ``workers``. The
    findings file is written only when some report is inconsistent. An
    InternalInconsistencyError is re-raised with the index, spec and
    graph6 string of the graph that caused it.
    """
    if count < 0:
        raise ValueError("sweep count must be nonnegative")
    if workers < 1:
        raise ValueError(f"sweep workers must be at least 1, got {workers}")
    specs = tuple(specs)
    if count > 0 and not specs:
        raise ValueError("at least one generator spec is required")
    jobs = [
        (k, specs[k % len(specs)], _child_seed(seed, k), strategy, cap) for k in range(count)
    ]
    parts = min(workers if hasattr(os, "fork") else 1, count, os.cpu_count() or 1)
    blocks = [jobs[b * count // parts : (b + 1) * count // parts] for b in range(parts)]

    children: list[tuple[int, BinaryIO]] = []
    findings: list[SweepFinding] = []
    try:
        for block in blocks[1:]:
            children.append(_fork_block(block, [stream for _, stream in children]))
        for b, block in enumerate(blocks):
            if b == 0:
                pid, outcome = os.getpid(), _run_block(block)
            else:
                pid, stream = children[b - 1]
                outcome = _receive(pid, stream, block)
            ok, value, seconds = outcome
            log.debug(
                "sweep graphs %d..%d: pid %d, %.3f s", block[0][0], block[-1][0], pid, seconds
            )
            if not ok:
                raise value
            findings.extend(value)
    finally:
        if children:
            _reap(children)

    summary = SweepSummary(
        seed=seed,
        count=count,
        specs=specs,
        consistent=count - len(findings),
        inconsistent=len(findings),
        findings=tuple(findings),
    )
    if findings and findings_path is not None:
        write_findings(findings, findings_path)
    return summary

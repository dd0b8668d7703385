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
except the float guard band on the hypercube check's natural-log column.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path
from typing import BinaryIO, Mapping, NamedTuple, Sequence

from .formats import to_graph6
from .graphs import (
    DEFAULT_SEED,
    DegreeSummary,
    Graph,
    _hypercube_order,
    _spec_order,
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
    profile_exhaustive,
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


# ---------------------------------------------------------------------------
# Report serialization. Every record is a NamedTuple and every JSON key
# the name of one of its fields, so each record binds these two functions
# as its to_dict and from_dict.


def _encode(record):
    """JSON-ready form of a record, or of one of its field values.

    Scalars and None pass through, a record (a NamedTuple, known by its
    ``_fields``) becomes a dict over its fields, any other tuple a list,
    and a MetricKind-keyed mapping a dict keyed by ``kind.key``. Scalars
    are tested first: they are most of the leaves. Records are tested
    before tuples, because every record is a tuple.
    """
    if record is None or isinstance(record, (int, float, str)):
        return record
    if hasattr(record, "_fields"):
        return {name: _encode(value) for name, value in zip(record._fields, record)}
    if isinstance(record, tuple):
        return [_encode(item) for item in record]
    return {kind.key: _encode(value) for kind, value in record.items()}


def _decode(cls, data):
    """Rebuild a value of type ``cls`` from its ``_encode`` form.

    ``cls`` is a record class (a NamedTuple, read through its
    ``_fields``) or the type hint of one of its fields: int, bool, str or
    float (coerced), ``X | None``, ``tuple[X, ...]``, a fixed-length
    tuple, ``Mapping[MetricKind, V]`` or a nested record. A key missing
    from ``data`` raises KeyError. Field hints are resolved here, by
    ``get_type_hints`` at each call, never at import time.
    """
    import collections.abc
    from typing import get_args, get_origin, get_type_hints

    if hasattr(cls, "_fields"):
        hints = get_type_hints(cls)
        return cls(*(_decode(hints[name], data[name]) for name in cls._fields))
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


class DiffSequence(NamedTuple):
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


class SymmetryVerdict(NamedTuple):
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
    if not n:
        # s(1) + s(n) needs one step; every graph has a vertex and so one
        raise ValueError(f"empty difference sequence of {seq.kind.key}: symmetry needs at least one step")
    target = vals[0] + vals[n - 1]
    violations = tuple(
        (i, vals[i - 1] + vals[n - i])
        for i in range(1, n + 1)
        if vals[i - 1] + vals[n - i] != target
    )
    return SymmetryVerdict(not violations, target, violations)


class IdentityResult(NamedTuple):
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
    cap: int | None = None,
) -> tuple[IdentityResult, ...]:
    """Check every counting identity; failures are data, not exceptions.

    Without ``complement_profiles`` the complement is walked once, values
    only, whatever strategy solved ``profiles``; a graph above the cap is
    refused before the complement is built. verify_theorem passes the
    walk that the checked strategy already made and cross-checked.
    Regular-only identities come back with applicable=False on irregular
    graphs.
    """
    if complement_profiles is None:
        _require_within_cap(graph.n, cap)
        complement_profiles = profile_exhaustive(complement(graph), cap=cap, witnesses=False)
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


class VerificationReport(NamedTuple):
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
    sequences, and runs the identity suite, which reads the complement's
    profiles from one values-only walk of the complement whatever the
    strategy: checked (and auto for n <= 8) hands over the walk its
    reduction route already cross-checked. A cut sequence failing its
    unconditional symmetry raises InternalInconsistencyError: that is a
    solver bug, never a counterexample. So does a characterizing
    sequence that breaks one of the two closed forms the biconditional
    rests on, on any graph, connected or not: s(1) + s(n) is the minimum
    degree for max_induced and min_covered and the maximum degree for
    min_induced and max_covered (max_induced(n - 1) = m - min degree,
    and so on), and the steps sum to m. A symmetric sequence then has n times that
    degree equal to 2m, so the graph is regular. A failed identity
    raises too, as every applicable one holds on every graph. The report
    reads values only, so no route builds a witness (``_solve``).
    """
    profiles, complement_profiles = _solve(graph, strategy, cap, False)
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
    # the docstring's two closed forms; the steps sum to P(n) - P(0) = m
    for kind in CHARACTERIZING_KINDS:
        end = summary.min_degree if kind in (MetricKind.MAX_INDUCED, MetricKind.MIN_COVERED) else summary.max_degree
        total = sum(diffs[kind].values)
        if verdicts[kind].target != end or total != graph.m:
            raise InternalInconsistencyError(
                f"difference sequence {kind.key} breaks its closed forms: s(1) + s(n) = "
                f"{verdicts[kind].target} (degree {end} expected), sum {total} (m = {graph.m} expected)"
            )
    biconditional = {
        kind: verdicts[kind].symmetric == summary.is_regular for kind in CHARACTERIZING_KINDS
    }
    identities = identity_suite(graph, profiles, complement_profiles, cap=cap)
    for result in identities:
        if result.holds is False:
            i, lhs, rhs = result.first_violation
            raise InternalInconsistencyError(f"identity {result.name} fails at i={i}: {lhs} != {rhs}")
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


class IsoperimetricRow(NamedTuple):
    """One size i of the bound min_cut(i) >= i * (d - log2 i)."""

    size: int
    min_cut: int
    bound_base2: float
    holds_base2: bool
    exact: bool
    bound_natural: float
    holds_natural: bool

    to_dict = _encode


class IsoperimetricReport(NamedTuple):
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

    The base-2 verdict is exact at every size: with excess
    e = i * d - min_cut(i), the bound holds when e <= 0 or 2^e <= i^i,
    compared in integers. ``bound_base2`` is the float right-hand side,
    for display, and ``exact`` marks the powers of two, where it is an
    integer. The natural-log column keeps a 1e-9 guard band on its
    real-valued right-hand side so float rounding cannot produce a false
    failure (the margin is far below 1, and min_cut is an integer).
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
            bound2 = float(i * (dimension - (i.bit_length() - 1)))
        else:
            bound2 = i * (dimension - math.log2(i))
        # value >= i * (d - log2 i)  <=>  i * d - value <= log2(i^i)
        excess = i * dimension - value
        holds2 = excess <= 0 or 1 << excess <= i**i
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


class SweepFinding(NamedTuple):
    index: int
    spec: str
    graph6: str
    report: VerificationReport

    to_dict = _encode
    from_dict = classmethod(_decode)


class SweepSummary(NamedTuple):
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
    # json is imported only where JSON is written, as pickle is where a
    # sweep forks: the csv and human outputs never need it
    import json

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


def _run_block(
    block: range, specs: tuple[str, ...], seed: int, strategy: str, cap: int | None
) -> tuple[bool, object, float]:
    """Run graphs ``block`` in order: (True, findings, seconds) or (False, first exception, seconds).

    Each graph's job is made as it runs, so a sweep of any count holds no
    list of jobs.
    """
    start = time.perf_counter()
    try:
        jobs = (_sweep_job(k, specs[k % len(specs)], _child_seed(seed, k), strategy, cap) for k in block)
        findings = [f for f in jobs if f is not None]
    except Exception as exc:
        return False, exc, time.perf_counter() - start
    return True, findings, time.perf_counter() - start


def _fork_block(block: range, sweep: tuple, readers: Sequence[BinaryIO]) -> tuple[int, BinaryIO]:
    """Run ``_run_block(block, *sweep)`` in a forked child; return its pid
    and the read end of its pipe.

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
                pickle.dump(_run_block(block, *sweep), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _receive(pid: int, stream: BinaryIO, block: range) -> tuple[bool, object, float]:
    """Read the ``_run_block`` outcome that child ``pid`` wrote for graphs ``block``."""
    import pickle  # see _fork_block

    try:
        with stream:
            return pickle.load(stream)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise RuntimeError(
            f"sweep worker {pid} for graphs {block[0]}..{block[-1]} "
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
    each logged at DEBUG level once ``logging`` has been imported, so
    findings and the first error come back in index order and the result
    does not depend on ``workers``. The findings file is written only
    when some report is inconsistent. An
    InternalInconsistencyError is re-raised with the index, spec and
    graph6 string of the graph that caused it.

    Before any graph is built or any child forked, every spec is
    checked, including specs the stream never reaches: one that does not
    parse raises ValueError, and one that declares more vertices than
    the cap raises VertexCapError.
    """
    # logged only if a caller, who alone could handle the records, loaded logging
    logging = sys.modules.get("logging")

    specs = tuple(specs)
    for spec in specs:
        _require_within_cap(_spec_order(spec), cap)
    if count < 0:
        raise ValueError("sweep count must be nonnegative")
    if workers < 1:
        raise ValueError(f"sweep workers must be at least 1, got {workers}")
    if count > 0 and not specs:
        raise ValueError("at least one generator spec is required")
    sweep = (specs, seed, strategy, cap)
    parts = min(workers if hasattr(os, "fork") else 1, count, os.cpu_count() or 1)
    blocks = [range(b * count // parts, (b + 1) * count // parts) for b in range(parts)]

    children: list[tuple[int, BinaryIO]] = []
    findings: list[SweepFinding] = []
    try:
        for block in blocks[1:]:
            children.append(_fork_block(block, sweep, [stream for _, stream in children]))
        for b, block in enumerate(blocks):
            if b == 0:
                pid, outcome = os.getpid(), _run_block(block, *sweep)
            else:
                pid, stream = children[b - 1]
                outcome = _receive(pid, stream, block)
            ok, value, seconds = outcome
            if logging is not None:
                logging.getLogger(__name__).debug(
                    "sweep graphs %d..%d: pid %d, %.3f s", block[0], block[-1], pid, seconds
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

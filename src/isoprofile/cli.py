"""Command-line front door: profile, verify, and sweep subcommands.

Exit codes: 0 success / consistent report, 1 usage or input error,
2 inconsistent report or internal solver disagreement. Structured (json)
output is byte-stable for a fixed seed regardless of worker count; the
human format is for reading, never for parsing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    CHARACTERIZING_KINDS,
    SweepSummary,
    VerificationReport,
    counterexample_sweep,
    diff_sequence,
    verify_theorem,
)
from .formats import Graph6Error, load_graph_text, parse_graph6
from .graphs import DEFAULT_SEED, Graph, degree_summary, from_spec, is_connected
from .solvers import (
    KIND_ORDER,
    InternalInconsistencyError,
    VertexCapError,
    all_profiles,
)

__all__ = ["main", "CSV_HEADER"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2

CSV_HEADER = (
    "i,max_induced,min_induced,max_covered,min_covered,max_cut,min_cut,"
    "diff_max_induced,diff_min_induced,diff_max_covered,diff_min_covered,"
    "diff_max_cut,diff_min_cut"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route everything through
    # _UsageError so usage problems map to exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="isoprofile",
        description="Exact extremal edge-count profiles of small graphs and "
        "verification of the regular-iff-symmetric characterization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = _Parser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="FILE", help="graph file (graph6 or 'n m' edge list)")
    group.add_argument("--g6", metavar="STRING", help="inline graph6 string")
    group.add_argument("--gen", metavar="SPEC", help="generator spec, e.g. hypercube:3 or random:10:0.4")

    run = _Parser(add_help=False)
    run.add_argument(
        "--strategy",
        choices=["auto", "oracle", "bb", "reduced", "checked"],
        help="solver strategy (profile default: auto; verify/sweep default: checked)",
    )
    run.add_argument("--format", choices=["human", "json", "csv"], default="human")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")
    run.add_argument("--cap", type=int, default=None, help="override the solver vertex cap (default 24)")
    run.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    profile = sub.add_parser("profile", parents=[source, run], help="emit the six profiles and their difference sequences")
    profile.set_defaults(func=_cmd_profile, strategy_default="auto")

    verify = sub.add_parser("verify", parents=[source, run], help="verify the regularity/symmetry biconditional and the identity suite")
    verify.set_defaults(func=_cmd_verify, strategy_default="checked")

    sweep = sub.add_parser("sweep", parents=[run], help="verify a deterministic stream of generated graphs")
    sweep.add_argument(
        "--gen",
        metavar="SPEC",
        action="append",
        required=True,
        help="generator spec; repeat or comma-separate for a mix",
    )
    sweep.add_argument("--count", type=int, required=True, help="number of graphs to draw")
    sweep.add_argument("--workers", type=int, default=1, help="worker count; never affects emitted bytes")
    sweep.add_argument("--findings", metavar="FILE", default="findings.txt", help="written only if inconsistencies occur")
    sweep.set_defaults(func=_cmd_sweep, strategy_default="checked")

    return parser


def _load_graph(args) -> Graph:
    if args.input:
        try:
            text = Path(args.input).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read {args.input}: {exc}") from None
        return load_graph_text(text)
    if args.g6:
        return parse_graph6(args.g6)
    return from_spec(args.gen, args.seed)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _graph_summary_dict(graph: Graph) -> dict:
    summary = degree_summary(graph)
    return {
        "n": graph.n,
        "m": graph.m,
        "min_degree": summary.min_degree,
        "max_degree": summary.max_degree,
        "is_regular": summary.is_regular,
        "connected": is_connected(graph),
    }


def _profile_csv(graph: Graph, profiles, diffs) -> str:
    lines = [CSV_HEADER]
    for i in range(graph.n + 1):
        cells = [str(i)]
        cells.extend(str(profiles[kind].values[i]) for kind in KIND_ORDER)
        if i == 0:
            cells.extend("" for _ in KIND_ORDER)
        else:
            cells.extend(str(diffs[kind].values[i - 1]) for kind in KIND_ORDER)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _profile_payload(graph: Graph, profiles, diffs, strategy: str) -> dict:
    return {
        "graph": _graph_summary_dict(graph),
        "strategy": strategy,
        "profiles": {kind.key: list(profiles[kind].values) for kind in KIND_ORDER},
        "diffs": {kind.key: list(diffs[kind].values) for kind in KIND_ORDER},
    }


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def _profile_human(graph: Graph, profiles, diffs) -> str:
    info = _graph_summary_dict(graph)
    out = [
        f"graph: n={info['n']} m={info['m']} degrees {info['min_degree']}..{info['max_degree']}"
        f" regular={info['is_regular']} connected={info['connected']}"
    ]
    rows = [["i"] + [k.key for k in KIND_ORDER]]
    for i in range(graph.n + 1):
        rows.append([str(i)] + [str(profiles[kind].values[i]) for kind in KIND_ORDER])
    out.append("profiles:")
    out.extend("  " + line for line in _table(rows))
    rows = [["i"] + ["diff_" + k.key for k in KIND_ORDER]]
    for i in range(1, graph.n + 1):
        rows.append([str(i)] + [str(diffs[kind].values[i - 1]) for kind in KIND_ORDER])
    out.append("difference sequences:")
    out.extend("  " + line for line in _table(rows))
    return "\n".join(out) + "\n"


def _cmd_profile(args) -> int:
    graph = _load_graph(args)
    strategy = args.strategy or args.strategy_default
    profiles = all_profiles(graph, strategy=strategy, cap=args.cap)
    diffs = {kind: diff_sequence(profiles[kind]) for kind in KIND_ORDER}
    if args.format == "csv":
        text = _profile_csv(graph, profiles, diffs)
    elif args.format == "json":
        text = _dump_json(_profile_payload(graph, profiles, diffs, strategy))
    else:
        text = _profile_human(graph, profiles, diffs)
    _emit(text, args.out)
    return EXIT_OK


def _report_human(report: VerificationReport) -> str:
    out = [
        f"graph: n={report.n} m={report.m} degrees "
        f"{report.degrees.min_degree}..{report.degrees.max_degree} "
        f"regular={report.regular} connected={report.connected}",
        f"strategy: {report.strategy}",
    ]
    out.append("difference sequences:")
    for kind in KIND_ORDER:
        verdict = report.symmetry[kind]
        seq = " ".join(f"{v:>3d}" for v in report.diffs[kind])
        if verdict.symmetric:
            state = f"symmetric (pair sum {verdict.target})"
        else:
            i, s = verdict.violations[0]
            state = f"NOT symmetric: i={i} pair sum {s} != {verdict.target}"
        out.append(f"  {kind.key:<12} [{seq}]  {state}")
    matched = all(report.biconditional.values())
    out.append(
        "regularity <-> symmetry: "
        + ("consistent" if matched else "INCONSISTENT")
        + " for "
        + ", ".join(k.key for k in CHARACTERIZING_KINDS)
    )
    out.append("identities:")
    for res in report.identities:
        if not res.applicable:
            state = "n/a (irregular graph)"
        elif res.holds:
            state = "ok"
        else:
            i, lhs, rhs = res.first_violation
            state = f"FAIL at i={i}: {lhs} != {rhs}"
        out.append(f"  {res.name:<32} {state}")
    if report.note:
        out.append(f"note: {report.note}")
    return "\n".join(out) + "\n"


def _cmd_verify(args) -> int:
    if args.format == "csv":
        raise _UsageError("csv output applies to the profile command only")
    graph = _load_graph(args)
    strategy = args.strategy or args.strategy_default
    report = verify_theorem(graph, strategy=strategy, cap=args.cap)
    if args.format == "json":
        text = _dump_json(report.to_dict())
    else:
        text = _report_human(report)
    _emit(text, args.out)
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def _sweep_human(summary: SweepSummary) -> str:
    out = [
        f"sweep: count={summary.count} seed={summary.seed}",
        f"specs: {', '.join(summary.specs)}",
        f"consistent={summary.consistent} inconsistent={summary.inconsistent}",
    ]
    for finding in summary.findings:
        out.append(f"  finding at index {finding.index} ({finding.spec}): {finding.graph6}")
    return "\n".join(out) + "\n"


def _cmd_sweep(args) -> int:
    if args.format == "csv":
        raise _UsageError("csv output applies to the profile command only")
    specs = [s for chunk in args.gen for s in chunk.split(",") if s]
    strategy = args.strategy or args.strategy_default
    summary = counterexample_sweep(
        specs,
        args.count,
        seed=args.seed,
        strategy=strategy,
        cap=args.cap,
        workers=args.workers,
        findings_path=args.findings,
    )
    if args.format == "json":
        text = _dump_json(summary.to_dict())
    else:
        text = _sweep_human(summary)
    _emit(text, args.out)
    return EXIT_OK if summary.inconsistent == 0 else EXIT_INCONSISTENT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (Graph6Error, VertexCapError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

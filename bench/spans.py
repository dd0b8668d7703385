"""Span tracer for the isoprofile package, and the traced child process.

The tracer wraps the public functions of each package module (plus the
CLI's output helpers and the analysis records' to_dict methods),
replacing the function object under every name that refers to it in any
isoprofile module, so calls made through `from .x import f` are seen too.
`restore` puts every original back.

Each call records a span: layer name, MetricKind (when one is passed),
start and end on the wall clock, thread CPU time, and the span that
called it. Self time is a span's thread CPU time minus that of its child
spans. Thread CPU time rather than wall time keeps self times additive on
the threaded sweep path, where spans of two threads overlap on the wall
clock; on the single-threaded paths the two agree up to I/O waits.

Run as a child process (isoprofile must be importable):

    python3 bench/spans.py cli OUT.json -- profile --gen cycle:6 --format csv
    python3 bench/spans.py replay OUT.json PROFILE.csv regular:20:4 1729

`cli` runs the CLI under the tracer; its stdout and exit code are the
CLI's own. `replay` recomputes the default (reduced) profile strategy
through the public `branch_bound_extremal`, one call per size, plus
`profile_by_reduction` for the cover profiles, and exits 1 unless the
values equal those in PROFILE.csv. Both write the per-layer aggregate to
OUT.json.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

# Layer of each wrapped function; "{kind}" is filled from the MetricKind
# argument. Public names missing here become their own layer,
# "<module>.<name>". The CLI's private output helpers are wrapped by name
# when they exist.
LAYERS = {
    "graphs": {
        "complement": "graphs.complement",
        "degree_summary": "graphs.summary",
        "is_connected": "graphs.summary",
        "*": "graphs.build",
    },
    "formats": {
        "parse_graph6": "formats.parse",
        "parse_edge_list": "formats.parse",
        "load_graph_text": "formats.parse",
        "to_graph6": "formats.to_graph6",
    },
    "metrics": {},
    "solvers": {
        "profile_exhaustive": "solvers.exhaustive.{kind}",
        "extremal_exhaustive": "solvers.exhaustive.{kind}",
        "profile_branch_bound": "solvers.branch_bound.{kind}",
        "branch_bound_extremal": "solvers.branch_bound.{kind}",
        "profile_by_reduction": "solvers.reduction",
    },
    "analysis": {
        "diff_sequence": "analysis.symmetry",
        "check_symmetry": "analysis.symmetry",
        "counterexample_sweep": "analysis.sweep",
        "write_findings": "analysis.serialize",
    },
    "cli": {
        "_emit": "cli.emit",
        "_dump_json": "cli.emit",
        "_profile_csv": "cli.emit",
        "_profile_payload": "cli.emit",
    },
}

def _subsets_computed(name: str, args, kwargs) -> int:
    """Subsets an exhaustive call enumerates, computed from its arguments."""
    graph = args[0] if args else kwargs["graph"]
    if name == "profile_exhaustive":
        return 1 << graph.n
    size = args[2] if len(args) > 2 else kwargs["size"]
    return math.comb(graph.n, size)


class Tracer:
    """Records spans of isoprofile calls while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, subsets_of: str | None):
        from isoprofile.solvers import MetricKind

        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            name = layer
            if "{kind}" in layer:
                kind = next((a for a in (*args, *kwargs.values()) if isinstance(a, MetricKind)), None)
                name = layer.format(kind=kind.key if kind else "none")
            parent = stack[-1] if stack else None
            # [id, layer, child cpu, outermost span of its layer]
            frame = [next(ids), name, 0.0, all(f[1] != name for f in stack)]
            stack.append(frame)
            start = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += cpu
                subsets = _subsets_computed(subsets_of, args, kwargs) if subsets_of else 0
                spans.append((frame[0], parent[0] if parent else None, name, start, end, cpu, cpu - frame[2], frame[3], subsets))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function under each name that refers to it."""
        import isoprofile.cli  # noqa: F401  imports every package module

        modules = [m for name, m in sorted(sys.modules.items()) if name == "isoprofile" or name.startswith("isoprofile.")]
        for short, table in LAYERS.items():
            module = sys.modules[f"isoprofile.{short}"]
            names = [n for n in table if n != "*" and n.startswith("_") and hasattr(module, n)]
            names += [n for n in getattr(module, "__all__", ()) if callable(getattr(module, n)) and not isinstance(getattr(module, n), type)]
            for attr in names:
                fn = getattr(module, attr)
                layer = table.get(attr) or table.get("*") or f"{short}.{attr}"
                subsets_of = attr if attr in ("profile_exhaustive", "extremal_exhaustive") else None
                wrapper = self._wrap(fn, layer, subsets_of)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapper)
        analysis = sys.modules["isoprofile.analysis"]
        for cls_name in analysis.__all__:
            cls = getattr(analysis, cls_name)
            if not isinstance(cls, type):
                continue
            if "to_dict" in vars(cls):
                self._patch(cls, "to_dict", self._wrap(vars(cls)["to_dict"], "analysis.serialize", None))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    # -- aggregation --------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, self_s, total_s (outermost spans only), subsets."""
        out: dict[str, dict] = {}
        for _id, _parent, name, _start, _end, cpu, self_cpu, outermost, subsets in self.spans:
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "subsets": 0})
            rec["calls"] += 1
            rec["self_s"] += self_cpu
            if outermost:
                rec["total_s"] += cpu
            rec["subsets"] += subsets
        return out


def _write(path: str, tracer: Tracer, **extra) -> None:
    payload = {"layers": tracer.layers(), "spans": len(tracer.spans), "restored": tracer.restored(), **extra}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


def run_cli(out: str, argv: list[str]) -> int:
    from isoprofile import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
    _write(out, tracer)
    return code if tracer.restored() else 3


def replay_reduced(graph) -> dict[str, list[int]]:
    """Profile values of the reduced strategy, one public B&B call per size."""
    from isoprofile import solvers
    from isoprofile.solvers import MetricKind, Profile

    n = graph.n
    half = n // 2
    profiles = {}
    for kind in (MetricKind.MAX_INDUCED, MetricKind.MIN_INDUCED):
        values = [solvers.branch_bound_extremal(graph, kind, i)[0] for i in range(n + 1)]
        profiles[kind] = Profile(kind, tuple(values))
    for kind in (MetricKind.MAX_CUT, MetricKind.MIN_CUT):
        lower = [solvers.branch_bound_extremal(graph, kind, i)[0] for i in range(half + 1)]
        profiles[kind] = Profile(kind, tuple(lower[min(i, n - i)] for i in range(n + 1)))
    for kind, base in ((MetricKind.MAX_COVERED, MetricKind.MIN_INDUCED), (MetricKind.MIN_COVERED, MetricKind.MAX_INDUCED)):
        profiles[kind] = solvers.profile_by_reduction(graph, kind, bases={base: profiles[base]})
    return {kind.key: list(p.values) for kind, p in profiles.items()}


def run_replay(out: str, csv_path: str, spec: str, seed: int) -> int:
    from check import parse_profile_csv
    from isoprofile.graphs import from_spec

    expected = parse_profile_csv(Path(csv_path).read_text())
    graph = from_spec(spec, seed)
    tracer = Tracer()
    tracer.install()
    try:
        replayed = replay_reduced(graph)
    finally:
        tracer.restore()
    mismatched = sorted(k for k in expected if replayed[k] != expected[k])
    _write(out, tracer, mismatched=mismatched)
    if mismatched:
        print(f"replay differs from the CLI on {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0 if tracer.restored() else 3


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if len(argv) == 5 and argv[0] == "replay":
        return run_replay(argv[1], argv[2], argv[3], int(argv[4]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

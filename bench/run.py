"""isoprofile benchmark: timed CLI invocations and per-layer traced spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory of a source checkout: it times the package under
`src/` of the checkout that holds this file, and exits 2 without a result
when that tree is missing.

With `--trace 0` it spawns the `isoprofile` CLI once at a time, for S
seconds, and reports the end-to-end metrics named in BENCHMARK.json:

* wall_s: mean time of one invocation, spawn to exit. Every invocation
  gets its own input (graph seed N + 1000003 j for invocation j), and
  per-graph cost varies with the graph, so the mean over the run is the
  steadier summary; every invocation's time is in the results file.
* setup_s: median time of probe children (bench/probe.py) that start the
  interpreter, import isoprofile.cli and build or parse the input of
  invocation 0 without solving it; one runs before each invocation, and
  at least SETUP_REPEATS run.
* peak_rss_mb: median of the CLI processes' own peak RSS (VmHWM), which
  bench/peak_rss.py records as the CLI exits.
* graphs_per_s: graphs processed over the summed invocation time.

Invocations whose output fails its check (bench/check.py) count as
failed; `failed` over `attempted` is the failure ratio. For seed 1729 the
stdout of invocation 0 must also match the sha256 in bench/digests.json,
which pins the output bytes.

With `--trace 1` it runs invocation 0's input UNTRACED_REPEATS times
untraced, then once under the span tracer (bench/spans.py), and reports
the per-layer metrics of BENCHMARK.json: a metric `<layer>.<field>` sums
that field over the layer and its sub-layers. solvers.exhaustive.subsets
is computed from the call arguments (2^n per profile_exhaustive call),
not counted inside the solver. On the profile workload the
default strategy reaches branch and bound only through private functions,
so the branch-and-bound metrics come from a replay of that strategy
through the public `branch_bound_extremal`, which must reproduce the
CLI's values. trace.overhead_s is the traced run's wall time minus the
untraced median, and trace.unaccounted_s the part of it that no span's
self time covers (interpreter start, imports, untraced glue).

Each run prints one line with the machine and source identity, then the
result line; both are also written to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_profile_csv, check_sweep_json, check_verify_json, sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DIGEST_SEED = 1729
SETUP_REPEATS = 9
UNTRACED_REPEATS = 3
# Every run must exit within 180 s; stop starting children well before.
RUN_BUDGET_S = 165.0


@dataclass(frozen=True)
class Workload:
    why: str
    command: str
    spec: str
    n: int
    m: int = 0  # edge count, known for the regular profile graph
    graphs: int = 1  # graphs one invocation processes


# Keep the `why` lines equal to those in BENCHMARK.json. The profile graph
# has 20 vertices, not more: at regular:22:3 one graph took 2.8-6.6 s
# depending on the seed, too few graphs per run for a steady mean.
WORKLOADS = {
    "profile-regular20": Workload(
        why="4-regular graph near the vertex cap, where branch and bound prunes least: "
        "the solver engine alone, bypassing sweep, workers, identity suite and parsing",
        command="profile",
        spec="regular:20:4",
        n=20,
        m=40,
    ),
    "verify-random16": Workload(
        why="irregular graph read from graph6 under the checked strategy: exhaustive "
        "routes, branch and bound, identity suite, reverse direction, formats parsing",
        command="verify",
        spec="random:16:0.5",
        n=16,
    ),
    "sweep-small": Workload(
        why="200 small graphs, where per-graph cost dominates: generation, verify, "
        "identity suite, serialization; the only workload on the --workers path",
        command="sweep",
        spec="random:9:0.4,regular:10:3",
        n=10,
        graphs=200,
    ),
}


def graph_seed(seed: int, j: int) -> int:
    return seed + 1_000_003 * j


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns one child at a time inside a scratch directory of the checkout."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str]) -> Child:
        """Run `python3 ARGV` to completion, killed if it outlives the run's budget."""
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, cwd=self.work, env=self.env)
            timer = threading.Timer(max(1.0, self.time_left()), proc.kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        return Child(argv, wall, 0.0, code, out_path.read_bytes(), err_path.read_bytes())

    def run_cli(self, cli_args: list[str]) -> Child:
        """One CLI invocation, with its own peak RSS (see bench/peak_rss.py)."""
        rss_path = self.work / "peak_rss"
        rss_path.unlink(missing_ok=True)
        child = self.run([str(BENCH / "peak_rss.py"), str(rss_path), *cli_args])
        if rss_path.exists():
            child.rss_mb = int(rss_path.read_text()) / 1024
        return child


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, child: Child, problems: list[str]) -> None:
        self.attempted += 1
        if child.code != 0:
            problems = [f"exit code {child.code}: {child.stderr.decode(errors='replace').strip()[-500:]}"] + problems
        if problems:
            self.failed += 1
            print(f"check failed for {' '.join(child.argv)}: {'; '.join(problems[:5])}", file=sys.stderr)


class Inputs:
    """Per-invocation CLI arguments and probe arguments for one workload."""

    def __init__(self, workload: Workload, seed: int, work: Path, digest: str | None) -> None:
        self.w = workload
        self.seed = seed
        self.work = work
        self.digest = digest  # expected sha256 of invocation 0's stdout at DIGEST_SEED

    def _graph_file(self, j: int) -> Path:
        from isoprofile.formats import to_graph6
        from isoprofile.graphs import from_spec

        path = self.work / f"input-{j}.g6"
        if not path.exists():
            path.write_text(to_graph6(from_spec(self.w.spec, graph_seed(self.seed, j))) + "\n")
        return path

    def cli(self, j: int) -> list[str]:
        w, s = self.w, str(graph_seed(self.seed, j))
        if w.command == "profile":
            args = ["profile", "--gen", w.spec, "--seed", s, "--format", "csv"]
        elif w.command == "verify":
            args = ["verify", "--input", str(self._graph_file(j)), "--format", "json"]
        else:
            args = ["sweep", "--gen", w.spec, "--count", str(w.graphs), "--seed", s,
                    "--workers", "2", "--format", "json", "--findings", str(self.work / "findings.txt")]
        return args

    def probe(self, j: int) -> list[str]:
        w, s = self.w, str(graph_seed(self.seed, j))
        if w.command == "profile":
            return [str(BENCH / "probe.py"), "gen", w.spec, s]
        if w.command == "verify":
            return [str(BENCH / "probe.py"), "file", str(self._graph_file(j))]
        return [str(BENCH / "probe.py"), "sweep", w.spec, str(w.graphs), s]

    def check(self, child: Child, j: int) -> list[str]:
        text = child.stdout.decode(errors="replace")
        w = self.w
        if w.command == "profile":
            problems = check_profile_csv(text, w.n, w.m)
        elif w.command == "verify":
            problems = check_verify_json(text, w.n)
        else:
            problems = check_sweep_json(text, w.graphs)
        if self.seed == DIGEST_SEED and j == 0 and sha256(child.stdout) != self.digest:
            problems.append(f"stdout sha256 {sha256(child.stdout)} differs from the recorded digest")
        return problems


def probe_setup(inputs: Inputs, runner: Runner) -> float:
    """Time one set-up probe; exit without a result if it did not run this tree."""
    probe = runner.run(inputs.probe(0))
    imported = probe.stdout.decode(errors="replace").strip()
    if probe.code != 0 or not imported.startswith(str(SRC)):
        raise SystemExit(f"set-up probe failed (exit {probe.code}, imported {imported!r}): "
                         f"{probe.stderr.decode(errors='replace')[-500:]}")
    return probe.wall_s


def measure_end_to_end(inputs: Inputs, runner: Runner, tally: Tally, seconds: int):
    # A probe before each invocation spreads the set-up samples over the run.
    setup = []
    invocations = []
    start = time.perf_counter()
    while not invocations or (time.perf_counter() - start < seconds
                              and runner.time_left() > 2 * invocations[-1].wall_s):
        j = len(invocations)
        setup.append(probe_setup(inputs, runner))
        child = runner.run_cli(inputs.cli(j))
        tally.record(child, inputs.check(child, j))
        invocations.append(child)
    while len(setup) < SETUP_REPEATS:
        setup.append(probe_setup(inputs, runner))
    walls = [c.wall_s for c in invocations]
    metrics = {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c.rss_mb for c in invocations),
        "graphs_per_s": inputs.w.graphs * len(walls) / sum(walls),
    }
    detail = {"setup_s": setup, "wall_s": walls, "rss_mb": [c.rss_mb for c in invocations]}
    return metrics, detail


def layer_value(metric: str, layers: dict[str, dict]) -> float:
    """Sum of one field over a layer and its sub-layers: `<layer>.<field>`."""
    layer, _, field = metric.rpartition(".")
    return sum(rec[field] for key, rec in layers.items() if key == layer or key.startswith(layer + "."))


def measure_traced(inputs: Inputs, runner: Runner, tally: Tally, per_layer: list[str]):
    probe_setup(inputs, runner)
    cli_args = inputs.cli(0)
    untraced = []
    for _ in range(UNTRACED_REPEATS):
        child = runner.run_cli(cli_args)
        tally.record(child, inputs.check(child, 0))
        untraced.append(child.wall_s)
    spans_path = runner.work / "spans.json"
    traced = runner.run([str(BENCH / "spans.py"), "cli", str(spans_path), "--", *cli_args])
    tally.record(traced, inputs.check(traced, 0))
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else {"layers": {}, "spans": 0}
    layers = spans["layers"]
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced.wall_s, "spans": spans["spans"], "layers": layers}
    extras = {
        "trace.total_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - statistics.median(untraced),
        "trace.unaccounted_s": traced.wall_s - sum(rec["self_s"] for rec in layers.values()),
    }
    if inputs.w.command == "profile":
        csv_path = runner.work / "profile.csv"
        csv_path.write_bytes(traced.stdout)
        replay_path = runner.work / "replay.json"
        replay = runner.run([str(BENCH / "spans.py"), "replay", str(replay_path), str(csv_path),
                             inputs.w.spec, str(graph_seed(inputs.seed, 0))])
        tally.record(replay, [])
        replayed = json.loads(replay_path.read_text())["layers"] if replay_path.exists() else {}
        layers = {k: v for k, v in layers.items() if not k.startswith("solvers.branch_bound.")}
        layers.update((k, v) for k, v in replayed.items() if k.startswith("solvers.branch_bound."))
        detail["replay_layers"] = replayed
        detail["replay_wall_s"] = replay.wall_s
    metrics = {m: extras[m] if m in extras else layer_value(m, layers) for m in per_layer}
    return metrics, detail


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "isoprofile").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "isoprofile" / "cli.py").is_file():
        print(f"error: no isoprofile source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads((BENCH / "digests.json").read_text())
    workload = WORKLOADS[args.workload]

    work = BENCH / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, started + RUN_BUDGET_S)
    inputs = Inputs(workload, args.seed, work, digests.get(args.workload))
    tally = Tally()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            values, detail = measure_traced(inputs, runner, tally, list(units))
        else:
            values, detail = measure_end_to_end(inputs, runner, tally, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "detail": detail}, indent=1, sort_keys=True)
    )
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

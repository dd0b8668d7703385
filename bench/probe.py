"""Set-up probe: start the interpreter, import the CLI and build one
workload's input without solving it. The benchmark times this child
process from spawn to exit as setup_s.

    python3 bench/probe.py gen SPEC SEED          one generated graph
    python3 bench/probe.py file PATH              one parsed graph file
    python3 bench/probe.py sweep SPECS COUNT SEED the sweep's graph stream

Prints the file isoprofile was imported from, so the caller can check
that it timed the source tree it meant to.
"""

import sys

import isoprofile.cli  # noqa: F401  importing the CLI is part of set-up
from isoprofile.formats import load_graph_text
from isoprofile.graphs import from_spec


def _child_seed(seed: int, index: int) -> int:
    # The sweep's per-graph seed mixing, so the probe builds the same stream.
    return ((seed & (2**63 - 1)) * 1_000_000_007 + index + 1) & (2**63 - 1)


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "gen":
        from_spec(args[0], int(args[1]))
    elif mode == "file":
        with open(args[0]) as handle:
            load_graph_text(handle.read())
    elif mode == "sweep":
        specs = args[0].split(",")
        seed = int(args[2])
        for k in range(int(args[1])):
            from_spec(specs[k % len(specs)], _child_seed(seed, k))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(isoprofile.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

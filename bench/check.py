"""Output checks for one isoprofile CLI invocation.

Each check returns a list of problems; an empty list means the output is
correct. The checks know the byte contract (the exact csv header) and the
identities every correct profile satisfies, independently of the package.
"""

from __future__ import annotations

import hashlib
import json

KINDS = ("max_induced", "min_induced", "max_covered", "min_covered", "max_cut", "min_cut")

CSV_HEADER = "i," + ",".join(KINDS) + "," + ",".join("diff_" + k for k in KINDS)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_profile_csv(text: str) -> dict[str, list[int]]:
    """Profile values per kind from `profile --format csv` output.

    Raises ValueError when the text is not shaped like that output.
    """
    if not text.endswith("\n"):
        raise ValueError("csv does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"csv header differs: {lines[0]!r}")
    values: dict[str, list[int]] = {k: [] for k in KINDS}
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != 1 + 2 * len(KINDS):
            raise ValueError(f"row {i} has {len(cells)} cells")
        if cells[0] != str(i):
            raise ValueError(f"row {i} is labelled {cells[0]!r}")
        for k, cell in zip(KINDS, cells[1:1 + len(KINDS)]):
            values[k].append(int(cell))
        diffs = cells[1 + len(KINDS):]
        for k, cell in zip(KINDS, diffs):
            if i == 0:
                if cell != "":
                    raise ValueError(f"row 0 has diff {cell!r} for {k}")
            elif int(cell) != values[k][i] - values[k][i - 1]:
                raise ValueError(f"diff_{k} at i={i} is not the consecutive difference")
    return values


def check_profile_csv(text: str, n: int, m: int) -> list[str]:
    """Header, shape, diff columns, cover splits and cut mirrors of a profile csv."""
    try:
        v = parse_profile_csv(text)
    except ValueError as exc:
        return [str(exc)]
    if len(v["max_induced"]) != n + 1:
        return [f"expected {n + 1} rows, got {len(v['max_induced'])}"]
    problems = []
    if v["max_induced"][n] != m:
        problems.append(f"max_induced(n) = {v['max_induced'][n]}, expected m = {m}")
    for i in range(n + 1):
        if v["max_covered"][i] + v["min_induced"][n - i] != m:
            problems.append(f"max_covered({i}) + min_induced({n - i}) != m")
        if v["min_covered"][i] + v["max_induced"][n - i] != m:
            problems.append(f"min_covered({i}) + max_induced({n - i}) != m")
        for k in ("max_cut", "min_cut"):
            if v[k][i] != v[k][n - i]:
                problems.append(f"{k} does not mirror at i={i}")
        for counter in ("induced", "covered", "cut"):
            if v["min_" + counter][i] > v["max_" + counter][i]:
                problems.append(f"min_{counter}({i}) exceeds max_{counter}({i})")
    return problems


def check_verify_json(text: str, n: int) -> list[str]:
    """A consistent report on an n-vertex graph with every applicable identity holding."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"verify output is not json: {exc}"]
    problems = []
    if report.get("n") != n:
        problems.append(f"report covers n={report.get('n')}, expected {n}")
    if report.get("consistent") is not True:
        problems.append("report is not consistent")
    biconditional = report.get("biconditional") or {}
    if not biconditional or not all(biconditional.values()):
        problems.append("biconditional fails")
    identities = report.get("identities") or []
    if not identities:
        problems.append("report lists no identities")
    for identity in identities:
        if identity["applicable"] and identity["holds"] is not True:
            problems.append(f"identity {identity['name']} fails: {identity['first_violation']}")
    return problems


def check_sweep_json(text: str, count: int) -> list[str]:
    """A sweep summary with `count` graphs, all consistent."""
    try:
        summary = json.loads(text)
    except ValueError as exc:
        return [f"sweep output is not json: {exc}"]
    problems = []
    if summary.get("count") != count or summary.get("consistent") != count:
        problems.append(f"count {summary.get('count')}, consistent {summary.get('consistent')}, expected {count}")
    if summary.get("inconsistent") != 0 or summary.get("findings"):
        problems.append(f"sweep reports {summary.get('inconsistent')} inconsistent graphs")
    return problems

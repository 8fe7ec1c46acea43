"""Output checks behind the benchmark's failure count.

At the seed recorded in ``digests.json`` every CSV must match its pinned
SHA-256, taken from the package as it was when the benchmark was defined.
At any other seed the structure is checked instead: header, row count, run
and step columns or x grid, values in [0, 1], and p10 <= p90.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_pins(size: str, workload: str) -> tuple[int | None, dict]:
    """The recorded seed and its {output name: digest} for one workload."""
    with open(DIGESTS, encoding="utf-8") as fh:
        entry = json.load(fh).get(size, {}).get(workload)
    if not entry:
        return None, {}
    return entry["seed"], entry["sha256"]


def _unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


def structure_problems(path: str, out) -> list[str]:
    """Everything wrong with the CSV at path against its expected Output."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != out.header:
        return [f"header {lines[:1]} != {list(out.header)}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != out.rows:
        return [f"{len(rows)} rows, expected {out.rows}"]
    if any(len(r) != len(out.header) for r in rows):
        return ["ragged row"]
    problems = []
    if out.grid:
        expected = [(float(x), m) for x in out.grid for m in out.metrics]
        for (x, metric, mean, p10, p90), (ex, em) in zip(rows, expected):
            if float(x) != ex or metric != em:
                problems.append(f"row ({x}, {metric}) where ({ex!r}, {em}) belongs")
            lo, mid, hi = float(p10), float(mean), float(p90)
            if not (_unit(lo) and _unit(mid) and _unit(hi)):
                problems.append(f"value outside [0, 1] at x={x} {metric}")
            if lo > hi:
                problems.append(f"p10 > p90 at x={x} {metric}")
    else:
        expected = [(r, s) for r in range(out.runs) for s in range(out.steps + 1)]
        for row, (er, es) in zip(rows, expected):
            if (int(row[0]), int(row[1])) != (er, es):
                problems.append(f"row (run {row[0]}, step {row[1]}) where "
                                f"({er}, {es}) belongs")
            if not all(_unit(float(v)) for v in row[2:]):
                problems.append(f"value outside [0, 1] at run {row[0]} step {row[1]}")
    return problems[:5]

"""Smoke self-test of the benchmark at tiny size; takes about a minute.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs run.py at the pinned seed,
untraced and twice traced, and at another seed untraced. Each run must be
correct with no failed output and print every metric BENCHMARK.json names,
with its unit; the exact counts of the two traced runs must be equal. Last,
a copy of the benchmark without the package must exit nonzero and print no
result. Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED_SEED = 1


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(done, expected: dict) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), (name, metrics[name])
    return metrics


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from tracing import COUNTS

    for w in spec["workloads"]:
        name = w["name"]
        result_of(bench(name, PINNED_SEED, 0), end_to_end)
        result_of(bench(name, PINNED_SEED + 1, 0), end_to_end)
        first, second = (result_of(bench(name, PINNED_SEED, 1), per_layer)
                         for _ in range(2))
        for count in COUNTS:
            assert first[count] == second[count], (name, count, first[count],
                                                   second[count])
        print(f"ok {name}")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = bench(spec["workloads"][0]["name"], PINNED_SEED, 0, cwd=bare)
        assert done.returncode != 0, "ran without the package"
        assert '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare)
    print("ok without the package: exit", done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())

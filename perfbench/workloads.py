"""The benchmark's workloads: what each one runs, at which size, and which
CSVs it must write.

Every workload drives the package through a public entry point only:
``harness.run_part`` for the figure presets and ``cli.main`` for
``possibly run``. Importing this module imports ``possibly``, so the caller
puts the checkout's ``src`` directory on ``sys.path`` first.

- ``trajectory``: both fig8 parts at the paper's standard population (100
  agents, 5 states), trajectory capture, one worker. Each kernel call sees
  about 500 elements, so per-call overhead dominates; this is where batching
  runs together and the CSV/trajectory path act.
- ``sweep``: the fig7 evidence-rate sweeps of both models, the fig5b theta
  sweep and the fig3 reversal curve, final capture, two workers. It exercises
  fan-out, result pickling and the fold, and it is the only caller of
  ``environment.reversal_probability``.
- ``large``: ``possibly run`` with 1000 agents and 20 states for both models,
  one worker. The arrays are big enough for the row kernels to dominate;
  batching runs should leave it unchanged, kernel work should show here.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace
from functools import partial

from possibly import cli, harness

WORKLOADS = ("trajectory", "sweep", "large")

# Runs and steps per workload. "full" is what the benchmark measures; "tiny"
# is for the smoke self-test and finishes in seconds.
SIZES = {
    "full": {
        "trajectory": {"runs": 2, "steps": 750},
        "sweep": {"runs": 3, "steps": 100},
        "large": {"runs": 2, "steps": 150},
    },
    "tiny": {
        "trajectory": {"runs": 1, "steps": 30},
        "sweep": {"runs": 2, "steps": 10},
        "large": {"runs": 1, "steps": 4},
    },
}

# Metric columns per model, written out here rather than read from the
# package, so that a change to the package's schema fails the check.
METRIC_COLUMNS = {
    "possibilistic": ("mean_poss_best", "mean_nec_best"),
    "probabilistic": ("mean_prob_best",),
}
AGGREGATE_HEADER = ("x", "metric", "mean", "p10", "p90")

LARGE_AGENTS = 1000
LARGE_ARGS = ("--agents", str(LARGE_AGENTS), "--states", "20",
              "--evidence-rate", "0.5", "--noise", "0.3", "--theta", "20")


@dataclass(frozen=True)
class Output:
    """One CSV a workload writes, with the structure it must have."""

    name: str           # path relative to the workload's output directory
    header: tuple
    # trajectory CSVs: (runs, steps); aggregate CSVs: the x grid and the
    # metric names each x carries, in file order
    runs: int = 0
    steps: int = 0
    grid: tuple = ()
    metrics: tuple = ()

    @property
    def rows(self) -> int:
        if self.grid:
            return len(self.grid) * len(self.metrics)
        return self.runs * (self.steps + 1)


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    agent_steps: int        # sum of runs * steps * agents
    outputs: tuple          # of Output
    # The body, as steps run in order: step(out_dir, workers). Together
    # they write every output; each is timed on its own.
    steps: tuple


def _sized(part, runs: int, steps: int):
    spec = replace(part.spec, runs=runs, base=replace(part.spec.base, steps=steps))
    return replace(part, spec=spec)


def _part_output(part) -> Output:
    if part.kind == "reversal_curve":
        return Output(part.stem + ".csv", AGGREGATE_HEADER,
                      grid=tuple(part.curve_grid),
                      metrics=("reversal_probability",))
    spec = part.spec
    columns = METRIC_COLUMNS[spec.base.model]
    if part.kind == "trajectory":
        return Output(part.stem + ".csv", ("run", "step", *columns),
                      runs=spec.runs, steps=spec.base.steps)
    return Output(part.stem + ".csv", AGGREGATE_HEADER, grid=spec.grid,
                  metrics=columns)


def _agent_steps(part) -> int:
    if part.spec is None:
        return 0
    base = part.spec.base
    return len(part.spec.grid) * part.spec.runs * base.steps * base.agents


def _preset_workload(name: str, parts: list, workers: int, seed: int) -> Workload:
    def step(part):
        return lambda out_dir, workers: harness.run_part(part, out_dir, workers, seed)

    return Workload(name, workers, sum(_agent_steps(p) for p in parts),
                    tuple(_part_output(p) for p in parts),
                    tuple(step(p) for p in parts))


def _large_workload(seed: int, runs: int, steps: int) -> Workload:
    models = tuple(METRIC_COLUMNS)
    argv = {m: ["run", "--model", m, *LARGE_ARGS, "--steps", str(steps),
                "--runs", str(runs), "--seed", str(seed)] for m in models}
    for args in argv.values():
        cli.parse_args(args)  # an invalid argument list fails here, in set-up

    def run(m, out_dir, workers):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv[m], "--workers", str(workers),
                             "--out", os.path.join(out_dir, m)])
        if code != 0:
            raise RuntimeError(f"possibly run --model {m} exited {code}")
        if "final (" not in out.getvalue():
            raise RuntimeError(f"possibly run --model {m} printed no summary")

    outputs = tuple(Output(f"{m}/run_trajectory.csv",
                           ("run", "step", *METRIC_COLUMNS[m]),
                           runs=runs, steps=steps) for m in models)
    return Workload("large", 1, len(models) * runs * steps * LARGE_AGENTS,
                    outputs, tuple(partial(run, m) for m in models))


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's specs for one seed, ready to run."""
    sz = SIZES[size][name]
    runs, steps = sz["runs"], sz["steps"]
    if name == "trajectory":
        parts = [_sized(p, runs, steps)
                 for p in harness.preset("fig8", seed=seed).parts]
        return _preset_workload(name, parts, 1, seed)
    if name == "sweep":
        fig7 = harness.preset("fig7", seed=seed).parts
        rho_sweeps = [p for p in fig7 if p.stem.endswith("_rho_sweep")]
        parts = [_sized(p, runs, steps)
                 for p in (*rho_sweeps, *harness.preset("fig5b", seed=seed).parts)]
        parts += harness.preset("fig3", seed=seed).parts
        return _preset_workload(name, parts, 2, seed)
    if name == "large":
        return _large_workload(seed, runs, steps)
    raise ValueError(f"unknown workload {name!r}")

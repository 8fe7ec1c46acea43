"""Experiment orchestration: sweeps, aggregation, presets, and CSV output.

An experiment is one SweepSpec: a base SimParams, an optional swept
parameter and its grid, and the runs per grid point. Presets and the CLI's
run and sweep commands each build one and hand it to the functions here.

A sweep runs one simulation per (grid value, run index) pair. Per-run seeds
are derived by folding (grid index, run index) into the base seed through
SeedSequence spawn keys, so a sweep is reproducible from a single integer
and runs stay independent of worker count and scheduling order.

Consecutive runs of one lockstep shape (engine.lockstep_key, the tuple of
every SimParams field but rho, sigma, seed and theta, then theta's Frank
branch; a theta sweep is one shape per branch) are stepped together by
engine.run_batch, dealt round-robin into as many batches as there are
workers to share them, so that each batch gets a like share of an
ascending grid; a run's metrics do not depend on its batch. Runs come
back as one (runs, steps + 1 or 1, m) array in run order and
METRICS[model] column order, and every fold and CSV reads that array. The
reversal curve spreads its points over the same pool, each point on its
own seeded stream.

A process has one worker pool. The first call that needs more than one
worker forks it, and every later call of that size reuses its processes;
a call of another size replaces it, and a call that raises closes it, so
the next call forks a fresh one. Workers are forked, not re-imported, so
they see this module's state as of the pool's start: a later change to a
module global reaches them only through a new pool. They are joined when
the interpreter exits.
"""

from __future__ import annotations

import itertools
import operator
import os
import tempfile
from collections.abc import Collection
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    METRICS,
    OPTIONS,
    POSSIBILISTIC,
    PROBABILISTIC,
    SimParams,
    check_fields,
    lockstep_key,
    run,  # unused here; perfbench's tracer patches harness.run
    run_batch,
)
from .environment import EnvironmentSpec, NoiseSpec, reversal_probability
from .possibility import FrankParameter, PossibilityDistribution, fuse

__all__ = [
    "AGGREGATE_HEADER",
    "AggregateRecord",
    "apply_param",
    "DEFAULT_PARAMS",
    "DEFAULT_RUNS",
    "DEFAULT_SEED",
    "HISTOGRAM_BINS",
    "HISTOGRAM_HEADER",
    "Preset",
    "PresetPart",
    "PRESET_NAMES",
    "SWEEP_PARAMS",
    "SweepSpec",
    "aggregate_trajectories",
    "collect_finals",
    "collect_trajectories",
    "derive_run_seed",
    "emit_csv",
    "histogram",
    "percentile",
    "preset",
    "run_part",
    "run_preset",
    "sweep",
    "trajectory_header",
    "trajectory_rows",
]

DEFAULT_SEED = 42
DEFAULT_RUNS = 100
HISTOGRAM_BINS = 20

CAPTURE_FINAL = "final"
CAPTURE_TRAJECTORY = "trajectory"

AGGREGATE_HEADER = ("x", "metric", "mean", "p10", "p90")
HISTOGRAM_HEADER = ("bin_lower", "count")

# The documented defaults of every run: the fig4a parameterisation.
DEFAULT_PARAMS = SimParams(agents=100, states=5, rho=0.05, sigma=0.0,
                           theta=FrankParameter(theta=20.0), steps=1500,
                           model=POSSIBILISTIC, seed=DEFAULT_SEED)

# Sweepable parameters, the numeric SimParams options but the seed, which a
# sweep derives per run, in the order the CLI lists them:
# name -> (SimParams field, type of a grid value). theta is wrapped into a
# FrankParameter.
SWEEP_PARAMS = {flag: (o.field, o.kind) for flag, o in OPTIONS.items()
                if o.kind in (int, float) and o.field not in (None, "seed")}


def apply_param(base: SimParams, param: str | None, value) -> SimParams:
    """Return base with one swept parameter replaced."""
    if param is None:
        return base
    if param not in SWEEP_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {param!r}; "
            f"choose from {', '.join(sorted(SWEEP_PARAMS))}")
    field, cast = SWEEP_PARAMS[param]
    # integers go uncast, so SimParams rejects 2.5 as it rejects agents=2.5
    if cast is float:
        try:
            value = float(value)
        except TypeError:
            raise ValueError(f"{param} must be a number, not {value!r}") from None
    if field == "theta":
        value = FrankParameter(theta=value)
    return replace(base, **{field: value})


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a base configuration, an optional swept parameter,
    and how many runs to average per grid point.

    capture="final" keeps only each run's last step's metrics; "trajectory"
    keeps every step and requires a single-point grid.
    """

    base: SimParams
    param: str | None = None
    grid: tuple = (None,)
    runs: int = DEFAULT_RUNS
    capture: str = CAPTURE_FINAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(self.grid))
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        check_fields(self, (("runs", OPTIONS["runs"]),))
        if self.capture not in (CAPTURE_FINAL, CAPTURE_TRAJECTORY):
            raise ValueError(f"unknown capture mode: {self.capture!r}")
        if self.param is None:
            if self.grid != (None,):
                raise ValueError("grid must be (None,) when no parameter is swept")
        else:
            if self.capture == CAPTURE_TRAJECTORY and len(self.grid) > 1:
                raise ValueError("trajectory capture needs a single-point grid")
            for v in self.grid:
                apply_param(self.base, self.param, v)  # reject bad values early


@dataclass(frozen=True)
class AggregateRecord:
    """Cross-run summary of one metric at one grid value (or step)."""

    x: float
    metric: str
    mean: float
    p10: float
    p90: float

    def __post_init__(self) -> None:
        if self.p10 > self.p90:
            raise ValueError("p10 must not exceed p90")

    def __iter__(self):
        # the cells of its CSV row, in AGGREGATE_HEADER order
        return iter((self.x, self.metric, self.mean, self.p10, self.p90))


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile at rank q*(N-1) on sorted samples."""
    if not isinstance(samples, np.ndarray):
        samples = tuple(samples)  # any iterable, generators too
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return float(np.percentile(arr, 100.0 * q))


def histogram(samples, bins: int = HISTOGRAM_BINS) -> tuple[tuple[float, int], ...]:
    """Equal-width bins over [0,1], last bin right-closed.

    Returns (bin lower edge, count) pairs; counts sum to len(samples).
    """
    try:
        bins = operator.index(bins)
    except TypeError:
        raise ValueError("bins must be an integer") from None
    if bins < 1:
        raise ValueError("bins must be >= 1")
    arr = np.asarray(tuple(samples), dtype=float)
    # NaN fails both tests: min and max propagate it
    if arr.size and not (arr.min() >= -1e-9 and arr.max() <= 1.0 + 1e-9):
        raise ValueError("samples must lie in [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    # direct multiply-and-floor keeps the emitted edges exactly i/bins,
    # so a sample sitting on an edge lands in the bin above it
    idx = np.minimum((arr * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return tuple((i / bins, int(counts[i])) for i in range(bins))


def derive_run_seed(base_seed: int, grid_index: int, run_index: int) -> int:
    """Fold grid and run indices into the base seed."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(grid_index, run_index))
    return int(ss.generate_state(2, np.uint64)[0])


# ---------------------------------------------------------------------------
# run fan-out
# ---------------------------------------------------------------------------

def _run_job(args):
    runs, capture = args
    return run_batch(runs, final_only=capture == CAPTURE_FINAL)[0]


def _batches(runs, workers: int) -> list[range]:
    """Deal each group of consecutive same-shape runs round-robin into
    min(workers, len(group)) batches, whose sizes differ by at most one.
    A batch is the positions of its runs in runs, ascending.

    Dealing, not cutting, gives each batch every workers-th run of its
    group, so a swept grid whose points cost more as they rise (rho) loads
    the workers alike."""
    batches = []
    start = 0
    for _, group in itertools.groupby(runs, key=lockstep_key):
        group = range(start, start + sum(1 for _ in group))
        parts = min(workers, len(group))
        batches += [group[part::parts] for part in range(parts)]
        start = group.stop
    return batches


def _pool_size(workers: int, jobs: int) -> int:
    # the pool starts all its processes up front, so ask for no more than
    # there are jobs, and CPUs that this process may run on, to give them
    option = OPTIONS["workers"]
    if not option.in_range(workers):
        raise ValueError(f"workers {option.message}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(workers, jobs, cpus)


# (size, executor) of this process's one worker pool, or None before the
# first parallel call and after _close_pool
_POOL = None


def _close_pool() -> None:
    """Shut the shared pool down, dropping the jobs it has not started."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool[1].shutdown(cancel_futures=True)


def _pool_map(fn, jobs: list, workers: int) -> list:
    """fn of every job, in job order: on the process's pool of _pool_size
    workers (its lifetime is in the module docstring), or in this process
    when that is one."""
    global _POOL
    workers = _pool_size(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    if _POOL is not None and _POOL[0] != workers:
        _close_pool()
    if _POOL is None:
        _POOL = (workers, ProcessPoolExecutor(max_workers=workers))
    # executor.map keeps results in submission order, so worker count can't
    # change what the caller sees
    try:
        return list(_POOL[1].map(fn, jobs))
    except BaseException:
        _close_pool()
        raise


def _map_jobs(spec: SweepSpec, capture: str, workers: int) -> np.ndarray:
    """The metrics of every run of spec, in run order: a (grid * runs,
    steps + 1, m) array, or (grid * runs, 1, m) with final capture."""
    # the result first: one too large to allocate fails at once, not after
    # every run's parameters are built and dealt (about 25 us per run)
    point = apply_param(spec.base, spec.param, spec.grid[0])
    metrics = np.empty((len(spec.grid) * spec.runs,
                        1 if capture == CAPTURE_FINAL else point.steps + 1,
                        len(METRICS[point.model])))
    runs = _runs_for(spec)
    # a run's metrics do not depend on its batch
    batches = _batches(runs, _pool_size(workers, len(runs)))
    results = _pool_map(
        _run_job, [([runs[i] for i in batch], capture) for batch in batches],
        workers)
    for batch, rows in zip(batches, results):
        metrics[batch] = rows
    return metrics


def _runs_for(spec: SweepSpec) -> list[SimParams]:
    runs = []
    for gi, v in enumerate(spec.grid):
        p0 = apply_param(spec.base, spec.param, v)
        for ri in range(spec.runs):
            runs.append(replace(p0, seed=derive_run_seed(spec.base.seed, gi, ri)))
    return runs


def collect_finals(spec: SweepSpec, workers: int = 1) -> np.ndarray:
    """Final-step metrics of every run of a single-point spec, in run order:
    a (runs, m) array."""
    if len(spec.grid) != 1:
        raise ValueError("collect_finals needs a single-point grid")
    return _map_jobs(spec, CAPTURE_FINAL, workers)[:, -1]


def collect_trajectories(spec: SweepSpec, workers: int = 1) -> np.ndarray:
    """Every step's metrics of every run of a single-point spec, in run
    order: a (runs, steps + 1, m) array."""
    if len(spec.grid) != 1:
        raise ValueError("collect_trajectories needs a single-point grid")
    return _map_jobs(spec, CAPTURE_TRAJECTORY, workers)


def _fold(metrics: np.ndarray, xs, model: str) -> list[AggregateRecord]:
    """mean/p10/p90 across the runs of a (runs, len(xs), m) array, x-major.

    Each statistic is one call over a copy laid out (len(xs), m, runs), the
    run axis last and contiguous: a reduction along that axis adds each
    column's runs in the same (pairwise) order as the column's own mean,
    so every value is the bits of col.mean() and percentile(col, q). A
    mean along axis 0 of the (runs, ...) array would add row by row, in
    another order, and change bits."""
    columns = np.ascontiguousarray(metrics.transpose(1, 2, 0))
    means = columns.mean(axis=-1).tolist()
    p10s = np.percentile(columns, 100.0 * 0.10, axis=-1).tolist()
    p90s = np.percentile(columns, 100.0 * 0.90, axis=-1).tolist()
    return [AggregateRecord(x=x, metric=name, mean=mean, p10=p10, p90=p90)
            for x, *point in zip(xs, means, p10s, p90s)
            for name, mean, p10, p90 in zip(METRICS[model], *point)]


def aggregate_trajectories(trajectories: np.ndarray,
                           model: str) -> list[AggregateRecord]:
    """Per-step mean/p10/p90 across the runs of a collect_trajectories
    array; x is the step number."""
    if len(trajectories) == 0:
        raise ValueError("no trajectories to aggregate")
    return _fold(trajectories, [float(t) for t in range(trajectories.shape[1])],
                 model)


def sweep(spec: SweepSpec, workers: int = 1) -> list[AggregateRecord]:
    """Run the sweep and aggregate each grid point across its runs.

    Results are folded in grid order after all runs complete, so the output
    is a pure function of the SweepSpec regardless of worker count.
    """
    metrics = _map_jobs(spec, spec.capture, workers)
    if spec.capture == CAPTURE_TRAJECTORY:
        return aggregate_trajectories(metrics, spec.base.model)
    xs = [float(gi) if v is None else float(v) for gi, v in enumerate(spec.grid)]
    # (grid * runs, 1, m) -> (runs, grid, m)
    by_point = metrics.reshape(len(spec.grid), spec.runs, -1).swapaxes(0, 1)
    return _fold(by_point, xs, spec.base.model)


def trajectory_header(model: str) -> tuple[str, ...]:
    """The CSV header of a model's trajectory_rows."""
    return ("run", "step", *METRICS[model])


def trajectory_rows(trajectories: np.ndarray) -> list[str]:
    """Flatten a collect_trajectories array into CSV rows, one str
    "run,step,*metrics" each. Each column is formatted at once, and each
    cell as emit_csv formats it."""
    runs, steps, m = trajectories.shape
    columns = [map(str, np.arange(runs).repeat(steps).tolist()),
               map(str, list(range(steps)) * runs)]
    columns += [map(repr, column.tolist())
                for column in trajectories.reshape(-1, m).T]
    return list(map(",".join, zip(*columns)))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


# The cells that _fmt would convert and return unchanged, by exact type:
# bool and the numpy scalars (np.float64 subclasses float) go through _fmt.
_CELL_FORMATS = {int: str, float: repr, str: str}


def emit_csv(rows: Collection, path, header=AGGREGATE_HEADER) -> None:
    """Write header and rows as CSV, one line per row: a row of cells
    (aggregate records, or histogram pairs under HISTOGRAM_HEADER) or a
    str, written as it is (trajectory_rows under trajectory_header(model)).

    Writes to a temp file and renames, so a failure leaves no partial file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                cell = _CELL_FORMATS.get
                for row in rows:
                    if row.__class__ is not str:
                        row = ",".join([cell(type(c), _fmt)(c) for c in row])
                    fh.write(row + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresetPart:
    """One output file of a preset: what to compute and the file stem."""

    stem: str
    kind: str  # trajectory | aggregate | histogram | frank_curve | reversal_curve
    spec: SweepSpec | None = None
    metric: str | None = None  # histogram source metric
    curve_grid: tuple = ()     # x grid for the simulation-free curves


@dataclass(frozen=True)
class Preset:
    name: str
    parts: tuple[PresetPart, ...]


# The worked three-state example, pi1 and pi2: fig2's fusion curve and
# `possibly example`.
_EXAMPLE = (PossibilityDistribution((1.0, 0.8, 0.7)),
            PossibilityDistribution((0.4, 0.9, 1.0)))

_THETA_CURVE_GRID = tuple(np.geomspace(0.1, 100.0, 25).tolist())
_THETA_SWEEP_GRID = tuple(np.geomspace(0.1, 100.0, 9).tolist())
_NOISE_GRID = tuple(np.round(np.linspace(0.0, 0.5, 11), 10).tolist())
_RHO_GRID = (0.01,) + tuple(np.round(np.linspace(0.1, 1.0, 10), 10).tolist())
_RHO_ZOOM_GRID = tuple(np.round(np.linspace(0.01, 0.11, 11), 10).tolist())

# Each figure id's parts, in order: the file stem after "<id>_", then the
# fields of preset()'s part().
_PRESETS = {
    "fig2": [("fusion_curve",
              dict(kind="frank_curve", curve_grid=_THETA_CURVE_GRID))],
    "fig3": [("reversal_curve",
              dict(kind="reversal_curve", curve_grid=_NOISE_GRID))],
    "fig4a": [("trajectory", dict(capture=CAPTURE_TRAJECTORY))],
    "fig4b": [("trajectory",
               dict(capture=CAPTURE_TRAJECTORY, fusion_enabled=False))],
    "fig5a": [("theta_sweep", dict(param="theta", grid=_THETA_SWEEP_GRID))],
    "fig5b": [("theta_sweep",
               dict(param="theta", grid=_THETA_SWEEP_GRID, sigma=0.3))],
    "fig6a": [("noise_sweep", dict(param="noise", grid=_NOISE_GRID))],
    "fig6b": [("noise_sweep",
               dict(param="noise", grid=_NOISE_GRID, fusion_enabled=False))],
    "fig7": [
        ("possibilistic_rho_sweep",
         dict(param="evidence-rate", grid=_RHO_GRID, sigma=0.3)),
        ("probabilistic_rho_sweep",
         dict(model=PROBABILISTIC, param="evidence-rate", grid=_RHO_GRID,
              sigma=0.3)),
        ("possibilistic_rho_zoom",
         dict(param="evidence-rate", grid=_RHO_ZOOM_GRID, sigma=0.3)),
        ("probabilistic_rho_zoom",
         dict(model=PROBABILISTIC, param="evidence-rate",
              grid=_RHO_ZOOM_GRID, sigma=0.3)),
    ],
    "fig8": [
        ("possibilistic_trajectory",
         dict(capture=CAPTURE_TRAJECTORY, sigma=0.3)),
        ("probabilistic_trajectory",
         dict(model=PROBABILISTIC, capture=CAPTURE_TRAJECTORY, sigma=0.3)),
    ],
    "fig9": [
        ("possibilistic_histogram",
         dict(kind="histogram", metric="mean_poss_best", sigma=0.3)),
        ("probabilistic_histogram",
         dict(model=PROBABILISTIC, kind="histogram", metric="mean_prob_best",
              sigma=0.3)),
    ],
    "fig10": [
        ("possibilistic_trajectory",
         dict(capture=CAPTURE_TRAJECTORY, rho=0.5, sigma=0.3, steps=3500)),
        ("probabilistic_trajectory",
         dict(model=PROBABILISTIC, capture=CAPTURE_TRAJECTORY, rho=0.5,
              sigma=0.3, steps=3500)),
    ],
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, seed: int = DEFAULT_SEED) -> Preset:
    """The locked parameterisation behind each figure id."""
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")

    def part(stem, *, model=POSSIBILISTIC, param=None, grid=(None,),
             capture=CAPTURE_FINAL, kind=None, metric=None, curve_grid=None,
             **kw):
        if curve_grid is not None:  # a simulation-free curve
            return PresetPart(stem=stem, kind=kind, curve_grid=curve_grid)
        base = replace(DEFAULT_PARAMS, model=model, seed=seed, **kw)
        spec = SweepSpec(base=base, param=param, grid=grid, capture=capture)
        if kind is None:
            kind = "trajectory" if capture == CAPTURE_TRAJECTORY else "aggregate"
        return PresetPart(stem=stem, kind=kind, spec=spec, metric=metric)

    return Preset(name=name, parts=tuple(part(f"{name}_{stem}", **fields)
                                         for stem, fields in _PRESETS[name]))


def _frank_curve_records(grid) -> list[AggregateRecord]:
    pi1, pi2 = _EXAMPLE
    records = []
    for theta in grid:
        fused = fuse(FrankParameter(theta=theta), pi1, pi2)
        for s, v in enumerate(fused.values, start=1):
            records.append(AggregateRecord(x=float(theta), metric=f"fused_s{s}",
                                           mean=v, p10=v, p90=v))
    return records


def _reversal_point(job) -> float:
    """The reversal probability of the fig3 point (seed, gi, sigma), from
    10**6 samples on the point's own stream.

    At sigma = 0 every sample is the same noiseless comparison, so one
    sample gives that estimate exactly (0.0 or 1.0), without drawing the
    2 * 10**6 normals that the noise would multiply by 0."""
    seed, gi, sigma = job
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(derive_run_seed(seed, gi, 0))))
    return reversal_probability(EnvironmentSpec.default(5), NoiseSpec(sigma=sigma),
                                i=5, j=4, samples=1 if sigma == 0 else 10 ** 6,
                                rng=rng)


def _reversal_curve_records(grid, seed: int, workers: int) -> list[AggregateRecord]:
    jobs = [(seed, gi, sigma) for gi, sigma in enumerate(grid)]
    return [AggregateRecord(x=float(sigma), metric="reversal_probability",
                            mean=p, p10=p, p90=p)
            for sigma, p in zip(grid, _pool_map(_reversal_point, jobs, workers))]


def run_part(part: PresetPart, out_dir, workers: int = 1,
             seed: int = DEFAULT_SEED) -> str:
    """Compute one preset part and write its CSV; returns the path."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, part.stem + ".csv")
    if part.kind == "trajectory":
        trajs = collect_trajectories(part.spec, workers)
        emit_csv(trajectory_rows(trajs), path,
                 trajectory_header(part.spec.base.model))
    elif part.kind == "aggregate":
        emit_csv(sweep(part.spec, workers), path)
    elif part.kind == "histogram":
        finals = collect_finals(part.spec, workers)
        column = METRICS[part.spec.base.model].index(part.metric)
        emit_csv(histogram(finals[:, column], HISTOGRAM_BINS), path,
                 HISTOGRAM_HEADER)
    elif part.kind == "frank_curve":
        emit_csv(_frank_curve_records(part.curve_grid), path)
    elif part.kind == "reversal_curve":
        emit_csv(_reversal_curve_records(part.curve_grid, seed, workers), path)
    else:
        raise ValueError(f"unknown preset part kind: {part.kind!r}")
    return path


def run_preset(name: str, out_dir, workers: int = 1,
               seed: int = DEFAULT_SEED) -> list[str]:
    """Compute every part of a preset and write one CSV per part.

    Returns the written paths in part order.
    """
    bundle = preset(name, seed=seed)
    return [run_part(prt, out_dir, workers, seed) for prt in bundle.parts]

"""Benchmark of the ``possibly`` simulator, one workload per process.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``. The
timed body of a workload simulates, folds and writes every CSV; it repeats
until ``--seconds`` have passed, and every CSV of every repeat is checked
(see checks.py). The last line of standard output is one JSON object:

- ``--trace 0``: the end-to-end metrics, as medians over the repeats.
- ``--trace 1``: the per-layer metrics of tracing.py. Everything runs in this
  process with one worker; untraced and traced repeats alternate, and
  ``trace.overhead_frac`` compares their median wall times. Spans are
  written to ``.perfbench_out/``.

Set-up time is measured in fresh processes (``--setup-probe``), spread over
the timed window between repeats, so that they sample the same stretch of
time as the repeats do.

The speed of this kind of shared host drifts by tens of percent over seconds
to minutes, and wall time drifts with it. So every time the end-to-end
metrics report is divided by the time of a fixed calibration loop measured
next to it (``calibrate``), and the median ratio is multiplied by
``REFERENCE_CAL_S``: the reported times are seconds at the host speed where
the loop takes that long. The body is timed step by step, with the loop
between steps, and ``wall_s`` adds up the steps' scaled medians. The
unscaled medians are printed on a line before the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

WARMUP = 1         # untimed repeats before measuring
MIN_REPEATS = 3    # timed repeats, however long they take
SETUP_PROBES = 15  # fresh processes timed for setup_s
# A fixed reference speed: calibrate()'s time on the README's baseline host
# in a fast phase (its median over the baseline runs was 0.063 s). Reported
# times are scaled to it; changing it rescales every baseline.
REFERENCE_CAL_S = 0.055
CAL_ITERATIONS = 4000

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "agent_steps_per_s": "1/s",
             "peak_rss_mb": "MB", "ok_rate": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the smoke self-test in seconds")
    p.add_argument("--setup-probe", action="store_true",
                   help="time import and workload set-up, print it and exit")
    return p.parse_args(argv)


def _import_package():
    """Import ``possibly`` from this checkout's src, or exit with 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "possibly", "__init__.py")):
        sys.exit(f"error: no package at {src}/possibly; run from a full checkout")
    sys.path.insert(0, src)
    import possibly
    if os.path.dirname(os.path.dirname(os.path.abspath(possibly.__file__))) != src:
        sys.exit(f"error: imported possibly from {possibly.__file__}, not {src}")


def _loop() -> float:
    rows = numpy.random.default_rng(0).random((100, 5))
    acc = 0.0
    t0 = perf_counter()
    for i in range(CAL_ITERATIONS):
        b = rows * 0.5 + 0.1
        b /= b.sum(axis=1, keepdims=True)
        acc += float(b[i % 100, 0])
        acc += sum({j: j * 2 for j in range(20)}.values())
    return perf_counter() - t0


def calibrate(cpus=None) -> float:
    """Seconds a fixed loop takes now: the host's current speed.

    The loop does what the simulator's hot path does at the paper's size,
    small numpy operations and Python bookkeeping, but calls nothing in the
    package, so no change to the package moves it. With ``cpus`` it runs
    pinned to each of them in turn and the mean is returned; otherwise it
    runs where this process runs.
    """
    if not cpus:
        return _loop()
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def _setup_probe(args) -> int:
    t0 = perf_counter()
    _import_package()
    import workloads
    workloads.build(args.workload, args.seed, args.size)
    setup = perf_counter() - t0
    print(repr(setup), repr(calibrate()))
    return 0


def _setup_sample(args) -> tuple[float, float]:
    """Set-up time of one fresh process, and the calibration it measured."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    setup, cal = map(float, done.stdout.split()[-2:])
    return setup, cal


def _host() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "start_method": multiprocessing.get_start_method()}


class Runner:
    """Runs and checks one workload's timed body, counting outputs."""

    def __init__(self, workload, seed: int, size: str):
        self.workload = workload
        pinned_seed, self.pins = checks.load_pins(size, workload.name)
        self.pinned = pinned_seed == seed
        self.first = None     # {output name: digest} of the first repeat
        self.attempted = 0
        self.failed = 0
        self.out_dir = os.path.join(OUT, f"{workload.name}-{os.getpid()}")

    def repeat(self, workers: int, tracer=None, between=None):
        """One timed body: the wall time of each step in seconds, or None if
        it raised. ``between`` runs after each step, outside its time."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        outputs = self.workload.outputs
        self.attempted += len(outputs)
        times = []
        try:
            with tracer or contextlib.nullcontext():
                for step in self.workload.steps:
                    t0 = perf_counter()
                    step(self.out_dir, workers)
                    times.append(perf_counter() - t0)
                    if between is not None:
                        between()
        except Exception:
            traceback.print_exc()
            self.failed += len(outputs)
            return None
        digests = {}
        for out in outputs:
            problems = self._check(out, digests)
            if problems:
                self.failed += 1
                print(f"FAILED {self.workload.name}/{out.name}: "
                      + "; ".join(problems), file=sys.stderr)
        if self.first is None:
            self.first = digests
        return times

    def _check(self, out, digests: dict) -> list[str]:
        path = os.path.join(self.out_dir, out.name)
        try:
            digest = digests[out.name] = checks.sha256(path)
            problems = checks.structure_problems(path, out)
        except (OSError, ValueError) as exc:
            return [f"unreadable: {exc}"]
        if self.first is not None and digest != self.first.get(out.name):
            problems.append("bytes differ from the first repeat of this seed")
        if self.pinned and digest != self.pins.get(out.name):
            problems.append(f"sha256 {digest} != pinned {self.pins.get(out.name)}")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _until(seconds: float, minimum: int, step) -> None:
    deadline = perf_counter() + seconds
    done = 0
    while done < minimum or perf_counter() < deadline:
        step()
        done += 1


def _scaled(samples) -> float:
    """Median of time / calibration over (time, calibration) pairs, in
    seconds at the reference host speed."""
    if not samples:
        sys.exit("error: every repeat failed; nothing to measure")
    return REFERENCE_CAL_S * statistics.median(t / cal for t, cal in samples)


def _end_to_end(args, runner) -> dict:
    w = runner.workload
    # The calibration runs on the CPUs the body used: where this process
    # runs, or on every CPU in turn when a pool spreads the body over them.
    cpus = sorted(os.sched_getaffinity(0)) if w.workers > 1 else None
    for _ in range(WARMUP):
        runner.repeat(w.workers)
    # Per step of the body, (seconds, calibration seconds) pairs. The
    # calibration runs before the first step and after every step; a
    # step's is the mean of the two next to it.
    per_step = [[] for _ in w.steps]
    walls, setups = [], []
    children_kib = None
    cals = [calibrate(cpus)]
    start = perf_counter()

    def step():
        nonlocal children_kib
        del cals[:-1]
        times = runner.repeat(w.workers,
                              between=lambda: cals.append(calibrate(cpus)))
        if times is not None:
            walls.append(sum(times))
            for samples, t, before, after in zip(per_step, times, cals, cals[1:]):
                samples.append((t, (before + after) / 2))
        # Set-up probes follow the repeats through the window. Once one has
        # run, the children's peak is theirs too, so the pool workers' peak
        # is taken before the first.
        share = min(1.0, (perf_counter() - start) / args.seconds)
        if len(setups) < round(SETUP_PROBES * share):
            if children_kib is None:
                children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            while len(setups) < round(SETUP_PROBES * share):
                setups.append(_setup_sample(args))
            cals[-1] = calibrate(cpus)  # the next first step's, next to it

    _until(args.seconds, MIN_REPEATS, step)
    if children_kib is None:
        children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_sample(args))
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib
    wall = sum(_scaled(samples) for samples in per_step)
    print(f"samples: wall_s sum over {len(w.steps)} steps of the median of "
          f"{len(walls)} repeats, setup_s median of {len(setups)} fresh "
          f"processes, each scaled by its calibration to {REFERENCE_CAL_S} s")
    print(f"unscaled: wall median {statistics.median(walls):.4f} s "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); setup median "
          f"{statistics.median(t for t, _ in setups):.4f} s; calibration "
          f"median {statistics.median(c for _, c in per_step[0]):.4f} s")
    return {
        "setup_s": _scaled(setups),
        "wall_s": wall,
        "agent_steps_per_s": w.agent_steps / wall,
        "peak_rss_mb": kib / 1024,
        "ok_rate": 1.0 - runner.failed / runner.attempted,
    }


def _per_layer(args, runner) -> tuple[dict, bool]:
    import tracing
    plain, traced, tracers = [], [], []

    def pair():
        plain.append(runner.repeat(1))
        tracers.append(tracing.Tracer(args.seed))
        traced.append(runner.repeat(1, tracers[-1]))

    _until(args.seconds, 2, pair)
    per_repeat = [t.metrics() for t in tracers]
    differing = {k: sorted({m[k] for m in per_repeat}) for k in tracing.COUNTS}
    differing = {k: seen for k, seen in differing.items() if len(seen) > 1}
    for k, seen in differing.items():
        print(f"FAILED exact count {k} differs between traced repeats: {seen}",
              file=sys.stderr)
    metrics = {k: per_repeat[0][k] for k in tracing.COUNTS}
    for k in tracing.TIMES:
        metrics[k] = statistics.median(m[k] for m in per_repeat)
    traced, plain = ([sum(t) for t in times if t is not None]
                     for times in (traced, plain))
    if not traced or not plain:
        sys.exit("error: every traced or untraced repeat failed")
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.csv")
    tracing.write_spans(path, tracers[0])
    print(f"samples: {len(tracers)} traced and {len(plain)} untraced repeats, "
          f"one worker; spans of the first in {os.path.relpath(path, ROOT)}")
    return metrics, not differing


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}")
    runner = Runner(workloads.build(args.workload, args.seed, args.size),
                    args.seed, args.size)
    print("host: " + json.dumps(_host(), sort_keys=True))
    try:
        if args.trace:
            import tracing
            values, counts_repeat = _per_layer(args, runner)
            units = tracing.UNITS
        else:
            values, counts_repeat = _end_to_end(args, runner), True
            units = E2E_UNITS
    finally:
        runner.close()
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0 and counts_repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternate run_batch between two checkouts at named shapes, each sample in
a fresh process, and compare their process time, minor faults and peak RSS.

    python scripts/ab_shapes.py PARENT CHANGE [--pairs 10] [--steps N]
                                [--shapes large,fig8] [--seed 1]

PARENT and CHANGE are the roots of two checkouts of this repository; a
sample imports `possibly` from its checkout's src/ and times only the
run_batch calls of its shape. Pair i runs PARENT first when i is even and
CHANGE first when it is odd. The shapes (SHAPES):

- large: 2 runs of 1000 agents x 20 states at rho = 0.5, 150 steps, both
  models, trajectory capture (perfbench's `large`);
- dense50 and sparse50: 50 runs of 100 agents x 5 states at rho = 0.5 and
  at rho = 0.05, 300 steps, both models, final capture (the acceptance
  fixtures' batches);
- fig8: the fig8 preset's two trajectory batches of 2 runs x 750 steps
  (perfbench's `trajectory`);
- fig7: the fig7 preset's rho sweeps of both models at 3 runs per point
  and 100 steps, each dealt into two batches as two workers take them,
  final capture (the dense batches of perfbench's `sweep`).

Per shape it prints the median process time of each side, their ratio, in
how many pairs the change was faster, the median minor faults of the
batches, the largest ru_maxrss of the processes and, per side, how its
samples drew: "C" where the compiled draw (engine._DRAWS) was live in
every sample, "py" where in none (a checkout without it included), "mixed"
otherwise. It exits 1 if the two checkouts' metrics or degenerate counts
differ anywhere. Peak RSS moves with the length of the checkout's path, so
a warning says when the two paths differ in length.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

# name: (runs, agents, states, rho, steps, final capture); fig8 and fig7
# are built from their presets
SHAPES = {
    "large": (2, 1000, 20, 0.5, 150, False),
    "dense50": (50, 100, 5, 0.5, 300, True),
    "sparse50": (50, 100, 5, 0.05, 300, True),
    "fig8": None,
    "fig7": None,
}


def _batches(shape: str, steps: int | None, seed: int):
    """The (runs, final_only) batches of a shape, from the imported
    checkout."""
    from dataclasses import replace

    from possibly import (FrankParameter, SimParams, derive_run_seed,
                          harness, preset)

    if shape == "fig8":
        batches = []
        for part in preset(shape, seed=seed).parts:
            base = replace(part.spec.base, steps=steps or 750)
            batches.append(([replace(base, seed=derive_run_seed(seed, 0, r))
                             for r in range(2)], False))
        return batches
    if shape == "fig7":
        batches = []
        for part in preset(shape, seed=seed).parts:
            if part.stem.endswith("_rho_sweep"):
                runs = harness._runs_for(replace(
                    part.spec, runs=3,
                    base=replace(part.spec.base, steps=steps or 100)))
                batches += [([runs[i] for i in batch], True)
                            for batch in harness._batches(runs, 2)]
        return batches
    runs, agents, states, rho, default_steps, final = SHAPES[shape]
    return [([SimParams(agents=agents, states=states, rho=rho, sigma=0.3,
                        theta=FrankParameter(theta=20.0),
                        steps=steps or default_steps, model=model,
                        seed=seed + r) for r in range(runs)], final)
            for model in ("possibilistic", "probabilistic")]


def _sample(shape: str, steps: int | None, seed: int) -> dict:
    """Run one shape in this process: its process time, minor faults,
    ru_maxrss, the sha256 of its outputs, whether the compiled draw was
    live and the package it imported."""
    import resource
    import time

    import possibly
    from possibly import engine

    batches = _batches(shape, steps, seed)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    outputs = [engine.run_batch(runs, final_only=final)
               for runs, final in batches]
    cpu_s = time.process_time() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    digest = hashlib.sha256()
    for metrics, degenerate in outputs:
        digest.update(metrics.tobytes())
        digest.update(degenerate.tobytes())
    return {"cpu_s": cpu_s, "minflt": usage.ru_minflt - before,
            "maxrss_kb": usage.ru_maxrss, "sha256": digest.hexdigest(),
            "compiled": getattr(engine, "_DRAWS", None) is not None,
            "package": os.path.dirname(possibly.__file__)}


def _run_sample(checkout: str, shape: str, steps: int | None,
                seed: int) -> dict:
    """One sample in a fresh process that imports checkout's package."""
    src = os.path.join(checkout, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    argv = [sys.executable, os.path.abspath(__file__), "--sample", shape,
            "--seed", str(seed)]
    if steps:
        argv += ["--steps", str(steps)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout}: the {shape} sample failed\n"
                         + done.stderr)
    result = json.loads(done.stdout.splitlines()[-1])
    if os.path.realpath(result["package"]) != \
            os.path.realpath(os.path.join(src, "possibly")):
        raise SystemExit(f"{checkout}: imported {result['package']}")
    return result


def draw_path(samples: list[dict]) -> str:
    """How a side's samples drew: "C", "py" or "mixed"."""
    compiled = {s["compiled"] for s in samples}
    return "mixed" if len(compiled) > 1 else "C" if compiled.pop() else "py"


def summarize(shape: str, parent: list[dict], change: list[dict]) -> str:
    """One line of the table for a shape's paired samples; a SystemExit if
    their outputs differ."""
    hashes = {s["sha256"] for s in parent + change}
    if len(hashes) != 1:
        raise SystemExit(f"{shape}: the outputs differ ({len(hashes)} "
                         "distinct hashes)")
    p_ms = statistics.median(s["cpu_s"] for s in parent) * 1e3
    c_ms = statistics.median(s["cpu_s"] for s in change) * 1e3
    faster = sum(c["cpu_s"] < p["cpu_s"] for p, c in zip(parent, change))
    return (f"{shape:<9} {p_ms:10.1f} {c_ms:10.1f} {c_ms / p_ms:7.3f} "
            f"{faster:>4}/{len(parent):<3}"
            f"{statistics.median(s['minflt'] for s in parent):9.0f}"
            f"{statistics.median(s['minflt'] for s in change):9.0f}"
            f"{max(s['maxrss_kb'] for s in parent) / 1024:9.1f}"
            f"{max(s['maxrss_kb'] for s in change) / 1024:9.1f}"
            f"{draw_path(parent):>7}{draw_path(change):>7}")


def path_warning(parent: str, change: str) -> str | None:
    """A warning when the checkouts' absolute paths differ in length."""
    a, b = os.path.abspath(parent), os.path.abspath(change)
    if len(a) == len(b):
        return None
    return (f"warning: the checkout paths differ in length ({len(a)} and "
            f"{len(b)} characters); peak RSS moves with that length")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--steps", type=int, default=None,
                   help="steps per run instead of each shape's own")
    p.add_argument("--shapes", default=",".join(SHAPES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sample", choices=tuple(SHAPES), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.sample is None and args.change is None:
        p.error("PARENT and CHANGE are required")
    if args.pairs < 1 or (args.steps is not None and args.steps < 1):
        p.error("--pairs and --steps must be >= 1")
    args.shapes = args.shapes.split(",")
    unknown = set(args.shapes) - set(SHAPES)
    if unknown:
        p.error(f"unknown shapes: {', '.join(sorted(unknown))}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.sample:
        print(json.dumps(_sample(args.sample, args.steps, args.seed)))
        return 0
    warning = path_warning(args.parent, args.change)
    if warning:
        print(warning, file=sys.stderr)
    print(f"{'shape':<9} {'parent ms':>10} {'change ms':>10} {'ratio':>7} "
          f"{'faster':>8}{'minflt p':>9}{'minflt c':>9}{'rss MB p':>9}"
          f"{'rss MB c':>9}{'draw p':>7}{'draw c':>7}")
    for shape in args.shapes:
        sides = ([], [])  # the parent's samples, then the change's
        for i in range(args.pairs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                sides[side].append(_run_sample(
                    (args.parent, args.change)[side], shape, args.steps,
                    args.seed))
        print(summarize(shape, *sides), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: single runs, sweeps, figure presets, and the
worked three-state example.

Flag values override config-file values, which override the documented
defaults (the fig4a parameterisation). `--seed` must be given explicitly
for `run` and `sweep` so results are always reproducible on purpose.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, replace

from .engine import (
    ADOPT_BOTH,
    ADOPT_RANDOM_ONE,
    METRICS,
    POSSIBILISTIC,
    PROBABILISTIC,
    SimParams,
)
from .harness import (
    DEFAULT_PARAMS,
    DEFAULT_RUNS,
    DEFAULT_SEED,
    PRESET_NAMES,
    SWEEP_PARAMS,
    SweepSpec,
    apply_param,
    collect_trajectories,
    emit_csv,
    run_preset,
    sweep,
    trajectory_header,
    trajectory_rows,
)
from .possibility import (
    FrankParameter,
    PossibilityDistribution,
    StateSubset,
    consistency,
    frank_tnorm,
    fuse,
    necessity_measure,
    pignistic,
    possibility_measure,
)

__all__ = ["CliConfig", "cmd_example", "main", "parse_args"]

OUT_ENV_VAR = "POSSIBLY_OUT"

# Every option of `run` and `sweep`, in flag order. The long flag is also
# the config key; it maps to the option's type or tuple of choices and to
# the SimParams field it sets (None for options resolved on their own). The
# sweepable parameters and their defaults come from the harness.
_OPTIONS = {
    **{key: (cast, field) for key, (field, cast) in SWEEP_PARAMS.items()},
    "runs": (int, None),
    "seed": (int, None),
    "model": ((POSSIBILISTIC, PROBABILISTIC), "model"),
    "fusion": (("on", "off"), "fusion_enabled"),
    "fusion-adoption": ((ADOPT_BOTH, ADOPT_RANDOM_ONE), "fusion_adoption"),
    "workers": (int, None),
    "out": (str, None),
}

# Range checks: flag -> (test, diagnostic). A value is rejected unless its
# test holds, so NaN fails every check. theta is checked by FrankParameter.
_RANGES = {
    "agents": (lambda v: v >= 2, "need at least 2 agents"),
    "states": (lambda v: v >= 2, "need at least 2 states"),
    "evidence-rate": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "noise": (lambda v: 0.0 <= v < math.inf, "must be finite and >= 0"),
    "steps": (lambda v: v >= 0, "must be >= 0"),
    "runs": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: 0 <= v < 2 ** 64, "must be a 64-bit unsigned integer"),
    "workers": (lambda v: v >= 1, "must be >= 1"),
}


@dataclass(frozen=True)
class CliConfig:
    """A fully resolved invocation, ready to dispatch."""

    command: str
    params: SimParams | None = None
    runs: int = 1
    workers: int = 1
    out: str = "."
    sweep_param: str | None = None
    sweep_grid: tuple = ()
    preset_name: str | None = None
    seed: int = DEFAULT_SEED


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token as an argument, not an unknown option, when
        # this matches it. No option here starts with a digit, so a minus
        # before a digit or a point and a digit begins a number: a grid such
        # as -1,1 or -1e-3,1, or a value such as --theta -1e-3.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # one-line diagnostics instead of usage dumps
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _fail(flag: str, message: str):
    print(f"error: {flag}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _add_options(parser, keys) -> None:
    for key in keys:
        kind = _OPTIONS[key][0]
        if isinstance(kind, tuple):
            parser.add_argument(f"--{key}", choices=kind, default=None)
        else:
            parser.add_argument(f"--{key}", type=kind, default=None)


def _build_parser() -> _Parser:
    top = _Parser(prog="possibly", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    p_sweep.add_argument("param", choices=tuple(SWEEP_PARAMS))
    p_sweep.add_argument("grid", help="comma-separated values, e.g. 0.1,1,10")
    for p in (p_run, p_sweep):
        _add_options(p, _OPTIONS)
        p.add_argument("--config", default=None)

    p_preset = sub.add_parser("preset", help="reproduce a stock experiment")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    _add_options(p_preset, ("out", "workers", "seed"))

    sub.add_parser("example", help="print the worked three-state example")
    return top


def _read_config(path: str) -> dict:
    try:
        # utf-8-sig drops the byte-order mark some editors write
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        _fail("--config",
              f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
    mapping = {}
    for ln, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, eq, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            _fail("--config", f"line {ln}: expected `key = value`")
        if key not in _OPTIONS:
            _fail("--config", f"line {ln}: unknown key {key!r}")
        mapping[key] = value
    return mapping


def _cast_config(key: str, raw: str):
    kind = _OPTIONS[key][0]
    if isinstance(kind, tuple):
        if raw in kind:
            return raw
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    _fail(f"--{key}", f"invalid value {raw!r} (from config file)")


def _resolve(args, config: dict, key: str):
    """The flag's value, else the config file's, else None."""
    flag_value = getattr(args, key.replace("-", "_"), None)
    if flag_value is not None:
        return flag_value
    if key in config:
        return _cast_config(key, config[key])
    return None


def _checked(key: str, value):
    if key in _RANGES:
        test, message = _RANGES[key]
        if not test(value):
            _fail(f"--{key}", message)
    return value


def _resolved_params(args, config: dict, seed: int) -> SimParams:
    """DEFAULT_PARAMS with every field that a flag or config entry sets."""
    given = {key: _resolve(args, config, key)
             for key, (_, field) in _OPTIONS.items() if field}
    given = {key: _checked(key, value)
             for key, value in given.items() if value is not None}
    params = replace(DEFAULT_PARAMS, seed=seed)
    for key, value in given.items():
        try:
            if key in SWEEP_PARAMS:
                params = apply_param(params, key, value)
            else:
                field = _OPTIONS[key][1]
                value = value == "on" if key == "fusion" else value
                params = replace(params, **{field: value})
        except ValueError as exc:
            _fail(f"--{key}", str(exc))
    return params


def _resolve_seed(args, config: dict, required: bool) -> int:
    seed = _resolve(args, config, "seed")
    if seed is None:
        if required:
            _fail("--seed", "required; pass an explicit seed for reproducibility")
        seed = DEFAULT_SEED
    return _checked("seed", seed)


def _resolve_count(args, config: dict, key: str, default: int) -> int:
    value = _resolve(args, config, key)
    return _checked(key, default if value is None else value)


def _resolve_out(args, config: dict) -> str:
    out = getattr(args, "out", None)
    if out is None:
        out = config.get("out")
    if out is None:
        out = os.environ.get(OUT_ENV_VAR)
    return out or "."


def parse_args(argv=None) -> CliConfig:
    """Parse and fully resolve an invocation; raises SystemExit on any
    invalid flag, config entry, or out-of-range value."""
    args = _build_parser().parse_args(argv)

    if args.command == "example":
        return CliConfig(command="example")

    config = _read_config(args.config) if getattr(args, "config", None) else {}
    workers = _resolve_count(args, config, "workers", default=1)

    if args.command == "preset":
        seed = _resolve_seed(args, config, required=False)
        return CliConfig(command="preset", preset_name=args.name,
                         workers=workers, out=_resolve_out(args, config),
                         seed=seed)

    seed = _resolve_seed(args, config, required=True)
    params = _resolved_params(args, config, seed)
    out = _resolve_out(args, config)

    if args.command == "run":
        runs = _resolve_count(args, config, "runs", default=1)
        return CliConfig(command="run", params=params, runs=runs,
                         workers=workers, out=out, seed=seed)

    runs = _resolve_count(args, config, "runs", default=DEFAULT_RUNS)
    grid = _parse_grid(params, args.param, args.grid)
    return CliConfig(command="sweep", params=params, runs=runs,
                     workers=workers, out=out, sweep_param=args.param,
                     sweep_grid=grid, seed=seed)


def _parse_grid(base: SimParams, param: str, text: str) -> tuple:
    cast = SWEEP_PARAMS[param][1]
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(cast(piece))
        except ValueError:
            _fail("grid", f"invalid value {piece!r} for {param}")
    if not values:
        _fail("grid", "needs at least one value")
    for value in values:
        try:
            apply_param(base, param, value)
        except ValueError as exc:
            _fail("grid", str(exc))
    return tuple(values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(cfg: CliConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)  # fail before simulating
    spec = SweepSpec(base=cfg.params, runs=cfg.runs, capture="trajectory")
    trajectories = collect_trajectories(spec, cfg.workers)
    path = os.path.join(cfg.out, "run_trajectory.csv")
    emit_csv(trajectory_rows(trajectories), path,
             trajectory_header(cfg.params.model))
    finals = trajectories[:, -1].T.tolist()  # one list of run values per metric
    summary = " ".join(f"{name}={sum(col) / len(col):.4f}"
                       for name, col in zip(METRICS[cfg.params.model], finals))
    print(f"wrote {path}")
    print(f"final ({cfg.runs} run{'s' if cfg.runs != 1 else ''}): {summary}")
    return 0


def _cmd_sweep(cfg: CliConfig) -> int:
    spec = SweepSpec(base=cfg.params, param=cfg.sweep_param,
                     grid=cfg.sweep_grid, runs=cfg.runs, capture="final")
    os.makedirs(cfg.out, exist_ok=True)  # fail before simulating
    records = sweep(spec, cfg.workers)
    path = os.path.join(cfg.out, f"sweep_{cfg.sweep_param.replace('-', '_')}.csv")
    emit_csv(records, path)
    print(f"wrote {path}")
    return 0


def _cmd_preset(cfg: CliConfig) -> int:
    for path in run_preset(cfg.preset_name, cfg.out, workers=cfg.workers,
                           seed=cfg.seed):
        print(f"wrote {path}")
    return 0


def cmd_example() -> str:
    """The worked three-state example, computed live and formatted to four
    decimal places. Doubles as an end-to-end smoke test of the library."""
    pi1 = PossibilityDistribution((1.0, 0.8, 0.7))
    pi2 = PossibilityDistribution((0.4, 0.9, 1.0))
    theta = FrankParameter(theta=10.0)

    def row(values):
        return ", ".join(f"{v:.4f}" for v in values)

    best_two = StateSubset((2, 3))
    worst_one = StateSubset((1,))
    ignorance = [
        possibility_measure(pi1, StateSubset((s,)))
        - necessity_measure(pi1, StateSubset((s,)))
        for s in (1, 2, 3)
    ]
    tnorm = [frank_tnorm(theta, a, b) for a, b in zip(pi1.values, pi2.values)]
    fused = fuse(theta, pi1, pi2)
    normaliser = 1.0 - consistency(theta, pi1, pi2)

    lines = [
        "Three states; two agents hold possibility distributions:",
        f"  pi1 = {row(pi1.values)}",
        f"  pi2 = {row(pi2.values)}",
        "",
        "Measures under pi1:",
        f"  Pi({{s2,s3}}) = {possibility_measure(pi1, best_two):.4f}",
        f"  N({{s1}})     = {necessity_measure(pi1, worst_one):.4f}",
        f"  ignorance Pi({{s}})-N({{s}}) = {row(ignorance)}",
        f"  pignistic = {row(pignistic(pi1).values)}",
        "",
        "Fusing pi1 and pi2 with the Frank t-norm at theta = 10:",
        f"  T(pi1, pi2) = {row(tnorm)}",
        f"  normaliser 1 - max T = {normaliser:.4f}",
        f"  fused = {row(fused.values)}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if cfg.command == "example":
            print(cmd_example())
            return 0
        if cfg.command == "run":
            return _cmd_run(cfg)
        if cfg.command == "sweep":
            return _cmd_sweep(cfg)
        return _cmd_preset(cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: single runs, sweeps, figure presets, and the
worked three-state example.

Flag values override config-file values, which override the documented
defaults (the fig4a parameterisation). `--seed` must be given explicitly
for `run` and `sweep` so results are always reproducible on purpose.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace

from .engine import METRICS, OPTIONS, SimParams
from .harness import (
    DEFAULT_PARAMS,
    DEFAULT_RUNS,
    DEFAULT_SEED,
    PRESET_NAMES,
    SWEEP_PARAMS,
    SweepSpec,
    _EXAMPLE,
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

@dataclass(frozen=True)
class CliConfig:
    """A fully resolved invocation, ready to dispatch."""

    command: str
    spec: SweepSpec | None = None  # the experiment of `run` or `sweep`
    workers: int = 1
    out: str = "."
    preset_name: str | None = None
    seed: int = DEFAULT_SEED


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix of a flag stands for it, as no prefix of a config key
        # does; the subcommands' parsers are of this class too
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse reads a token as an argument, not an unknown option, when
        # this matches it. No option here starts with a digit, i or n, so a
        # minus before a digit, a point and a digit, inf or nan begins a
        # number that float() reads: a grid such as -1,1, -1e-3,1 or -inf,1,
        # or a value such as --theta -1e-3 or --theta -Infinity.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    # one-line diagnostics instead of usage dumps
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _fail(flag: str, message: str):
    print(f"error: {flag}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _add_options(parser, keys) -> None:
    for key in keys:
        kind = OPTIONS[key].kind
        if isinstance(kind, dict):
            parser.add_argument(f"--{key}", choices=tuple(kind), default=None)
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
        _add_options(p, OPTIONS)
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
        if key not in OPTIONS:
            _fail("--config", f"line {ln}: unknown key {key!r}")
        if key in mapping:
            _fail("--config", f"line {ln}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _cast_config(key: str, raw: str):
    kind = OPTIONS[key].kind
    if isinstance(kind, dict):
        if raw in kind:
            return raw
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    _fail(f"--{key}", f"invalid value {raw!r} (from config file)")


def _resolve(args, config: dict, key: str, default=None):
    """The flag's value, else the config file's, else default; a value
    given is checked against the option's range."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None and key in config:
        value = _cast_config(key, config[key])
    if value is None:
        return default
    option = OPTIONS[key]
    if not option.in_range(value):
        _fail(f"--{key}", option.message)
    return value


def _resolved_params(args, config: dict, seed: int) -> SimParams:
    """DEFAULT_PARAMS with every field that a flag or config entry sets.
    Every value is range-checked before any is applied."""
    given = {key: _resolve(args, config, key) for key, option in OPTIONS.items()
             if option.field not in (None, "seed")}
    params = replace(DEFAULT_PARAMS, seed=seed)
    for key, value in given.items():
        if value is None:
            continue
        option = OPTIONS[key]
        try:
            if isinstance(option.kind, dict):
                params = replace(params, **{option.field: option.kind[value]})
            else:
                params = apply_param(params, key, value)
        except ValueError as exc:  # theta, which FrankParameter checks
            _fail(f"--{key}", str(exc))
    return params


def _resolve_out(args, config: dict) -> str:
    out = _resolve(args, config, "out")
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
    workers = _resolve(args, config, "workers", default=1)
    seed = _resolve(args, config, "seed")

    if args.command == "preset":
        return CliConfig(command="preset", preset_name=args.name,
                         workers=workers, out=_resolve_out(args, config),
                         seed=DEFAULT_SEED if seed is None else seed)

    if seed is None:
        _fail("--seed", "required; pass an explicit seed for reproducibility")
    params = _resolved_params(args, config, seed)
    out = _resolve_out(args, config)

    if args.command == "run":
        runs = _resolve(args, config, "runs", default=1)
        spec = SweepSpec(base=params, runs=runs, capture="trajectory")
    else:
        runs = _resolve(args, config, "runs", default=DEFAULT_RUNS)
        grid = _parse_grid(args.param, args.grid)
        try:
            spec = SweepSpec(base=params, param=args.param, grid=grid, runs=runs)
        except ValueError as exc:
            _fail("grid", str(exc))
    return CliConfig(command=args.command, spec=spec, workers=workers, out=out,
                     seed=seed)


def _parse_grid(param: str, text: str) -> tuple:
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
    return tuple(values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(cfg: CliConfig) -> int:
    spec = cfg.spec
    os.makedirs(cfg.out, exist_ok=True)  # fail before simulating
    trajectories = collect_trajectories(spec, cfg.workers)
    path = os.path.join(cfg.out, "run_trajectory.csv")
    emit_csv(trajectory_rows(trajectories), path,
             trajectory_header(spec.base.model))
    finals = trajectories[:, -1].T.tolist()  # one list of run values per metric
    summary = " ".join(f"{name}={sum(col) / len(col):.4f}"
                       for name, col in zip(METRICS[spec.base.model], finals))
    print(f"wrote {path}")
    print(f"final ({spec.runs} run{'s' if spec.runs != 1 else ''}): {summary}")
    return 0


def _cmd_sweep(cfg: CliConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)  # fail before simulating
    records = sweep(cfg.spec, cfg.workers)
    path = os.path.join(cfg.out, f"sweep_{cfg.spec.param.replace('-', '_')}.csv")
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
    pi1, pi2 = _EXAMPLE
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
    except (ValueError, OSError, BrokenExecutor, MemoryError) as exc:
        # a pool worker that dies breaks the pool before its part's CSV is
        # written; numpy's MemoryError names the allocation it could not
        # make, and Python's has no message
        message = str(exc)
        if not message and isinstance(exc, MemoryError):
            message = "out of memory"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Discrete-time population simulation: pairwise belief fusion plus evidential updating.

A well-stirred population of k agents tries to identify the best of n states.
Each time step has two phases. Phase 1 (when fusion is enabled): one pair of
distinct agents is drawn uniformly at random and fuses beliefs; by default
both members adopt the fused belief. Phase 2: every agent picks a state to
investigate by sampling from the betting distribution of its current belief,
and with probability rho (the evidence rate) receives a noisy quality
observation of that state and fuses the corresponding evidence distribution
into its belief.

Runs are deterministic functions of their parameters. Each run owns a
counter-based Philox stream seeded from SimParams.seed, and every step
consumes draws from that run's stream on a fixed schedule regardless of
outcomes:

    fusion on:  agent index i ~ integers(k), partner j ~ integers(k-1)
                shifted past i; with random-one adoption, one extra
                integers(2) picks the adopter
    always:     k state-selection uniforms, then k evidence-success
                uniforms, then k noise variates (drawn even where the
                success draw failed or sigma = 0)

so that changing rho or sigma alone never reorders the remaining stream.

_sim_step keeps that schedule, down to each generator's full state after
every step, with two Generator calls per run: one random(2k) fill, which
draws the state and then the success uniforms as two random(k) calls do,
and standard_normal(k). Each integers(bound) draw is numpy's own algorithm
replayed in _bounded: Lemire's multiply-shift (x * bound) >> 32 on the next
32-bit draw x of the bit generator, taken through its ctypes next_uint32
(the low half of a fresh 64-bit word, the next call its buffered high
half), and redrawn while the product's low 32 bits fall below
2**32 % bound. The half-word buffer, a buffered half left for the next
step, and every rejection are therefore numpy's own; integers(1) (k = 2)
draws nothing.

Runs that share their shape (every SimParams field except rho, sigma,
seed and the value of theta within its Frank branch, see lockstep_key)
advance in lockstep: R of them are one (R, k, n) array, stepped together,
while each draws from its own stream on the schedule above. Every row
kernel does elementwise or rowwise arithmetic only, so a run's metrics are
bit-identical whichever batch it is in; run() is the batch of one.

Only the agents that take evidence read the state they investigate, so
_sim_step computes betting rows (the pignistic transform of a possibility
distribution; in the probabilistic model the belief itself) and draws
states for those agents alone, from their beliefs after the pair fusion.
Both kernels are rowwise and every agent's uniform is still drawn, so each
of them gets the state, bit for bit, that a draw for every agent gives it.

Which agents a step touches, the fused pair and the agents whose success
uniform falls below rho, is fixed by the draws and not by the beliefs. So a
sparse batch, whose expected evidence rows per step (the sum of rho * k over
its runs) fall below _SPARSE_ROWS, is stepped by dependency level
(_run_levels) rather than one _sim_step at a time (_run_steps):

- a window of steps is drawn ahead, every run on the schedule above;
- each event, a pair fusion or one agent's evidence, gets a level one past
  the highest level of any agent it reads or writes, and gives that level to
  those agents. A step's pair comes before its evidence, so an adopter's
  evidence waits one level; events that share a level touch disjoint agents;
- each level is one pass of the row kernels over all of its events, of many
  steps and runs: betting rows, states and evidence rows for its evidence
  events, then one _fuse_rows or _product_rows call for its pairs and
  evidence rows together. Every kernel is rowwise, so each event gets the
  bits that the step loop gives it;
- each step's metrics are rebuilt from per-agent columns (the last state's
  degree, and the largest of the others), advanced by the window's writes in
  step order and reduced over agents as _metrics_from_array reduces them.

At the paper's population (100 agents, 5 states, rho = 0.05) a step of one
or two runs fuses about a dozen rows in some 140 numpy calls, and a window
of 32 steps of 2 runs takes about 8 passes instead of 64. The constants, as
measured on a 2-vCPU host (time by level over time step by step, at 100
agents and 5 states, both models and both capture modes):

- _SPARSE_ROWS = 256 sits at the crossover: 2 runs at rho = 0.05 (10 rows)
  take 0.42-0.56; 50 runs (250 rows) 0.85-0.99; 60 runs (300 rows)
  0.87-0.93; 100 runs (500 rows) 0.97-1.08; 3 runs at rho = 1 (300 rows),
  where every agent takes evidence every step, 0.87-1.17.
- _WINDOW_STEPS = 32: passes per step fall with the window and level off;
  2 possibilistic runs with trajectories take 0.51, 0.44, 0.40 and 0.39
  with windows of 16, 32, 64 and 128 steps, while the draws held grow.
- _WINDOW_DRAWS = 2**17 caps a window's draws, 24 bytes per agent and
  step, at 3 MiB where runs or agents are many (26 steps at 50 runs of 100
  agents); 32 steps of 2 runs draw 150 kB.

A batch's metrics are one (R, steps + 1, m) array whose last axis holds the
METRICS[model] columns, in that order, and its degenerate product fusions
one (R,) count array; run() returns a batch of one's row of each.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .environment import EnvironmentSpec, _evidence_rows
from .possibility import (
    FrankParameter,
    _frank_branch,
    _FrankRows,
    _fuse_rows,
    _pignistic_rows,
)
from .probability import _draw_states_rows, _product_rows

__all__ = [
    "METRICS",
    "OPTIONS",
    "Option",
    "POSSIBILISTIC",
    "PROBABILISTIC",
    "SimParams",
    "check_fields",
    "lockstep_key",
    "run",
    "run_batch",
]

POSSIBILISTIC = "possibilistic"
PROBABILISTIC = "probabilistic"

ADOPT_BOTH = "both"
ADOPT_RANDOM_ONE = "random-one"

_TWO32 = 1 << 32
_LOW32 = _TWO32 - 1

# run_batch steps a batch by dependency level when its expected evidence
# rows per step, the sum of rho * k over its runs, fall below this; the
# steps that one window draws ahead, and the most agent steps (R * k per
# step) that it may draw. The module docstring gives their measurements.
_SPARSE_ROWS = 256
_WINDOW_STEPS = 32
_WINDOW_DRAWS = 1 << 17

# The metric columns of each model: the agent averages of Pi({s_n}) and
# N({s_n}), or of p(s_n).
METRICS = {
    POSSIBILISTIC: ("mean_poss_best", "mean_nec_best"),
    PROBABILISTIC: ("mean_prob_best",),
}


class Option:
    """One option of `possibly run` and `sweep`, keyed in OPTIONS by its
    flag, which is also its config key: the SimParams field it sets, its
    kind (int, float or str, or a dict from choice to value), its range
    low <= value <= high, which NaN is not in (no range if low is None),
    and the CLI's words for a value out of range."""

    __slots__ = ("field", "kind", "low", "high", "message")

    def __init__(self, field: str | None, kind: type | dict,
                 low: float | None = None, high: float | None = None,
                 message: str | None = None) -> None:
        self.field, self.kind = field, kind
        self.low, self.high, self.message = low, high, message

    def in_range(self, value) -> bool:
        return self.low is None or self.low <= value <= self.high


def check_fields(obj, fields) -> None:
    """Check obj's fields, (name, Option) pairs, against their options and
    store integers as Python ints (numpy ones included). A ValueError names
    the field; its message is the CLI's after the name, except "need at
    least ...", which reads the same alone."""
    for name, option in fields:
        value, kind = getattr(obj, name), option.kind
        if kind is int and value.__class__ is not int:
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            object.__setattr__(obj, name, value)
        elif kind.__class__ is dict:
            if value not in kind.values():
                raise ValueError(f"unknown {name.replace('_', ' ')}: {value!r}")
            continue
        try:
            if option.in_range(value):
                continue
        except TypeError:  # a str or None where a number belongs
            raise ValueError(f"{name} must be a number") from None
        message = option.message
        raise ValueError(message if message.startswith("need ")
                         else f"{name} {message}")


# Every option of `run` and `sweep`, in --help order. theta is checked
# where it is wrapped into a FrankParameter, after every range test.
OPTIONS = {
    "agents": Option("agents", int, 2, math.inf, "need at least 2 agents"),
    "states": Option("states", int, 2, math.inf, "need at least 2 states"),
    "evidence-rate": Option("rho", float, 0.0, 1.0, "must lie in [0, 1]"),
    "noise": Option("sigma", float, 0.0, sys.float_info.max,
                    "must be finite and >= 0"),
    "theta": Option("theta", float),
    "steps": Option("steps", int, 0, math.inf, "must be >= 0"),
    "runs": Option(None, int, 1, math.inf, "must be >= 1"),
    "seed": Option("seed", int, 0, 2 ** 64 - 1,
                   "must be a 64-bit unsigned integer"),
    "model": Option("model", {m: m for m in (POSSIBILISTIC, PROBABILISTIC)}),
    "fusion": Option("fusion_enabled", {"on": True, "off": False}),
    "fusion-adoption": Option("fusion_adoption",
                              {a: a for a in (ADOPT_BOTH, ADOPT_RANDOM_ONE)}),
    "workers": Option(None, int, 1, math.inf, "must be >= 1"),
    "out": Option(None, str),
}
_FIELD_OPTIONS = tuple((o.field, o) for o in OPTIONS.values() if o.field)


@dataclass(frozen=True)
class SimParams:
    """Everything that determines one run, including its random stream.
    OPTIONS states each field's type and range."""

    agents: int
    states: int
    rho: float
    sigma: float
    theta: FrankParameter
    steps: int
    model: str
    seed: int
    fusion_enabled: bool = True
    fusion_adoption: str = ADOPT_BOTH

    def __post_init__(self) -> None:
        check_fields(self, _FIELD_OPTIONS)
        if not isinstance(self.theta, FrankParameter):
            raise ValueError("theta must be a FrankParameter")


# ---------------------------------------------------------------------------
# population array helpers
# ---------------------------------------------------------------------------

# stands in for every theta in a lockstep key, whose branch names the kernel
_BLANK_THETA = FrankParameter(limit="product")


def lockstep_key(params: SimParams) -> tuple[SimParams, str]:
    """What runs must share to advance in one batch: every field but the
    per-run rho, sigma, seed and theta, which are blanked, and theta's Frank
    branch (min, lukasiewicz, product, positive or negative), which selects
    the t-norm expression."""
    return (replace(params, rho=0.0, sigma=0.0, seed=0, theta=_BLANK_THETA),
            _frank_branch(params.theta))


def _initial_beliefs(params: SimParams, runs: int = 1) -> np.ndarray:
    """All agents of `runs` populations fully ignorant, as a (runs, k, n)
    array: vacuous possibility rows or uniform rows."""
    shape = (runs, params.agents, params.states)
    if params.model == POSSIBILISTIC:
        return np.ones(shape)
    return np.full(shape, 1.0 / params.states)


def _bounded(bits: np.random.BitGenerator, bound: int) -> int:
    """Generator.integers(bound), 1 <= bound <= 2**32, on bits' stream: the
    same value, and the same 32-bit draws consumed (see the module
    docstring). Unlike a Generator method it does not take bits.lock, so
    no other thread may draw from the stream meanwhile."""
    bound = operator.index(bound)  # exact integer products, whatever type
    if bound == 1:
        return 0
    next_uint32, state = bits.ctypes.next_uint32, bits.ctypes.state
    m = next_uint32(state) * bound
    while m & _LOW32 < _TWO32 % bound:
        m = next_uint32(state) * bound
    return m >> 32


def _draw_step(rngs: Sequence[np.random.Generator], params: SimParams,
               pairs: list, u: np.ndarray, eps: np.ndarray) -> None:
    """Every run's draws for one step, in its stream's order: with fusion,
    a pair of distinct agents, uniform over ordered and hence unordered
    pairs (j is shifted past i), and with random-one adoption the adopter,
    appended to pairs as (i, j, adopter); then the state and success
    uniforms into u, (R, 2, k), and the normals into eps, (R, k)."""
    k = params.agents
    random_one = params.fusion_adoption == ADOPT_RANDOM_ONE
    for r, rng in enumerate(rngs):
        if params.fusion_enabled:
            bits = rng.bit_generator
            i = _bounded(bits, k)
            j = _bounded(bits, k - 1)
            j += j >= i
            pairs.append((i, j, (i, j)[_bounded(bits, 2)] if random_one else i))
        rng.random(out=u[r])
        rng.standard_normal(out=eps[r])


def _sim_step(b: np.ndarray, params: SimParams, qualities: np.ndarray,
              rho: np.ndarray, sigma: np.ndarray, theta: _FrankRows,
              rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Advance R same-shape populations, a (R, k, n) array, one step in
    place. params gives the shared shape; rho, sigma, theta (an (R, 1)
    column, or a scalar when all runs share it) and rngs hold one entry
    per run. Betting rows and states are computed for the agents that take
    evidence alone (see the module docstring). Returns each run's number of
    degenerate product fusions."""
    r_count, k, n = b.shape
    possibilistic = params.model == POSSIBILISTIC
    degenerate = np.zeros(r_count, dtype=np.int64)
    run_rows = np.arange(r_count)

    pairs = []  # i, j, adopter per run
    u = np.empty((r_count, 2, k))  # state, then success uniforms
    eps = np.empty((r_count, k))
    _draw_step(rngs, params, pairs, u, eps)
    u_state, u_succ = u[:, 0], u[:, 1]

    if params.fusion_enabled:
        pairs = np.array(pairs)
        bi, bj = b[run_rows, pairs[:, 0]], b[run_rows, pairs[:, 1]]
        if possibilistic:
            fused = _fuse_rows(theta, bi, bj)
        else:
            fused, bad = _product_rows(bi, bj)
            degenerate += bad
        adopters = (run_rows[:, None],
                    pairs[:, :2] if params.fusion_adoption == ADOPT_BOTH
                    else pairs[:, 2:])
        b[adopters] = fused[:, None]

    # the R populations as R*k agent rows (a view, so writes land in b)
    rows_b = b.reshape(r_count * k, n)
    rows = (u_succ < rho[:, None]).ravel().nonzero()[0]
    if rows.size:
        runs = rows // k  # the run of each row that took evidence
        x = rows_b[rows]
        si = _draw_states_rows(_pignistic_rows(x) if possibilistic else x,
                               u_state.reshape(-1)[rows])
        qhat = qualities[si] + sigma[runs] * eps.reshape(-1)[rows]
        np.minimum(np.maximum(qhat, 0.0, out=qhat), 1.0, out=qhat)
        ev = _evidence_rows(possibilistic, n, si, qhat)
        if possibilistic:
            rows_b[rows] = _fuse_rows(theta.take(runs), x, ev)
        else:
            rows_b[rows], bad = _product_rows(x, ev)
            if bad.any():
                degenerate += np.bincount(runs[bad], minlength=r_count)
    return degenerate


def _metrics_from_array(b: np.ndarray, model: str) -> np.ndarray:
    """The METRICS[model] columns of each population of a (R, k, n) array,
    as an (R, m) array."""
    r_count, k, n = b.shape
    out = np.empty((r_count, len(METRICS[model])))
    # agent means as ndarray.mean takes them: a sum, then one division
    np.add.reduce(b[:, :, -1], axis=1, out=out[:, 0])
    if model == POSSIBILISTIC:
        # max is exact, so a running max over the columns equals max(axis=2)
        top = b[:, :, 0].copy()
        for s in range(1, n - 1):
            np.maximum(top, b[:, :, s], out=top)
        np.add.reduce(np.subtract(1.0, top, out=top), axis=1, out=out[:, 1])
    out /= k
    return out


def _sparse(runs: Sequence[SimParams]) -> bool:
    """Whether run_batch steps the batch runs by dependency level: whether
    their expected evidence rows per step, the sum of rho * k, fall below
    _SPARSE_ROWS."""
    return sum(p.rho for p in runs) * runs[0].agents < _SPARSE_ROWS


def _run_steps(b: np.ndarray, params: SimParams, qualities: np.ndarray,
               rho: np.ndarray, sigma: np.ndarray, theta: _FrankRows,
               rngs: Sequence[np.random.Generator],
               metrics: np.ndarray) -> np.ndarray:
    """Run the batch b to params.steps one _sim_step at a time, writing
    every step's metrics, or with one metrics row the last step's alone,
    into metrics. Returns each run's degenerate fusion count."""
    final_only = metrics.shape[1] == 1
    degenerate = np.zeros(b.shape[0], dtype=np.int64)
    for t in range(params.steps + 1):
        if t:
            degenerate += _sim_step(b, params, qualities, rho, sigma, theta,
                                    rngs)
        if not final_only or t == params.steps:
            metrics[:, -1 if final_only else t] = _metrics_from_array(
                b, params.model)
    return degenerate


def _run_levels(b: np.ndarray, params: SimParams, qualities: np.ndarray,
                rho: np.ndarray, sigma: np.ndarray, theta: _FrankRows,
                rngs: Sequence[np.random.Generator],
                metrics: np.ndarray) -> np.ndarray:
    """_run_steps by dependency level (see the module docstring), to the
    same beliefs, metrics, counts and generator states."""
    r_count, k, n = b.shape
    rk = r_count * k
    possibilistic = params.model == POSSIBILISTIC
    fusion = params.fusion_enabled
    random_one = params.fusion_adoption == ADOPT_RANDOM_ONE
    trajectory = metrics.shape[1] > 1
    rows_b = b.reshape(rk, n)
    degenerate = np.zeros(r_count, dtype=np.int64)
    if trajectory:
        metrics[:, 0] = _metrics_from_array(b, params.model)
        # each agent's METRICS columns: its last degree, then the largest
        # of its others
        columns = [rows_b[:, -1].copy()]
        if possibilistic:
            columns.append(rows_b[:, :-1].max(axis=1))
    span = max(1, min(params.steps, _WINDOW_STEPS, _WINDOW_DRAWS // rk))
    u = np.empty((span, r_count, 2, k))  # state, then success uniforms
    eps = np.empty((span, r_count, k))
    # a step raises the highest level by at most 2, so 2 * span fits
    level_type = np.min_scalar_type(2 * span)
    agent_level = np.empty(rk, dtype=level_type)
    run_base = np.arange(r_count) * k
    for t0 in range(0, params.steps, span):
        w = min(span, params.steps - t0)

        # every run's draws for the window, step by step; pairs[t, r]
        # holds the rows i, j and the adopter of run r's pair at step t
        pairs = []
        for t in range(w):
            _draw_step(rngs, params, pairs, u[t], eps[t])
        pairs = np.array(pairs, dtype=np.intp).reshape(w, -1, 3)
        pairs += run_base[:pairs.shape[1], None]  # no runs without fusion
        # evidence event f is agent row f % rk at step f // rk
        f = (u[:w, :, 1] < rho[:, None]).ravel().nonzero()[0]
        e_row = f % rk
        e_ends = np.searchsorted(f, np.arange(w + 1) * rk)

        # each event's level, one past the highest level of the agents it
        # reads or writes, which it then gives them; the pairs of a step
        # come before its evidence, and runs share no agents
        agent_level[:] = 0
        pair_level = np.empty(pairs.shape[:2], dtype=level_type)
        e_level = np.empty(f.size, dtype=level_type)
        for t in range(w):
            if fusion:
                i, j, level = pairs[t, :, 0], pairs[t, :, 1], pair_level[t]
                np.maximum(agent_level[i], agent_level[j], out=level)
                level += 1
                agent_level[i] = level
                agent_level[j] = level
            rows = e_row[e_ends[t]:e_ends[t + 1]]
            level = e_level[e_ends[t]:e_ends[t + 1]]
            np.add(agent_level[rows], 1, out=level)
            agent_level[rows] = level

        # the events (pairs, then evidence) sorted by level, stably so
        # that each level's pairs come first (numpy sorts 8- and 16-bit
        # integers by radix); per event the rows
        # it reads as x and y (y unused by evidence), the row it writes
        # and its run, and per evidence event its state uniform, at flat
        # index 2f - f % k of u, and its noise term
        pairs = pairs.reshape(-1, 3)
        levels = np.concatenate((pair_level.ravel(), e_level))
        by_level = levels.argsort(kind="stable")
        ends = np.cumsum(np.bincount(levels, minlength=1))
        level_pairs = np.bincount(pair_level.ravel(), minlength=ends.size)
        row_x = np.concatenate((pairs[:, 0], e_row))[by_level]
        row_y = np.concatenate((pairs[:, 1], e_row))[by_level]
        written = np.concatenate(
            (pairs[:, 2 if random_one else 0], e_row))[by_level]
        run = row_x // k
        pad = np.zeros(len(pairs))
        u_state = np.concatenate(
            (pad, u[:w].reshape(-1)[2 * f - f % k]))[by_level]
        noise = np.concatenate(
            (pad, sigma[e_row // k] * eps[:w].reshape(-1)[f]))[by_level]
        if trajectory:
            values = [np.empty(levels.size) for _ in columns]

        for lv in range(1, ends.size):
            start, stop = ends[lv - 1], ends[lv]
            cut = start + level_pairs[lv]  # the level's first evidence event
            x = rows_b[row_x[start:stop]]
            y = rows_b[row_y[start:stop]]  # evidence rows replaced below
            if cut < stop:
                ev = x[cut - start:]
                si = _draw_states_rows(_pignistic_rows(ev) if possibilistic
                                       else ev, u_state[cut:stop])
                qhat = qualities[si] + noise[cut:stop]
                np.minimum(np.maximum(qhat, 0.0, out=qhat), 1.0, out=qhat)
                y[cut - start:] = _evidence_rows(possibilistic, n, si, qhat)
            runs = run[start:stop]
            if possibilistic:
                fused = _fuse_rows(theta.take(runs), x, y)
            else:
                fused, bad = _product_rows(x, y)
                if bad.any():
                    degenerate += np.bincount(runs[bad], minlength=r_count)
            rows_b[written[start:stop]] = fused
            if not random_one and cut > start:
                rows_b[row_y[start:cut]] = fused[:cut - start]
            if trajectory:
                ids = by_level[start:stop]
                values[0][ids] = fused[:, -1]
                if possibilistic:
                    values[1][ids] = fused[:, :-1].max(axis=1)

        if trajectory:
            _window_metrics(metrics[:, t0 + 1:t0 + w + 1], columns, values,
                            pairs.reshape(w, -1, 3), e_row, e_ends,
                            random_one)
    if not trajectory:
        metrics[:, 0] = _metrics_from_array(b, params.model)
    return degenerate


def _window_metrics(out: np.ndarray, columns: list, values: list,
                    pairs: np.ndarray, e_row: np.ndarray, e_ends: np.ndarray,
                    random_one: bool) -> None:
    """A window's per-step metrics, written into out, an (R, w, m) view.
    columns holds each agent's METRICS columns before the window, values
    the same per event, in event order; the columns are advanced step by
    step in place, and each step's are reduced over agents as
    _metrics_from_array reduces them."""
    r_count, w, _ = out.shape
    written = pairs[:, :, 2:] if random_one else pairs[:, :, :2]
    n_pairs = pairs.shape[0] * pairs.shape[1]
    pair_values = [v[:n_pairs].reshape(w, -1, 1) for v in values]
    e_values = [v[n_pairs:] for v in values]
    scratch = np.empty(columns[0].size)
    for t in range(w):
        step = slice(e_ends[t], e_ends[t + 1])
        for c, column in enumerate(columns):
            # the pair first: an adopter's evidence in the same step follows
            column[written[t]] = pair_values[c][t]
            column[e_row[step]] = e_values[c][step]
            if c:  # 1 - the largest other degree
                column = np.subtract(1.0, column, out=scratch)
            np.add.reduce(column.reshape(r_count, -1), axis=1,
                          out=out[:, t, c])
    out /= columns[0].size // r_count


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def run(params: SimParams) -> tuple[np.ndarray, int]:
    """The batch of one: run_batch([params])'s metrics row, a
    (steps + 1, m) array, and its degenerate fusion count."""
    metrics, degenerate = run_batch([params])
    return metrics[0], int(degenerate[0])


def run_batch(runs: Sequence[SimParams],
              final_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Execute same-shape runs in lockstep, in the default environment.

    Returns the metrics, an (R, steps + 1, m) array in METRICS[model] column
    order, and each run's degenerate fusion count, an (R,) array. Row i
    equals run(runs[i]) exactly. With final_only the metrics are (R, 1, m),
    the last step's alone, and no earlier step's are computed. A batch
    whose expected evidence rows per step, the sum of rho * k over its
    runs, fall below _SPARSE_ROWS is stepped by dependency level, a denser
    one step by step (see the module docstring); both give the same bits.
    """
    # Freeing one untouched block of about 4 MiB lifts glibc's dynamic mmap
    # and trim thresholds above a step's temporaries (mallopt(3)), so the
    # heap top is not given back and refaulted every step; it is never
    # resident, and other allocators ignore it. It is 8 bytes short of
    # 4 MiB, below which numpy does not madvise an array for huge pages:
    # once the block came from the heap, that advice let the kernel back
    # the heap with 2 MiB pages, which added 2 MB to a process's peak RSS,
    # or not, by chance.
    np.empty((1 << 19) - 1)
    runs = tuple(runs)
    if not runs:
        raise ValueError("need at least one run")
    shape = runs[0]
    key = lockstep_key(shape)
    if any(lockstep_key(p) != key for p in runs[1:]):
        raise ValueError("runs of one batch may differ only in rho, sigma, "
                         "seed and theta within its Frank branch")
    rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence(p.seed)))
            for p in runs]
    rho = np.array([p.rho for p in runs])
    sigma = np.array([p.sigma for p in runs])
    theta = _FrankRows.of([p.theta for p in runs])
    qualities = np.asarray(EnvironmentSpec.default(shape.states).qualities)
    b = _initial_beliefs(shape, len(runs))
    metrics = np.empty((len(runs), 1 if final_only else shape.steps + 1,
                        len(METRICS[shape.model])))
    advance = _run_levels if _sparse(runs) else _run_steps
    degenerate = advance(b, shape, qualities, rho, sigma, theta, rngs, metrics)
    return metrics, degenerate

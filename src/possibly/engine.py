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

A batch's metrics are one (R, steps + 1, m) array whose last axis holds the
METRICS[model] columns, in that order, and its degenerate product fusions
one (R,) count array; run() returns a batch of one's row of each.
"""

from __future__ import annotations

import math
import operator
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
    "POSSIBILISTIC",
    "PROBABILISTIC",
    "SimParams",
    "lockstep_key",
    "run",
    "run_batch",
]

POSSIBILISTIC = "possibilistic"
PROBABILISTIC = "probabilistic"

ADOPT_BOTH = "both"
ADOPT_RANDOM_ONE = "random-one"

_SEED_MAX = 2 ** 64
_TWO32 = 1 << 32
_LOW32 = _TWO32 - 1

# The metric columns of each model: the agent averages of Pi({s_n}) and
# N({s_n}), or of p(s_n).
METRICS = {
    POSSIBILISTIC: ("mean_poss_best", "mean_nec_best"),
    PROBABILISTIC: ("mean_prob_best",),
}


@dataclass(frozen=True)
class SimParams:
    """Everything that determines one run, including its random stream."""

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
        # integers only (numpy ones included), stored as Python ints
        for name in ("agents", "states", "steps", "seed"):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            object.__setattr__(self, name, value)
        if self.agents < 2:
            raise ValueError("need at least 2 agents")
        if self.states < 2:
            raise ValueError("need at least 2 states")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.model not in (POSSIBILISTIC, PROBABILISTIC):
            raise ValueError(f"unknown model: {self.model!r}")
        if self.fusion_adoption not in (ADOPT_BOTH, ADOPT_RANDOM_ONE):
            raise ValueError(f"unknown fusion adoption: {self.fusion_adoption!r}")
        if not isinstance(self.theta, FrankParameter):
            raise ValueError("theta must be a FrankParameter")
        if not 0 <= self.seed < _SEED_MAX:
            raise ValueError("seed must be a 64-bit unsigned integer")


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

    # every run's draws for this step, in its stream's order: a pair of
    # distinct agents, uniform over ordered and hence unordered pairs (j is
    # shifted past i), with random-one adoption the adopter, then the
    # uniforms and the normals
    pairs = []  # i, j, adopter per run
    random_one = params.fusion_adoption == ADOPT_RANDOM_ONE
    u = np.empty((r_count, 2, k))  # state, then success uniforms
    eps = np.empty((r_count, k))
    for r, rng in enumerate(rngs):
        if params.fusion_enabled:
            bits = rng.bit_generator
            i = _bounded(bits, k)
            j = _bounded(bits, k - 1)
            j += j >= i
            pairs.append((i, j, (i, j)[_bounded(bits, 2)] if random_one else i))
        rng.random(out=u[r])
        rng.standard_normal(out=eps[r])
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
    the last step's alone, and no earlier step's are computed.
    """
    # Freeing one untouched 4 MiB block lifts glibc's dynamic mmap and trim
    # thresholds above a step's temporaries (mallopt(3)), so the heap top is
    # not given back and refaulted every step; it is never resident, and
    # other allocators ignore it.
    np.empty(1 << 19)
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
    degenerate = np.zeros(len(runs), dtype=np.int64)
    for t in range(shape.steps + 1):
        if t:
            degenerate += _sim_step(b, shape, qualities, rho, sigma, theta,
                                    rngs)
        if not final_only or t == shape.steps:
            metrics[:, -1 if final_only else t] = _metrics_from_array(b, shape.model)
    return metrics, degenerate

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
consumes draws on a fixed schedule regardless of outcomes:

    fusion on:  agent index i ~ integers(k), partner j ~ integers(k-1)
                shifted past i; with random-one adoption, one extra
                integers(2) picks the adopter
    always:     k state-selection uniforms, then k evidence-success
                uniforms, then k noise variates (drawn even where the
                success draw failed or sigma = 0)

so that changing rho or sigma alone never reorders the remaining stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .environment import EnvironmentSpec, NoiseSpec
from .possibility import FrankParameter, _fuse_rows, _pignistic_rows
from .probability import DEGENERATE_MASS

__all__ = [
    "POSSIBILISTIC",
    "PROBABILISTIC",
    "SimParams",
    "MetricsRecord",
    "RunResult",
    "run",
]

POSSIBILISTIC = "possibilistic"
PROBABILISTIC = "probabilistic"

ADOPT_BOTH = "both"
ADOPT_RANDOM_ONE = "random-one"

_SEED_MAX = 2 ** 64


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
        if self.agents < 2:
            raise ValueError("need at least 2 agents")
        if self.states < 2:
            raise ValueError("need at least 2 states")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.model not in (POSSIBILISTIC, PROBABILISTIC):
            raise ValueError(f"unknown model: {self.model!r}")
        if self.fusion_adoption not in (ADOPT_BOTH, ADOPT_RANDOM_ONE):
            raise ValueError(f"unknown fusion adoption: {self.fusion_adoption!r}")
        if not isinstance(self.theta, FrankParameter):
            raise ValueError("theta must be a FrankParameter")
        if not 0 <= int(self.seed) < _SEED_MAX:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class MetricsRecord:
    """Population aggregates at one step.

    For the possibilistic model, mean_poss_best and mean_nec_best are the
    agent averages of Pi({s_n}) and N({s_n}); for the probabilistic model,
    mean_prob_best averages p(s_n).
    """

    step: int
    mean_poss_best: float | None = None
    mean_nec_best: float | None = None
    mean_prob_best: float | None = None


@dataclass(frozen=True)
class RunResult(Sequence):
    """Metric records for steps 0..steps, plus run diagnostics.

    degenerate_fusions counts product fusions that met disjoint supports and
    fell back to the uniform distribution.
    """

    params: SimParams
    records: tuple[MetricsRecord, ...]
    degenerate_fusions: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def __iter__(self) -> Iterator[MetricsRecord]:
        return iter(self.records)


# ---------------------------------------------------------------------------
# population array helpers
# ---------------------------------------------------------------------------

def _initial_beliefs(params: SimParams) -> np.ndarray:
    """All agents fully ignorant: vacuous possibility rows or uniform rows."""
    k, n = params.agents, params.states
    if params.model == POSSIBILISTIC:
        return np.ones((k, n))
    return np.full((k, n), 1.0 / n)


def _draw_pair(rng: np.random.Generator, k: int) -> tuple[int, int]:
    # uniform over ordered pairs of distinct agents, hence uniform over
    # unordered pairs; two integer draws
    i = int(rng.integers(k))
    j = int(rng.integers(k - 1))
    if j >= i:
        j += 1
    return i, j


def _draw_states_rows(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    # inverse-CDF draw per row; returns 0-based state columns
    c = np.cumsum(p, axis=1)
    return np.minimum((u[:, None] > c).sum(axis=1), p.shape[1] - 1)


def _sim_step(b: np.ndarray, params: SimParams, qualities: np.ndarray,
              sigma: float, rng: np.random.Generator) -> int:
    """Advance the population array one step in place; returns the number of
    degenerate product fusions encountered."""
    k, n = b.shape
    possibilistic = params.model == POSSIBILISTIC
    degenerate = 0

    if params.fusion_enabled:
        i, j = _draw_pair(rng, k)
        if possibilistic:
            fused = _fuse_rows(params.theta, b[i][None, :], b[j][None, :])[0]
        else:
            w = b[i] * b[j]
            s = w.sum()
            if s < DEGENERATE_MASS:
                fused = np.full(n, 1.0 / n)
                degenerate += 1
            else:
                fused = w / s
        if params.fusion_adoption == ADOPT_BOTH:
            b[i] = fused
            b[j] = fused
        else:
            b[i if int(rng.integers(2)) == 0 else j] = fused

    u_state = rng.random(k)
    u_succ = rng.random(k)
    eps = rng.standard_normal(k)

    betting = _pignistic_rows(b) if possibilistic else b
    states = _draw_states_rows(betting, u_state)
    mask = u_succ < params.rho
    if mask.any():
        rows = np.nonzero(mask)[0]
        si = states[rows]
        qhat = np.clip(qualities[si] + sigma * eps[rows], 0.0, 1.0)
        if possibilistic:
            ev = np.repeat((1.0 - qhat)[:, None], n, axis=1)
            ev[np.arange(rows.size), si] = 1.0
            b[rows] = _fuse_rows(params.theta, b[rows], ev)
        else:
            ev = np.repeat(((1.0 - qhat) / n)[:, None], n, axis=1)
            ev[np.arange(rows.size), si] = ((n - 1) * qhat + 1.0) / n
            w = b[rows] * ev
            s = w.sum(axis=1)
            bad = s < DEGENERATE_MASS
            if bad.any():
                degenerate += int(bad.sum())
                s = np.where(bad, 1.0, s)
            w /= s[:, None]
            w[bad] = 1.0 / n
            b[rows] = w
    return degenerate


def _metrics_from_array(b: np.ndarray, step_index: int, model: str) -> MetricsRecord:
    if model == POSSIBILISTIC:
        return MetricsRecord(
            step=step_index,
            mean_poss_best=float(b[:, -1].mean()),
            mean_nec_best=float((1.0 - b[:, :-1].max(axis=1)).mean()),
        )
    return MetricsRecord(step=step_index, mean_prob_best=float(b[:, -1].mean()))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def run(params: SimParams, env: EnvironmentSpec | None = None,
        noise: NoiseSpec | None = None) -> RunResult:
    """Execute a full run: init, `steps` steps, one MetricsRecord per step
    plus one at step 0. Identical params give identical results."""
    if env is None:
        env = EnvironmentSpec.default(params.states)
    if noise is None:
        noise = NoiseSpec(sigma=params.sigma)
    if env.n != params.states:
        raise ValueError("environment does not match params")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(params.seed)))
    qualities = np.asarray(env.qualities)
    b = _initial_beliefs(params)
    records = [_metrics_from_array(b, 0, params.model)]
    degenerate = 0
    for t in range(1, params.steps + 1):
        degenerate += _sim_step(b, params, qualities, noise.sigma, rng)
        records.append(_metrics_from_array(b, t, params.model))
    return RunResult(params=params, records=tuple(records),
                     degenerate_fusions=degenerate)


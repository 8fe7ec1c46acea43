"""The best-of-n world: state qualities, noisy sampling and evidence construction.

Each of the n states has a fixed quality in [0, 1], strictly increasing with
the state index, so state n is the best. Sampling a state's quality adds
Gaussian noise and clamps the result back into [0, 1]. A sampled quality is
turned into an evidence distribution in whichever belief language the agent
speaks: a possibility distribution that rules other states out in proportion
to the observed quality, or its probabilistic counterpart, a mixture of the
one-hot at the sampled state with the uniform distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .possibility import PossibilityDistribution
from .probability import ProbabilityDistribution

__all__ = [
    "EnvironmentSpec",
    "NoiseSpec",
    "sample_quality",
    "possibilistic_evidence",
    "probabilistic_evidence",
    "reversal_probability",
]


@dataclass(frozen=True)
class EnvironmentSpec:
    """n states with strictly increasing qualities q_1 < ... < q_n in [0, 1]."""

    n: int
    qualities: tuple[float, ...]

    def __init__(self, n: int, qualities: Sequence[float]) -> None:
        n = int(n)
        qs = tuple(float(q) for q in qualities)
        if n < 2:
            raise ValueError("need at least 2 states")
        if len(qs) != n:
            raise ValueError(f"expected {n} qualities, got {len(qs)}")
        for q in qs:
            if not (0.0 <= q <= 1.0):
                raise ValueError(f"quality {q!r} outside [0, 1]")
        for a, b in zip(qs, qs[1:]):
            if not a < b:
                raise ValueError("qualities must be strictly increasing")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "qualities", qs)

    @classmethod
    def default(cls, n: int) -> "EnvironmentSpec":
        """Qualities spread uniformly across (0, 1): q_i = i / (n + 1)."""
        return cls(n, tuple(i / (n + 1) for i in range(1, n + 1)))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian observation noise with finite standard deviation sigma."""

    sigma: float

    def __post_init__(self) -> None:
        sigma = float(self.sigma)
        if not 0.0 <= sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        object.__setattr__(self, "sigma", sigma)


def sample_quality(env: EnvironmentSpec, noise: NoiseSpec, i: int,
                   rng: np.random.Generator) -> float:
    """Observe state i's quality with noise, clamped into [0, 1].

    Always consumes exactly one Gaussian variate, even when sigma = 0, so
    that changing sigma alone never shifts later draws within a run.
    """
    if not 1 <= i <= env.n:
        raise ValueError(f"state index {i} outside 1..{env.n}")
    eps = rng.standard_normal()
    return float(np.clip(env.qualities[i - 1] + noise.sigma * eps, 0.0, 1.0))


def possibilistic_evidence(n: int, i: int, sampled_quality: float) -> PossibilityDistribution:
    """Evidence for sampling quality q at state i: 1 at s_i, 1 - q elsewhere.

    High observed quality pushes every other state toward impossible; a zero
    quality observation is vacuous.
    """
    _check_evidence_args(n, i, sampled_quality)
    off = 1.0 - sampled_quality
    return PossibilityDistribution(tuple(1.0 if j == i else off for j in range(1, n + 1)))


def probabilistic_evidence(n: int, i: int, sampled_quality: float) -> ProbabilityDistribution:
    """Evidence for sampling quality q at state i, as a probability distribution.

    The mixture q * onehot(i) + (1 - q) * uniform: p(s_i) = ((n-1) q + 1) / n
    and p(s_j) = (1 - q) / n for j != i.
    """
    _check_evidence_args(n, i, sampled_quality)
    q = sampled_quality
    off = (1.0 - q) / n
    at = ((n - 1) * q + 1.0) / n
    return ProbabilityDistribution(tuple(at if j == i else off for j in range(1, n + 1)))


def _check_evidence_args(n: int, i: int, sampled_quality: float) -> None:
    if n < 2:
        raise ValueError("need at least 2 states")
    if not 1 <= i <= n:
        raise ValueError(f"state index {i} outside 1..{n}")
    if not (0.0 <= sampled_quality <= 1.0):
        raise ValueError("sampled quality must lie in [0, 1] (clamp before use)")


def reversal_probability(env: EnvironmentSpec, noise: NoiseSpec, i: int, j: int,
                         samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of P(noisy quality of state i < noisy quality of state j).

    Independent clamped observations of the two states; i's noise variates
    are drawn first, then j's. With sigma large enough this order reversal
    becomes likely even when q_i > q_j, which is what makes the best-of-n
    problem hard under noise.
    """
    if i == j:
        raise ValueError("states i and j must differ")
    if not 1 <= i <= env.n or not 1 <= j <= env.n:
        raise ValueError(f"state indices must lie in 1..{env.n}")
    samples = int(samples)
    if samples < 1:
        raise ValueError("need at least 1 sample")
    qi = _clamped_observations(env.qualities[i - 1], noise.sigma, samples, rng)
    qj = _clamped_observations(env.qualities[j - 1], noise.sigma, samples, rng)
    return float(np.count_nonzero(qi < qj) / samples)


def _clamped_observations(quality: float, sigma: float, samples: int,
                          rng: np.random.Generator) -> np.ndarray:
    # quality + sigma * eps clamped into [0, 1], in one buffer; equals
    # np.clip because no observation is NaN
    q = rng.standard_normal(samples)
    q *= sigma
    q += quality
    np.maximum(q, 0.0, out=q)
    return np.minimum(q, 1.0, out=q)

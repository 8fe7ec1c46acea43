"""The best-of-n world: state qualities, noisy sampling and evidence construction.

Each of the n states has a fixed quality in [0, 1], strictly increasing with
the state index, so state n is the best. Sampling a state's quality adds
Gaussian noise and clamps the result back into [0, 1]. A sampled quality is
turned into an evidence distribution in whichever belief language the agent
speaks: a possibility distribution that rules other states out in proportion
to the observed quality, or its probabilistic counterpart, a mixture of the
one-hot at the sampled state with the uniform distribution.

The order-reversal probability of two states, the fig3 curve, is a
Monte-Carlo estimate over millions of observations. It draws and transforms
them in cache-sized blocks and applies one side of the clamp to each
observation, which decides the same comparisons as the full clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .possibility import PossibilityDistribution
from .probability import ProbabilityDistribution

# Variates per block in reversal_probability: 2^15 doubles, 256 KiB, small
# enough to be transformed while still in cache.
_BLOCK = 1 << 15

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
        """The environment of _default_qualities(n)."""
        return cls(n, _default_qualities(n).tolist())


def _default_qualities(n: int) -> np.ndarray:
    """The default environment's qualities, spread uniformly across (0, 1):
    q_i = i / (n + 1), an (n,) array."""
    return np.arange(1, n + 1) / (n + 1)


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
    return float(_clamp_observations(
        np.asarray(env.qualities[i - 1] + noise.sigma * eps)))


def _clamp_observations(qhat: np.ndarray) -> np.ndarray:
    """Noisy quality observations clamped into [0, 1], in place."""
    np.maximum(qhat, 0.0, out=qhat)
    return np.minimum(qhat, 1.0, out=qhat)


def _evidence_rows(possibilistic: bool, n: int, si: np.ndarray,
                   qhat: np.ndarray) -> np.ndarray:
    """The (m, n) evidence rows of either model for the clamped qualities
    qhat observed at the 0-based states si (see the functions below)."""
    off, at = ((1.0 - qhat, 1.0) if possibilistic
               else ((1.0 - qhat) / n, ((n - 1) * qhat + 1.0) / n))
    ev = off[:, None].repeat(n, axis=1)
    ev[np.arange(si.size), si] = at
    return ev


def possibilistic_evidence(n: int, i: int, sampled_quality: float) -> PossibilityDistribution:
    """Evidence for sampling quality q at state i: 1 at s_i, 1 - q elsewhere.

    High observed quality pushes every other state toward impossible; a zero
    quality observation is vacuous.
    """
    return PossibilityDistribution(_checked_evidence_row(True, n, i, sampled_quality))


def probabilistic_evidence(n: int, i: int, sampled_quality: float) -> ProbabilityDistribution:
    """Evidence for sampling quality q at state i, as a probability distribution.

    The mixture q * onehot(i) + (1 - q) * uniform: p(s_i) = ((n-1) q + 1) / n
    and p(s_j) = (1 - q) / n for j != i.
    """
    return ProbabilityDistribution(_checked_evidence_row(False, n, i, sampled_quality))


def _checked_evidence_row(possibilistic: bool, n: int, i: int, q: float) -> list[float]:
    if n < 2:
        raise ValueError("need at least 2 states")
    if not 1 <= i <= n:
        raise ValueError(f"state index {i} outside 1..{n}")
    if not (0.0 <= q <= 1.0):
        raise ValueError("sampled quality must lie in [0, 1] (clamp before use)")
    return _evidence_rows(possibilistic, n, np.array([i - 1]), np.array([q]))[0].tolist()


def reversal_probability(env: EnvironmentSpec, noise: NoiseSpec, i: int, j: int,
                         samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of P(noisy quality of state i < noisy quality of state j).

    Independent clamped observations of the two states; all of i's noise
    variates are drawn first, then all of j's. With sigma large enough this
    order reversal becomes likely even when q_i > q_j, which is what makes
    the best-of-n problem hard under noise.

    The variates are drawn and transformed in blocks of _BLOCK while they
    are in cache: i's observations fill one buffer of `samples`, and j's
    pass through one reused block, each compared with the matching slice of
    i's. Each observation takes one side of the clamp, since for any a and
    b (infinities included) clip(a) < clip(b) if and only if max(a, 0) <
    min(b, 1): either inequality puts its left side below 1 and its right
    side above 0, where the other side of each clamp changes nothing.
    Blocked standard_normal calls return the same values as one call of
    `samples`, so the estimate and the generator's state after the call do
    not depend on _BLOCK.
    """
    if i == j:
        raise ValueError("states i and j must differ")
    if not 1 <= i <= env.n or not 1 <= j <= env.n:
        raise ValueError(f"state indices must lie in 1..{env.n}")
    samples = int(samples)
    if samples < 1:
        raise ValueError("need at least 1 sample")
    sigma = noise.sigma
    # a sigma near the float maximum may give an observation of +-inf,
    # which the clamp takes to 0 or 1 as it takes any beyond them
    qi = np.empty(samples)
    for start in range(0, samples, _BLOCK):
        block = qi[start:start + _BLOCK]
        rng.standard_normal(out=block)
        with np.errstate(over="ignore"):
            block *= sigma
        block += env.qualities[i - 1]
        np.maximum(block, 0.0, out=block)
    qj = np.empty(min(samples, _BLOCK))
    less = np.empty(qj.shape, dtype=bool)
    count = 0
    for start in range(0, samples, _BLOCK):
        size = min(_BLOCK, samples - start)
        block = qj[:size]
        rng.standard_normal(out=block)
        with np.errstate(over="ignore"):
            block *= sigma
        block += env.qualities[j - 1]
        np.minimum(block, 1.0, out=block)
        count += np.count_nonzero(
            np.less(qi[start:start + size], block, out=less[:size]))
    return float(count / samples)

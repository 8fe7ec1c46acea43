"""Probability distributions, product fusion and categorical sampling.

The probabilistic baseline represents an agent's belief as a probability
distribution over the n states. Two beliefs are combined by multiplying
pointwise and renormalising. The uniform distribution is the identity of
that operation and one-hot distributions are its only stable fixed points,
which is what drives the fast, sometimes premature, consensus of the
probabilistic model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ProbabilityDistribution",
    "DegenerateFusionWarning",
    "uniform",
    "product_fuse",
    "sample_state",
]

# Below this the product of two beliefs carries no usable mass.
DEGENERATE_MASS = 1e-300


class DegenerateFusionWarning(RuntimeWarning):
    """Raised when product fusion meets two beliefs with disjoint support."""


@dataclass(frozen=True)
class _Distribution:
    """A belief's values over states 1..n, and their reads: n, len(),
    indexing and as_array(). Each subclass checks its values as it is
    built."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class ProbabilityDistribution(_Distribution):
    """Probabilities over states 1..n, renormalised to sum exactly 1.

    A sum within 1e-9 of 1 is renormalised away (float drift accumulates over
    thousands of fusions); anything farther off indicates a bug and is
    rejected.
    """

    def __init__(self, values: Sequence[float]) -> None:
        vals = np.asarray([float(v) for v in values], dtype=float)
        if vals.size < 1:
            raise ValueError("need at least 1 state")
        if not ((vals >= 0.0) & (vals <= 1.0 + 1e-9)).all():  # NaN fails
            raise ValueError("probabilities must lie in [0, 1]")
        total = float(vals.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        vals = np.minimum(vals / total, 1.0)
        object.__setattr__(self, "values", tuple(vals.tolist()))


def uniform(n: int) -> ProbabilityDistribution:
    """The uniform distribution on n states: the ignorant initial belief."""
    return ProbabilityDistribution((1.0 / n,) * n)


def _product_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Product fusion of (m, n) rows in place: a * b renormalised, or uniform
    where its mass is below DEGENERATE_MASS. Returns a and that row mask."""
    a *= b
    s = np.add.reduce(a, axis=1)
    bad = s < DEGENERATE_MASS
    if bad.any():
        # the uniform rows are divided by 1.0 below, which keeps them exact
        s = np.where(bad, 1.0, s)
        a[bad] = 1.0 / a.shape[1]
    a /= s[:, None]
    return a, bad


def _draw_states_rows(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row of p: 0-based state columns, each the number
    of the row's first n - 1 cumulative sums that its uniform in u exceeds.
    One running sum sweeps the columns in cumsum's order, so with cumsum's
    bits. Entries are nonnegative, so the sums never decrease and u exceeds
    a prefix of them: counting the first n - 1 is counting all n capped at
    n - 1, without an array of all the sums."""
    acc = p[:, 0].copy()
    states = np.greater(u, acc).astype(np.intp)
    crossed = np.empty(u.shape, dtype=bool)
    for j in range(1, p.shape[1] - 1):
        acc += p[:, j]
        states += np.greater(u, acc, out=crossed)
    return states


def product_fuse(p1: ProbabilityDistribution,
                 p2: ProbabilityDistribution) -> ProbabilityDistribution:
    """Pointwise product of two beliefs, renormalised.

    If the two supports are disjoint the product has no mass to renormalise;
    that case returns the uniform distribution and emits a
    DegenerateFusionWarning so callers can count occurrences instead of
    aborting a long stochastic run on a measure-zero event.
    """
    if p1.n != p2.n:
        raise ValueError(f"length mismatch: {p1.n} vs {p2.n}")
    w, bad = _product_rows(p1.as_array()[None], p2.as_array()[None])
    if bad[0]:
        warnings.warn("product fusion of disjoint supports; returning uniform",
                      DegenerateFusionWarning, stacklevel=2)
    return ProbabilityDistribution(w[0].tolist())


def sample_state(p: ProbabilityDistribution, rng: np.random.Generator) -> int:
    """Draw a 1-based state index with probability p(s_i).

    Inverse-CDF draw consuming exactly one uniform variate from rng.
    """
    return _draw_states_rows(p.as_array()[None], np.array([rng.random()])).item() + 1

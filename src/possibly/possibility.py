"""Possibility distributions, Frank t-norms, normalised fusion and the pignistic transform.

A possibility distribution assigns each of n world states a degree in [0, 1]
with maximum exactly 1. The derived possibility measure of a set of states is
the max of their degrees (an upper probability); the necessity measure is one
minus the possibility of the complement (a lower probability). Beliefs are
combined by applying a Frank t-norm pointwise and then adding a constant so
the maximum returns to 1, which converts inconsistency between the two inputs
into extra ignorance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .probability import ProbabilityDistribution

__all__ = [
    "FrankParameter",
    "PossibilityDistribution",
    "StateSubset",
    "vacuous",
    "frank_tnorm",
    "possibility_measure",
    "necessity_measure",
    "fuse",
    "consistency",
    "pignistic",
]

# |theta| above this overflows e^theta in double precision (limit ~709).
THETA_MAX = 700.0
# Below this the closed form loses too much precision; use the product limit.
THETA_PRODUCT_CUTOFF = 1e-4

_LN2 = 0.6931471805599453


@dataclass(frozen=True)
class FrankParameter:
    """Selects a member of Frank's t-norm family.

    Either a finite nonzero ``theta`` with |theta| <= 700, or one of the three
    symbolic limits: ``product`` (theta -> 0), ``min`` (theta -> +inf),
    ``lukasiewicz`` (theta -> -inf).
    """

    theta: float | None = None
    limit: str | None = None

    def __post_init__(self) -> None:
        if (self.theta is None) == (self.limit is None):
            raise ValueError("FrankParameter takes exactly one of theta or limit")
        if self.limit is not None:
            if self.limit not in ("product", "min", "lukasiewicz"):
                raise ValueError(f"unknown Frank limit variant: {self.limit!r}")
            return
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        if theta == 0.0:
            raise ValueError("theta = 0 is not a member of the Frank family; "
                             "use the product limit variant")
        if abs(theta) > THETA_MAX:
            raise ValueError(f"|theta| > {THETA_MAX:g} overflows; use a limit variant")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def product_limit(cls) -> "FrankParameter":
        return cls(limit="product")

    @classmethod
    def min_limit(cls) -> "FrankParameter":
        return cls(limit="min")

    @classmethod
    def lukasiewicz_limit(cls) -> "FrankParameter":
        return cls(limit="lukasiewicz")


@dataclass(frozen=True)
class PossibilityDistribution:
    """Degrees in [0, 1] over states 1..n with max exactly 1.

    A maximum within 1e-12 of 1 is snapped to exactly 1; anything farther off
    is rejected rather than silently renormalised, so that drift from a buggy
    caller cannot hide.
    """

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]) -> None:
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise ValueError("need at least 2 states")
        for v in vals:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"degree {v!r} outside [0, 1]")
        top = max(vals)
        if top != 1.0:
            if abs(top - 1.0) > 1e-12:
                raise ValueError(f"max degree {top!r} is not 1")
            vals = tuple(1.0 if v == top else v for v in vals)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def vacuous(n: int) -> PossibilityDistribution:
    """The all-ones distribution on n states: total ignorance."""
    return PossibilityDistribution((1.0,) * n)


@dataclass(frozen=True)
class StateSubset:
    """A set of 1-based state indices."""

    members: frozenset[int]

    def __init__(self, members: Iterable[int]) -> None:
        ms = frozenset(int(i) for i in members)
        for i in ms:
            if i < 1:
                raise ValueError(f"state index {i} is not 1-based")
        object.__setattr__(self, "members", ms)

    def complement(self, n: int) -> "StateSubset":
        return StateSubset(frozenset(range(1, n + 1)) - self.members)


def _check_ambient(a: StateSubset, n: int) -> None:
    for i in a.members:
        if i > n:
            raise ValueError(f"state index {i} exceeds n = {n}")


# ---------------------------------------------------------------------------
# Frank t-norm kernel
# ---------------------------------------------------------------------------

def _log1mexp(z: np.ndarray) -> np.ndarray:
    # log(1 - e^{-z}) for z > 0, switching forms at ln 2 to keep precision
    with np.errstate(divide="ignore"):
        return np.where(z > _LN2, np.log1p(-np.exp(-z)), np.log(-np.expm1(-z)))


def _log_expm1(z: np.ndarray, work: np.ndarray) -> np.ndarray:
    # log(e^z - 1) for z >= 0 without overflow; -inf at z = 0, with a divide
    # warning that the caller may silence. Written over the array z and
    # returned, with work, an array of z's shape, for intermediate values.
    big = z > 1.0
    # z > 1: z + log1p(-e^{-z})
    np.negative(z, out=work)
    np.exp(work, out=work)
    np.negative(work, out=work)
    np.log1p(work, out=work)
    work += z
    # z <= 1: log(expm1(z)), evaluated at min(z, 1) everywhere
    np.minimum(z, 1.0, out=z)
    np.expm1(z, out=z)
    np.log(z, out=z)
    np.copyto(z, work, where=big)
    return z


def _frank_branch(param: FrankParameter) -> str:
    """Which expression _frank_values evaluates for param: "min",
    "lukasiewicz", "product" (the limit and every |theta| below the cutoff),
    "positive" or "negative"."""
    if param.limit is not None:
        return param.limit
    if abs(param.theta) < THETA_PRODUCT_CUTOFF:
        return "product"
    return "positive" if param.theta > 0 else "negative"


@dataclass(frozen=True)
class _FrankRows:
    """One Frank branch with its theta as a scalar or an (m, 1) column of
    one theta per row, plus the closed form's per-theta constant
    (log(1 - e^{-theta}) or log(e^{-theta} - 1)) in the same shape. The
    three limit branches carry no theta."""

    branch: str
    theta: np.ndarray | None = None
    const: np.ndarray | None = None

    @classmethod
    def of(cls, params: FrankParameter | Sequence[FrankParameter]) -> "_FrankRows":
        """A column for a sequence of FrankParameters, one row each, which
        must all share the first's branch; a scalar for one FrankParameter
        or a sequence of equal ones, which broadcasts at less cost."""
        if isinstance(params, FrankParameter):
            return _frank_rows_of_one(params)
        branch = _frank_branch(params[0])
        if branch not in ("positive", "negative"):
            return cls(branch)
        if all(p.theta == params[0].theta for p in params):
            theta = np.asarray(params[0].theta, dtype=float)
        else:
            theta = np.array([[p.theta] for p in params])
        if branch == "positive":
            const = _log1mexp(theta)
        else:  # -theta >= the cutoff, so no log(0)
            const = _log_expm1(np.array(-theta), np.empty_like(theta))
        return cls(branch, theta, const)

    def take(self, rows: np.ndarray) -> "_FrankRows":
        """The theta and constant of the given rows; a scalar applies to
        every row and a limit branch carries none, so both come back as
        they are."""
        if self.theta is None or self.theta.ndim == 0:
            return self
        return _FrankRows(self.branch, self.theta[rows], self.const[rows])


@functools.lru_cache(maxsize=256)
def _frank_rows_of_one(param: FrankParameter) -> _FrankRows:
    # a FrankParameter is frozen and hashable, so the scalar calls
    # (frank_tnorm, fuse) build its constant once; every caller shares the
    # arrays, which are therefore read-only
    frank = _FrankRows.of((param,))
    for array in (frank.theta, frank.const):
        if array is not None:
            array.flags.writeable = False
    return frank


def _frank_values(param: FrankParameter | _FrankRows, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Elementwise Frank t-norm on arrays of degrees in [0, 1].

    T_theta(x, y) = -(1/theta) ln(1 + (e^{-theta x} - 1)(e^{-theta y} - 1)
    / (e^{-theta} - 1)), evaluated through expm1/log1p so that no
    intermediate overflows or cancels for 1e-4 <= |theta| <= 700. The result
    is clamped into the exact t-norm envelope [max(0, x+y-1), min(x, y)] and
    T(x, 1) = x holds exactly. A _FrankRows param with an (m, 1) theta
    column gives row i of (m, n) blocks its own theta.
    """
    frank = param if isinstance(param, _FrankRows) else _FrankRows.of(param)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    if frank.branch == "min":
        return lo
    if frank.branch == "lukasiewicz":
        return np.maximum(0.0, lo + hi - 1.0)
    if frank.branch == "product":
        return lo * hi
    # The closed forms work in lo, hi and one result array t, through out=,
    # and take lo and hi afresh from x and y for the clamp. A 0-d input
    # gives scalar lo and hi, which out= cannot take, hence asarray.
    lo, hi = np.asarray(lo), np.asarray(hi)
    t = np.empty_like(lo)
    theta = frank.theta
    neg_theta = -theta
    if frank.branch == "positive":
        # 1 + (e^{-tx}-1)(e^{-ty}-1)/(e^{-t}-1) rewritten as a sum of two
        # nonnegative products, e^{-t lo} (1 - e^{-t (1-lo)}) and
        # e^{-t hi} (1 - e^{-t lo}), so the log sees full relative
        # precision; both are negated once, as a sum, which rounds the same
        np.subtract(1.0, lo, out=t)
        np.multiply(neg_theta, t, out=t)
        np.expm1(t, out=t)                    # e^{-theta (1-lo)} - 1
        np.multiply(neg_theta, lo, out=lo)
        t *= np.exp(lo, out=hi)               # times e^{-theta lo}
        np.expm1(lo, out=lo)                  # e^{-theta lo} - 1
        np.multiply(neg_theta, np.maximum(x, y, out=hi), out=hi)
        np.exp(hi, out=hi)                    # e^{-theta hi}
        hi *= lo
        t += hi
        np.negative(t, out=t)
        with np.errstate(divide="ignore"):
            np.log(t, out=t)
        np.subtract(frank.const, t, out=t)
        t /= theta
    else:
        # negative theta in log space: e^{-theta} terms overflow past
        # -theta ~ 709
        with np.errstate(divide="ignore"):
            lo = _log_expm1(np.multiply(neg_theta, lo, out=lo), t)
            lo += _log_expm1(np.multiply(neg_theta, hi, out=hi), t)
        lo -= frank.const
        np.logaddexp(0.0, lo, out=t)
        t /= neg_theta
    # clamp into the envelope [max(0, lo + hi - 1), lo] in place; t is
    # never NaN (an underflowed sum gives +inf, which clamps to lo), so
    # this equals np.clip
    np.minimum(x, y, out=lo)
    np.maximum(x, y, out=hi)
    one = hi == 1.0
    hi += lo
    hi -= 1.0
    np.maximum(t, np.maximum(0.0, hi, out=hi), out=t)
    np.minimum(t, lo, out=t)
    np.copyto(t, lo, where=one)
    return t


def frank_tnorm(param: FrankParameter, x: float, y: float) -> float:
    """Frank t-norm of two degrees."""
    if not (0.0 <= x <= 1.0) or not (0.0 <= y <= 1.0):
        raise ValueError("t-norm arguments must lie in [0, 1]")
    return float(_frank_values(param, np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def possibility_measure(pi: PossibilityDistribution, a: StateSubset) -> float:
    """Pi(A): max degree over A, the upper probability of A. Pi(empty) = 0."""
    _check_ambient(a, pi.n)
    if not a.members:
        return 0.0
    return max(pi.values[i - 1] for i in a.members)


def necessity_measure(pi: PossibilityDistribution, a: StateSubset) -> float:
    """N(A) = 1 - Pi(complement of A), the lower probability of A.

    The complement of the full state set is empty and Pi(empty) = 0, so
    N(full set) = 1; dually N(empty) = 0.
    """
    _check_ambient(a, pi.n)
    return 1.0 - possibility_measure(pi, a.complement(pi.n))


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

def _fuse_rows(param: FrankParameter | _FrankRows, a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """Rowwise normalised t-norm fusion of (m, n) blocks of degree rows,
    with one theta for all rows or, from a _FrankRows column, one per row.

    Returns rows with max exactly 1: the pointwise t-norm plus (1 - row max).
    The argmax entry is snapped to 1.0 because a + (1 - a) can round one ulp
    off 1 in floating point.
    """
    t = _frank_values(param, a, b)
    rows = np.arange(t.shape[0])
    top = t.argmax(axis=1)
    t += (1.0 - t[rows, top])[:, None]
    np.minimum(t, 1.0, out=t)
    t[rows, top] = 1.0
    return t


def fuse(param: FrankParameter, pi1: PossibilityDistribution,
         pi2: PossibilityDistribution) -> PossibilityDistribution:
    """Normalised t-norm fusion of two possibility distributions.

    Fusing with the vacuous distribution returns the other argument
    unchanged: T(x, 1) = x and the normalising constant is then zero.
    """
    if pi1.n != pi2.n:
        raise ValueError(f"length mismatch: {pi1.n} vs {pi2.n}")
    row = _fuse_rows(param, pi1.as_array()[None, :], pi2.as_array()[None, :])[0]
    return PossibilityDistribution(row.tolist())


def consistency(param: FrankParameter, pi1: PossibilityDistribution,
                pi2: PossibilityDistribution) -> float:
    """max_s T(pi1(s), pi2(s)): 1 for fully consistent beliefs, 0 for disjoint.

    Equals 1 minus the normalising constant added by `fuse`.
    """
    if pi1.n != pi2.n:
        raise ValueError(f"length mismatch: {pi1.n} vs {pi2.n}")
    return float(_frank_values(param, pi1.as_array(), pi2.as_array()).max())


# ---------------------------------------------------------------------------
# Pignistic transform
# ---------------------------------------------------------------------------

def _pignistic_rows(b: np.ndarray) -> np.ndarray:
    """Rowwise pignistic probabilities of (m, n) possibility rows.

    With the row sorted descending (v_1 >= ... >= v_n, v_{n+1} = 0) the state
    in sorted position i gets sum_{j >= i} (v_j - v_{j+1}) / j. Sorting uses
    an ascending-index tie-break; ties contribute zero increments, so the
    result does not depend on their order.
    """
    m, n = b.shape
    # flat positions of each row's entries in sorted order
    order = (-b).argsort(axis=1, kind="stable")
    order += np.arange(0, m * n, n)[:, None]
    v = b.take(order)
    # into a second array: an in-place v[:, :-1] -= v[:, 1:] overlaps, so
    # numpy copies v[:, 1:] first; at 1000 x 20 rows that extra temporary
    # multiplied the page faults of a step and slowed it. Both are
    # contiguous, so one flat subtract of each entry's successor covers
    # every row; the one that crosses into the next row lands in a last
    # column, which is then overwritten.
    diffs = np.empty_like(v)
    flat, flat_diffs = v.reshape(-1), diffs.reshape(-1)
    np.subtract(flat[:-1], flat[1:], out=flat_diffs[:-1])
    diffs[:, -1] = v[:, -1]
    diffs /= np.arange(1, n + 1)
    # the suffix sums go into v, free after the subtract, and are scattered
    # back to state order into diffs, free after the sums
    np.add.accumulate(diffs[:, ::-1], axis=1, out=v[:, ::-1])
    diffs.reshape(-1)[order] = v
    return diffs


def pignistic(pi: PossibilityDistribution) -> ProbabilityDistribution:
    """The least-biased probability distribution bracketed by N and Pi.

    Order preserving: a state with higher possibility never gets lower
    probability. The vacuous distribution maps to the uniform one.
    """
    row = _pignistic_rows(pi.as_array()[None, :])[0]
    return ProbabilityDistribution(row.tolist())

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

import math
from dataclasses import dataclass, field
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

    Two fields are derived from those at construction and take no part in
    ==, hash, repr or pickling: ``branch``, the expression that the t-norm
    evaluates ("min", "lukasiewicz", "product" for the limit and every
    |theta| below THETA_PRODUCT_CUTOFF, "positive" or "negative"), and
    ``const``, the closed form's constant, log(1 - e^{-theta}) on the
    positive branch and log(e^{-theta} - 1) on the negative one, else None.
    """

    theta: float | None = None
    limit: str | None = None
    branch: str = field(init=False, repr=False, compare=False)
    const: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.theta is None) == (self.limit is None):
            raise ValueError("FrankParameter takes exactly one of theta or limit")
        if self.limit is not None:
            if self.limit not in ("product", "min", "lukasiewicz"):
                raise ValueError(f"unknown Frank limit variant: {self.limit!r}")
        else:
            theta = float(self.theta)
            if not math.isfinite(theta):
                raise ValueError("theta must be finite")
            if theta == 0.0:
                raise ValueError("theta = 0 is not a member of the Frank "
                                 "family; use the product limit variant")
            if abs(theta) > THETA_MAX:
                raise ValueError(f"|theta| > {THETA_MAX:g} overflows; "
                                 "use a limit variant")
            object.__setattr__(self, "theta", theta)
        theta, const = self.theta, None
        if self.limit is not None:
            branch = self.limit
        elif abs(theta) < THETA_PRODUCT_CUTOFF:
            branch = "product"
        elif theta > 0:
            branch, const = "positive", float(_log1mexp(np.asarray(theta)))
        else:  # -theta >= the cutoff, so no log(0)
            branch = "negative"
            const = float(_log_expm1(np.array(-theta), np.empty(())))
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "const", const)

    def __reduce__(self):
        # pickle the inputs alone; unpickling derives the rest again
        return type(self), (self.theta, self.limit)

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


@dataclass(frozen=True)
class _FrankRows:
    """One Frank branch with the theta and constant of its FrankParameters:
    scalars when every theta is equal, which broadcast at less cost, or
    (m, 1) columns of one per row. The limits and the product branch carry
    neither."""

    branch: str
    theta: float | np.ndarray | None = None
    const: float | np.ndarray | None = None

    @classmethod
    def of(cls, params: Sequence[FrankParameter]) -> "_FrankRows":
        """One row per FrankParameter; all must share the first's branch."""
        first = params[0]
        if first.const is None:
            return cls(first.branch)
        if all(p.theta == first.theta for p in params):
            return cls(first.branch, first.theta, first.const)
        return cls(first.branch, np.array([[p.theta] for p in params]),
                   np.array([[p.const] for p in params]))

    def take(self, rows: np.ndarray) -> "_FrankRows":
        """The theta and constant of the given rows; a scalar applies to
        every row and a limit branch carries none, so both come back as
        they are."""
        if not isinstance(self.theta, np.ndarray):
            return self
        return _FrankRows(self.branch, self.theta[rows], self.const[rows])


def _frank_values(param: FrankParameter | _FrankRows, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Elementwise Frank t-norm on arrays of degrees in [0, 1].

    T_theta(x, y) = -(1/theta) ln(1 + (e^{-theta x} - 1)(e^{-theta y} - 1)
    / (e^{-theta} - 1)), evaluated through expm1/log1p so that no
    intermediate overflows or cancels for 1e-4 <= |theta| <= 700. param's
    branch, theta and const select the expression; a _FrankRows param with
    (m, 1) columns gives row i of (m, n) blocks its own theta.

    T(0, y) = 0 and T(x, 1) = x are exact (Frank 1979), so an entry with
    min(x, y) = 0 or max(x, y) = 1 is min(x, y) as it stands, and the
    closed form runs only on the entries with 0 < min and max < 1: on lo
    and hi as they are when every entry is one, as in a scalar call, and
    otherwise on a flat gathered copy, each entry with its own row's
    theta, scattered back into lo.
    Those are 12% of the entries on the `large` benchmark and 4-21% on
    batches of 50 runs x 100 agents x 5 states (README); each goes through
    the same IEEE operations on the same operands either way, and comes
    out clamped into the t-norm envelope [max(0, x+y-1), min(x, y)].
    perfbench/tracing.py wraps this function by name.
    """
    branch, theta, const = param.branch, param.theta, param.const
    lo = np.minimum(x, y)
    if branch == "min":
        return lo
    hi = np.maximum(x, y)
    if branch == "lukasiewicz":
        return np.maximum(0.0, lo + hi - 1.0)
    if branch == "product":
        return lo * hi
    open_ = (lo > 0.0) & (hi < 1.0)
    count = np.count_nonzero(open_)
    if count == open_.size:
        # every entry open, as in a scalar call: no gather; a 0-d input
        # gives scalar lo and hi, which out= cannot take, hence asarray
        return _frank_open(branch, theta, const, np.asarray(lo), np.asarray(hi))
    if not count:
        return lo
    if isinstance(theta, np.ndarray):  # a column, one theta per row
        theta = np.broadcast_to(theta, lo.shape)[open_]
        const = np.broadcast_to(const, lo.shape)[open_]
    lo[open_] = _frank_open(branch, theta, const, lo[open_], hi[open_])
    return lo


def _frank_open(branch: str, theta: float | np.ndarray,
                const: float | np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """The closed form of _frank_values' positive or negative branch on
    entries with 0 < lo and hi < 1, clamped into [max(0, lo + hi - 1), lo];
    theta and const broadcast against lo and hi, which are left as they
    are. It works through out= in a result array t and two more, w and
    u."""
    neg_theta = -theta
    t, w, u = np.empty_like(lo), np.empty_like(lo), np.empty_like(lo)
    if branch == "positive":
        # 1 + (e^{-tx}-1)(e^{-ty}-1)/(e^{-t}-1) rewritten as a sum of two
        # nonnegative products, e^{-t lo} (1 - e^{-t (1-lo)}) and
        # e^{-t hi} (1 - e^{-t lo}), so the log sees full relative
        # precision; both are negated once, as a sum, which rounds the same
        np.subtract(1.0, lo, out=t)
        np.multiply(neg_theta, t, out=t)
        np.expm1(t, out=t)                    # e^{-theta (1-lo)} - 1
        np.multiply(neg_theta, lo, out=w)
        t *= np.exp(w, out=u)                 # times e^{-theta lo}
        np.expm1(w, out=w)                    # e^{-theta lo} - 1
        np.multiply(neg_theta, hi, out=u)
        np.exp(u, out=u)                      # e^{-theta hi}
        u *= w
        t += u
        np.negative(t, out=t)
        # no log(0): at 0 < lo and hi < 1 the first product is at least
        # 7.7e-318 (at theta = 700 and lo = 1 - 2**-53)
        np.log(t, out=t)
        np.subtract(const, t, out=t)
        t /= theta
    else:
        # negative theta in log space: e^{-theta} terms overflow past
        # -theta ~ 709
        with np.errstate(divide="ignore"):
            _log_expm1(np.multiply(neg_theta, lo, out=w), t)
            w += _log_expm1(np.multiply(neg_theta, hi, out=u), t)
        w -= const
        np.logaddexp(0.0, w, out=t)
        t /= neg_theta
    # clamp into the envelope in place; t is never NaN, so this equals
    # np.clip
    np.add(lo, hi, out=u)
    u -= 1.0
    np.maximum(t, np.maximum(0.0, u, out=u), out=t)
    np.minimum(t, lo, out=t)
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

"""Possibility distributions, Frank t-norms, fusion, and the pignistic
transform.

The worked three-state example (pi1 = (1, 0.8, 0.7), pi2 = (0.4, 0.9, 1),
theta = 10) supplies most golden values. The lone high-precision t-norm
constant below was frozen from a 400-digit mpmath evaluation of the closed
form, independent of the library code.
"""

import copy
import dataclasses
import math
import pickle
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from possibly import (
    FrankParameter,
    PossibilityDistribution,
    StateSubset,
    consistency,
    frank_tnorm,
    fuse,
    necessity_measure,
    pignistic,
    possibility_measure,
    vacuous,
)
from possibly.possibility import (
    THETA_MAX,
    THETA_PRODUCT_CUTOFF,
    _frank_values,
    _FrankRows,
    _log1mexp,
    _log_expm1,
    _fuse_rows,
    _pignistic_rows,
)

# T_10(0.8, 0.9) to full double precision (mpmath, 400 digits)
T10_08_09 = 0.7790974275891844

PI1 = PossibilityDistribution((1.0, 0.8, 0.7))
PI2 = PossibilityDistribution((0.4, 0.9, 1.0))
THETA10 = FrankParameter(theta=10.0)

units = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
thetas = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False).filter(lambda t: t != 0.0)


@st.composite
def possibility_dists(draw, min_states=2, max_states=6):
    n = draw(st.integers(min_states, max_states))
    vals = draw(st.lists(units, min_size=n, max_size=n))
    vals[draw(st.integers(0, n - 1))] = 1.0
    return PossibilityDistribution(vals)


@st.composite
def dists_with_subset(draw):
    pi = draw(possibility_dists())
    members = [s for s in range(1, pi.n + 1) if draw(st.booleans())]
    return pi, StateSubset(members)


def luk(x, y):
    return max(0.0, x + y - 1.0)


# ---------------------------------------------------------------------------
# FrankParameter
# ---------------------------------------------------------------------------

class TestFrankParameter:
    def test_accepts_moderate_theta(self):
        assert FrankParameter(theta=20.0).theta == 20.0
        assert FrankParameter(theta=-3.5).theta == -3.5

    @pytest.mark.parametrize("bad", [0.0, math.inf, -math.inf, math.nan, 701.0, -701.0])
    def test_rejects_bad_theta(self, bad):
        with pytest.raises(ValueError):
            FrankParameter(theta=bad)

    def test_exactly_one_of_theta_or_limit(self):
        with pytest.raises(ValueError):
            FrankParameter()
        with pytest.raises(ValueError):
            FrankParameter(theta=1.0, limit="min")
        with pytest.raises(ValueError):
            FrankParameter(limit="drastic")

    def test_limit_constructors(self):
        assert FrankParameter.product_limit().limit == "product"
        assert FrankParameter.min_limit().limit == "min"
        assert FrankParameter.lukasiewicz_limit().limit == "lukasiewicz"


# ---------------------------------------------------------------------------
# distributions and subsets
# ---------------------------------------------------------------------------

class TestPossibilityDistribution:
    def test_requires_a_fully_possible_state(self):
        with pytest.raises(ValueError):
            PossibilityDistribution((0.9, 0.5))

    def test_snaps_near_one_max(self):
        pi = PossibilityDistribution((1.0 - 1e-13, 0.5))
        assert pi.values[0] == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PossibilityDistribution((1.0, -0.1))
        with pytest.raises(ValueError):
            PossibilityDistribution((1.0, 1.1))

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            PossibilityDistribution((1.0,))

    def test_sequence_protocol(self):
        assert len(PI1) == 3 and PI1[1] == 0.8 and PI1.n == 3

    def test_vacuous(self):
        assert vacuous(4).values == (1.0, 1.0, 1.0, 1.0)


class TestStateSubset:
    def test_one_based_members(self):
        a = StateSubset((1, 3))
        assert a.members == frozenset({1, 3})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StateSubset((0, 1))

    def test_complement(self):
        assert StateSubset((1, 3)).complement(4).members == frozenset({2, 4})


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

class TestMeasures:
    def test_worked_example_measures(self):
        assert possibility_measure(PI1, StateSubset((2, 3))) == pytest.approx(0.8, abs=1e-4)
        assert necessity_measure(PI1, StateSubset((1,))) == pytest.approx(0.2, abs=1e-4)
        assert necessity_measure(PI1, StateSubset((1, 2))) == pytest.approx(0.3, abs=1e-4)

    def test_max_over_members(self):
        pi = PossibilityDistribution((0.3, 1.0, 0.3, 0.9))
        assert possibility_measure(pi, StateSubset((1, 4))) == 0.9

    def test_empty_and_full(self):
        assert possibility_measure(PI1, StateSubset(())) == 0.0
        assert necessity_measure(PI1, StateSubset(())) == 0.0
        full = StateSubset((1, 2, 3))
        assert possibility_measure(PI1, full) == 1.0
        assert necessity_measure(PI1, full) == 1.0

    def test_vacuous_entails_nothing(self):
        pi = vacuous(5)
        for s in range(1, 6):
            assert necessity_measure(pi, StateSubset((s,))) == 0.0

    def test_ignorance_of_worked_example(self):
        ig = [possibility_measure(PI1, StateSubset((s,)))
              - necessity_measure(PI1, StateSubset((s,))) for s in (1, 2, 3)]
        assert ig == pytest.approx([0.8, 0.8, 0.7], abs=1e-4)

    @given(dists_with_subset())
    def test_duality_is_exact(self, pair):
        pi, a = pair
        comp = a.complement(pi.n)
        assert necessity_measure(pi, a) == 1.0 - possibility_measure(pi, comp)

    @given(dists_with_subset())
    def test_necessity_below_possibility(self, pair):
        pi, a = pair
        assert necessity_measure(pi, a) <= possibility_measure(pi, a)

    @given(possibility_dists())
    def test_min_and_max_decomposition(self, pi):
        """N(A ∩ B) = min(N(A), N(B)) and Pi(A ∪ B) = max(Pi(A), Pi(B))."""
        n = pi.n
        a = StateSubset(range(1, n))
        b = StateSubset(range(2, n + 1))
        both = StateSubset(set(a.members) & set(b.members))
        either = StateSubset(set(a.members) | set(b.members))
        assert necessity_measure(pi, both) == min(necessity_measure(pi, a),
                                                  necessity_measure(pi, b))
        assert possibility_measure(pi, either) == max(possibility_measure(pi, a),
                                                      possibility_measure(pi, b))


# ---------------------------------------------------------------------------
# Frank t-norm
# ---------------------------------------------------------------------------

class TestFrankTnorm:
    def test_frozen_reference_value(self):
        assert frank_tnorm(THETA10, 0.8, 0.9) == pytest.approx(T10_08_09, abs=1e-12)

    def test_worked_example_row(self):
        got = [frank_tnorm(THETA10, a, b) for a, b in zip(PI1.values, PI2.values)]
        assert got == pytest.approx([0.4, 0.7791, 0.7], abs=1e-4)

    def test_limit_variants_use_closed_forms(self):
        assert frank_tnorm(FrankParameter.product_limit(), 0.25, 0.5) == 0.125
        assert frank_tnorm(FrankParameter.min_limit(), 0.25, 0.5) == 0.25
        assert frank_tnorm(FrankParameter.lukasiewicz_limit(), 0.25, 0.5) == 0.0
        assert frank_tnorm(FrankParameter.lukasiewicz_limit(), 0.75, 0.5) == 0.25

    def test_rejects_out_of_range_arguments(self):
        with pytest.raises(ValueError):
            frank_tnorm(THETA10, -0.1, 0.5)
        with pytest.raises(ValueError):
            frank_tnorm(THETA10, 0.5, 1.5)

    @given(thetas, units)
    def test_identity(self, theta, x):
        param = FrankParameter(theta=theta)
        assert frank_tnorm(param, x, 1.0) == pytest.approx(x, abs=1e-12)
        assert frank_tnorm(param, 1.0, x) == pytest.approx(x, abs=1e-12)

    @given(thetas, units, units)
    def test_commutativity(self, theta, x, y):
        param = FrankParameter(theta=theta)
        assert frank_tnorm(param, x, y) == frank_tnorm(param, y, x)

    @given(thetas, units, units, units)
    def test_associativity(self, theta, x, y, z):
        param = FrankParameter(theta=theta)
        left = frank_tnorm(param, frank_tnorm(param, x, y), z)
        right = frank_tnorm(param, x, frank_tnorm(param, y, z))
        assert left == pytest.approx(right, abs=1e-9)

    @given(thetas, units, units, units)
    def test_monotone_in_second_argument(self, theta, x, y1, y2):
        param = FrankParameter(theta=theta)
        lo, hi = sorted((y1, y2))
        assert frank_tnorm(param, x, lo) <= frank_tnorm(param, x, hi) + 1e-12

    @given(thetas, units, units)
    def test_bounds(self, theta, x, y):
        t = frank_tnorm(FrankParameter(theta=theta), x, y)
        assert luk(x, y) - 1e-12 <= t <= min(x, y) + 1e-12

    @given(units, units)
    def test_small_theta_matches_product(self, x, y):
        # inside the cutoff the closed form is abandoned for the exact limit
        assert frank_tnorm(FrankParameter(theta=1e-5), x, y) == x * y
        assert frank_tnorm(FrankParameter(theta=-1e-5), x, y) == x * y

    @pytest.mark.parametrize("theta", [THETA_PRODUCT_CUTOFF, -THETA_PRODUCT_CUTOFF])
    def test_cutoff_jump_is_the_first_order_term(self, theta):
        """At |theta| = 1e-4 the kernel leaves x*y for the closed form. The
        exact t-norm is x*y + theta*xy(1-x)(1-y)/2 + O(theta^2) there, so the
        switch jumps by that term (3.125e-6 at x = y = 1/2), no more."""
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 401), np.linspace(0.0, 1.0, 401))
        jump = np.abs(_frank_values(FrankParameter(theta=theta), x, y) - x * y)
        first_order = abs(theta) * x * y * (1 - x) * (1 - y) / 2
        assert (jump <= first_order + theta ** 2).all()
        assert jump.max() == pytest.approx(abs(theta) / 32, rel=1e-3)

    @pytest.mark.parametrize("theta", [THETA_PRODUCT_CUTOFF, -THETA_PRODUCT_CUTOFF])
    def test_closed_form_at_cutoff_matches_decimal_reference(self, theta):
        grid = np.linspace(0.0, 1.0, 21)
        x, y = (a.ravel() for a in np.meshgrid(grid, grid))
        got = _frank_values(FrankParameter(theta=theta), x, y)
        with localcontext() as ctx:
            ctx.prec = 50
            t = Decimal(theta)
            denom = (-t).exp() - 1
            for xi, yi, gi in zip(x.tolist(), y.tolist(), got.tolist()):
                dx, dy = Decimal(xi), Decimal(yi)
                inner = 1 + ((-t * dx).exp() - 1) * ((-t * dy).exp() - 1) / denom
                assert abs(gi - float(-inner.ln() / t)) <= 1e-10, (xi, yi)

    @given(st.floats(-40, 40).filter(lambda t: t != 0.0),
           st.floats(-40, 40).filter(lambda t: t != 0.0), units, units)
    def test_monotone_in_theta(self, t1, t2, x, y):
        lo, hi = sorted((t1, t2))
        a = frank_tnorm(FrankParameter(theta=lo), x, y)
        b = frank_tnorm(FrankParameter(theta=hi), x, y)
        assert a <= b + 1e-9

    def test_convergence_rate_to_min_is_log2_over_theta(self):
        """sup_x |T_theta(x,x) - x| = ln(2)/theta for large positive theta,
        attained on the diagonal; mirrored for the Lukasiewicz end. The
        implementation meets this tight analytic envelope."""
        for theta in (200.0, 500.0, 700.0):
            param = FrankParameter(theta=theta)
            xs = np.linspace(0.05, 0.95, 181)
            gap = max(abs(frank_tnorm(param, x, x) - x) for x in xs)
            assert gap <= math.log(2.0) / theta + 1e-9
            param = FrankParameter(theta=-theta)
            gap = max(abs(frank_tnorm(param, x, 1.0 - x) - luk(x, 1.0 - x))
                      for x in xs)
            assert gap <= math.log(2.0) / theta + 1e-9


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

class TestFuse:
    def test_worked_example(self):
        fused = fuse(THETA10, PI1, PI2)
        assert fused.values == pytest.approx((0.6209, 1.0, 0.9209), abs=1e-4)
        assert consistency(THETA10, PI1, PI2) == pytest.approx(0.7791, abs=1e-4)

    def test_min_limit_hand_case(self):
        fused = fuse(FrankParameter.min_limit(),
                     PossibilityDistribution((1.0, 0.2, 0.0)),
                     PossibilityDistribution((0.0, 0.2, 1.0)))
        assert fused.values == pytest.approx((0.8, 1.0, 0.8), abs=1e-12)

    def test_disjoint_one_hots_fuse_to_vacuous(self):
        a = PossibilityDistribution((1.0, 0.0, 0.0))
        b = PossibilityDistribution((0.0, 0.0, 1.0))
        param = FrankParameter.min_limit()
        assert consistency(param, a, b) == 0.0
        assert fuse(param, a, b).values == (1.0, 1.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fuse(THETA10, PI1, PossibilityDistribution((1.0, 0.5)))
        with pytest.raises(ValueError):
            consistency(THETA10, PI1, PossibilityDistribution((1.0, 0.5)))

    @given(thetas, possibility_dists())
    def test_vacuous_is_identity(self, theta, pi):
        fused = fuse(FrankParameter(theta=theta), pi, vacuous(pi.n))
        assert fused.values == pi.values

    @given(thetas, st.data())
    def test_commutative_and_normalised(self, theta, data):
        pi1 = data.draw(possibility_dists())
        pi2 = data.draw(possibility_dists(min_states=pi1.n, max_states=pi1.n))
        param = FrankParameter(theta=theta)
        ab = fuse(param, pi1, pi2)
        ba = fuse(param, pi2, pi1)
        assert ab.values == ba.values
        assert max(ab.values) == 1.0

    @given(thetas, st.data())
    def test_normaliser_complements_consistency(self, theta, data):
        pi1 = data.draw(possibility_dists())
        pi2 = data.draw(possibility_dists(min_states=pi1.n, max_states=pi1.n))
        param = FrankParameter(theta=theta)
        fused = fuse(param, pi1, pi2)
        c = consistency(param, pi1, pi2)
        raw = [frank_tnorm(param, a, b) for a, b in zip(pi1.values, pi2.values)]
        expect = [min(1.0, r + 1.0 - c) for r in raw]
        assert fused.values == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# pignistic transform
# ---------------------------------------------------------------------------

class TestPignistic:
    def test_worked_example(self):
        p = pignistic(PI1)
        assert p.values == pytest.approx((0.4833, 0.2833, 0.2333), abs=1e-4)

    def test_two_state_hand_case(self):
        assert pignistic(PossibilityDistribution((1.0, 0.5))).values == \
            pytest.approx((0.75, 0.25), abs=1e-12)

    def test_vacuous_gives_uniform(self):
        assert pignistic(vacuous(5)).values == pytest.approx([0.2] * 5, abs=1e-12)

    def test_one_hot_passthrough(self):
        p = pignistic(PossibilityDistribution((0.0, 1.0, 0.0)))
        assert p.values == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    @given(possibility_dists())
    def test_sums_to_one(self, pi):
        assert sum(pignistic(pi).values) == pytest.approx(1.0, abs=1e-12)

    @given(possibility_dists())
    def test_order_preserving(self, pi):
        p = pignistic(pi).values
        for i in range(pi.n):
            for j in range(pi.n):
                if pi.values[i] >= pi.values[j]:
                    assert p[i] >= p[j] - 1e-12

    @given(possibility_dists())
    def test_bracketed_by_necessity_and_possibility(self, pi):
        p = pignistic(pi).values
        for s in range(1, pi.n + 1):
            lo = necessity_measure(pi, StateSubset((s,)))
            hi = possibility_measure(pi, StateSubset((s,)))
            assert lo - 1e-12 <= p[s - 1] <= hi + 1e-12

    @given(possibility_dists(), st.randoms(use_true_random=False))
    def test_tie_break_invariance(self, pi, rnd):
        """Permuting the states permutes the pignistic values: the result
        cannot depend on which of two tied states the sort visits first."""
        perm = list(range(pi.n))
        rnd.shuffle(perm)
        permuted = PossibilityDistribution([pi.values[i] for i in perm])
        p = pignistic(pi).values
        q = pignistic(permuted).values
        assert q == pytest.approx([p[i] for i in perm], abs=1e-12)


def pignistic_rows_along_axis(b):
    """The pignistic rows through take_along_axis/put_along_axis, with the
    same subtractions, divisors and cumsum order as _pignistic_rows."""
    n = b.shape[1]
    order = np.argsort(-b, axis=1, kind="stable")
    v = np.take_along_axis(b, order, axis=1)
    diffs = np.empty_like(v)
    diffs[:, :-1] = v[:, :-1] - v[:, 1:]
    diffs[:, -1] = v[:, -1]
    diffs /= np.arange(1, n + 1)
    p_sorted = np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
    p = np.empty_like(b)
    np.put_along_axis(p, order, p_sorted, axis=1)
    return p


class TestPignisticRows:
    """The flat-index kernel gives the along-axis reference bit for bit."""

    @pytest.mark.parametrize("b", [
        np.array([[1.0, 0.5, 0.5, 0.2], [0.3, 1.0, 0.3, 1.0]]),  # ties
        np.ones((3, 5)),
        np.eye(4),  # one-hot rows
        np.array([[1.0, 0.25], [0.0, 1.0], [1.0, 1.0]]),  # n = 2
        np.array([[0.1, 1.0, 0.7]]),  # m = 1
        np.array([[1.0, 0.0]]),
    ], ids=["ties", "all-ones", "one-hot", "n2", "m1", "m1-n2"])
    def test_edge_rows(self, b):
        assert np.array_equal(_pignistic_rows(b), pignistic_rows_along_axis(b))

    @given(m=st.integers(1, 40), n=st.integers(2, 20),
           seed=st.integers(0, 2 ** 32), coarse=st.booleans())
    def test_random_blocks(self, m, n, seed, coarse):
        rng = np.random.default_rng(seed)
        b = rng.random((m, n))
        if coarse:
            b = np.round(b, 1)  # many ties and zeros
        b[np.arange(m), rng.integers(n, size=m)] = 1.0
        assert np.array_equal(_pignistic_rows(b), pignistic_rows_along_axis(b))


# ---------------------------------------------------------------------------
# Rewritten row kernels against their plain numpy expressions
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (got, want)


def log_expm1_reference(z):
    """log(e^z - 1) in its plain form: both branches evaluated with
    np.where."""
    with np.errstate(divide="ignore"):
        small = np.log(np.expm1(np.where(z > 1.0, 1.0, z)))
        return np.where(z > 1.0, z + np.log1p(-np.exp(-z)), small)


def frank_values_reference(param, x, y):
    """The Frank kernel in its plain form: every -theta and product
    computed where it is used, an np.clip/np.where tail. T(0, y) = 0 and
    T(x, 1) = x give min(x, y) as it is; np.clip alone would give +0.0
    where min(x, y) is -0.0. param is a FrankParameter or a _FrankRows."""
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    if param.branch == "min":
        return lo
    if param.branch == "lukasiewicz":
        return np.maximum(0.0, lo + hi - 1.0)
    if param.branch == "product":
        return lo * hi
    theta = param.theta
    if param.branch == "positive":
        s = np.exp(-theta * lo) * (-np.expm1(-theta * (1.0 - lo))) \
            + np.exp(-theta * hi) * (-np.expm1(-theta * lo))
        with np.errstate(divide="ignore"):
            t = (param.const - np.log(s)) / theta
    else:
        phi = -theta
        logr = log_expm1_reference(phi * lo) + log_expm1_reference(phi * hi) \
            - param.const
        t = np.logaddexp(0.0, logr) / phi
    t = np.clip(t, np.maximum(0.0, lo + hi - 1.0), lo)
    return np.where((lo == 0.0) | (hi == 1.0), lo, t)


def fuse_rows_reference(param, a, b):
    """Normalised fusion with a max reduction beside the argmax."""
    t = frank_values_reference(param, a, b)
    tm = t.max(axis=1)
    out = t + (1.0 - tm)[:, None]
    np.minimum(out, 1.0, out=out)
    out[np.arange(out.shape[0]), t.argmax(axis=1)] = 1.0
    return out


BRANCHES = ("min", "lukasiewicz", "product", "positive", "negative")
BRANCH_THETAS = {
    "product": st.floats(-THETA_PRODUCT_CUTOFF, THETA_PRODUCT_CUTOFF,
                         exclude_min=True, exclude_max=True).filter(bool),
    "positive": st.floats(THETA_PRODUCT_CUTOFF, THETA_MAX),
    "negative": st.floats(-THETA_MAX, -THETA_PRODUCT_CUTOFF),
}
# exact 0s and 1s and repeated values, besides any degree; -0.0, the least
# subnormal and the greatest double below 1 sit on the edges of the
# entries that the Frank kernel's closed form runs on
degrees = st.one_of(st.sampled_from((0.0, 1.0, 0.5, 0.25, -0.0, 5e-324,
                                     1.0 - 2.0 ** -53)), units)


@st.composite
def frank_params(draw, branch, rows=None):
    """A FrankParameter of the branch or, given `rows`, a list of one per
    row of a block, possibly all equal. The product branch draws the limit
    or a theta below the cutoff."""
    if branch in ("min", "lukasiewicz") or (branch == "product"
                                           and draw(st.booleans())):
        limit = FrankParameter(limit=branch)
        return limit if rows is None else [limit] * rows
    if rows is None:
        return FrankParameter(theta=draw(BRANCH_THETAS[branch]))
    thetas = draw(st.lists(BRANCH_THETAS[branch], min_size=rows, max_size=rows))
    if draw(st.booleans()):
        thetas = [thetas[0]] * rows
    return [FrankParameter(theta=t) for t in thetas]


@st.composite
def frank_blocks(draw):
    """Two (m, n) blocks of degrees and a list of one FrankParameter per
    row."""
    branch = draw(st.sampled_from(BRANCHES))
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    x = draw(arrays(np.float64, (m, n), elements=degrees))
    y = draw(arrays(np.float64, (m, n), elements=degrees))
    return draw(frank_params(branch, m)), x, y


class TestKernelReferences:
    """_frank_values and _fuse_rows give their plain forms bit for bit, on
    every Frank branch, with ties, exact 0 and 1 entries, n = 2, m = 1 and
    scalars."""

    @given(frank_blocks())
    def test_frank_values_blocks(self, block):
        param, x, y = block
        frank = _FrankRows.of(param)
        assert_same_bits(_frank_values(frank, x, y),
                         frank_values_reference(frank, x, y))

    @given(st.sampled_from(BRANCHES).flatmap(frank_params), degrees, degrees)
    def test_frank_values_scalars(self, param, x, y):
        x, y = np.asarray(x), np.asarray(y)
        want = frank_values_reference(param, x, y)
        assert_same_bits(_frank_values(param, x, y), want)
        assert frank_tnorm(param, float(x), float(y)) == float(want)

    @given(frank_blocks())
    def test_block_entries_equal_their_scalar_calls(self, block):
        # a block runs the closed form on a gathered copy of its entries
        # with 0 < min and max < 1, a scalar call on the entry in place
        param, x, y = block
        got = _frank_values(_FrankRows.of(param), x, y)
        for i, p in enumerate(param):
            for j in range(x.shape[1]):
                assert_same_bits(got[i, j], _frank_values(p, x[i, j], y[i, j]))

    @given(frank_blocks())
    def test_fuse_rows(self, block):
        param, a, b = block
        frank = _FrankRows.of(param)
        assert_same_bits(_fuse_rows(frank, a, b), fuse_rows_reference(frank, a, b))

    @given(st.sampled_from(BRANCHES).flatmap(frank_params),
           possibility_dists(), st.data())
    def test_consistency(self, param, pi1, data):
        pi2 = data.draw(possibility_dists(min_states=pi1.n, max_states=pi1.n))
        want = frank_values_reference(param, pi1.as_array(), pi2.as_array())
        assert consistency(param, pi1, pi2) == float(want.max())

    @pytest.mark.parametrize("theta", [5.0, -5.0])
    def test_one_parameter_is_built_once_and_read_only(self, theta):
        # the branch and constant are derived once, at construction: rows
        # of one parameter carry its own theta and constant objects, and
        # nothing may write to the parameter's fields
        param = FrankParameter(theta=theta)
        frank = _FrankRows.of([param, param])
        assert frank.branch == param.branch
        assert frank.theta is param.theta and frank.const is param.const
        for obj, name in [(param, "theta"), (param, "limit"),
                          (param, "branch"), (param, "const"),
                          (frank, "branch"), (frank, "theta"),
                          (frank, "const")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1.0)

    @given(st.sampled_from(BRANCHES).flatmap(
        lambda branch: frank_params(branch, 3)))
    def test_derived_fields_are_the_branch_and_constant(self, params):
        # each parameter's branch and constant, and a column of them,
        # against the expressions evaluated on theta as a 0-d array and
        # as an (m, 1) column
        for param in params:
            branch, const = frank_derived_reference(param.theta, param.limit)
            assert param.branch == branch
            if const is None:
                assert param.const is None
            else:
                assert_same_bits(param.const, const)
        frank = _FrankRows.of(params)
        if frank.const is not None and np.ndim(frank.theta):
            assert_same_bits(frank.const,
                             frank_derived_reference(frank.theta)[1])

    @pytest.mark.parametrize("param", [
        FrankParameter(theta=5.0), FrankParameter(theta=-5.0),
        FrankParameter(theta=5e-5), FrankParameter.min_limit()],
        ids=["positive", "negative", "product", "min"])
    def test_derived_fields_stay_out_of_eq_hash_repr_and_pickle(self, param):
        twin = copy.copy(param)
        object.__setattr__(twin, "branch", "changed")
        object.__setattr__(twin, "const", 0.5)
        assert twin == param and hash(twin) == hash(param)
        assert repr(param) == (f"FrankParameter(theta={param.theta!r}, "
                               f"limit={param.limit!r})")
        data = pickle.dumps(param)
        assert b"branch" not in data and b"const" not in data
        back = pickle.loads(data)
        assert back == param
        assert (back.branch, back.const) == (param.branch, param.const)


def frank_derived_reference(theta, limit=None):
    """(branch, constant) of a Frank parameter: the limit's name and None,
    "product" and None below the cutoff, else the sign's branch and its
    closed-form constant evaluated on theta as an array."""
    if limit is not None:
        return limit, None
    theta = np.asarray(theta, dtype=float)
    if np.all(abs(theta) < THETA_PRODUCT_CUTOFF):
        return "product", None
    if np.all(theta > 0):
        return "positive", _log1mexp(theta)
    return "negative", _log_expm1(np.array(-theta), np.empty_like(theta))


def wide_thetas(rng, branch, rows):
    """A FrankParameter of the branch or, given `rows`, one per row; finite
    thetas are log-uniform over the branch's range, and the product branch
    draws the limit or thetas below the cutoff."""
    if branch in ("min", "lukasiewicz") or (branch == "product"
                                           and rng.random() < 0.5):
        limit = FrankParameter(limit=branch)
        return limit if rows is None else [limit] * rows
    if branch == "product":
        thetas = 0.99 * THETA_PRODUCT_CUTOFF * rng.uniform(-1.0, 1.0, rows or 1)
    else:
        thetas = np.clip(10.0 ** rng.uniform(np.log10(THETA_PRODUCT_CUTOFF),
                                             np.log10(THETA_MAX), rows or 1),
                         THETA_PRODUCT_CUTOFF, THETA_MAX)
        if branch == "negative":
            thetas = -thetas
    if rows is None:
        return FrankParameter(theta=float(thetas[0]))
    return [FrankParameter(theta=float(t)) for t in thetas]


ROW_MODES = ("fine", "coarse", "sparse", "evidence")


def wide_rows(rng, m, n, mode):
    """An (m, n) block of possibility rows, one entry per row set to 1 and
    the others, by mode:

    - fine: random degrees;
    - coarse: random degrees rounded to one decimal, for ties and exact
      0s and 1s;
    - sparse: random degrees, most of them exactly 0, like beliefs that
      evidence has ruled states out of (the `large` benchmark's beliefs are
      88% zeros at step 75);
    - evidence: one value c per row, 0, random or 1 - 2**-53, like the
      evidence rows of environment._evidence_rows.
    """
    if mode == "evidence":
        c = np.choose(rng.integers(3, size=(m, 1)),
                      (0.0, rng.random((m, 1)), 1.0 - 2.0 ** -53))
        b = np.repeat(c, n, axis=1)
    else:
        b = rng.random((m, n))
    if mode == "coarse":
        b = np.round(b, 1)
    elif mode == "sparse":
        b[rng.random((m, n)) < 0.88] = 0.0
    b[np.arange(m), rng.integers(n, size=m)] = 1.0
    return b


class TestWideRows:
    """The rewritten kernels against their references at paper sizes, with
    rows long enough to run numpy's vector loops and not only their tails:
    every Frank branch, one theta or one per row, ties, exact 0s and 1s,
    mostly-zero beliefs and evidence rows."""

    @given(st.sampled_from(BRANCHES), st.integers(100, 2000),
           st.integers(2, 24), st.integers(0, 2 ** 32),
           st.sampled_from(ROW_MODES), st.sampled_from(ROW_MODES),
           st.booleans())
    def test_frank_values_and_fuse_rows(self, branch, m, n, seed, mode_a,
                                        mode_b, per_row):
        rng = np.random.default_rng(seed)
        frank = (_FrankRows.of(wide_thetas(rng, branch, m)) if per_row
                 else wide_thetas(rng, branch, None))
        a, b = wide_rows(rng, m, n, mode_a), wide_rows(rng, m, n, mode_b)
        if frank.branch == "negative":
            assert_same_bits(frank.const, log_expm1_reference(-frank.theta))
        assert_same_bits(_frank_values(frank, a, b),
                         frank_values_reference(frank, a, b))
        assert_same_bits(_fuse_rows(frank, a, b), fuse_rows_reference(frank, a, b))

    @given(st.integers(100, 2000), st.integers(2, 24), st.integers(0, 2 ** 32),
           st.sampled_from(ROW_MODES))
    def test_pignistic_rows(self, m, n, seed, mode):
        b = wide_rows(np.random.default_rng(seed), m, n, mode)
        assert_same_bits(_pignistic_rows(b), pignistic_rows_along_axis(b))


class TestUfuncLayouts:
    """The Frank kernel runs its closed form in place on a scalar or a
    block without 0s and 1s, and on a gathered copy of the open entries of
    any other block, so a CSV's bytes rest on numpy's exp, expm1, log,
    log1p and logaddexp giving the same bits for a value whatever array it
    sits in. The pinned numpy does; a release whose vector loops rounded
    by layout would fail here instead of moving CSV bytes."""

    K = 3000
    POOL = 10 ** 5

    def magnitudes(self, rng, top):
        """K magnitudes up to top: half uniform, half log-uniform from the
        least subnormals."""
        half = self.K // 2
        return np.concatenate((rng.uniform(0.0, top, half),
                               10.0 ** rng.uniform(-323.0, np.log10(top),
                                                   self.K - half)))

    def arguments(self, rng):
        """Each ufunc's arguments over the ranges that the two branches
        feed it, for 1e-4 <= |theta| <= 700 and degrees in (0, 1):
        exp(-theta x) and exp(-z); expm1 of -theta x, -theta (1 - x) and
        min(z, 1); log of the positive branch's sum and of expm1(min(z,
        1)); log1p(-e^{-z}) for z > ln 2; logaddexp(0, w) of the negative
        branch's log-space sum."""
        def mag(top):
            return self.magnitudes(rng, top)

        return {
            np.exp: -mag(THETA_MAX),
            np.expm1: np.concatenate((-mag(THETA_MAX), mag(1.0))),
            np.log: mag(math.e - 1.0),
            np.log1p: -mag(0.5),
            np.logaddexp: np.concatenate((-mag(2 * THETA_MAX),
                                          mag(2 * THETA_MAX))),
        }

    def test_same_bits_alone_strided_gathered_and_in_a_long_array(self):
        rng = np.random.default_rng(20)
        for ufunc, args in self.arguments(rng).items():
            def f(a, out=None):
                if ufunc is np.logaddexp:
                    return ufunc(0.0, a, out=out)
                return ufunc(a, out=out)

            k = len(args)
            alone = np.array([f(np.asarray(a)) for a in args])
            strided = np.zeros(3 * k)
            strided[1::3] = args
            strided = f(strided[1::3])
            # a long array of other arguments from the same range, with
            # these at random positions of every alignment
            pool = rng.permutation(np.resize(args, self.POOL))
            at = np.sort(rng.choice(self.POOL, k, replace=False))
            pool[at] = args
            taken = np.zeros(self.POOL, dtype=bool)
            taken[at] = True
            gathered = pool[taken]
            f(gathered, out=gathered)
            in_pool = f(pool)[at]
            for got in (strided, gathered, in_pool):
                assert_same_bits(got, alone)

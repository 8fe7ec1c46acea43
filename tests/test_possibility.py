"""Possibility distributions, Frank t-norms, fusion, and the pignistic
transform.

The worked three-state example (pi1 = (1, 0.8, 0.7), pi2 = (0.4, 0.9, 1),
theta = 10) supplies most golden values. The lone high-precision t-norm
constant below was frozen from a 400-digit mpmath evaluation of the closed
form, independent of the library code.
"""

import math
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
    computed where it is used, an np.clip/np.where tail."""
    frank = param if isinstance(param, _FrankRows) else _FrankRows.of(param)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    if frank.branch == "min":
        return lo
    if frank.branch == "lukasiewicz":
        return np.maximum(0.0, lo + hi - 1.0)
    if frank.branch == "product":
        return lo * hi
    theta = frank.theta
    if frank.branch == "positive":
        s = np.exp(-theta * lo) * (-np.expm1(-theta * (1.0 - lo))) \
            + np.exp(-theta * hi) * (-np.expm1(-theta * lo))
        with np.errstate(divide="ignore"):
            t = (frank.const - np.log(s)) / theta
    else:
        phi = -theta
        logr = log_expm1_reference(phi * lo) + log_expm1_reference(phi * hi) \
            - frank.const
        t = np.logaddexp(0.0, logr) / phi
    t = np.clip(t, np.maximum(0.0, lo + hi - 1.0), lo)
    return np.where(hi == 1.0, lo, t)


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
# exact 0s and 1s and repeated values, besides any degree
degrees = st.one_of(st.sampled_from((0.0, 1.0, 0.5, 0.25)), units)


@st.composite
def frank_params(draw, branch, rows=None):
    """A FrankParameter of the branch or, given `rows`, a list of one per
    row of a block, possibly all equal. The product branch draws the limit
    or a theta below the cutoff."""
    if branch in ("min", "lukasiewicz") or (branch == "product"
                                           and draw(st.booleans())):
        return FrankParameter(limit=branch)
    if rows is None:
        return FrankParameter(theta=draw(BRANCH_THETAS[branch]))
    thetas = draw(st.lists(BRANCH_THETAS[branch], min_size=rows, max_size=rows))
    if draw(st.booleans()):
        thetas = [thetas[0]] * rows
    return [FrankParameter(theta=t) for t in thetas]


@st.composite
def frank_blocks(draw):
    """Two (m, n) blocks of degrees and a FrankParameter or per-row list."""
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
        # the scalar calls share one cached _FrankRows per parameter, so
        # nothing may write to its arrays
        frank = _FrankRows.of(FrankParameter(theta=theta))
        assert _FrankRows.of(FrankParameter(theta=theta)) is frank
        assert not frank.theta.flags.writeable
        assert not frank.const.flags.writeable
        assert _FrankRows.of([FrankParameter(theta=theta)]) is not frank


def wide_thetas(rng, branch, rows):
    """A FrankParameter of the branch or, given `rows`, one per row; finite
    thetas are log-uniform over the branch's range, and the product branch
    draws the limit or thetas below the cutoff."""
    if branch in ("min", "lukasiewicz") or (branch == "product"
                                           and rng.random() < 0.5):
        return FrankParameter(limit=branch)
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


def wide_rows(rng, m, n, coarse):
    """An (m, n) block of possibility rows: random degrees, one entry per
    row set to 1; rounded to one decimal when coarse, for ties and exact
    0s and 1s."""
    b = rng.random((m, n))
    if coarse:
        b = np.round(b, 1)
    b[np.arange(m), rng.integers(n, size=m)] = 1.0
    return b


class TestWideRows:
    """The rewritten kernels against their references at paper sizes, with
    rows long enough to run numpy's vector loops and not only their tails:
    every Frank branch, one theta or one per row, ties and exact 0s and
    1s."""

    @given(st.sampled_from(BRANCHES), st.integers(100, 2000),
           st.integers(2, 24), st.integers(0, 2 ** 32), st.booleans(),
           st.booleans())
    def test_frank_values_and_fuse_rows(self, branch, m, n, seed, coarse,
                                        per_row):
        rng = np.random.default_rng(seed)
        frank = _FrankRows.of(wide_thetas(rng, branch, m if per_row else None))
        a, b = wide_rows(rng, m, n, coarse), wide_rows(rng, m, n, coarse)
        if frank.branch == "negative":
            assert_same_bits(frank.const, log_expm1_reference(-frank.theta))
        assert_same_bits(_frank_values(frank, a, b),
                         frank_values_reference(frank, a, b))
        assert_same_bits(_fuse_rows(frank, a, b), fuse_rows_reference(frank, a, b))

    @given(st.integers(100, 2000), st.integers(2, 24), st.integers(0, 2 ** 32),
           st.booleans())
    def test_pignistic_rows(self, m, n, seed, coarse):
        b = wide_rows(np.random.default_rng(seed), m, n, coarse)
        assert_same_bits(_pignistic_rows(b), pignistic_rows_along_axis(b))

"""Probability distributions, renormalised product fusion, and inverse-CDF
state sampling; the product row kernel and the scalar functions that wrap
the row kernels against the plain expressions they replaced."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from possibly import (
    DegenerateFusionWarning,
    ProbabilityDistribution,
    product_fuse,
    sample_state,
    uniform,
)
from possibly.probability import DEGENERATE_MASS, _product_rows

units = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def probability_dists(draw, min_states=2, max_states=6, positive=False):
    n = draw(st.integers(min_states, max_states))
    low = 1e-3 if positive else 0.0
    raw = draw(st.lists(st.floats(min_value=low, max_value=1.0,
                                  allow_nan=False, allow_infinity=False),
                        min_size=n, max_size=n))
    total = sum(raw)
    if total == 0.0:
        raw[0] = 1.0
        total = 1.0
    return ProbabilityDistribution([v / total for v in raw])


def one_hot(n, i):
    vals = [0.0] * n
    vals[i - 1] = 1.0
    return ProbabilityDistribution(vals)


class TestProbabilityDistribution:
    def test_uniform(self):
        assert uniform(4).values == pytest.approx([0.25] * 4, abs=1e-15)

    def test_renormalises_small_drift(self):
        p = ProbabilityDistribution((0.5 + 1e-10, 0.5))
        assert sum(p.values) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution((0.6, 0.6))
        with pytest.raises(ValueError):
            ProbabilityDistribution((0.2, 0.2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution((1.2, -0.2))

    @pytest.mark.parametrize("values", [
        (float("nan"),), (0.5, float("nan")), (float("nan"), 1.0),
        (float("inf"),), (1.0, float("-inf")),
    ])
    def test_rejects_nan_and_infinity(self, values):
        with pytest.raises(ValueError):
            ProbabilityDistribution(values)

    def test_sequence_protocol(self):
        p = uniform(3)
        assert len(p) == 3 and p[0] == pytest.approx(1 / 3) and p.n == 3


class TestProductFuse:
    def test_agreement_reinforces(self):
        p = ProbabilityDistribution((0.8, 0.2))
        fused = product_fuse(p, p)
        # 0.64 : 0.04 renormalised
        assert fused.values == pytest.approx((0.64 / 0.68, 0.04 / 0.68), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product_fuse(uniform(2), uniform(3))

    def test_disjoint_supports_warn_and_reset(self):
        with pytest.warns(DegenerateFusionWarning):
            fused = product_fuse(one_hot(3, 1), one_hot(3, 3))
        assert fused.values == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_one_hot_absorbs(self):
        spike = one_hot(3, 2)
        other = ProbabilityDistribution((0.5, 0.25, 0.25))
        assert product_fuse(spike, other).values == (0.0, 1.0, 0.0)

    @given(probability_dists())
    def test_uniform_is_identity(self, p):
        fused = product_fuse(p, uniform(p.n))
        assert fused.values == pytest.approx(p.values, abs=1e-12)

    @given(st.data())
    def test_sums_to_one_and_commutes(self, data):
        p1 = data.draw(probability_dists(positive=True))
        p2 = data.draw(probability_dists(min_states=p1.n, max_states=p1.n,
                                         positive=True))
        ab = product_fuse(p1, p2)
        ba = product_fuse(p2, p1)
        assert sum(ab.values) == pytest.approx(1.0, abs=1e-12)
        assert ab.values == ba.values

    @given(st.data())
    def test_zeros_persist(self, data):
        """Product fusion can never revive a state either belief rules out."""
        p1 = data.draw(probability_dists())
        p2 = data.draw(probability_dists(min_states=p1.n, max_states=p1.n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateFusionWarning)
            fused = product_fuse(p1, p2)
        if sum(a * b for a, b in zip(p1.values, p2.values)) >= 1e-300:
            for a, b, c in zip(p1.values, p2.values, fused.values):
                if a == 0.0 or b == 0.0:
                    assert c == 0.0


class TestSampleState:
    def test_certain_belief_always_selected(self):
        rng = np.random.default_rng(0)
        assert all(sample_state(one_hot(4, 2), rng) == 2 for _ in range(50))

    def test_zero_probability_states_never_selected(self):
        rng = np.random.default_rng(1)
        p = ProbabilityDistribution((0.5, 0.0, 0.5))
        draws = {sample_state(p, rng) for _ in range(500)}
        assert draws == {1, 3}

    def test_consumes_exactly_one_uniform(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        sample_state(uniform(5), a)
        b.random()
        assert a.random() == b.random()

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(123)
        p = ProbabilityDistribution((0.1, 0.6, 0.3))
        counts = np.zeros(3)
        trials = 20000
        for _ in range(trials):
            counts[sample_state(p, rng) - 1] += 1
        assert counts / trials == pytest.approx(p.values, abs=0.02)


# ---------------------------------------------------------------------------
# Row kernels and their wrappers against the expressions they replaced
# ---------------------------------------------------------------------------

def pair_fusion_reference(a, b):
    """The product pair fusion as the step wrote it inline, before
    _product_rows."""
    fused = a * b
    s = np.add.reduce(fused, axis=1)
    bad = s < DEGENERATE_MASS
    fused /= np.where(bad, 1.0, s)[:, None]
    fused[bad] = 1.0 / a.shape[1]
    return fused, bad


def evidence_fusion_reference(x, ev):
    """The product evidence fusion as the step wrote it inline, before
    _product_rows, touching the sums only when some row is degenerate."""
    x = x * ev
    s = np.add.reduce(x, axis=1)
    bad = s < DEGENERATE_MASS
    if bad.any():
        s = np.where(bad, 1.0, s)
    x /= s[:, None]
    x[bad] = 1.0 / x.shape[1]
    return x, bad


def product_fuse_reference(p1, p2):
    """product_fuse as a 1-D product, a float sum and its own branch."""
    w = p1.as_array() * p2.as_array()
    s = float(w.sum())
    if s < DEGENERATE_MASS:
        warnings.warn("reference", DegenerateFusionWarning)
        return uniform(p1.n)
    return ProbabilityDistribution((w / s).tolist())


def sample_state_reference(p, rng):
    """sample_state as one uniform against np.cumsum."""
    u = rng.random()
    c = np.cumsum(p.as_array())
    return min(int((u > c).sum()), p.n - 1) + 1


# exact 0s and 1s (one-hot rows, disjoint supports), masses whose products
# fall below DEGENERATE_MASS or stay just above it, and any value in [0, 1]
masses = st.one_of(
    st.sampled_from((0.0, 1.0, 0.5, 1e-150, 1e-160, 1e-200, 5e-324)),
    st.floats(0.0, 1.0))


@st.composite
def mass_rows(draw, m, n):
    """An (m, n) array of masses; each row may be replaced by a one-hot."""
    rows = draw(arrays(np.float64, (m, n), elements=masses))
    for r in range(m):
        if draw(st.booleans()):
            rows[r] = 0.0
            rows[r, draw(st.integers(0, n - 1))] = 1.0
    return rows


def warned(fn, *args):
    """fn(*args) and whether it emitted a DegenerateFusionWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, any(issubclass(w.category, DegenerateFusionWarning)
                    for w in caught)


class TestProductRows:
    """_product_rows gives the two fusions the step once wrote inline bit
    for bit, degenerate mask included, and writes into its first
    argument."""

    @given(st.integers(1, 30), st.integers(2, 20), st.data())
    def test_equals_the_inline_fusions(self, m, n, data):
        a = data.draw(mass_rows(m, n))
        b = data.draw(mass_rows(m, n))
        for reference in (pair_fusion_reference, evidence_fusion_reference):
            want, want_bad = reference(a, b)
            into = a.copy()
            got, bad = _product_rows(into, b)
            assert got is into
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(bad, want_bad)

    @given(st.integers(100, 2000), st.integers(2, 20), st.integers(0, 2 ** 32))
    def test_equals_the_inline_fusions_paper_size(self, m, n, seed):
        rng = np.random.default_rng(seed)
        rows = np.arange(m)
        a, b = rng.random((2, m, n))
        # a third of the rows one-hot in both, at independent states: where
        # they differ the product is 0
        hot = rng.random(m) < 1 / 3
        for x in (a, b):
            x[hot] = 0.0
            x[rows[hot], rng.integers(n, size=hot.sum())] = 1.0
        # a sixth with masses near DEGENERATE_MASS, on both sides of it
        tiny = rng.random(m) < 1 / 6
        a[tiny] *= 10.0 ** -rng.integers(140, 170, size=(tiny.sum(), 1))
        b[tiny] *= 10.0 ** -rng.integers(140, 170, size=(tiny.sum(), 1))
        want, want_bad = pair_fusion_reference(a, b)
        got, bad = _product_rows(a.copy(), b)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(bad, want_bad)
        assert bad.any() and not bad.all()

    def test_underflowing_and_disjoint_rows_reset(self):
        a = np.array([[1e-200, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        b = np.array([[1e-105, 0.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.25, 0.25]])
        got, bad = _product_rows(a, b)
        assert bad.tolist() == [True, True, False]
        assert (got[:2] == 1.0 / 3).all()
        assert got[2].tolist() == [0.25 / 0.375, 0.125 / 0.375, 0.0]


@st.composite
def mass_dists(draw, n):
    """A ProbabilityDistribution over n states from masses, zeros and
    one-hots included."""
    row = draw(mass_rows(1, n))[0]
    if row.sum() == 0.0:
        row[0] = 1.0
    return ProbabilityDistribution((row / row.sum()).tolist())


class TestScalarWrappers:
    """product_fuse and sample_state, now wrappers over the row kernels,
    give the scalar expressions they replaced bit for bit."""

    @given(st.integers(1, 20), st.data())
    def test_product_fuse(self, n, data):
        p1, p2 = data.draw(mass_dists(n)), data.draw(mass_dists(n))
        got, got_warned = warned(product_fuse, p1, p2)
        want, want_warned = warned(product_fuse_reference, p1, p2)
        assert got.values == want.values
        assert got_warned == want_warned

    @pytest.mark.parametrize("p1, p2", [
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),  # disjoint one-hots
        ((1e-200, 1.0, 0.0), (1e-105, 0.0, 1.0)),  # underflowing overlap
    ])
    def test_product_fuse_degenerate(self, p1, p2):
        p1, p2 = ProbabilityDistribution(p1), ProbabilityDistribution(p2)
        got, got_warned = warned(product_fuse, p1, p2)
        want, want_warned = warned(product_fuse_reference, p1, p2)
        assert got_warned and want_warned
        assert got.values == want.values

    @given(st.integers(1, 20), st.integers(0, 2 ** 32), st.data())
    def test_sample_state(self, n, seed, data):
        p = data.draw(mass_dists(n))
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        got = sample_state(p, a)
        assert type(got) is int and got == sample_state_reference(p, b)
        # the same single uniform consumed
        assert a.bit_generator.state == b.bit_generator.state

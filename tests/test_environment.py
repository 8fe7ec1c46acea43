"""Best-of-n environment: state qualities, clamped noisy sampling, and the
two evidence shapes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from possibly import (
    EnvironmentSpec,
    NoiseSpec,
    possibilistic_evidence,
    probabilistic_evidence,
    reversal_probability,
    sample_quality,
)
from possibly.environment import _BLOCK


class TestEnvironmentSpec:
    def test_default_qualities_are_evenly_spaced(self):
        env = EnvironmentSpec.default(5)
        assert env.n == 5
        assert env.qualities == pytest.approx([i / 6 for i in range(1, 6)], abs=1e-15)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            EnvironmentSpec(2, (0.5, 0.5))
        with pytest.raises(ValueError):
            EnvironmentSpec(3, (0.1, 0.8, 0.4))

    def test_rejects_out_of_range_or_wrong_length(self):
        with pytest.raises(ValueError):
            EnvironmentSpec(2, (0.5, 1.5))
        with pytest.raises(ValueError):
            EnvironmentSpec(3, (0.1, 0.2))
        with pytest.raises(ValueError):
            EnvironmentSpec.default(1)

    def test_noise_rejects_negative_sigma(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NoiseSpec(sigma=sigma)


class TestSampleQuality:
    def test_noiseless_returns_true_quality(self):
        env = EnvironmentSpec.default(5)
        rng = np.random.default_rng(0)
        assert sample_quality(env, NoiseSpec(sigma=0.0), 3, rng) == env.qualities[2]

    def test_always_clamped_to_unit_interval(self):
        env = EnvironmentSpec.default(5)
        rng = np.random.default_rng(1)
        noise = NoiseSpec(sigma=50.0)
        samples = [sample_quality(env, noise, 5, rng) for _ in range(200)]
        assert all(0.0 <= q <= 1.0 for q in samples)
        assert 1.0 in samples and 0.0 in samples  # clamping actually bites

    def test_consumes_one_gaussian_even_when_noiseless(self):
        # the draw schedule must not depend on sigma, or seeds would stop
        # being comparable across noise levels
        env = EnvironmentSpec.default(3)
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        sample_quality(env, NoiseSpec(sigma=0.0), 1, a)
        b.standard_normal()
        assert a.standard_normal() == b.standard_normal()

    def test_rejects_bad_state_index(self):
        env = EnvironmentSpec.default(3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_quality(env, NoiseSpec(sigma=0.0), 0, rng)
        with pytest.raises(ValueError):
            sample_quality(env, NoiseSpec(sigma=0.0), 4, rng)


class TestEvidence:
    def test_possibilistic_shape(self):
        ev = possibilistic_evidence(5, 2, 0.7)
        expect = [1 - 0.7] * 5
        expect[1] = 1.0
        assert ev.values == pytest.approx(expect, abs=1e-15)

    def test_possibilistic_certain_sample_is_one_hot(self):
        ev = possibilistic_evidence(4, 3, 1.0)
        assert ev.values == (0.0, 0.0, 1.0, 0.0)

    def test_possibilistic_zero_quality_is_vacuous(self):
        assert possibilistic_evidence(3, 1, 0.0).values == (1.0, 1.0, 1.0)

    def test_probabilistic_shape(self):
        ev = probabilistic_evidence(5, 2, 0.7)
        off = (1 - 0.7) / 5
        on = (4 * 0.7 + 1) / 5
        expect = [off] * 5
        expect[1] = on
        assert ev.values == pytest.approx(expect, abs=1e-15)
        assert sum(ev.values) == pytest.approx(1.0, abs=1e-12)

    def test_probabilistic_extremes(self):
        assert probabilistic_evidence(4, 2, 1.0).values == (0.0, 1.0, 0.0, 0.0)
        assert probabilistic_evidence(4, 2, 0.0).values == pytest.approx([0.25] * 4)

    @pytest.mark.parametrize("factory", [possibilistic_evidence, probabilistic_evidence])
    def test_validation(self, factory):
        with pytest.raises(ValueError):
            factory(5, 0, 0.5)
        with pytest.raises(ValueError):
            factory(5, 6, 0.5)
        with pytest.raises(ValueError):
            factory(5, 1, 1.5)
        with pytest.raises(ValueError):
            factory(1, 1, 0.5)

    @given(st.integers(2, 8), st.floats(0, 1, allow_nan=False))
    def test_possibilistic_evidence_favours_sampled_state(self, n, qhat):
        ev = possibilistic_evidence(n, n, qhat)
        assert max(ev.values) == ev.values[n - 1] == 1.0

    @given(st.integers(2, 8), st.floats(0, 1, allow_nan=False))
    def test_probabilistic_evidence_sums_to_one(self, n, qhat):
        ev = probabilistic_evidence(n, 1, qhat)
        assert sum(ev.values) == pytest.approx(1.0, abs=1e-12)
        assert ev.values[0] >= max(ev.values[1:])


def reversal_reference(env, sigma, i, j, samples, rng):
    """The two-array estimator: every clamped observation of i, then every
    one of j, compared at once."""
    qi = np.clip(env.qualities[i - 1] + sigma * rng.standard_normal(samples), 0.0, 1.0)
    qj = np.clip(env.qualities[j - 1] + sigma * rng.standard_normal(samples), 0.0, 1.0)
    return float(np.count_nonzero(qi < qj) / samples)


class TestReversalProbability:
    @given(samples=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]),
           sigma=st.sampled_from([0.0, 1e-300, 0.3, 5.0, 1e6]),
           pair=st.sampled_from([(5, 4), (2, 3), (1, 5)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_equal_the_two_array_reference(self, samples, sigma, pair, seed):
        env = EnvironmentSpec.default(5)
        for i, j in (pair, pair[::-1]):
            rng = np.random.Generator(np.random.Philox(seed))
            ref_rng = np.random.Generator(np.random.Philox(seed))
            p = reversal_probability(env, NoiseSpec(sigma=sigma), i, j, samples, rng)
            ref = reversal_reference(env, sigma, i, j, samples, ref_rng)
            assert p.hex() == ref.hex()
            # the stream is left where one call of 2 * samples leaves it
            assert rng.standard_normal() == ref_rng.standard_normal()

    def test_noiseless_orders_never_reverse(self):
        env = EnvironmentSpec.default(5)
        rng = np.random.default_rng(0)
        assert reversal_probability(env, NoiseSpec(sigma=0.0), 5, 4, 1000, rng) == 0.0

    def test_matches_published_point_loosely(self):
        # the tight +-0.01 check at 10^6 samples lives in the acceptance suite
        env = EnvironmentSpec.default(5)
        rng = np.random.default_rng(42)
        p = reversal_probability(env, NoiseSpec(sigma=0.3), 5, 4, 10 ** 5, rng)
        assert p == pytest.approx(0.331, abs=0.02)

    def test_deterministic_given_stream(self):
        env = EnvironmentSpec.default(5)
        a = reversal_probability(env, NoiseSpec(sigma=0.2), 5, 4, 5000,
                                 np.random.default_rng(9))
        b = reversal_probability(env, NoiseSpec(sigma=0.2), 5, 4, 5000,
                                 np.random.default_rng(9))
        assert a == b

    def test_validation(self):
        env = EnvironmentSpec.default(5)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            reversal_probability(env, NoiseSpec(sigma=0.1), 3, 3, 10, rng)
        with pytest.raises(ValueError):
            reversal_probability(env, NoiseSpec(sigma=0.1), 0, 3, 10, rng)
        with pytest.raises(ValueError):
            reversal_probability(env, NoiseSpec(sigma=0.1), 5, 4, 0, rng)

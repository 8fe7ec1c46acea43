"""Simulation engine: parameter validation, the fixed per-step draw
schedule, determinism, and population metrics.

The schedule contract tests replicate the engine's documented draw order
with an identically seeded generator and check the resulting beliefs
exactly; any silent reordering of stream consumption breaks them.
"""

import numpy as np
import pytest

from possibly import (
    ADOPT_RANDOM_ONE,
    POSSIBILISTIC,
    PROBABILISTIC,
    EnvironmentSpec,
    FrankParameter,
    PossibilityDistribution,
    ProbabilityDistribution,
    SimParams,
    fuse,
    pignistic,
    possibilistic_evidence,
    probabilistic_evidence,
    product_fuse,
    run,
)
from possibly.engine import _initial_beliefs, _metrics_from_array, _sim_step

THETA20 = FrankParameter(theta=20.0)
QUALITIES3 = np.asarray(EnvironmentSpec.default(3).qualities)


def params(**kw):
    base = dict(agents=4, states=3, rho=0.0, sigma=0.0, theta=THETA20,
                steps=5, model=POSSIBILISTIC, seed=1)
    base.update(kw)
    return SimParams(**base)


def fresh_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def draw_pair(rng, k):
    i = int(rng.integers(k))
    j = int(rng.integers(k - 1))
    if j >= i:
        j += 1
    return i, j


def draw_state(p_row, u):
    c = np.cumsum(p_row)
    return min(int((u > c).sum()), len(p_row) - 1) + 1


class TestSimParams:
    @pytest.mark.parametrize("bad", [
        dict(agents=1), dict(states=1), dict(rho=-0.1), dict(rho=1.1),
        dict(sigma=-1.0), dict(steps=-1), dict(model="bayesian"),
        dict(fusion_adoption="all"), dict(theta=20.0), dict(seed=-1),
        dict(seed=2 ** 64),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            params(**bad)

    def test_accepts_boundaries(self):
        params(rho=0.0)
        params(rho=1.0)
        params(steps=0)
        params(seed=2 ** 64 - 1)


class TestInitAndMetrics:
    def test_possibilistic_starts_vacuous(self):
        assert (_initial_beliefs(params()) == 1.0).all()

    def test_probabilistic_starts_uniform(self):
        b = _initial_beliefs(params(model=PROBABILISTIC))
        assert b.shape == (4, 3)
        assert b == pytest.approx(np.full((4, 3), 1 / 3), abs=1e-15)

    def test_initial_metrics(self):
        m = run(params(steps=0))[0]
        assert m.mean_poss_best == 1.0 and m.mean_nec_best == 0.0
        m = run(params(steps=0, model=PROBABILISTIC))[0]
        assert m.mean_prob_best == pytest.approx(1 / 3, abs=1e-15)

    def test_metrics_average_over_agents(self):
        b = np.array([[0.2, 0.4, 1.0],
                      [1.0, 0.6, 0.8]])
        m = _metrics_from_array(b, 3, POSSIBILISTIC)
        assert m.step == 3
        assert m.mean_poss_best == pytest.approx((1.0 + 0.8) / 2)
        # N(s3) = 1 - max(pi(s1), pi(s2)) per agent
        assert m.mean_nec_best == pytest.approx(((1 - 0.4) + (1 - 1.0)) / 2)


class TestRunBasics:
    def test_record_per_step_plus_initial(self):
        result = run(params(steps=7))
        assert len(result) == 8
        assert [m.step for m in result] == list(range(8))

    def test_zero_steps(self):
        result = run(params(steps=0))
        assert len(result) == 1
        assert result[0].mean_poss_best == 1.0

    def test_same_seed_same_records(self):
        a = run(params(rho=0.4, sigma=0.3, steps=50, seed=99))
        b = run(params(rho=0.4, sigma=0.3, steps=50, seed=99))
        assert a.records == b.records

    def test_different_seed_diverges(self):
        a = run(params(rho=0.5, sigma=0.3, steps=50, seed=1))
        b = run(params(rho=0.5, sigma=0.3, steps=50, seed=2))
        assert a.records != b.records

    def test_no_evidence_no_fusion_freezes_population(self):
        result = run(params(rho=0.0, fusion_enabled=False, steps=20))
        assert all(m.mean_poss_best == 1.0 and m.mean_nec_best == 0.0
                   for m in result)

    def test_vacuous_population_is_fusion_fixed_point(self):
        # pairwise fusion of two vacuous beliefs is vacuous, so without
        # evidence the possibilistic population never moves
        result = run(params(rho=0.0, fusion_enabled=True, steps=20))
        assert result[-1].mean_poss_best == 1.0
        assert result[-1].mean_nec_best == 0.0

    def test_mismatched_environment_rejected(self):
        with pytest.raises(ValueError):
            run(params(states=3), env=EnvironmentSpec.default(4))

    def test_degenerate_fusions_counted(self):
        # high noise + certain evidence forces disjoint one-hot beliefs to
        # meet under product fusion sooner or later
        result = run(SimParams(agents=6, states=3, rho=1.0, sigma=2.0,
                               theta=THETA20, steps=300, model=PROBABILISTIC,
                               seed=5))
        assert result.degenerate_fusions > 0

    def test_possibilistic_runs_never_degenerate(self):
        result = run(params(rho=0.8, sigma=2.0, steps=200, seed=5))
        assert result.degenerate_fusions == 0


class TestDrawSchedule:
    """Replicates the documented stream consumption order exactly."""

    START = ((1.0, 0.3, 0.2),
             (0.1, 1.0, 0.4),
             (0.5, 0.2, 1.0))

    def test_fusion_then_evidence_possibilistic(self):
        p = params(agents=3, rho=1.0, sigma=0.0, steps=1, seed=0)
        got = np.array(self.START)
        step_rng = fresh_rng(11)
        _sim_step(got, p, QUALITIES3, 0.0, step_rng)

        rng = fresh_rng(11)
        b = [np.array(x) for x in self.START]
        i, j = draw_pair(rng, 3)
        fused = fuse(p.theta, PossibilityDistribution(b[i].tolist()),
                     PossibilityDistribution(b[j].tolist()))
        b[i] = b[j] = np.array(fused.values)
        u_state = rng.random(3)
        rng.random(3)          # success draws; rho=1 makes them all hits
        rng.standard_normal(3)  # noise draws; sigma=0 discards them
        for r in range(3):
            s = draw_state(np.array(pignistic(
                PossibilityDistribution(b[r].tolist())).values), u_state[r])
            ev = possibilistic_evidence(3, s, QUALITIES3[s - 1])
            b[r] = np.array(fuse(p.theta,
                                 PossibilityDistribution(b[r].tolist()), ev).values)
        for r in range(3):
            assert got[r] == pytest.approx(b[r], abs=1e-15)
        # the step consumed exactly the scheduled draws
        assert step_rng.random() == rng.random()

    def test_fusion_then_evidence_probabilistic(self):
        p = params(agents=3, rho=1.0, sigma=0.0, steps=1, seed=0,
                   model=PROBABILISTIC)
        start = ((0.6, 0.3, 0.1),
                 (0.2, 0.5, 0.3),
                 (0.1, 0.1, 0.8))
        got = np.array(start)
        step_rng = fresh_rng(21)
        _sim_step(got, p, QUALITIES3, 0.0, step_rng)

        rng = fresh_rng(21)
        b = [np.array(x) for x in start]
        i, j = draw_pair(rng, 3)
        fused = product_fuse(ProbabilityDistribution(b[i].tolist()),
                             ProbabilityDistribution(b[j].tolist()))
        b[i] = b[j] = np.array(fused.values)
        u_state = rng.random(3)
        rng.random(3)
        rng.standard_normal(3)
        for r in range(3):
            s = draw_state(b[r], u_state[r])
            ev = probabilistic_evidence(3, s, QUALITIES3[s - 1])
            b[r] = np.array(product_fuse(ProbabilityDistribution(b[r].tolist()),
                                         ev).values)
        for r in range(3):
            assert got[r] == pytest.approx(b[r], abs=1e-12)
        assert step_rng.random() == rng.random()

    def test_random_one_adoption_changes_single_agent(self):
        p = params(agents=3, rho=0.0, steps=1, seed=0,
                   fusion_adoption=ADOPT_RANDOM_ONE)
        start = np.array(self.START)
        got = start.copy()
        _sim_step(got, p, QUALITIES3, 0.0, fresh_rng(7))

        rng = fresh_rng(7)
        b = [np.array(x) for x in self.START]
        i, j = draw_pair(rng, 3)
        fused = fuse(p.theta, PossibilityDistribution(b[i].tolist()),
                     PossibilityDistribution(b[j].tolist()))
        target = i if int(rng.integers(2)) == 0 else j
        b[target] = np.array(fused.values)
        changed = [r for r in range(3) if not np.array_equal(got[r], start[r])]
        assert changed == [target]
        assert got[target] == pytest.approx(b[target], abs=1e-15)

    def test_noise_draws_consumed_even_without_evidence(self):
        """rho=0 still burns the per-agent state/success/noise draws, so the
        pair chosen at the next step is independent of rho."""
        p_quiet = params(agents=6, rho=0.0, steps=2, seed=0)
        p_busy = params(agents=6, rho=1.0, steps=2, seed=0)
        rng_a = fresh_rng(13)
        rng_b = fresh_rng(13)
        _sim_step(_initial_beliefs(p_quiet), p_quiet, QUALITIES3, 0.0, rng_a)
        _sim_step(_initial_beliefs(p_busy), p_busy, QUALITIES3, 0.0, rng_b)
        # both streams must now sit at the same position
        assert rng_a.random() == rng_b.random()


class TestModelBehaviour:
    def test_possibilistic_beliefs_stay_normalised(self):
        p = params(agents=8, rho=0.7, sigma=0.4, steps=40, seed=3)
        rng = fresh_rng(p.seed)
        b = _initial_beliefs(p)
        for _ in range(p.steps):
            _sim_step(b, p, QUALITIES3, p.sigma, rng)
            assert (b.max(axis=1) == 1.0).all()
            assert ((0.0 <= b) & (b <= 1.0)).all()

    def test_probabilistic_beliefs_stay_normalised(self):
        p = params(agents=8, rho=0.7, sigma=0.4, steps=40, seed=3,
                   model=PROBABILISTIC)
        rng = fresh_rng(p.seed)
        b = _initial_beliefs(p)
        for _ in range(p.steps):
            _sim_step(b, p, QUALITIES3, p.sigma, rng)
            assert b.sum(axis=1) == pytest.approx(np.ones(8), abs=1e-9)

    def test_noiseless_evidence_is_informative(self):
        # with certain evidence-free dynamics excluded, the best state's
        # support should grow over a modest horizon
        result = run(SimParams(agents=20, states=3, rho=0.3, sigma=0.0,
                               theta=THETA20, steps=400, model=POSSIBILISTIC,
                               seed=8))
        assert result[-1].mean_poss_best > 0.9
        assert result[-1].mean_nec_best > result[0].mean_nec_best

"""Simulation engine: parameter validation, the fixed per-step draw
schedule, the bounded integer draw, determinism, lockstep batching, stepping
by dependency level, betting rows computed where the draw reads them, the
event pass that leaves one-hot beliefs' own evidence out, numerical edge
cases, heap page faults, and population metrics.

The schedule contract tests replicate the engine's documented draw order
with an identically seeded generator and check the resulting beliefs
exactly; any silent reordering of stream consumption breaks them.
"""

import ctypes
import os
import platform
import shutil
import subprocess
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from possibly import (
    ADOPT_BOTH,
    ADOPT_RANDOM_ONE,
    POSSIBILISTIC,
    PROBABILISTIC,
    DegenerateFusionWarning,
    EnvironmentSpec,
    FrankParameter,
    PossibilityDistribution,
    ProbabilityDistribution,
    SimParams,
    fuse,
    pignistic,
    possibilistic_evidence,
    probabilistic_evidence,
    preset,
    product_fuse,
    run,
)
from possibly import cli, engine, harness
from possibly.engine import (
    METRICS,
    _bounded,
    _initial_beliefs,
    _metrics_from_array,
    _run_levels,
    _run_steps,
    _sim_step,
    _sparse,
    lockstep_key,
    run_batch,
)
from possibly.environment import (
    _clamp_observations,
    _default_qualities,
    _evidence_rows,
)
from possibly.possibility import _FrankRows, _fuse_rows, _pignistic_rows
from possibly.probability import (
    DEGENERATE_MASS,
    _draw_states_rows,
    _product_rows,
)

THETA20 = FrankParameter(theta=20.0)
# evidence rates, with both endpoints always among the examples
rhos = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
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


def fresh_betting(b, model):
    """The betting rows of a (R, k, n) belief array, computed afresh: the
    pignistic transform of every row, or b itself."""
    if model == PROBABILISTIC:
        return b
    return _pignistic_rows(b.reshape(-1, b.shape[-1])).reshape(b.shape)


def step_batch(b, p, rngs, rho, sigma, thetas, bet=None):
    """One lockstep step of the populations b (R, k, n), updated in place;
    returns the degenerate fusion counts. Given a kept betting array bet,
    the step is sim_step_reference's."""
    args = (p, np.asarray(EnvironmentSpec.default(p.states).qualities),
            np.asarray(rho, dtype=float), np.asarray(sigma, dtype=float),
            _FrankRows.of(thetas), rngs)
    if bet is None:
        return _sim_step(b, *args)
    return sim_step_reference(b, bet, *args)


def step_one(b, p, rng):
    """One lockstep step of a batch of one population (a (k, n) array,
    updated in place); returns its degenerate fusion count."""
    return int(step_batch(b[None], p, [rng], [p.rho], [p.sigma],
                          [p.theta])[0])


def sim_step_reference(b, bet, params, qualities, rho, sigma, theta, rngs):
    """The step with a kept betting array: bet holds every agent's betting
    row (fresh_betting of b, or b itself in the probabilistic model) and is
    refreshed wherever a belief is written, and a state is drawn for every
    agent from it. Updates b and bet in place; returns the degenerate
    fusion counts."""
    r_count, k, n = b.shape
    possibilistic = params.model == POSSIBILISTIC
    degenerate = np.zeros(r_count, dtype=np.int64)
    run_rows = np.arange(r_count)

    pairs = np.empty((r_count, 3), dtype=np.intp)  # i, j, adopter
    u_state, u_succ, eps = np.empty((3, r_count, k))
    for r, rng in enumerate(rngs):
        if params.fusion_enabled:
            i, j = draw_pair(rng, k)
            adopter = i
            if params.fusion_adoption == ADOPT_RANDOM_ONE:
                adopter = i if int(rng.integers(2)) == 0 else j
            pairs[r] = i, j, adopter
        rng.random(out=u_state[r])
        rng.random(out=u_succ[r])
        rng.standard_normal(out=eps[r])

    if params.fusion_enabled:
        bi, bj = b[run_rows, pairs[:, 0]], b[run_rows, pairs[:, 1]]
        if possibilistic:
            fused = _fuse_rows(theta, bi, bj)
            fused_bet = _pignistic_rows(fused)
        else:
            fused = bi * bj
            s = np.add.reduce(fused, axis=1)
            bad = s < DEGENERATE_MASS
            fused /= np.where(bad, 1.0, s)[:, None]
            fused[bad] = 1.0 / n
            degenerate += bad
        adopters = (run_rows[:, None],
                    pairs[:, :2] if params.fusion_adoption == ADOPT_BOTH
                    else pairs[:, 2:])
        b[adopters] = fused[:, None]
        if possibilistic:
            bet[adopters] = fused_bet[:, None]

    rows_b = b.reshape(r_count * k, n)
    rows_bet = bet.reshape(r_count * k, n)
    states = _draw_states_rows(rows_bet, u_state.reshape(-1))
    rows = (u_succ < rho[:, None]).ravel().nonzero()[0]
    if rows.size:
        runs = rows // k
        si = states[rows]
        qhat = qualities[si] + sigma[runs] * eps.reshape(-1)[rows]
        np.minimum(np.maximum(qhat, 0.0, out=qhat), 1.0, out=qhat)
        if possibilistic:
            ev = (1.0 - qhat)[:, None].repeat(n, axis=1)
            ev[np.arange(rows.size), si] = 1.0
            fused = _fuse_rows(theta.take(runs), rows_b[rows], ev)
            rows_b[rows] = fused
            rows_bet[rows] = _pignistic_rows(fused)
        else:
            ev = ((1.0 - qhat) / n)[:, None].repeat(n, axis=1)
            ev[np.arange(rows.size), si] = ((n - 1) * qhat + 1.0) / n
            w = rows_b[rows] * ev
            s = np.add.reduce(w, axis=1)
            bad = s < DEGENERATE_MASS
            if bad.any():
                degenerate += np.bincount(runs[bad], minlength=r_count)
                s = np.where(bad, 1.0, s)
            w /= s[:, None]
            w[bad] = 1.0 / n
            rows_b[rows] = w
    return degenerate


def draw_state(p_row, u):
    c = np.cumsum(p_row)
    return min(int((u > c).sum()), len(p_row) - 1) + 1


class TestSimParams:
    @pytest.mark.parametrize("bad", [
        dict(agents=1), dict(states=1), dict(rho=-0.1), dict(rho=1.1),
        dict(sigma=-1.0), dict(steps=-1), dict(model="bayesian"),
        dict(fusion_adoption="all"), dict(theta=20.0), dict(seed=-1),
        dict(seed=2 ** 64), dict(sigma=float("inf")), dict(seed=1.5),
        dict(agents=4.0), dict(states=3.0), dict(steps=2.5), dict(seed="1"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            params(**bad)

    def test_stores_numpy_integers_as_int(self):
        p = params(agents=np.int64(100), states=np.int32(5),
                   steps=np.uint64(3), seed=np.uint64(2 ** 64 - 1))
        assert (p.agents, p.states, p.steps, p.seed) == (100, 5, 3, 2 ** 64 - 1)
        assert all(type(v) is int for v in (p.agents, p.states, p.steps, p.seed))

    def test_accepts_boundaries(self):
        params(rho=0.0)
        params(rho=1.0)
        params(steps=0)
        params(seed=2 ** 64 - 1)

    @pytest.mark.parametrize("field, value, message", [
        # "off" is truthy: a run with it would fuse
        ("fusion_enabled", "off", "unknown fusion enabled: 'off'"),
        ("rho", "0.5", "rho must be a number"),
        ("sigma", None, "sigma must be a number"),
    ])
    def test_rejects_a_value_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ValueError) as err:
            params(**{field: value})
        assert str(err.value) == message


class TestInitAndMetrics:
    def test_possibilistic_starts_vacuous(self):
        assert (_initial_beliefs(params()) == 1.0).all()

    def test_probabilistic_starts_uniform(self):
        b = _initial_beliefs(params(model=PROBABILISTIC), runs=2)
        assert b.shape == (2, 4, 3)
        assert b == pytest.approx(np.full((2, 4, 3), 1 / 3), abs=1e-15)

    def test_initial_metrics(self):
        metrics, _ = run(params(steps=0))
        assert metrics.tolist() == [[1.0, 0.0]]  # mean_poss_best, mean_nec_best
        metrics, _ = run(params(steps=0, model=PROBABILISTIC))
        assert metrics.shape == (1, 1)
        assert metrics[0, 0] == pytest.approx(1 / 3, abs=1e-15)

    def test_metrics_average_over_agents(self):
        b = np.array([[0.2, 0.4, 1.0],
                      [1.0, 0.6, 0.8]])
        # a batch of two populations: b and b with its agents' rows reversed
        m, m_rev = _metrics_from_array(np.stack([b, b[::-1]]), POSSIBILISTIC)
        poss, nec = m  # METRICS[POSSIBILISTIC] order
        assert poss == pytest.approx((1.0 + 0.8) / 2)
        # N(s3) = 1 - max(pi(s1), pi(s2)) per agent
        assert nec == pytest.approx(((1 - 0.4) + (1 - 1.0)) / 2)
        assert (m_rev == m).all()
        prob = _metrics_from_array(np.stack([b, b[::-1]]), PROBABILISTIC)
        assert prob.shape == (2, 1) and prob[0, 0] == poss


class TestRunBasics:
    def test_record_per_step_plus_initial(self):
        metrics, _ = run(params(steps=7))
        assert metrics.shape == (8, len(METRICS[POSSIBILISTIC]))

    def test_zero_steps(self):
        metrics, _ = run(params(steps=0))
        assert metrics.shape == (1, 2)
        assert metrics[0, 0] == 1.0

    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    def test_run_is_the_batch_of_one(self, model):
        p = params(rho=0.6, sigma=1.5, steps=40, seed=5, model=model)
        metrics, degenerate = run(p)
        batch, batch_degenerate = run_batch([p])
        assert metrics.shape == batch.shape[1:]
        assert metrics.tolist() == batch[0].tolist()
        assert type(degenerate) is int and degenerate == batch_degenerate[0]

    def test_same_seed_same_records(self):
        a = run(params(rho=0.4, sigma=0.3, steps=50, seed=99))
        b = run(params(rho=0.4, sigma=0.3, steps=50, seed=99))
        assert a[0].tolist() == b[0].tolist() and a[1] == b[1]

    def test_different_seed_diverges(self):
        a, _ = run(params(rho=0.5, sigma=0.3, steps=50, seed=1))
        b, _ = run(params(rho=0.5, sigma=0.3, steps=50, seed=2))
        assert a.tolist() != b.tolist()

    def test_no_evidence_no_fusion_freezes_population(self):
        metrics, _ = run(params(rho=0.0, fusion_enabled=False, steps=20))
        assert metrics.tolist() == [[1.0, 0.0]] * 21

    def test_vacuous_population_is_fusion_fixed_point(self):
        # pairwise fusion of two vacuous beliefs is vacuous, so without
        # evidence the possibilistic population never moves
        metrics, _ = run(params(rho=0.0, fusion_enabled=True, steps=20))
        assert metrics[-1].tolist() == [1.0, 0.0]

    def test_degenerate_fusions_counted(self):
        # high noise + certain evidence forces disjoint one-hot beliefs to
        # meet under product fusion sooner or later
        _, degenerate = run(SimParams(agents=6, states=3, rho=1.0, sigma=2.0,
                                      theta=THETA20, steps=300,
                                      model=PROBABILISTIC, seed=5))
        assert degenerate > 0

    def test_possibilistic_runs_never_degenerate(self):
        _, degenerate = run(params(rho=0.8, sigma=2.0, steps=200, seed=5))
        assert degenerate == 0


class TestDrawSchedule:
    """Replicates the documented stream consumption order exactly."""

    START = ((1.0, 0.3, 0.2),
             (0.1, 1.0, 0.4),
             (0.5, 0.2, 1.0))

    def test_fusion_then_evidence_possibilistic(self):
        p = params(agents=3, rho=1.0, sigma=0.0, steps=1, seed=0)
        got = np.array(self.START)
        step_rng = fresh_rng(11)
        step_one(got, p, step_rng)

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
        step_one(got, p, step_rng)

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
        step_one(got, p, fresh_rng(7))

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

    def test_state_uniforms_come_before_success_uniforms(self):
        """With 0 < rho < 1 some agents get evidence and some do not, so
        swapping the two uniform draws changes who observes what."""
        start = ((1.0, 0.3, 0.2),
                 (0.1, 1.0, 0.4),
                 (0.5, 0.2, 1.0),
                 (1.0, 1.0, 0.6),
                 (0.7, 1.0, 1.0),
                 (1.0, 0.9, 0.8))
        p = params(agents=6, rho=0.5, sigma=0.2, steps=1, seed=0)
        got = np.array(start)
        step_rng = fresh_rng(3)
        step_one(got, p, step_rng)

        rng = fresh_rng(3)
        b = [np.array(x) for x in start]
        i, j = draw_pair(rng, 6)
        fused = fuse(p.theta, PossibilityDistribution(b[i].tolist()),
                     PossibilityDistribution(b[j].tolist()))
        b[i] = b[j] = np.array(fused.values)
        u_state = rng.random(6)
        u_succ = rng.random(6)
        eps = rng.standard_normal(6)
        hits = 0
        for r in range(6):
            s = draw_state(np.array(pignistic(
                PossibilityDistribution(b[r].tolist())).values), u_state[r])
            if u_succ[r] < p.rho:
                hits += 1
                q = float(np.clip(QUALITIES3[s - 1] + p.sigma * eps[r], 0.0, 1.0))
                ev = possibilistic_evidence(3, s, q)
                b[r] = np.array(fuse(p.theta,
                                     PossibilityDistribution(b[r].tolist()), ev).values)
        assert 0 < hits < 6
        for r in range(6):
            assert got[r] == pytest.approx(b[r], abs=1e-15)
        assert step_rng.random() == rng.random()

    def test_noise_draws_consumed_even_without_evidence(self):
        """rho=0 still burns the per-agent state/success/noise draws, so the
        pair chosen at the next step is independent of rho."""
        p_quiet = params(agents=6, rho=0.0, steps=2, seed=0)
        p_busy = params(agents=6, rho=1.0, steps=2, seed=0)
        rng_a = fresh_rng(13)
        rng_b = fresh_rng(13)
        step_one(_initial_beliefs(p_quiet)[0], p_quiet, rng_a)
        step_one(_initial_beliefs(p_busy)[0], p_busy, rng_b)
        # both streams must now sit at the same position
        assert rng_a.random() == rng_b.random()


@st.composite
def branch_thetas(draw, count):
    """count FrankParameters of one Frank branch: a sign drawn once and a
    magnitude in [1e-4, 700] per run, or one limit for all."""
    limit = draw(st.sampled_from((None, "product", "min", "lukasiewicz")))
    if limit is not None:
        return [FrankParameter(limit=limit)] * count
    sign = draw(st.sampled_from((1.0, -1.0)))
    mags = draw(st.lists(st.floats(1e-4, 700.0), min_size=count, max_size=count))
    return [FrankParameter(theta=sign * mag) for mag in mags]


class TestLockstep:
    """A run's records do not depend on the batch it is stepped in."""

    @given(k=st.integers(2, 8), n=st.integers(2, 6),
           model=st.sampled_from((POSSIBILISTIC, PROBABILISTIC)),
           fusion=st.booleans(),
           adoption=st.sampled_from((ADOPT_BOTH, ADOPT_RANDOM_ONE)),
           mix=st.lists(st.tuples(rhos, st.floats(0.0, 3.0)),
                        min_size=2, max_size=4),
           steps=st.integers(1, 8), seed=st.integers(0, 2 ** 32),
           data=st.data())
    def test_batch_equals_one_run_at_a_time(self, k, n, model, fusion, adoption,
                                            mix, steps, seed, data):
        thetas = data.draw(branch_thetas(len(mix)))
        runs = [SimParams(agents=k, states=n, rho=rho, sigma=sigma, theta=theta,
                          steps=steps, model=model, seed=seed + r,
                          fusion_enabled=fusion, fusion_adoption=adoption)
                for r, ((rho, sigma), theta) in enumerate(zip(mix, thetas))]
        batch, degenerate = run_batch(runs)
        finals, final_degenerate = run_batch(runs, final_only=True)
        assert batch.shape == (len(runs), steps + 1, len(METRICS[model]))
        assert finals.shape == (len(runs), 1, len(METRICS[model]))
        for r, p in enumerate(runs):
            alone, alone_degenerate = run(p)
            assert batch[r].tolist() == alone.tolist()
            assert degenerate[r] == alone_degenerate
            assert finals[r].tolist() == alone[-1:].tolist()
            assert final_degenerate[r] == alone_degenerate

    def test_batch_counts_degenerate_fusions_per_run(self):
        runs = [SimParams(agents=6, states=3, rho=rho, sigma=2.0, theta=THETA20,
                          steps=300, model=PROBABILISTIC, seed=5)
                for rho in (1.0, 0.0)]
        busy, quiet = run_batch(runs)[1]
        assert busy == run(runs[0])[1] > 0
        assert quiet == 0

    def test_rejects_mixed_shapes_and_empty_batches(self):
        assert lockstep_key(params(rho=0.3, sigma=1.0, seed=9)) == lockstep_key(params())
        # theta is a per-run column within its Frank branch
        run_batch([params(), params(theta=FrankParameter(theta=2.0))])
        for other in (dict(agents=5),
                      dict(theta=FrankParameter(theta=-2.0)),
                      dict(theta=FrankParameter.min_limit())):
            with pytest.raises(ValueError):
                run_batch([params(), params(**other)])
        with pytest.raises(ValueError):
            run_batch([params(theta=FrankParameter(theta=1e-4)),
                       params(theta=FrankParameter(theta=5e-5))])
        with pytest.raises(ValueError):
            run_batch([])

    def test_theta_below_cutoff_shares_the_product_group(self):
        # every |theta| < 1e-4 computes x * y, as the product limit does
        product = params(theta=FrankParameter.product_limit())
        tiny = params(theta=FrankParameter(theta=5e-5), seed=2)
        assert lockstep_key(product) == lockstep_key(tiny)
        assert lockstep_key(tiny) != lockstep_key(
            params(theta=FrankParameter(theta=1e-4)))
        assert run_batch([product, tiny])[0].tolist() == \
            [run(product)[0].tolist(), run(tiny)[0].tolist()]


def placeholder_key(p):
    """The lockstep grouping stated through a placeholder SimParams: p with
    rho, sigma, seed and theta blanked, and theta's Frank branch worked
    out from theta and limit."""
    if p.theta.limit is not None:
        branch = p.theta.limit
    elif abs(p.theta.theta) < 1e-4:
        branch = "product"
    else:
        branch = "positive" if p.theta.theta > 0 else "negative"
    return (replace(p, rho=0.0, sigma=0.0, seed=0,
                    theta=FrankParameter.product_limit()), branch)


# thetas on both sides of the 1e-4 cutoff and anywhere else, and the three
# limits
key_thetas = st.one_of(
    st.one_of(st.sampled_from((1e-4, -1e-4, np.nextafter(1e-4, 0.0),
                               -np.nextafter(1e-4, 0.0), 5e-5, -5e-5)),
              st.floats(-700.0, 700.0).filter(bool)).map(
        lambda t: FrankParameter(theta=float(t))),
    st.sampled_from((FrankParameter.product_limit(),
                     FrankParameter.min_limit(),
                     FrankParameter.lukasiewicz_limit())))
# every SimParams field, each from a few values, so that two draws often
# share a key
key_fields = dict(
    agents=st.integers(2, 3), states=st.integers(2, 3),
    rho=st.sampled_from((0.0, 0.5)), sigma=st.sampled_from((0.0, 1.0)),
    theta=key_thetas, steps=st.integers(0, 1),
    model=st.sampled_from((POSSIBILISTIC, PROBABILISTIC)),
    seed=st.integers(0, 1), fusion_enabled=st.booleans(),
    fusion_adoption=st.sampled_from((ADOPT_BOTH, ADOPT_RANDOM_ONE)))


class TestLockstepKey:
    @settings(max_examples=300)
    @given(st.builds(SimParams, **key_fields),
           st.fixed_dictionaries({}, optional=key_fields))
    def test_groups_as_the_placeholder_key_does(self, a, changes):
        # b is a with some fields drawn again, so both outcomes occur
        b = replace(a, **changes)
        assert (lockstep_key(a) == lockstep_key(b)) == \
            (placeholder_key(a) == placeholder_key(b))


def advance_both(runs, final_only=False, buffered=False):
    """The batch runs advanced by _run_steps and by _run_levels, each from
    streams seeded as run_batch seeds them, which with buffered enter with
    a buffered half-word: per path the final beliefs' bytes, the metrics'
    bytes, the degenerate counts and every generator's final state."""
    shape = runs[0]
    results = []
    for advance in (_run_steps, _run_levels):
        rngs = [fresh_rng(p.seed) for p in runs]
        if buffered:
            for g in rngs:
                g.integers(5)
        b = _initial_beliefs(shape, len(runs))
        metrics = np.empty((len(runs), 1 if final_only else shape.steps + 1,
                            len(METRICS[shape.model])))
        # step 0's metrics, or with final_only the last step's alone, as
        # run_batch writes them
        if not final_only:
            metrics[:, 0] = _metrics_from_array(b, shape.model)
        degenerate = advance(
            b, shape, np.asarray(EnvironmentSpec.default(shape.states).qualities),
            np.array([p.rho for p in runs]), np.array([p.sigma for p in runs]),
            _FrankRows.of([p.theta for p in runs]), rngs, metrics[:, 1:])
        if final_only:
            metrics[:, 0] = _metrics_from_array(b, shape.model)
        results.append((b.tobytes(), metrics.tobytes(), degenerate.tolist(),
                        [stream_state(g) for g in rngs]))
    return results


# level window caps (_WINDOW_EVENTS), which also bound a chunk of draws:
# the default; 300, at which two runs of 100 agents draw one-step chunks
# and a level window spans many of them (at a few agents chunks of several
# steps); 1, so that each chunk with events is a level window; and 37,
# which at a few agents ends a level window after a chunk or two of a few
# steps, and so mid-run
WINDOWS = (engine._WINDOW_EVENTS, 300, 1, 37)
WINDOW_IDS = [f"window{i}" for i in range(len(WINDOWS))]


def windows(cap):
    """mock.patch.object's patch of engine's level window cap."""
    return mock.patch.object(engine, "_WINDOW_EVENTS", cap)


class TestLevels:
    """_run_levels, which draws chunks of steps ahead and fuses a level
    window of them one dependency level at a time, gives what the _sim_step
    loop gives, bit for bit: beliefs, metrics in both capture modes,
    degenerate counts and every generator's final state. Small batches take
    it in run_batch, so TestLockstep compares it only with itself."""

    @settings(max_examples=100)
    @given(k=st.one_of(st.integers(2, 8), st.just(100)),
           n=st.sampled_from((2, 3, 5)),
           model=st.sampled_from((POSSIBILISTIC, PROBABILISTIC)),
           fusion=st.booleans(),
           adoption=st.sampled_from((ADOPT_BOTH, ADOPT_RANDOM_ONE)),
           mix=st.lists(st.tuples(st.one_of(st.sampled_from((0.0, 0.05, 1.0)),
                                            st.floats(0.0, 1.0)),
                                  st.floats(0.0, 3.0)),
                        min_size=1, max_size=3),
           steps=st.integers(0, 40), final_only=st.booleans(),
           buffered=st.booleans(), window=st.sampled_from(WINDOWS),
           seed=st.integers(0, 2 ** 32), data=st.data())
    def test_equals_the_step_loop(self, k, n, model, fusion, adoption, mix,
                                  steps, final_only, buffered, window, seed,
                                  data):
        thetas = data.draw(branch_thetas(len(mix)))
        runs = [SimParams(agents=k, states=n, rho=rho, sigma=sigma, theta=theta,
                          steps=steps, model=model, seed=seed + r,
                          fusion_enabled=fusion, fusion_adoption=adoption)
                for r, ((rho, sigma), theta) in enumerate(zip(mix, thetas))]
        with windows(window):
            steps_result, levels_result = advance_both(runs, final_only,
                                                       buffered)
        assert levels_result == steps_result

    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    @pytest.mark.parametrize("adoption", (ADOPT_BOTH, ADOPT_RANDOM_ONE))
    @pytest.mark.parametrize("window", WINDOWS, ids=WINDOW_IDS)
    def test_paper_population_over_several_windows(self, model, adoption,
                                                   window):
        # two runs of the paper's population, as the trajectory figures
        # batch them, over 100 steps: at the default cap one chunk and one
        # level window, at 300 ten level windows of 2 to 12 one-step chunks,
        # and at the smaller caps 100 level windows
        runs = [SimParams(agents=100, states=5, rho=rho, sigma=0.3,
                          theta=FrankParameter(theta=theta), steps=100,
                          model=model, seed=seed, fusion_adoption=adoption)
                for rho, theta, seed in ((0.05, 20.0, 1), (0.2, 3.0, 2))]
        with windows(window):
            for final_only in (False, True):
                steps_result, levels_result = advance_both(runs, final_only)
                assert levels_result == steps_result

    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    def test_event_counts_match(self, model, monkeypatch):
        # every pair fusion and evidence event goes through _fuse_events on
        # either path: count them per run by patching it
        runs = [SimParams(agents=10, states=3, rho=rho, sigma=0.3,
                          theta=THETA20, steps=60, model=model, seed=seed)
                for rho, seed in ((0.05, 1), (0.5, 2), (1.0, 3))]
        fuse_events = engine._fuse_events

        def counted(*args):
            run, pairs = args[5], args[7]  # pair fusions come first
            counts[0] += np.bincount(run[:pairs], minlength=len(runs))
            counts[1] += np.bincount(run[pairs:], minlength=len(runs))
            return fuse_events(*args)

        monkeypatch.setattr(engine, "_fuse_events", counted)
        per_path = []  # the step loop, then the level path
        for sparse in (False, True):
            counts = np.zeros((2, len(runs)), dtype=np.int64)
            monkeypatch.setattr(engine, "_sparse", lambda _, s=sparse: s)
            metrics = run_batch(runs)[0]
            per_path.append((counts.tolist(), metrics.tobytes()))
        assert per_path[0] == per_path[1]
        pairs, evidence = counts
        assert pairs.tolist() == [60] * 3
        assert 0 < evidence[0] < evidence[1] < evidence[2] == 600

    def test_trajectory_workload_passes(self, monkeypatch):
        # fig8's possibilistic batch at the trajectory workload's size, 2
        # runs of 750 steps at seed 1: 8,999 events in one level window of
        # 5 chunks take 107 passes
        part = preset("fig8", seed=1).parts[0]
        spec = replace(part.spec, runs=2,
                       base=replace(part.spec.base, steps=750))
        events = []  # per pass
        fuse_events = engine._fuse_events

        def counted(*args):
            events.append(len(args[5]))
            return fuse_events(*args)

        monkeypatch.setattr(engine, "_fuse_events", counted)
        run_batch(harness._runs_for(spec))
        assert (len(events), sum(events)) == (107, 8999)

    def test_acceptance_shape_passes(self, monkeypatch):
        # the 50 runs of the fig4 and fig8 acceptance fixtures' shape, 300
        # steps of the default population at sigma = 0.3: 89,817 events in
        # 3 level windows of 6-step chunks take 67 passes
        runs = [replace(harness.DEFAULT_PARAMS, sigma=0.3, steps=300, seed=s)
                for s in range(50)]
        events = []  # per pass
        fuse_events = engine._fuse_events

        def counted(*args):
            events.append(len(args[5]))
            return fuse_events(*args)

        monkeypatch.setattr(engine, "_fuse_events", counted)
        run_batch(runs)
        assert (len(events), sum(events)) == (67, 89817)

    @pytest.mark.parametrize("window", WINDOWS, ids=WINDOW_IDS)
    @pytest.mark.parametrize("r_count, k, fusion, steps", (
        (2, 100, True, 30), (50, 100, True, 8), (3, 4, True, 100),
        (1, 7, False, 100)))
    def test_a_chunk_draws_at_most_a_window(self, r_count, k, fusion, steps,
                                            window, monkeypatch):
        # each _draw_events call of a level batch draws no more agent steps
        # and pairs than a level window may hold events, unless it draws one
        # step, and every call but the last draws as many steps as fit; on
        # the compiled draw and on the Python loop alike
        runs = [params(agents=k, rho=0.05, sigma=0.3, steps=steps, seed=s,
                       fusion_enabled=fusion) for s in range(r_count)]
        per_step = r_count * k + (r_count if fusion else 0)
        draw_events = engine._draw_events
        outputs = []
        for compiled in (engine._DRAWS, None):
            draws = []  # per call its steps

            def counted(rngs, p, rho, sigma, w, bitgens=None):
                draws.append(w)
                return draw_events(rngs, p, rho, sigma, w, bitgens)

            monkeypatch.setattr(engine, "_draw_events", counted)
            monkeypatch.setattr(engine, "_DRAWS", compiled)
            with windows(window):
                outputs.append(run_batch(runs)[0].tobytes())
            assert sum(draws) == steps
            assert all(w * per_step <= window or w == 1 for w in draws)
            assert all((w + 1) * per_step > window for w in draws[:-1])
        assert outputs[0] == outputs[1]

    def test_degenerate_resets_match(self):
        runs = [SimParams(agents=6, states=3, rho=rho, sigma=2.0, theta=THETA20,
                          steps=300, model=PROBABILISTIC, seed=5)
                for rho in (1.0, 0.05)]
        steps_result, levels_result = advance_both(runs)
        assert levels_result == steps_result
        assert steps_result[2][0] > 0


class TestSelection:
    """run_batch steps a batch by dependency level when the sum of rho * k
    over its runs is below _SPARSE_ROWS, and one step at a time otherwise."""

    def test_rule(self):
        def runs(count, rho):
            return [params(agents=100, rho=rho, seed=s) for s in range(count)]
        assert engine._SPARSE_ROWS == 256
        assert _sparse(runs(51, 0.05))      # 255 rows
        assert not _sparse(runs(52, 0.05))  # 260 rows
        assert _sparse(runs(1, 1.0)) and _sparse(runs(3, 0.0))
        assert not _sparse([params(agents=1000, rho=0.5)])

    def test_benchmark_shapes(self, monkeypatch):
        called = []
        for name in ("_run_steps", "_run_levels"):
            def traced(*args, _name=name, _fn=getattr(engine, name)):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(engine, name, traced)
        # the trajectory workload: each fig8 part's 2 runs in one batch
        for part in preset("fig8").parts:
            spec = replace(part.spec, runs=2,
                           base=replace(part.spec.base, steps=1))
            run_batch(harness._runs_for(spec))
        # the large workload: `possibly run`, 2 runs of 1000 agents x 20
        # states at rho = 0.5
        for model in (POSSIBILISTIC, PROBABILISTIC):
            spec = cli.parse_args([
                "run", "--model", model, "--agents", "1000", "--states", "20",
                "--evidence-rate", "0.5", "--noise", "0.3", "--theta", "20",
                "--steps", "1", "--runs", "2", "--seed", "1"]).spec
            run_batch(harness._runs_for(spec))
        assert called == ["_run_levels"] * 2 + ["_run_steps"] * 2


def stream_state(rng):
    """A generator's full bit_generator.state, arrays as lists."""
    s = rng.bit_generator.state
    return {**s, "buffer": s["buffer"].tolist(),
            "state": {name: v.tolist() for name, v in s["state"].items()}}


class TestBettingRows:
    """_sim_step, which transforms and draws only for the agents that take
    evidence and draws the pair through _bounded, steps populations to the
    bits of the step that keeps every agent's betting row, draws for all of
    them and calls integers itself, and leaves every generator in the same
    state."""

    @given(k=st.one_of(st.integers(2, 8), st.just(100)),
           n=st.sampled_from((2, 3, 4, 6)),
           model=st.sampled_from((POSSIBILISTIC, PROBABILISTIC)),
           fusion=st.booleans(),
           adoption=st.sampled_from((ADOPT_BOTH, ADOPT_RANDOM_ONE)),
           mix=st.lists(st.tuples(rhos, st.floats(0.0, 3.0)),
                        min_size=1, max_size=3),
           one_hot=st.booleans(), buffered=st.booleans(),
           steps=st.integers(1, 8), seed=st.integers(0, 2 ** 32),
           data=st.data())
    def test_step_equals_the_kept_row_reference(self, k, n, model, fusion,
                                                adoption, mix, one_hot,
                                                buffered, steps, seed, data):
        thetas = data.draw(branch_thetas(len(mix)))
        p = SimParams(agents=k, states=n, rho=0.0, sigma=0.0, theta=thetas[0],
                      steps=steps, model=model, seed=seed,
                      fusion_enabled=fusion, fusion_adoption=adoption)
        rho, sigma = zip(*mix)
        b = _initial_beliefs(p, len(mix))
        if one_hot:
            # every agent certain of one state, the states spread over agents
            b[:] = 0.0
            b[:, np.arange(k), np.arange(k) % n] = 1.0
        ref = b.copy()
        bet = fresh_betting(ref, model)
        rngs = [fresh_rng(seed + r) for r in range(len(mix))]
        ref_rngs = [fresh_rng(seed + r) for r in range(len(mix))]
        if buffered:  # each stream enters the first step with a half-word
            for g in rngs + ref_rngs:
                g.integers(5)
        for _ in range(steps):
            degenerate = step_batch(b, p, rngs, rho, sigma, thetas)
            ref_degenerate = step_batch(ref, p, ref_rngs, rho, sigma, thetas,
                                        bet)
            assert b.tobytes() == ref.tobytes()
            assert degenerate.tolist() == ref_degenerate.tolist()
            assert [stream_state(g) for g in rngs] \
                == [stream_state(g) for g in ref_rngs]


def words_read(bits):
    # a Philox stream makes 4 words per counter step and hands out the
    # block's words from buffer_pos on
    s = bits.state
    return 4 * int(s["state"]["counter"][0]) - (4 - s["buffer_pos"])


class TestBounded:
    """_bounded draws what Generator.integers draws, from the same 32-bit
    draws of the stream."""

    # a draw is redrawn with probability (2**32 % bound) / 2**32: about a
    # half for 2**31 + 1 and a quarter for 3 * 2**30
    BOUNDS = (1, 2, 3, 100, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32)

    @pytest.mark.parametrize("kind", (int, np.uint64, np.int64))
    def test_equals_integers(self, kind):
        rejections = 0
        for bound in self.BOUNDS:
            for seed in range(20):
                ref, rng = fresh_rng(seed), fresh_rng(seed)
                # consecutive draws share the generator's half-word buffer
                for _ in range(50):
                    assert _bounded(rng.bit_generator, kind(bound)) \
                        == ref.integers(bound)
                    assert stream_state(rng) == stream_state(ref)
                halves = (2 * words_read(rng.bit_generator)
                          - rng.bit_generator.state["has_uint32"])
                rejections += halves - (50 if bound > 1 else 0)
        assert rejections > 1000


class TestDrawEvents:
    """_draw_events over w steps, one chunk of the level path, returns the
    events of w calls of one step, as _sim_step makes them: the same pairs,
    evidence events (each step's shifted by the agent steps before it),
    state uniforms and noise terms, and every generator in the same state;
    and they are the events that the generator's own calls on the schedule
    fix; on the compiled draw and on the Python loop alike."""

    @given(k=st.one_of(st.sampled_from((2, 100)), st.integers(3, 8)),
           fusion=st.booleans(),
           adoption=st.sampled_from((ADOPT_BOTH, ADOPT_RANDOM_ONE)),
           mix=st.lists(st.tuples(rhos, st.floats(0.0, 3.0)),
                        min_size=1, max_size=3),
           buffered=st.booleans(), w=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32))
    def test_a_chunk_equals_its_steps(self, k, fusion, adoption, mix,
                                      buffered, w, seed):
        for compiled in (engine._DRAWS, None):
            with mock.patch.object(engine, "_DRAWS", compiled):
                self.check_chunk(k, fusion, adoption, mix, buffered, w,
                                 seed)

    def check_chunk(self, k, fusion, adoption, mix, buffered, w, seed):
        p = params(agents=k, fusion_enabled=fusion, fusion_adoption=adoption)
        rho, sigma = map(np.array, zip(*mix))
        r_count = len(mix)
        rngs, ref_rngs, own_rngs = (
            [fresh_rng(seed + r) for r in range(r_count)] for _ in range(3))
        if buffered:  # each stream enters the chunk with a half-word
            for g in rngs + ref_rngs + own_rngs:
                g.integers(5)
        chunk = engine._draw_events(rngs, p, rho, sigma, w)

        steps = []
        for t in range(w):
            pairs, f, u_state, noise = engine._draw_events(
                ref_rngs, p, rho, sigma, 1)
            steps.append((pairs, f + t * r_count * k, u_state, noise))
        assert [a.tolist() for a in chunk] == \
            [np.concatenate(a).tolist() for a in zip(*steps)]
        assert [stream_state(g) for g in rngs] \
            == [stream_state(g) for g in ref_rngs]

        # the generator's own calls on the schedule: per step and run the
        # pair, state and success uniforms as one random(2k), then normals
        own_pairs, u, eps = [], np.empty((w, r_count, 2, k)), \
            np.empty((w, r_count, k))
        for t in range(w):
            for r, g in enumerate(own_rngs):
                if fusion:
                    i, j = draw_pair(g, k)
                    adopters = [i, j]
                    if adoption == ADOPT_RANDOM_ONE:
                        adopters = [(i, j)[int(g.integers(2))]] * 2
                    own_pairs.append([i, j] + adopters)
                u[t, r] = g.random(2 * k).reshape(2, k)
                eps[t, r] = g.standard_normal(k)
        assert [stream_state(g) for g in rngs] \
            == [stream_state(g) for g in own_rngs]

        # the events as the draws fix them: each run's pair within its own
        # agent rows, and an evidence event at every success uniform below
        # its run's rho, with its state uniform and sigma times its normal
        pairs, f, u_state, noise = chunk
        assert pairs.shape == (w, r_count if fusion else 0, 4)
        assert (pairs // k == np.arange(pairs.shape[1])[:, None]).all()
        assert (pairs % k).reshape(-1, 4).tolist() == own_pairs
        assert (pairs[..., 0] != pairs[..., 1]).all()
        t, r, a = np.unravel_index(f, (w, r_count, k))
        assert f.tolist() == sorted(f.tolist())
        assert f.size == (u[:, :, 1] < rho[:, None]).sum()
        assert (u[t, r, 1, a] < rho[r]).all()
        assert u_state.tolist() == u[t, r, 0, a].tolist()
        assert noise.tolist() == (sigma[r] * eps[t, r, a]).tolist()


def draws_equal(compiled, rngs, ref_rngs, p, w):
    """Whether _draw_chunk draws the same pairs, uniforms and normals with
    the compiled draw `compiled` from rngs as the Python loop does from
    ref_rngs, and leaves every stream in the same state, buffered
    half-word included, with the same next integers and random draws."""
    with mock.patch.object(engine, "_DRAWS", compiled):
        got = engine._draw_chunk(rngs, p, w)
    with mock.patch.object(engine, "_DRAWS", None):
        want = engine._draw_chunk(ref_rngs, p, w)
    return (all(a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes() for a, b in zip(got, want))
            and [stream_state(g) for g in rngs]
            == [stream_state(g) for g in ref_rngs]
            and [(g.integers(p.agents), g.random()) for g in rngs]
            == [(g.integers(p.agents), g.random()) for g in ref_rngs])


needs_compiled = pytest.mark.skipif(engine._DRAWS is None,
                                    reason="the compiled draw is not built")


class TestCompiledDraws:
    """The compiled draw gives the Python loop's bits and stream states,
    and run_batch builds its bit generator pointers once per batch."""

    @needs_compiled
    @settings(max_examples=100)
    @given(r_count=st.one_of(st.integers(1, 4), st.just(50)),
           k=st.one_of(st.sampled_from((2, 100)), st.integers(3, 8)),
           w=st.integers(1, 12), fusion=st.booleans(),
           adoption=st.sampled_from((ADOPT_BOTH, ADOPT_RANDOM_ONE)),
           buffered=st.lists(st.booleans(), min_size=50, max_size=50),
           seed=st.integers(0, 2 ** 32))
    def test_equals_the_python_loop(self, r_count, k, w, fusion, adoption,
                                    buffered, seed):
        p = params(agents=k, fusion_enabled=fusion, fusion_adoption=adoption)
        rngs, ref_rngs = ([fresh_rng(seed + r) for r in range(r_count)]
                          for _ in range(2))
        for entry, g, ref in zip(buffered, rngs, ref_rngs):
            if entry:  # the stream enters the chunk with a half-word
                g.integers(5)
                ref.integers(5)
        assert draws_equal(engine._DRAWS, rngs, ref_rngs, p, w)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no cc")
    def test_bounded_equals_integers(self, tmp_path):
        # the C bounded draw on its own, at bounds where rejections are
        # common: the value and the stream's state of Generator.integers
        engine._load_draws(str(tmp_path))
        library, = tmp_path.iterdir()
        bounded = ctypes.CDLL(str(library)).draw_bounded
        bounded.argtypes = (ctypes.c_void_p, ctypes.c_uint64)
        bounded.restype = ctypes.c_ssize_t
        rejections = 0
        for bound in TestBounded.BOUNDS:
            for seed in range(5):
                ref, rng = fresh_rng(seed), fresh_rng(seed)
                bits = engine._capsule_pointer(rng.bit_generator.capsule,
                                               b"BitGenerator")
                for _ in range(50):
                    assert bounded(bits, bound) == ref.integers(bound)
                    assert stream_state(rng) == stream_state(ref)
                halves = (2 * words_read(rng.bit_generator)
                          - rng.bit_generator.state["has_uint32"])
                rejections += halves - (50 if bound > 1 else 0)
        assert rejections > 200

    @needs_compiled
    @pytest.mark.parametrize("agents, rho", ((10, 0.05), (100, 1.0)),
                             ids=("levels", "steps"))
    def test_pointers_once_per_batch(self, agents, rho, monkeypatch):
        built, given = [], []
        bitgens, draw_chunk = engine._bitgens, engine._draw_chunk

        def counted(rngs):
            built.append(len(rngs))
            return bitgens(rngs)

        def seen(rngs, p, w, pointers=None):
            given.append(pointers)
            return draw_chunk(rngs, p, w, pointers)

        monkeypatch.setattr(engine, "_bitgens", counted)
        monkeypatch.setattr(engine, "_draw_chunk", seen)
        monkeypatch.setattr(engine, "_WINDOW_EVENTS", 500)
        runs = [params(agents=agents, rho=rho, steps=40, seed=s)
                for s in range(3)]
        assert _sparse(runs) == (rho < 1)
        run_batch(runs)
        assert built == [3]
        assert len(given) > 1 and all(g is given[0] for g in given)


class TestLoadDraws:
    """_load_draws builds the library into its cache directory once, and
    later loads reuse it; without cc or a writable cache it spawns and
    warns nothing and returns None, and builds at once leave one whole
    library."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        """The commands subprocess.run is called with."""
        calls = []
        run = subprocess.run

        def counted(args, *rest, **kw):
            calls.append(args)
            return run(args, *rest, **kw)

        monkeypatch.setattr(subprocess, "run", counted)
        return calls

    @staticmethod
    def draws_like_the_loop(draws):
        p = params(agents=7, fusion_adoption=ADOPT_RANDOM_ONE)
        return draws is not None and draws_equal(
            draws, [fresh_rng(s) for s in range(3)],
            [fresh_rng(s) for s in range(3)], p, 5)

    @staticmethod
    def load_quietly(cache):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            draws = engine._load_draws(str(cache))
        assert caught == []
        return draws

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no cc")
    def test_a_cold_build_then_reuse(self, tmp_path, spawned):
        draws = self.load_quietly(tmp_path)
        assert len(spawned) == 1
        library, = os.listdir(tmp_path)
        assert library.startswith("_draws-") and library.endswith(".so")
        assert self.draws_like_the_loop(draws)
        again = self.load_quietly(tmp_path)
        assert len(spawned) == 1 and os.listdir(tmp_path) == [library]
        assert self.draws_like_the_loop(again)

    def test_no_compiler(self, tmp_path, spawned, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        assert self.load_quietly(tmp_path / "cache") is None
        assert spawned == [] and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("blocked", ("below a file", "read-only"))
    def test_an_unwritable_cache(self, tmp_path, spawned, blocked):
        if blocked == "below a file":
            (tmp_path / "file").write_text("")
            cache = tmp_path / "file" / "cache"
        else:
            if os.geteuid() == 0:
                pytest.skip("root writes into read-only directories")
            cache = tmp_path / "cache"
            cache.mkdir(mode=0o555)
        assert self.load_quietly(cache) is None
        assert spawned == []

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no cc")
    def test_builds_at_once_leave_one_library(self, tmp_path, monkeypatch):
        # both builds pass the missing-library check before either spawns
        barrier = threading.Barrier(2, timeout=60)
        run = subprocess.run

        def together(*args, **kw):
            barrier.wait()
            return run(*args, **kw)

        monkeypatch.setattr(subprocess, "run", together)
        with ThreadPoolExecutor(2) as pool:
            loaded = list(pool.map(engine._load_draws, [str(tmp_path)] * 2))
        assert len(os.listdir(tmp_path)) == 1
        assert all(self.draws_like_the_loop(d) for d in loaded)
        monkeypatch.setattr(subprocess, "run", None)  # no third build
        assert self.draws_like_the_loop(engine._load_draws(str(tmp_path)))


def fuse_events_reference(rows_b, possibilistic, qualities, theta,
                          degenerate, run, events, pairs, u_state=None,
                          noise=None):
    """_fuse_events without its one-hot filter: every evidence event is
    transformed, drawn, observed, fused and written."""
    x = rows_b[events[0]]
    y = rows_b[events[1][:pairs]] if pairs else None
    if pairs < len(x):
        ev = x[pairs:]
        si = _draw_states_rows(_pignistic_rows(ev) if possibilistic else ev,
                               u_state)
        ev = _evidence_rows(possibilistic, x.shape[1], si,
                            _clamp_observations(qualities[si] + noise))
        y = ev if y is None else np.concatenate((y, ev))
    if possibilistic:
        fused = _fuse_rows(theta.take(run), x, y)
    else:
        fused, bad = _product_rows(x, y)
        if bad.any():
            degenerate += np.bincount(run[bad], minlength=degenerate.size)
    rows_b[events[2]] = fused
    if pairs:
        rows_b[events[3][:pairs]] = fused[:pairs]
    return fused


def event_pass(seed, model, r_count, n, pairs, evidence, hot_share,
               zero_share, random_one):
    """The beliefs, (R * k, n), and the arguments after them of one
    _fuse_events pass: `pairs` pair fusions per run, then `evidence`
    evidence events, all on disjoint rows. A hot_share of the rows are
    one-hot, a twentieth of those with a -0.0 entry, and a zero_share of
    the state uniforms are 0.0; the other rows hold exact zeros and ties."""
    rng = np.random.default_rng(seed)
    k = -(-(evidence + 2 * pairs * r_count + 1) // r_count)
    rk = r_count * k
    b = np.round(rng.random((rk, n)), 1)
    b[np.arange(rk), rng.integers(n, size=rk)] = 1.0
    if model == PROBABILISTIC:
        b /= b.sum(axis=1)[:, None]
    hot = (rng.random(rk) < hot_share).nonzero()[0]
    states = rng.integers(n, size=hot.size)
    b[hot] = 0.0
    b[hot, states] = 1.0
    negative = rng.random(hot.size) < 0.05
    b[hot[negative], (states[negative] + 1) % n] = -0.0
    # per run its pairs' rows i and j, then the rows left for evidence
    order = np.argsort(rng.random((r_count, k)), axis=1) \
        + (np.arange(r_count) * k)[:, None]
    i, j = order[:, :pairs].ravel(), order[:, pairs:2 * pairs].ravel()
    e_rows = rng.permutation(order[:, 2 * pairs:].ravel())[:evidence]
    adopter = np.where(rng.random(i.size) < 0.5, i, j)
    events = np.concatenate(
        (np.stack((i, j) + ((adopter, adopter) if random_one else (i, j))),
         np.stack((e_rows,) * 4)), axis=1)
    u_state = rng.random(evidence)
    u_state[rng.random(evidence) < zero_share] = 0.0
    noise = 0.3 * rng.standard_normal(evidence)
    return b, events[0] // k, events, i.size, u_state, noise


def both_passes(b, possibilistic, qualities, theta, run, events, pairs,
                u_state, noise):
    """_fuse_events and fuse_events_reference on copies of b: per pass the
    beliefs' bytes after it, the bytes of its returned rows and the
    degenerate counts."""
    results = []
    for fuse_events in (engine._fuse_events, fuse_events_reference):
        rows_b = b.copy()
        degenerate = np.zeros(run.max(initial=0) + 1, dtype=np.int64)
        rows = fuse_events(rows_b, possibilistic, qualities, theta,
                           degenerate, run, events, pairs, u_state, noise)
        assert rows.shape == (events.shape[1], b.shape[1])
        results.append((rows_b.tobytes(), rows.tobytes(),
                        degenerate.tolist()))
    return results


def one_hot(n, where):
    """A (1, n) one-hot row, hot first, in the middle or last, and its hot
    state."""
    s = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    row = np.zeros((1, n))
    row[0, s] = 1.0
    return row, s


def per_row(params):
    """The _FrankRows of FrankParameters of one branch, with a theta and
    constant column of one per row even where they are equal."""
    first = params[0]
    if first.const is None:
        return _FrankRows(first.branch)
    return _FrankRows(first.branch, np.array([[p.theta] for p in params]),
                      np.array([[p.const] for p in params]))


HOT = st.sampled_from(("first", "middle", "last"))
# observed qualities, with both ends of the clamp among the examples
observed = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


class TestOneHotEvidence:
    """An evidence event on a one-hot belief whose state uniform is above 0
    leaves the belief as it is, bit for bit: each kernel fact that rests
    on, and _fuse_events, which leaves such events out of passes of at
    least _SPARSE_ROWS evidence events, against the pass that fuses them."""

    @given(n=st.integers(2, 20), where=HOT)
    def test_pignistic_returns_the_row(self, n, where):
        row, _ = one_hot(n, where)
        assert _pignistic_rows(row).tobytes() == row.tobytes()

    @given(n=st.integers(2, 20), where=HOT,
           u=st.one_of(st.sampled_from((5e-324, 2.0 ** -53, 1 - 2.0 ** -53)),
                       st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True)))
    def test_draw_returns_the_hot_state(self, n, where, u):
        row, s = one_hot(n, where)
        assert _draw_states_rows(row, np.array([u])).tolist() == [s]
        assert _draw_states_rows(row, np.array([0.0])).tolist() == [0]

    @given(n=st.integers(2, 20), where=HOT,
           q=st.lists(observed, min_size=3, max_size=3), data=st.data())
    def test_fusion_with_its_own_evidence_returns_the_row(self, n, where, q,
                                                          data):
        row, s = one_hot(n, where)
        rows = row.repeat(len(q), axis=0)
        si = np.full(len(q), s)
        thetas = data.draw(branch_thetas(len(q)))
        evidence = _evidence_rows(True, n, si, np.array(q))
        for theta in (thetas[0], _FrankRows.of(thetas), per_row(thetas)):
            fused = _fuse_rows(theta, rows.copy(), evidence)
            assert fused.tobytes() == rows.tobytes()
        fused, bad = _product_rows(rows.copy(),
                                   _evidence_rows(False, n, si, np.array(q)))
        assert fused.tobytes() == rows.tobytes()
        assert not bad.any()

    @settings(max_examples=150)
    @given(model=st.sampled_from((POSSIBILISTIC, PROBABILISTIC)),
           r_count=st.integers(1, 3), n=st.sampled_from((2, 3, 5, 20)),
           pairs=st.integers(0, 2),
           evidence=st.one_of(st.sampled_from((0, 1, 255, 256, 257)),
                              st.integers(2, 600)),
           hot_share=st.sampled_from((0.0, 0.5, 0.9, 1.0)),
           zero_share=st.sampled_from((0.0, 0.0, 0.05, 0.5)),
           random_one=st.booleans(), seed=st.integers(0, 2 ** 32),
           data=st.data())
    def test_pass_equals_the_unfiltered_pass(self, model, r_count, n, pairs,
                                             evidence, hot_share, zero_share,
                                             random_one, seed, data):
        b, run, events, pair_count, u_state, noise = event_pass(
            seed, model, r_count, n, pairs, evidence, hot_share, zero_share,
            random_one)
        if not events.shape[1]:
            return
        thetas = data.draw(branch_thetas(r_count))
        got, want = both_passes(b, model == POSSIBILISTIC,
                                _default_qualities(n), _FrankRows.of(thetas),
                                run, events, pair_count, u_state, noise)
        assert got == want

    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    @pytest.mark.parametrize("pairs", (0, 2))
    def test_a_pass_that_drops_every_evidence_event(self, model, pairs,
                                                    monkeypatch):
        b, run, events, pair_count, u_state, noise = event_pass(
            3, model, 2, 5, pairs, 300, 1.0, 0.0, False)
        b[b == 0.0] = 0.0  # no -0.0 entries, so every evidence row drops
        drawn = []
        draw_states = engine._draw_states_rows

        def counted(p, u):
            drawn.append(len(u))
            return draw_states(p, u)

        monkeypatch.setattr(engine, "_draw_states_rows", counted)
        got, want = both_passes(b, model == POSSIBILISTIC,
                                _default_qualities(5), _FrankRows.of([THETA20]),
                                run, events, pair_count, u_state, noise)
        assert got == want
        assert drawn == []
        if not pairs:  # nothing fused: the beliefs stay as they were
            assert got[0] == b.tobytes()

    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    def test_a_zero_uniform_on_a_hot_row_is_fused(self, model):
        # at u = 0 the draw takes state 0, not the hot state, so the event
        # can change its row and must be fused: with an observed quality of
        # 1 the possibilistic row takes 1 at state 0 too, and the product
        # has no mass left and resets to uniform
        b, run, events, pair_count, u_state, noise = event_pass(
            4, model, 1, 5, 0, 300, 1.0, 0.0, False)
        b[b == 0.0] = 0.0
        row = events[0, 0]
        b[row] = 0.0
        b[row, 3] = 1.0
        u_state[0], noise[0] = 0.0, 5.0
        got, want = both_passes(b, model == POSSIBILISTIC,
                                _default_qualities(5), _FrankRows.of([THETA20]),
                                run, events, pair_count, u_state, noise)
        assert got == want
        assert np.frombuffer(got[0]).reshape(b.shape)[row].tolist() \
            != b[row].tolist()
        assert got[2] == [0 if model == POSSIBILISTIC else 1]

    @pytest.mark.parametrize("model, drawn, fused", (
        (POSSIBILISTIC, 40300, 19556), (PROBABILISTIC, 40300, 18760)))
    def test_large_shape_fuses_what_can_change(self, model, drawn, fused,
                                               monkeypatch):
        # the large benchmark's shape over 40 steps: of the evidence events
        # drawn, the passes transform, draw and fuse only those not on a
        # one-hot belief, about half of them by then
        runs = [SimParams(agents=1000, states=20, rho=0.5, sigma=0.3,
                          theta=THETA20, steps=40, model=model, seed=seed)
                for seed in (1, 2)]
        counts = [0, 0]
        fuse_events, draw_states = engine._fuse_events, engine._draw_states_rows

        def counted_events(*args):
            counts[0] += len(args[5]) - args[7]
            return fuse_events(*args)

        def counted_draws(p, u):
            counts[1] += len(u)
            return draw_states(p, u)

        monkeypatch.setattr(engine, "_fuse_events", counted_events)
        monkeypatch.setattr(engine, "_draw_states_rows", counted_draws)
        run_batch(runs)
        assert counts == [drawn, fused]


class TestNumericalEdges:
    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    def test_one_hot_population_stays_valid(self, model):
        # every agent certain of one state, the states spread over agents
        p = params(agents=6, model=model)
        b = np.zeros((2, 6, 3))
        b[:, np.arange(6), np.arange(6) % 3] = 1.0
        ref = b.copy()
        bet = fresh_betting(ref, model)
        rngs = [fresh_rng(4), fresh_rng(5)]
        ref_rngs = [fresh_rng(4), fresh_rng(5)]
        for _ in range(10):
            step_batch(b, p, rngs, [0.5, 1.0], [0.3, 0.3], [p.theta] * 2)
            step_batch(ref, p, ref_rngs, [0.5, 1.0], [0.3, 0.3], [p.theta] * 2,
                       bet)
            assert not np.isnan(b).any()
            assert ((0.0 <= b) & (b <= 1.0)).all()
            if model == POSSIBILISTIC:
                assert (b.max(axis=2) == 1.0).all()
            else:
                assert b.sum(axis=2) == pytest.approx(np.ones((2, 6)), abs=1e-9)
            # the states drawn from the one-hot rows' betting rows are
            # those of the step that keeps every betting row
            assert b.tobytes() == ref.tobytes()

    def test_underflowing_product_mass_resets_to_uniform(self):
        # the only overlap is 1e-200 * 1e-105 = 1e-305: a positive mass,
        # not exactly 0, below DEGENERATE_MASS
        p = params(agents=2, model=PROBABILISTIC)
        b = np.array([[[1e-200, 1.0, 0.0],
                       [1e-105, 0.0, 1.0]]])
        assert 0.0 < (b[0, 0] * b[0, 1]).sum() < DEGENERATE_MASS
        degenerate = step_batch(b, p, [fresh_rng(1)], [0.0], [0.0], [p.theta])
        assert degenerate.tolist() == [1]
        assert (b == 1.0 / 3).all()
        with pytest.warns(DegenerateFusionWarning):
            fused = product_fuse(ProbabilityDistribution([1e-200, 1.0, 0.0]),
                                 ProbabilityDistribution([1e-105, 0.0, 1.0]))
        assert fused.values == pytest.approx((1 / 3,) * 3, abs=1e-15)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap and trim thresholds")
class TestHeapFaults:
    """A step's temporaries stay on the C heap's free lists, so a batch
    does not give the heap top back and fault it in again every step."""

    # at 1000 agents x 20 states, 40 steps: 3-5 faults per repeat with the
    # threshold block in run_batch, 411-4250 without it
    MAX_FAULTS = 100

    @staticmethod
    def repeat_faults(model, pad_kb, agents, states, rho, steps):
        """The minor faults of a batch of two runs stepped a second time."""
        import resource  # Unix only, like the skip condition

        pad = bytearray(pad_kb * 1024)  # shifts the heap's layout
        runs = [SimParams(agents=agents, states=states, rho=rho, sigma=0.3,
                          theta=THETA20, steps=steps, model=model, seed=seed)
                for seed in (1, 2)]
        run_batch(runs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_batch(runs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        del pad
        return faults

    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    @pytest.mark.parametrize("pad_kb", (0, 8, 20, 32))
    def test_repeat_batch_takes_few_minor_faults(self, model, pad_kb):
        # stepped one step at a time
        assert self.repeat_faults(model, pad_kb, 1000, 20, 0.5, 40) \
            <= self.MAX_FAULTS

    @pytest.mark.parametrize("model", (POSSIBILISTIC, PROBABILISTIC))
    @pytest.mark.parametrize("pad_kb", (0, 8, 20, 32))
    def test_repeat_sparse_batch_takes_few_minor_faults(self, model, pad_kb):
        # the paper's population, stepped by level: one level window of one
        # chunk
        assert self.repeat_faults(model, pad_kb, 100, 5, 0.05, 80) \
            <= self.MAX_FAULTS


class TestModelBehaviour:
    def test_possibilistic_beliefs_stay_normalised(self):
        p = params(agents=8, rho=0.7, sigma=0.4, steps=40, seed=3)
        rng = fresh_rng(p.seed)
        b = _initial_beliefs(p)[0]
        for _ in range(p.steps):
            step_one(b, p, rng)
            assert (b.max(axis=1) == 1.0).all()
            assert ((0.0 <= b) & (b <= 1.0)).all()

    def test_probabilistic_beliefs_stay_normalised(self):
        p = params(agents=8, rho=0.7, sigma=0.4, steps=40, seed=3,
                   model=PROBABILISTIC)
        rng = fresh_rng(p.seed)
        b = _initial_beliefs(p)[0]
        for _ in range(p.steps):
            step_one(b, p, rng)
            assert b.sum(axis=1) == pytest.approx(np.ones(8), abs=1e-9)

    def test_noiseless_evidence_is_informative(self):
        # with certain evidence-free dynamics excluded, the best state's
        # support should grow over a modest horizon
        metrics, _ = run(SimParams(agents=20, states=3, rho=0.3, sigma=0.0,
                                   theta=THETA20, steps=400,
                                   model=POSSIBILISTIC, seed=8))
        poss, nec = metrics.T  # METRICS[POSSIBILISTIC] order
        assert poss[-1] > 0.9
        assert nec[-1] > nec[0]


# ---------------------------------------------------------------------------
# Rewritten row kernels against their plain numpy expressions
# ---------------------------------------------------------------------------

def metrics_reference(b, model):
    """The METRICS columns through max(axis=2), mean and np.stack."""
    if model == POSSIBILISTIC:
        return np.stack([b[:, :, -1].mean(axis=1),
                         (1.0 - b[:, :, :-1].max(axis=2)).mean(axis=1)], axis=1)
    return b[:, :, -1].mean(axis=1)[:, None]


def draw_states_reference(p, u):
    """The inverse-CDF draw through np.cumsum and np.minimum."""
    c = np.cumsum(p, axis=1)
    return np.minimum((u[:, None] > c).sum(axis=1), p.shape[1] - 1)


# exact 0s, 1s and quarters (ties, and cumulative sums that a uniform can
# equal exactly), besides any value in [0, 1]
degrees = st.one_of(st.sampled_from((0.0, 1.0, 0.25, 0.5, 0.75)),
                    st.floats(0.0, 1.0))


class TestKernelReferences:
    """_metrics_from_array and _draw_states_rows give their plain forms bit
    for bit, with ties, exact 0 and 1 entries, n = 2 and one run."""

    @given(st.sampled_from((POSSIBILISTIC, PROBABILISTIC)), st.integers(1, 3),
           st.integers(2, 40), st.integers(2, 7), st.data())
    def test_metrics(self, model, r_count, k, n, data):
        b = data.draw(arrays(np.float64, (r_count, k, n), elements=degrees))
        got, want = _metrics_from_array(b, model), metrics_reference(b, model)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.sampled_from((POSSIBILISTIC, PROBABILISTIC)), st.integers(1, 3),
           st.integers(100, 300), st.integers(2, 20), st.integers(0, 2 ** 32),
           st.booleans())
    def test_metrics_paper_size(self, model, r_count, k, n, seed, coarse):
        # k above the 8 and 128 element blocks of numpy's pairwise sum
        b = np.random.default_rng(seed).random((r_count, k, n))
        if coarse:
            b = np.round(b, 1)  # many ties and zeros
        got, want = _metrics_from_array(b, model), metrics_reference(b, model)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.integers(1, 30), st.integers(2, 7), st.data())
    def test_draw_states(self, m, n, data):
        p = data.draw(arrays(np.float64, (m, n), elements=degrees))
        p /= np.where(p.sum(axis=1) > 0, p.sum(axis=1), 1.0)[:, None]
        u = data.draw(arrays(np.float64, m, elements=degrees.filter(
            lambda v: v < 1.0)))
        got, want = _draw_states_rows(p, u), draw_states_reference(p, u)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(st.integers(100, 2000), st.integers(2, 24), st.integers(0, 2 ** 32),
           st.booleans())
    def test_draw_states_paper_size(self, m, n, seed, coarse):
        rng = np.random.default_rng(seed)
        rows = np.arange(m)
        p = rng.random((m, n))
        if coarse:
            p = np.round(p, 1)  # zeros: flat stretches of the cumsums
            p[rows, rng.integers(n, size=m)] = 1.0
        p /= p.sum(axis=1)[:, None]
        u = rng.random(m)
        if coarse:
            # half the uniforms equal one of their row's cumulative sums
            hit = rng.random(m) < 0.5
            u[hit] = np.cumsum(p, axis=1)[rows, rng.integers(n, size=m)][hit]
        got, want = _draw_states_rows(p, u), draw_states_reference(p, u)
        assert got.dtype == want.dtype and np.array_equal(got, want)

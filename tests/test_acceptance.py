"""Acceptance gate: one test per numbered criterion, each recorded as a
pass/fail summary line with the measured values.

Simulation-backed criteria share run sets where their configurations
coincide (the noisy low-evidence trajectories feed criteria 5, 6, and 7),
so the whole gate stays within a desk-scale runtime budget.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_criterion

from possibly import (
    METRICS,
    POSSIBILISTIC,
    PROBABILISTIC,
    EnvironmentSpec,
    FrankParameter,
    NoiseSpec,
    PossibilityDistribution,
    ProbabilityDistribution,
    StateSubset,
    SweepSpec,
    apply_param,
    collect_finals,
    collect_trajectories,
    consistency,
    derive_run_seed,
    emit_csv,
    frank_tnorm,
    fuse,
    necessity_measure,
    pignistic,
    possibility_measure,
    preset,
    product_fuse,
    reversal_probability,
    sweep,
    vacuous,
)

CASES = 10_000

# every simulation here runs on all CPUs; its results do not depend on
# the worker count
WORKERS = os.cpu_count() or 1

# a metric's column in a collect_finals/collect_trajectories array
COLUMN = {name: i for names in METRICS.values() for i, name in enumerate(names)}


def rng_for(grid_index: int, run_index: int = 0) -> np.random.Generator:
    seed = derive_run_seed(42, grid_index, run_index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def mean_metric(finals, name: str) -> float:
    return float(np.mean(finals[:, COLUMN[name]]))


def check(number: int, label: str, checks: dict[str, bool], detail: str):
    failed = [name for name, ok in checks.items() if not ok]
    passed = not failed
    if failed:
        detail = f"{detail} [failed: {', '.join(failed)}]"
    record_criterion(number, label, passed, detail)
    assert passed, f"criterion {number} ({label}): {detail}"


# ---------------------------------------------------------------------------
# shared run sets
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def fig4a_finals():
    return collect_finals(preset("fig4a").parts[0].spec, WORKERS)


@pytest.fixture(scope="session")
def fig4b_finals():
    return collect_finals(preset("fig4b").parts[0].spec, WORKERS)


@pytest.fixture(scope="session")
def noisy_poss_finals():
    # rho=0.05, sigma=0.3, fusion on: feeds criteria 5, 6, and 7
    return collect_finals(preset("fig8").parts[0].spec, WORKERS)


@pytest.fixture(scope="session")
def noisy_prob_finals():
    return collect_finals(preset("fig8").parts[1].spec, WORKERS)


@pytest.fixture(scope="session")
def noisy_no_fusion_finals():
    base = replace(preset("fig8").parts[0].spec.base, fusion_enabled=False)
    return collect_finals(SweepSpec(base=base), WORKERS)


@pytest.fixture(scope="session")
def high_rho_finals():
    out = {}
    for idx in (0, 1):
        base = preset("fig8").parts[idx].spec.base
        base = apply_param(base, "evidence-rate", 0.8)
        out[base.model] = collect_finals(SweepSpec(base=base), WORKERS)
    return out


@pytest.fixture(scope="session")
def long_horizon_means():
    """Per-step across-run mean of the decision metric for both models."""
    out = {}
    for part in preset("fig10").parts:
        model = part.spec.base.model
        name = "mean_nec_best" if model == POSSIBILISTIC else "mean_prob_best"
        trajs = collect_trajectories(part.spec, WORKERS)
        out[model] = trajs[:, :, COLUMN[name]].mean(axis=0)
    return out


def plateau_step(means: np.ndarray, band: float = 0.02) -> int:
    """First step from which the curve stays within `band` of its final
    value; the last escape from the band marks the end of the transient."""
    final = means[-1]
    inside = means >= final - band
    if inside.all():
        return 0
    return int(np.flatnonzero(~inside)[-1]) + 1


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_worked_example():
    pi1 = PossibilityDistribution((1.0, 0.8, 0.7))
    pi2 = PossibilityDistribution((0.4, 0.9, 1.0))
    theta = FrankParameter(theta=10.0)
    tol = 1e-4

    measures = {
        "Pi({s2,s3})": (possibility_measure(pi1, StateSubset((2, 3))), 0.8),
        "N({s1})": (necessity_measure(pi1, StateSubset((1,))), 0.2),
    }
    ignorance = [
        possibility_measure(pi1, StateSubset((s,)))
        - necessity_measure(pi1, StateSubset((s,)))
        for s in (1, 2, 3)
    ]
    pig = pignistic(pi1).values
    tnorm = [frank_tnorm(theta, a, b) for a, b in zip(pi1.values, pi2.values)]
    normaliser = 1.0 - consistency(theta, pi1, pi2)
    fused = fuse(theta, pi1, pi2).values

    expected = {
        "ignorance": (ignorance, (0.8, 0.8, 0.7)),
        "pignistic": (pig, (0.4833, 0.2833, 0.2333)),
        "tnorm": (tnorm, (0.4, 0.7791, 0.7)),
        "normaliser": ([normaliser], [0.2209]),
        "fused": (fused, (0.6209, 1.0, 0.9209)),
    }
    checks = {name: abs(got - want) <= tol for name, (got, want) in measures.items()}
    for name, (got, want) in expected.items():
        checks[name] = all(abs(g - w) <= tol for g, w in zip(got, want))
    check(1, "worked example", checks,
          f"all worked-example values within {tol}")


def test_criterion_2_reversal_curve():
    env = EnvironmentSpec.default(5)
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    ps = [
        reversal_probability(env, NoiseSpec(sigma=s), i=5, j=4,
                             samples=10 ** 6, rng=rng_for(gi))
        for gi, s in enumerate(grid)
    ]
    point = ps[3]
    checks = {
        "point": abs(point - 0.331) <= 0.01,
        "monotone": all(b >= a for a, b in zip(ps, ps[1:])),
    }
    curve = ", ".join(f"{p:.4f}" for p in ps)
    check(2, "noise reversal curve", checks,
          f"p(sigma=0.3)={point:.4f} (target 0.331+/-0.01); curve [{curve}]")


def test_criterion_3_convergence_with_fusion(fig4a_finals, fig4b_finals):
    on_pi = mean_metric(fig4a_finals, "mean_poss_best")
    on_n = mean_metric(fig4a_finals, "mean_nec_best")
    off_pi = mean_metric(fig4b_finals, "mean_poss_best")
    off_n = mean_metric(fig4b_finals, "mean_nec_best")
    checks = {
        "fusion-on possibility >= 0.99": on_pi >= 0.99,
        "fusion-on necessity >= 0.99": on_n >= 0.99,
        "fusion-off necessity < 0.95": off_n < 0.95,
        "fusion-off gap >= 0.05": off_pi - off_n >= 0.05,
    }
    check(3, "convergence with fusion", checks,
          f"fusion on: Pi={on_pi:.4f} N={on_n:.4f}; "
          f"fusion off: Pi={off_pi:.4f} N={off_n:.4f}")


def test_criterion_4_theta_ordering():
    base = preset("fig5a").parts[0].spec.base
    spec = SweepSpec(base=base, param="theta", grid=(0.1, 100.0), runs=100)
    records = {(r.x, r.metric): r.mean for r in sweep(spec, WORKERS)}
    lo_pi, hi_pi = records[(0.1, "mean_poss_best")], records[(100.0, "mean_poss_best")]
    lo_n, hi_n = records[(0.1, "mean_nec_best")], records[(100.0, "mean_nec_best")]
    checks = {
        "possibility rises with theta": hi_pi > lo_pi,
        "necessity rises with theta": hi_n > lo_n,
    }
    check(4, "theta ordering", checks,
          f"Pi: {lo_pi:.4f} -> {hi_pi:.4f}; N: {lo_n:.4f} -> {hi_n:.4f} "
          f"across theta 0.1 -> 100")


def test_criterion_5_fusion_robustness_gap(noisy_poss_finals,
                                           noisy_no_fusion_finals):
    with_fusion = mean_metric(noisy_poss_finals, "mean_nec_best")
    without = mean_metric(noisy_no_fusion_finals, "mean_nec_best")
    gap = with_fusion - without
    checks = {"necessity gap >= 0.2": gap >= 0.2}
    check(5, "fusion robustness gap", checks,
          f"N with fusion {with_fusion:.4f}, without {without:.4f}, "
          f"gap {gap:.4f}")


def test_criterion_6_model_comparison(noisy_poss_finals, noisy_prob_finals,
                                      high_rho_finals):
    low_pi = mean_metric(noisy_poss_finals, "mean_poss_best")
    low_n = mean_metric(noisy_poss_finals, "mean_nec_best")
    low_p = mean_metric(noisy_prob_finals, "mean_prob_best")
    high_n = mean_metric(high_rho_finals[POSSIBILISTIC], "mean_nec_best")
    high_p = mean_metric(high_rho_finals[PROBABILISTIC], "mean_prob_best")
    checks = {
        "low rho: possibility beats p": low_pi > low_p,
        "low rho: necessity beats p": low_n > low_p,
        "high rho: p beats necessity": high_p > high_n,
    }
    check(6, "model comparison by evidence rate", checks,
          f"rho=0.05: Pi={low_pi:.4f} N={low_n:.4f} vs p={low_p:.4f}; "
          f"rho=0.8: p={high_p:.4f} vs N={high_n:.4f}")


def test_criterion_7_outcome_bimodality(noisy_poss_finals, noisy_prob_finals):
    prob_means = noisy_prob_finals[:, COLUMN["mean_prob_best"]].tolist()
    low = [p for p in prob_means if p <= 0.1]
    high = [p for p in prob_means if p >= 0.9]
    strays = [p for p in prob_means if 0.1 < p < 0.9]
    poss_means = noisy_poss_finals[:, COLUMN["mean_poss_best"]].tolist()
    share_high = sum(1 for p in poss_means if p > 0.9) / len(poss_means)
    checks = {
        "all probabilistic runs in a mode": not strays,
        "low mode nonempty": len(low) > 0,
        "possibilistic mass above 0.9": share_high >= 0.8,
    }
    stray_text = ", ".join(f"{p:.3f}" for p in strays) or "none"
    check(7, "outcome bimodality", checks,
          f"probabilistic modes {len(low)} low / {len(high)} high, "
          f"strays: {stray_text}; possibilistic share above 0.9 = "
          f"{share_high:.2f}")


def test_criterion_8_long_horizon(long_horizon_means):
    poss = long_horizon_means[POSSIBILISTIC]
    prob = long_horizon_means[PROBABILISTIC]
    level_gap = abs(poss[-1] - prob[-1])
    poss_step = plateau_step(poss)
    prob_step = plateau_step(prob)
    ratio = poss_step / prob_step if prob_step else math.inf
    checks = {
        "final levels within 0.05": level_gap <= 0.05,
        "probabilistic plateau 3x earlier": poss_step >= 3 * prob_step,
    }
    check(8, "long horizon convergence", checks,
          f"final N={poss[-1]:.4f} vs p={prob[-1]:.4f} (gap {level_gap:.4f}); "
          f"plateau steps: possibilistic {poss_step}, probabilistic "
          f"{prob_step} (ratio {ratio:.2f}, need >= 3)")


# ---------------------------------------------------------------------------
# criterion 9: property suites
# ---------------------------------------------------------------------------

def _tnorm_axiom_failures(rng) -> dict[str, int]:
    thetas = rng.uniform(-50.0, 50.0, CASES)
    thetas[np.abs(thetas) < 1e-3] = 7.0
    x, y, z = rng.random((3, CASES))
    bump = rng.random(CASES) * (1.0 - y)
    counts = {"commutativity": 0, "associativity": 0, "identity": 0,
              "monotonicity": 0, "bounds": 0, "theta-monotonicity": 0}
    for i in range(CASES):
        p = FrankParameter(theta=float(thetas[i]))
        xi, yi, zi = float(x[i]), float(y[i]), float(z[i])
        t_xy = frank_tnorm(p, xi, yi)
        if t_xy != frank_tnorm(p, yi, xi):
            counts["commutativity"] += 1
        if abs(frank_tnorm(p, t_xy, zi)
               - frank_tnorm(p, xi, frank_tnorm(p, yi, zi))) > 1e-9:
            counts["associativity"] += 1
        if abs(frank_tnorm(p, xi, 1.0) - xi) > 1e-12:
            counts["identity"] += 1
        if frank_tnorm(p, xi, yi + float(bump[i])) < t_xy - 1e-9:
            counts["monotonicity"] += 1
        if not (max(0.0, xi + yi - 1.0) - 1e-12 <= t_xy
                <= min(xi, yi) + 1e-12):
            counts["bounds"] += 1
        p2 = FrankParameter(theta=float(thetas[i]) + 1.0)
        if frank_tnorm(p2, xi, yi) < t_xy - 1e-9:
            counts["theta-monotonicity"] += 1
    return counts


# The exact Frank t-norm approaches min (Lukasiewicz) as theta -> +inf
# (-inf) at rate ln(2)/|theta|: its largest gap lies on the diagonal x = y
# (anti-diagonal x + y = 1), where it is ln(2 - e^{-|theta| x})/|theta|.
# That envelope is the bound at |theta| = 500; 1e-12 covers float rounding.
LARGE_THETA_SLACK = 1e-12
PRODUCT_TOL = 1e-3


def _limit_failures(rng) -> tuple[dict[str, int], float]:
    x, y = rng.random((2, CASES))
    counts = {}
    worst = 0.0
    envelope = math.log(2) / 500.0 + LARGE_THETA_SLACK
    targets = {
        "theta=+1e-4 vs product": (FrankParameter(theta=1e-4),
                                   lambda a, b: a * b, PRODUCT_TOL),
        "theta=-1e-4 vs product": (FrankParameter(theta=-1e-4),
                                   lambda a, b: a * b, PRODUCT_TOL),
        "theta=+500 vs min": (FrankParameter(theta=500.0), min, envelope),
        "theta=-500 vs Lukasiewicz": (FrankParameter(theta=-500.0),
                                      lambda a, b: max(0.0, a + b - 1.0),
                                      envelope),
    }
    for name, (p, limit, tol) in targets.items():
        bad = 0
        for i in range(CASES):
            err = abs(frank_tnorm(p, float(x[i]), float(y[i]))
                      - limit(float(x[i]), float(y[i])))
            worst = max(worst, err)
            if err > tol:
                bad += 1
        counts[name] = bad
    return counts, worst


def _measure_duality_failures(rng) -> int:
    bad = 0
    for _ in range(CASES):
        n = int(rng.integers(2, 8))
        values = rng.random(n)
        values[rng.integers(n)] = 1.0
        dist = PossibilityDistribution(values)
        full = set(range(1, n + 1))
        shared = int(rng.integers(1, n + 1))
        a = {shared} | {s for s in full if rng.random() < 0.5}
        b = {shared} | {s for s in full if rng.random() < 0.5}
        A, B = StateSubset(a), StateSubset(b)
        AB = StateSubset(a & b)
        AuB = StateSubset(a | b)
        if a != full and necessity_measure(dist, A) != 1.0 - possibility_measure(
                dist, StateSubset(full - a)):
            bad += 1
        if necessity_measure(dist, AB) != min(necessity_measure(dist, A),
                                              necessity_measure(dist, B)):
            bad += 1
        if possibility_measure(dist, AuB) != max(possibility_measure(dist, A),
                                                 possibility_measure(dist, B)):
            bad += 1
    return bad


def _fusion_failures(rng) -> dict[str, int]:
    counts = {"normalisation": 0, "vacuous identity": 0}
    for _ in range(CASES):
        n = int(rng.integers(2, 8))
        p = FrankParameter(theta=float(rng.uniform(-50, 50)) or 1.0)
        v1, v2 = rng.random((2, n))
        v1[rng.integers(n)] = 1.0
        v2[rng.integers(n)] = 1.0
        pi1 = PossibilityDistribution(v1)
        pi2 = PossibilityDistribution(v2)
        if max(fuse(p, pi1, pi2).values) != 1.0:
            counts["normalisation"] += 1
        if fuse(p, pi1, vacuous(n)).values != pi1.values:
            counts["vacuous identity"] += 1
    return counts


def _pignistic_failures(rng) -> dict[str, int]:
    counts = {"sums to 1": 0, "bracketing": 0}
    for _ in range(CASES):
        n = int(rng.integers(2, 8))
        values = rng.random(n)
        values[rng.integers(n)] = 1.0
        dist = PossibilityDistribution(values)
        bet = pignistic(dist).values
        if abs(sum(bet) - 1.0) > 1e-12:
            counts["sums to 1"] += 1
        for s in range(1, n + 1):
            sub = StateSubset((s,))
            if not (necessity_measure(dist, sub) - 1e-12 <= bet[s - 1]
                    <= possibility_measure(dist, sub) + 1e-12):
                counts["bracketing"] += 1
                break
    return counts


def _product_fusion_failures(rng) -> dict[str, int]:
    counts = {"uniform identity": 0, "one-hot absorbs": 0,
              "commutativity": 0, "zeros persist": 0}
    for _ in range(2000):
        n = int(rng.integers(2, 8))
        raw = rng.random(n) + 1e-3
        p1 = ProbabilityDistribution(raw / raw.sum())
        raw2 = rng.random(n) + 1e-3
        p2 = ProbabilityDistribution(raw2 / raw2.sum())
        uniform = ProbabilityDistribution(np.full(n, 1.0 / n))
        if any(abs(a - b) > 1e-12
               for a, b in zip(product_fuse(p1, uniform).values, p1.values)):
            counts["uniform identity"] += 1
        hot = np.zeros(n)
        hot[int(rng.integers(n))] = 1.0
        one_hot = ProbabilityDistribution(hot)
        if product_fuse(p1, one_hot).values != one_hot.values:
            counts["one-hot absorbs"] += 1
        if product_fuse(p1, p2).values != product_fuse(p2, p1).values:
            counts["commutativity"] += 1
        masked = np.array(raw / raw.sum())
        masked[0] = 0.0
        p_masked = ProbabilityDistribution(masked / masked.sum())
        if product_fuse(p_masked, p2).values[0] != 0.0:
            counts["zeros persist"] += 1
    return counts


def _determinism_ok(tmp_path) -> bool:
    base = preset("fig8").parts[0].spec.base
    base = replace(base, agents=6, states=3, steps=30)
    spec = SweepSpec(base=base, param="noise", grid=(0.0, 0.3), runs=4)
    paths = []
    for tag, workers in (("serial", 1), ("parallel", 2), ("again", 2)):
        path = tmp_path / f"det_{tag}.csv"
        emit_csv(sweep(spec, workers=workers), path)
        paths.append(path.read_bytes())
    return paths[0] == paths[1] == paths[2]


def test_criterion_9_property_suites(tmp_path):
    axiom = _tnorm_axiom_failures(rng_for(90))
    limits, worst = _limit_failures(rng_for(91))
    duality_bad = _measure_duality_failures(rng_for(92))
    fusion = _fusion_failures(rng_for(93))
    pig = _pignistic_failures(rng_for(94))
    product = _product_fusion_failures(rng_for(95))
    deterministic = _determinism_ok(tmp_path)

    checks = {f"axiom {k}": v == 0 for k, v in axiom.items()}
    checks.update({f"limit {k}": v == 0 for k, v in limits.items()})
    checks["measure duality"] = duality_bad == 0
    checks.update({f"fusion {k}": v == 0 for k, v in fusion.items()})
    checks.update({f"pignistic {k}": v == 0 for k, v in pig.items()})
    checks.update({f"product {k}": v == 0 for k, v in product.items()})
    checks["determinism"] = deterministic

    limit_note = (
        f"worst limit error {worst:.4e}; bounds: ln2/|theta|="
        f"{math.log(2) / 500:.4e} (+{LARGE_THETA_SLACK:g}) at theta=+/-500, "
        f"{PRODUCT_TOL:g} at theta=+/-1e-4"
    )
    fail_counts = {k: v for k, v in {**axiom, **limits, **fusion, **pig,
                                     **product}.items() if v}
    check(9, "property suites", checks,
          f"failures per sub-suite: {fail_counts or 'none'}; "
          f"duality failures {duality_bad}; determinism "
          f"{'ok' if deterministic else 'BROKEN'}; {limit_note}")

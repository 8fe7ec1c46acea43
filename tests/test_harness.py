"""Sweep orchestration, aggregation statistics, presets, and CSV output."""

import os

import numpy as np
import pytest

from possibly import (
    POSSIBILISTIC,
    PROBABILISTIC,
    AggregateRecord,
    FrankParameter,
    SimParams,
    SweepSpec,
    TrajectoryRow,
    aggregate_trajectories,
    collect_finals,
    collect_trajectories,
    derive_run_seed,
    emit_csv,
    histogram,
    percentile,
    preset,
    run,
    run_part,
    sweep,
    trajectory_rows,
)
from possibly import harness
from possibly.harness import PRESET_NAMES, PresetPart

THETA20 = FrankParameter(theta=20.0)


def tiny_params(**kw):
    base = dict(agents=4, states=3, rho=0.5, sigma=0.2, theta=THETA20,
                steps=6, model=POSSIBILISTIC, seed=7)
    base.update(kw)
    return SimParams(**base)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_singleton(self):
        assert percentile([7], 0.0) == 7
        assert percentile([7], 1.0) == 7

    def test_linear_interpolation_rule(self):
        # rank = 0.1 * (4 - 1) = 0.3, so 10 + 0.3 * (20 - 10)
        assert percentile([10, 20, 30, 40], 0.1) == pytest.approx(13.0, abs=1e-12)

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestHistogram:
    def test_all_mass_in_last_bin(self):
        bins = histogram([1.0] * 9, bins=20)
        assert bins[-1] == (0.95, 9)
        assert sum(c for _, c in bins) == 9

    def test_empty_samples(self):
        assert all(c == 0 for _, c in histogram([], bins=5))

    def test_hand_binning(self):
        bins = histogram([0.05, 0.5, 0.95], bins=10)
        counts = [c for _, c in bins]
        assert counts == [1, 0, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_edges_are_equal_width(self):
        lowers = [lo for lo, _ in histogram([], bins=4)]
        assert lowers == pytest.approx([0.0, 0.25, 0.5, 0.75], abs=1e-12)

    def test_interior_edge_goes_to_upper_bin(self):
        # numpy half-open bins except the right-closed last one
        bins = histogram([0.5], bins=2)
        assert bins[1][1] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([0.5], bins=0)
        with pytest.raises(ValueError):
            histogram([1.5], bins=4)


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), param="theta", grid=())

    def test_rejects_bad_runs_and_capture(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), runs=0)
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), capture="sometimes")

    def test_rejects_unknown_param(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), param="temperature", grid=(1.0,))

    def test_rejects_grid_without_param(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), grid=(1.0, 2.0))

    def test_rejects_invalid_grid_value(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), param="theta", grid=(0.0,))
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), param="evidence-rate", grid=(1.5,))

    def test_trajectory_needs_single_point(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), param="theta", grid=(1.0, 2.0),
                      capture="trajectory")

    def test_aggregate_record_orders_percentiles(self):
        with pytest.raises(ValueError):
            AggregateRecord(x=0.0, metric="m", mean=0.5, p10=0.9, p90=0.1)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seed(42, 3, 14) == derive_run_seed(42, 3, 14)

    def test_distinct_across_indices(self):
        seeds = {derive_run_seed(42, g, r) for g in range(8) for r in range(50)}
        assert len(seeds) == 8 * 50

    def test_distinct_across_base_seeds(self):
        assert derive_run_seed(1, 0, 0) != derive_run_seed(2, 0, 0)


class TestSweep:
    def test_single_run_aggregate_collapses(self):
        spec = SweepSpec(base=tiny_params(), param="theta", grid=(5.0,), runs=1)
        records = sweep(spec)
        expected = run(tiny_params(theta=FrankParameter(theta=5.0),
                                   seed=derive_run_seed(7, 0, 0)))[-1]
        by_name = {r.metric: r for r in records}
        assert set(by_name) == {"mean_poss_best", "mean_nec_best"}
        for name, rec in by_name.items():
            assert rec.mean == rec.p10 == rec.p90 == getattr(expected, name)
            assert rec.x == 5.0

    def test_percentiles_bracket_samples(self):
        spec = SweepSpec(base=tiny_params(), param="noise", grid=(0.0, 0.4), runs=6)
        finals = {}
        for gi, v in enumerate((0.0, 0.4)):
            finals[v] = [
                run(tiny_params(sigma=v, seed=derive_run_seed(7, gi, ri)))[-1]
                for ri in range(6)
            ]
        for rec in sweep(spec):
            samples = [getattr(m, rec.metric) for m in finals[rec.x]]
            assert rec.p10 <= rec.p90
            assert min(samples) <= rec.p10 and rec.p90 <= max(samples)
            assert rec.mean == pytest.approx(np.mean(samples), abs=1e-15)

    def test_grid_order_preserved(self):
        spec = SweepSpec(base=tiny_params(), param="theta",
                         grid=(2.0, 1.0, 3.0), runs=2)
        xs = [r.x for r in sweep(spec)]
        assert xs == [2.0, 2.0, 1.0, 1.0, 3.0, 3.0]

    def test_probabilistic_metric_set(self):
        spec = SweepSpec(base=tiny_params(model=PROBABILISTIC), runs=2)
        records = sweep(spec)
        assert [r.metric for r in records] == ["mean_prob_best"]

    def test_worker_count_does_not_change_results(self):
        spec = SweepSpec(base=tiny_params(), param="theta", grid=(1.0, 10.0),
                         runs=3)
        assert sweep(spec, workers=1) == sweep(spec, workers=3)

    def test_collect_helpers_align_with_run(self):
        spec = SweepSpec(base=tiny_params(), runs=3)
        finals = collect_finals(spec)
        trajs = collect_trajectories(spec)
        assert [t[-1] for t in trajs] == finals
        direct = run(tiny_params(seed=derive_run_seed(7, 0, 1)))
        assert trajs[1] == tuple(direct)

    def test_trajectory_aggregation_uses_step_as_x(self):
        trajs = collect_trajectories(SweepSpec(base=tiny_params(), runs=4))
        records = aggregate_trajectories(trajs, POSSIBILISTIC)
        steps = tiny_params().steps + 1
        assert len(records) == steps * 2
        assert records[0].x == 0.0 and records[-1].x == float(steps - 1)


class TestEmitCsv:
    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "x,metric,mean,p10,p90\n"

    def test_one_aggregate_record_is_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([AggregateRecord(x=1.0, metric="m", mean=0.5, p10=0.25, p90=0.75)],
                 path)
        assert path.read_text() == "x,metric,mean,p10,p90\n1.0,m,0.5,0.25,0.75\n"

    def test_round_trip_full_precision(self, tmp_path):
        rec = AggregateRecord(x=1 / 3, metric="m", mean=0.1 + 0.2,
                              p10=0.123456789012345678, p90=0.9)
        path = tmp_path / "rt.csv"
        emit_csv([rec], path)
        line = path.read_text().splitlines()[1].split(",")
        assert float(line[0]) == rec.x
        assert float(line[2]) == rec.mean
        assert float(line[3]) == rec.p10

    def test_trajectory_schema_by_model(self, tmp_path):
        poss = TrajectoryRow(run=0, step=1, model=POSSIBILISTIC, values=(0.9, 0.1))
        prob = TrajectoryRow(run=0, step=1, model=PROBABILISTIC, values=(0.4,))
        p1, p2 = tmp_path / "poss.csv", tmp_path / "prob.csv"
        emit_csv([poss], p1)
        emit_csv([prob], p2)
        assert p1.read_text().splitlines()[0] == "run,step,mean_poss_best,mean_nec_best"
        assert p1.read_text().splitlines()[1] == "0,1,0.9,0.1"
        assert p2.read_text().splitlines()[0] == "run,step,mean_prob_best"

    def test_histogram_schema(self, tmp_path):
        path = tmp_path / "hist.csv"
        emit_csv(histogram([0.05, 0.96], bins=2), path)
        assert path.read_text() == "bin_lower,count\n0.0,1\n0.5,1\n"

    def test_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError) as err:
            emit_csv([], target)
        assert str(target) in str(err.value)
        assert not target.exists()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([AggregateRecord(x=0.0, metric="m", mean=1.0, p10=1.0, p90=1.0)],
                 path)
        assert b"\r" not in path.read_bytes()


class TestPresets:
    def test_known_names_only(self):
        with pytest.raises(ValueError):
            preset("fig11")
        for name in PRESET_NAMES:
            assert preset(name).name == name

    def test_fig4a_matches_published_parameters(self):
        part = preset("fig4a").parts[0]
        base = part.spec.base
        assert (base.agents, base.states) == (100, 5)
        assert base.rho == 0.05 and base.sigma == 0.0
        assert base.theta.theta == 20.0
        assert base.steps == 1500 and base.fusion_enabled
        assert base.model == POSSIBILISTIC
        assert part.spec.runs == 100
        assert part.kind == "trajectory"

    def test_fig4b_disables_fusion(self):
        assert preset("fig4b").parts[0].spec.base.fusion_enabled is False

    def test_fig5_sweeps_theta_with_and_without_noise(self):
        a, b = preset("fig5a").parts[0], preset("fig5b").parts[0]
        assert a.spec.param == "theta" and b.spec.param == "theta"
        assert a.spec.base.sigma == 0.0 and b.spec.base.sigma == 0.3
        assert a.spec.grid[0] == pytest.approx(0.1)
        assert a.spec.grid[-1] == pytest.approx(100.0)

    def test_fig6_pairs_fusion_on_off_over_noise(self):
        a, b = preset("fig6a").parts[0], preset("fig6b").parts[0]
        assert a.spec.param == "noise" and b.spec.param == "noise"
        assert a.spec.grid == pytest.approx(tuple(np.linspace(0, 0.5, 11)))
        assert a.spec.base.fusion_enabled and not b.spec.base.fusion_enabled

    def test_fig7_covers_both_models_and_zoom(self):
        parts = preset("fig7").parts
        stems = [p.stem for p in parts]
        assert stems == ["fig7_possibilistic_rho_sweep", "fig7_probabilistic_rho_sweep",
                        "fig7_possibilistic_rho_zoom", "fig7_probabilistic_rho_zoom"]
        assert {p.spec.base.model for p in parts} == {POSSIBILISTIC, PROBABILISTIC}
        assert all(p.spec.base.sigma == 0.3 for p in parts)
        assert parts[0].spec.grid[0] == 0.01 and parts[0].spec.grid[-1] == 1.0
        assert parts[2].spec.grid[-1] == pytest.approx(0.11)

    def test_fig8_and_fig9_share_parameterisation(self):
        t_parts = preset("fig8").parts
        h_parts = preset("fig9").parts
        for tp, hp in zip(t_parts, h_parts):
            assert tp.spec.base == hp.spec.base
        assert [p.kind for p in h_parts] == ["histogram", "histogram"]
        assert [p.metric for p in h_parts] == ["mean_poss_best", "mean_prob_best"]
        assert t_parts[0].spec.base.rho == 0.05
        assert t_parts[0].spec.base.sigma == 0.3

    def test_fig10_long_horizon(self):
        parts = preset("fig10").parts
        assert all(p.spec.base.steps == 3500 for p in parts)
        assert all(p.spec.base.rho == 0.5 for p in parts)
        assert all(p.spec.base.sigma == 0.3 for p in parts)
        assert {p.spec.base.model for p in parts} == {POSSIBILISTIC, PROBABILISTIC}

    def test_fig2_and_fig3_are_simulation_free(self):
        f2 = preset("fig2").parts[0]
        f3 = preset("fig3").parts[0]
        assert f2.kind == "frank_curve" and f3.kind == "reversal_curve"
        assert f2.curve_grid[0] == pytest.approx(0.1)
        assert f2.curve_grid[-1] == pytest.approx(100.0)
        assert f3.curve_grid == pytest.approx(tuple(np.linspace(0, 0.5, 11)))

    def test_seed_override_propagates(self):
        assert preset("fig4a", seed=123).parts[0].spec.base.seed == 123


class TestRunPart:
    def test_trajectory_part_writes_rows(self, tmp_path):
        part = PresetPart(stem="t", kind="trajectory",
                          spec=SweepSpec(base=tiny_params(), runs=2))
        path = run_part(part, tmp_path)
        lines = open(path).read().splitlines()
        assert lines[0] == "run,step,mean_poss_best,mean_nec_best"
        assert len(lines) == 1 + 2 * (tiny_params().steps + 1)

    def test_aggregate_part(self, tmp_path):
        part = PresetPart(stem="a", kind="aggregate",
                          spec=SweepSpec(base=tiny_params(), param="theta",
                                         grid=(1.0, 2.0), runs=2))
        lines = open(run_part(part, tmp_path)).read().splitlines()
        assert lines[0] == "x,metric,mean,p10,p90"
        assert len(lines) == 1 + 2 * 2

    def test_histogram_part(self, tmp_path):
        part = PresetPart(stem="h", kind="histogram", metric="mean_poss_best",
                          spec=SweepSpec(base=tiny_params(), runs=3))
        lines = open(run_part(part, tmp_path)).read().splitlines()
        assert lines[0] == "bin_lower,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 3

    def test_fig2_runs_quickly_and_is_monotone_in_theta(self, tmp_path):
        """The fused value of the contested state falls as theta rises:
        the pairwise consistency grows with theta, so less mass is added
        back during normalisation."""
        path = run_part(preset("fig2").parts[0], tmp_path)
        rows = [l.split(",") for l in open(path).read().splitlines()[1:]]
        s1 = [float(r[2]) for r in rows if r[1] == "fused_s1"]
        assert all(b <= a + 1e-12 for a, b in zip(s1, s1[1:]))
        top = [float(r[2]) for r in rows if r[1] == "fused_s2"]
        assert all(v == 1.0 for v in top)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_part(PresetPart(stem="x", kind="mystery"), tmp_path)


class TestParallelDeterminism:
    def test_identical_csv_bytes_across_worker_counts(self, tmp_path):
        spec = SweepSpec(base=tiny_params(steps=4), param="evidence-rate",
                         grid=(0.2, 0.8), runs=3)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        emit_csv(sweep(spec, workers=1), p1)
        emit_csv(sweep(spec, workers=3), p2)
        assert p1.read_bytes() == p2.read_bytes()



class TestWorkerCap:
    """The pool is sized from the jobs and the CPUs. A fake executor records
    the size asked for and maps in this process, so no process starts."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        return sizes

    def test_pool_never_exceeds_cpus(self, sizes):
        spec = SweepSpec(base=tiny_params(steps=1), runs=6)
        assert sweep(spec, workers=10 ** 6) == sweep(spec, workers=1)
        assert sizes == [4]

    def test_pool_never_exceeds_jobs(self, sizes):
        collect_finals(SweepSpec(base=tiny_params(steps=1), runs=3), workers=4)
        assert sizes == [3]

    def test_one_job_or_one_cpu_runs_serially(self, sizes, monkeypatch):
        collect_finals(SweepSpec(base=tiny_params(steps=1), runs=1), workers=4)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        collect_finals(SweepSpec(base=tiny_params(steps=1), runs=3), workers=4)
        assert sizes == []

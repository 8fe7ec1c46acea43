"""Sweep orchestration, aggregation statistics, presets, and CSV output."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from possibly import (
    METRICS,
    POSSIBILISTIC,
    PROBABILISTIC,
    AggregateRecord,
    EnvironmentSpec,
    FrankParameter,
    NoiseSpec,
    SimParams,
    SweepSpec,
    aggregate_trajectories,
    apply_param,
    collect_finals,
    collect_trajectories,
    derive_run_seed,
    emit_csv,
    histogram,
    percentile,
    preset,
    reversal_probability,
    run,
    run_part,
    sweep,
    trajectory_rows,
)
from possibly import engine
from possibly import harness
from possibly.harness import (
    HISTOGRAM_HEADER,
    PRESET_NAMES,
    SWEEP_PARAMS,
    PresetPart,
    trajectory_header,
)

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

    def test_array_and_generator_inputs(self):
        # a strided column of an array, read in place, and a generator
        cols = np.array([[10.0, 1.0], [40.0, 2.0], [20.0, 3.0], [30.0, 4.0]])
        assert percentile(cols[:, 0], 0.1) == percentile([10, 40, 20, 30], 0.1)
        assert percentile((v for v in (10, 40, 20, 30)), 0.9) == \
            percentile(cols[:, 0], 0.9)
        with pytest.raises(ValueError):
            percentile(np.empty(0), 0.5)

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
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="bins must be an integer"):
                histogram([0.5], bins=bad)
        assert histogram([0.5], bins=np.int64(2)) == histogram([0.5], bins=2)
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                histogram([bad], bins=4)


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), param="theta", grid=())

    def test_rejects_bad_runs_and_capture(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), runs=0)
        for runs in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="runs must be an integer"):
                SweepSpec(base=tiny_params(), runs=runs)
        assert type(SweepSpec(base=tiny_params(), runs=np.int64(3)).runs) is int
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

    @pytest.mark.parametrize("param, value", [
        ("agents", 2.5), ("agents", 3.0), ("states", 4.0), ("steps", 2.5)])
    def test_integer_grid_values_are_not_truncated(self, param, value):
        # a float reaches SimParams, whose integer check rejects it
        with pytest.raises(ValueError, match="must be an integer"):
            SweepSpec(base=tiny_params(), param=param, grid=(value, 3), runs=1)
        with pytest.raises(ValueError, match="must be an integer"):
            apply_param(tiny_params(), param, value)
        assert apply_param(tiny_params(), param, np.int64(3)) == \
            replace(tiny_params(), **{SWEEP_PARAMS[param][0]: 3})

    @pytest.mark.parametrize("param", tuple(SWEEP_PARAMS))
    def test_swept_param_without_grid_is_a_value_error(self, param):
        # the default grid (None,) holds no value of any parameter
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_params(), param=param)

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
        metrics, _ = run(tiny_params(theta=FrankParameter(theta=5.0),
                                     seed=derive_run_seed(7, 0, 0)))
        expected = dict(zip(METRICS[POSSIBILISTIC], metrics[-1].tolist()))
        by_name = {r.metric: r for r in records}
        assert set(by_name) == {"mean_poss_best", "mean_nec_best"}
        for name, rec in by_name.items():
            assert rec.mean == rec.p10 == rec.p90 == expected[name]
            assert rec.x == 5.0

    def test_percentiles_bracket_samples(self):
        spec = SweepSpec(base=tiny_params(), param="noise", grid=(0.0, 0.4), runs=6)
        finals = {}
        for gi, v in enumerate((0.0, 0.4)):
            finals[v] = np.array([
                run(tiny_params(sigma=v, seed=derive_run_seed(7, gi, ri)))[0][-1]
                for ri in range(6)
            ])
        names = METRICS[POSSIBILISTIC]
        for rec in sweep(spec):
            samples = finals[rec.x][:, names.index(rec.metric)].tolist()
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
        assert finals.shape == (3, 2) and trajs.shape == (3, 7, 2)
        assert (trajs[:, -1] == finals).all()
        direct, _ = run(tiny_params(seed=derive_run_seed(7, 0, 1)))
        assert trajs[1].tolist() == direct.tolist()

    def test_trajectory_aggregation_uses_step_as_x(self):
        trajs = collect_trajectories(SweepSpec(base=tiny_params(), runs=4))
        records = aggregate_trajectories(trajs, POSSIBILISTIC)
        steps = tiny_params().steps + 1
        assert len(records) == steps * 2
        assert records[0].x == 0.0 and records[-1].x == float(steps - 1)


def fold_reference(metrics, xs, model):
    # the fold one column of runs at a time
    return [AggregateRecord(x=x, metric=name, mean=float(col.mean()),
                            p10=float(np.percentile(col, 10)),
                            p90=float(np.percentile(col, 90)))
            for i, x in enumerate(xs)
            for col, name in zip(metrics[:, i].T, METRICS[model])]


class TestFold:
    """The fold's one call per statistic gives the bits of the per-column
    reference. A mean along the run axis of the (runs, ...) array adds in
    another order than a column's own mean, so these pin the layout."""

    @staticmethod
    def metrics(runs, points, m):
        rng = np.random.default_rng(runs)
        a = rng.random((runs, points, m))
        a[:, : points // 2] = np.round(a[:, : points // 2], 1)  # ties
        a[rng.random(a.shape) < 0.15] = 0.0
        a[rng.random(a.shape) < 0.15] = 1.0
        return a

    @pytest.mark.parametrize("model", [POSSIBILISTIC, PROBABILISTIC])
    @pytest.mark.parametrize("runs", [1, 2, 7, 100])
    def test_fold_matches_per_column_reference(self, runs, model):
        a = self.metrics(runs, 13, len(METRICS[model]))
        xs = [0.5 * i for i in range(13)]
        expected = repr(fold_reference(a, xs, model))
        assert repr(harness._fold(a, xs, model)) == expected
        # as sweep passes it: a strided view of the (points, runs) array
        by_point = np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)
        assert repr(harness._fold(by_point, xs, model)) == expected

    @pytest.mark.parametrize("runs", [1, 2, 7, 100])
    def test_aggregate_trajectories_matches_per_column_reference(self, runs):
        a = self.metrics(runs, 31, 2)
        xs = [float(t) for t in range(31)]
        assert repr(aggregate_trajectories(a, POSSIBILISTIC)) == \
            repr(fold_reference(a, xs, POSSIBILISTIC))


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
        poss = trajectory_rows(np.array([[[1.0, 0.0], [0.9, 0.1]]]))
        prob = trajectory_rows(np.array([[[0.2], [0.4]]]))
        assert poss == ["0,0,1.0,0.0", "0,1,0.9,0.1"]
        p1, p2 = tmp_path / "poss.csv", tmp_path / "prob.csv"
        emit_csv(poss, p1, trajectory_header(POSSIBILISTIC))
        emit_csv(prob, p2, trajectory_header(PROBABILISTIC))
        assert p1.read_text().splitlines()[0] == "run,step,mean_poss_best,mean_nec_best"
        assert p1.read_text().splitlines()[2] == "0,1,0.9,0.1"
        assert p2.read_text().splitlines()[0] == "run,step,mean_prob_best"

    def test_histogram_schema(self, tmp_path):
        path = tmp_path / "hist.csv"
        emit_csv(histogram([0.05, 0.96], bins=2), path, HISTOGRAM_HEADER)
        assert path.read_text() == "bin_lower,count\n0.0,1\n0.5,1\n"

    def test_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError) as err:
            emit_csv([], target)
        assert str(target) in str(err.value)
        assert not target.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_interrupt_leaves_target_untouched(self, tmp_path, existing):
        target = tmp_path / "out.csv"
        if existing:
            target.write_bytes(b"old bytes\n")

        def rows():
            for i in range(3):
                yield [i, 0.5]
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            emit_csv(rows(), target, ("a", "b"))
        if existing:
            assert target.read_bytes() == b"old bytes\n"
        else:
            assert not target.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("cell", [
        7, -3, np.int64(12), np.int32(-5), True, 0.1, 1 / 3, -0.0, 1e-300, 1e22,
        np.float64(0.30000000000000004), np.float64(-0.0), np.float32(0.1),
        "fused_s1",
    ], ids=repr)
    def test_cells_format_as_fmt(self, tmp_path, cell):
        path = tmp_path / "cell.csv"
        emit_csv([[cell, "m", cell]], path, ("a", "b", "c"))
        want = cell if isinstance(cell, str) else harness._fmt(cell)
        assert path.read_text() == f"a,b,c\n{want},m,{want}\n"

    def test_trajectory_bytes_as_fmt(self, tmp_path):
        # trajectory_rows formats by column what _fmt formats by cell
        trajs = np.random.default_rng(5).random((3, 40, 2))
        trajs[0, 0] = 0.0, 1.0
        trajs[2, 39] = 5e-324, 1e-300
        path = tmp_path / "traj.csv"
        emit_csv(trajectory_rows(trajs), path, trajectory_header(POSSIBILISTIC))
        want = "".join(",".join(map(harness._fmt, (run, step, *values))) + "\n"
                       for run, traj in enumerate(trajs)
                       for step, values in enumerate(traj))
        header = ",".join(trajectory_header(POSSIBILISTIC)) + "\n"
        assert path.read_bytes() == (header + want).encode()

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

    def test_names_are_the_table_keys_in_figure_order(self):
        assert PRESET_NAMES == tuple(harness._PRESETS) == (
            "fig2", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a",
            "fig6b", "fig7", "fig8", "fig9", "fig10")
        for name in PRESET_NAMES:
            for part in preset(name).parts:
                assert part.stem.startswith(f"{name}_")

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
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "run,step,mean_poss_best,mean_nec_best"
        assert len(lines) == 1 + 2 * (tiny_params().steps + 1)

    def test_aggregate_part(self, tmp_path):
        part = PresetPart(stem="a", kind="aggregate",
                          spec=SweepSpec(base=tiny_params(), param="theta",
                                         grid=(1.0, 2.0), runs=2))
        lines = Path(run_part(part, tmp_path)).read_text().splitlines()
        assert lines[0] == "x,metric,mean,p10,p90"
        assert len(lines) == 1 + 2 * 2

    def test_histogram_part(self, tmp_path):
        part = PresetPart(stem="h", kind="histogram", metric="mean_poss_best",
                          spec=SweepSpec(base=tiny_params(), runs=3))
        lines = Path(run_part(part, tmp_path)).read_text().splitlines()
        assert lines[0] == "bin_lower,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 3

    @pytest.mark.parametrize("model, metric", [
        (POSSIBILISTIC, "mean_poss_best"), (POSSIBILISTIC, "mean_nec_best"),
        (PROBABILISTIC, "mean_prob_best")])
    def test_histogram_part_bins_the_named_metric(self, tmp_path, model, metric):
        # at these params the possibilistic finals of the two columns fall
        # in different bins, so binning the wrong column changes the file
        base = tiny_params(model=model, steps=3)
        part = PresetPart(stem="h", kind="histogram", metric=metric,
                          spec=SweepSpec(base=base, runs=4))
        column = METRICS[model].index(metric)
        finals = [run(replace(base, seed=derive_run_seed(7, 0, ri)))[0][-1, column]
                  for ri in range(4)]
        expected = "".join(f"{lower!r},{count}\n"
                           for lower, count in histogram(finals))
        assert Path(run_part(part, tmp_path)).read_text() == \
            "bin_lower,count\n" + expected

    def test_fig2_runs_quickly_and_is_monotone_in_theta(self, tmp_path):
        """The fused value of the contested state falls as theta rises:
        the pairwise consistency grows with theta, so less mass is added
        back during normalisation."""
        path = run_part(preset("fig2").parts[0], tmp_path)
        rows = [l.split(",") for l in Path(path).read_text().splitlines()[1:]]
        s1 = [float(r[2]) for r in rows if r[1] == "fused_s1"]
        assert all(b <= a + 1e-12 for a, b in zip(s1, s1[1:]))
        top = [float(r[2]) for r in rows if r[1] == "fused_s2"]
        assert all(v == 1.0 for v in top)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_part(PresetPart(stem="x", kind="mystery"), tmp_path)

    @pytest.mark.parametrize("seed", [1, 3, 42])
    def test_fig3_noiseless_point_equals_a_million_samples(self, seed):
        grid = preset("fig3").parts[0].curve_grid
        assert grid[0] == 0.0
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(derive_run_seed(seed, 0, 0))))
        expected = reversal_probability(EnvironmentSpec.default(5),
                                        NoiseSpec(sigma=0.0), i=5, j=4,
                                        samples=10 ** 6, rng=rng)
        assert repr(harness._reversal_point((seed, 0, 0.0))) == repr(expected)

    def test_fig3_takes_one_sample_at_the_noiseless_point_only(
            self, tmp_path, monkeypatch):
        seen = []

        def counted(env, noise, *args, samples, **kwargs):
            seen.append((noise.sigma, samples))
            return reversal_probability(env, noise, *args, samples=samples,
                                        **kwargs)

        monkeypatch.setattr(harness, "reversal_probability", counted)
        part = preset("fig3").parts[0]
        run_part(part, tmp_path, workers=1)
        assert seen == [(sigma, 1 if sigma == 0 else 10 ** 6)
                        for sigma in part.curve_grid]


class TestParallelDeterminism:
    def test_identical_csv_bytes_across_worker_counts(self, tmp_path):
        spec = SweepSpec(base=tiny_params(steps=4), param="evidence-rate",
                         grid=(0.2, 0.8), runs=3)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        emit_csv(sweep(spec, workers=1), p1)
        emit_csv(sweep(spec, workers=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_group_split_across_two_workers_keeps_csv_bytes(self, tmp_path,
                                                            monkeypatch):
        # the six runs share one lockstep shape; two workers get 3 + 3
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        spec = SweepSpec(base=tiny_params(steps=4), param="evidence-rate",
                         grid=(0.2, 0.8), runs=3)
        batches = harness._batches(harness._runs_for(spec), 2)
        assert [len(batch) for batch in batches] == [3, 3]
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        emit_csv(sweep(spec, workers=1), p1)
        emit_csv(sweep(spec, workers=2), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trajectory_bytes_do_not_depend_on_workers(self, tmp_path,
                                                       monkeypatch):
        # two workers are dealt the four runs 2 + 2; each batch's rows go
        # back to its runs' positions
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        spec = SweepSpec(base=tiny_params(), runs=4, capture="trajectory")
        batches = harness._batches(harness._runs_for(spec), 2)
        assert [len(batch) for batch in batches] == [2, 2]
        part = PresetPart(stem="t", kind="trajectory", spec=spec)
        p1 = run_part(part, tmp_path / "w1", workers=1)
        p2 = run_part(part, tmp_path / "w2", workers=2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_reversal_curve_bytes_do_not_depend_on_workers(self, tmp_path,
                                                          monkeypatch):
        # its 11 points run on a 2-process pool, each on its own stream
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        part = preset("fig3", seed=3).parts[0]
        p1 = run_part(part, tmp_path / "w1", workers=1, seed=3)
        p2 = run_part(part, tmp_path / "w2", workers=2, seed=3)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


# a grid that crosses Frank branches: groups of 6, 3 and 9 runs
UNEVEN = SweepSpec(base=tiny_params(), param="theta",
                   grid=(-1.0, -10.0, 5e-5, 1.0, 2.0, 10.0), runs=3)


class TestBatching:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7, 20])
    def test_groups_are_dealt_into_near_equal_batches(self, workers):
        runs = harness._runs_for(UNEVEN)
        batches = harness._batches(runs, workers)
        assert sorted(i for batch in batches for i in batch) == \
            list(range(len(runs)))
        by_group = {}
        for batch in batches:
            keys = {engine.lockstep_key(runs[i]) for i in batch}
            assert len(keys) == 1 and list(batch) == sorted(batch)
            by_group.setdefault(keys.pop(), []).append(len(batch))
        assert sorted(map(sum, by_group.values())) == [3, 6, 9]
        for sizes in by_group.values():
            assert len(sizes) == min(workers, sum(sizes))
            assert max(sizes) - min(sizes) <= 1

    def test_one_worker_splits_where_the_frank_branch_changes(self):
        spec = SweepSpec(base=tiny_params(), param="theta",
                         grid=(-1.0, -10.0, 5e-5, 1.0), runs=2)
        assert [len(batch) for batch in
                harness._batches(harness._runs_for(spec), 1)] == [4, 2, 2]

    def test_an_ascending_rho_grid_loads_both_batches_alike(self):
        spec = replace(preset("fig7").parts[0].spec, runs=3)
        runs = harness._runs_for(spec)
        rho = [sum(runs[i].rho for i in batch)
               for batch in harness._batches(runs, 2)]
        assert len(rho) == 2
        assert abs(rho[0] - rho[1]) <= max(harness._RHO_GRID)

    @pytest.mark.parametrize("capture", ["final", "trajectory"])
    def test_dealt_rows_return_to_their_runs(self, monkeypatch, fresh_pool,
                                             capture):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2})
        one = harness._map_jobs(UNEVEN, capture, 1)
        three = harness._map_jobs(UNEVEN, capture, 3)
        assert harness._POOL[0] == 3
        assert one.shape == three.shape and one.tobytes() == three.tobytes()

    def test_final_capture_builds_metrics_once(self, monkeypatch):
        calls = []
        metrics = engine._metrics_from_array

        def counted(b, model):
            calls.append(b.copy())
            return metrics(b, model)

        monkeypatch.setattr(engine, "_metrics_from_array", counted)
        for steps in (10, 100):
            calls.clear()
            finals = collect_finals(SweepSpec(base=tiny_params(steps=steps),
                                              runs=3))
            assert len(calls) == 1
            assert (metrics(calls[0], POSSIBILISTIC) == finals).all()



class TestWorkerCap:
    """The pool is sized from the jobs and the CPUs that this process may
    run on. A fake executor records the size asked for and maps in this
    process, so no process starts."""

    @pytest.fixture
    def sizes(self, monkeypatch, fresh_pool):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3})
        return sizes

    def test_pool_never_exceeds_cpus(self, sizes):
        spec = SweepSpec(base=tiny_params(steps=1), runs=6)
        assert sweep(spec, workers=10 ** 6) == sweep(spec, workers=1)
        assert sizes == [4]

    def test_pool_never_exceeds_jobs(self, sizes):
        collect_finals(SweepSpec(base=tiny_params(steps=1), runs=3), workers=4)
        assert sizes == [3]

    def test_workers_below_one_fail_as_the_option_states(self, sizes):
        spec = SweepSpec(base=tiny_params(steps=1), runs=2)
        for workers in (0, -3):
            with pytest.raises(ValueError, match=r"^workers must be >= 1$"):
                collect_finals(spec, workers=workers)
        assert sizes == []

    def test_one_job_or_one_cpu_runs_serially(self, sizes, monkeypatch):
        collect_finals(SweepSpec(base=tiny_params(steps=1), runs=1), workers=4)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
        collect_finals(SweepSpec(base=tiny_params(steps=1), runs=3), workers=4)
        assert sizes == []

    def test_cpus_are_those_this_process_may_run_on(self, monkeypatch):
        # as under `taskset -c 1` on a machine of four CPUs
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {1})
        assert harness._pool_size(2, 10) == 1

    @pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
    def test_without_affinity_the_cpu_count_caps(self, monkeypatch, count,
                                                 cpus):
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: count)
        assert harness._pool_size(100, 100) == cpus

    @pytest.mark.parametrize("workers, cpus", [(1, 4), (3, 4), (100, 4),
                                               (100, 64)])
    def test_reversal_pool_never_exceeds_points_or_cpus(
            self, sizes, monkeypatch, tmp_path, workers, cpus):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        monkeypatch.setattr(harness, "reversal_probability",
                            lambda *args, **kwargs: 0.5)
        run_part(preset("fig3").parts[0], tmp_path, workers)
        size = min(workers, 11, cpus)
        assert sizes == ([size] if size > 1 else [])


# Jobs for the shared pool. The pool pickles them by name, and its workers,
# forked after this module is imported, find them here.
def _pid(_):
    return os.getpid()


def _square(x):
    if x < 0:
        raise ValueError(f"negative job {x}")
    return x * x


def _die(_):
    os._exit(1)


def _workers() -> set:
    return {p.pid for p in multiprocessing.active_children()}


class TestSharedPool:
    """One pool per process: started by the first parallel call, reused by
    the next one of its size, replaced on a size change, closed by a call
    that raises."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1})

    def test_consecutive_calls_run_in_the_same_workers(self):
        first = harness._pool_map(_pid, range(4), 2)
        workers = _workers()
        assert len(workers) == 2 and set(first) <= workers
        second = harness._pool_map(_pid, range(4), 2)
        assert set(second) <= workers and _workers() == workers

    def test_dead_worker_breaks_one_call_and_the_next_starts_fresh(self):
        harness._pool_map(_pid, range(4), 2)
        dead = _workers()
        with pytest.raises(BrokenExecutor):
            harness._pool_map(_die, range(4), 2)
        assert harness._POOL is None
        after = harness._pool_map(_pid, range(4), 2)
        assert set(after) <= _workers()
        assert len(_workers()) == 2 and not _workers() & dead

    def test_job_error_propagates_and_the_next_call_is_right(self):
        harness._pool_map(_pid, range(4), 2)
        with pytest.raises(ValueError, match="negative job -2"):
            harness._pool_map(_square, [1, -2, 3, 4], 2)
        assert harness._POOL is None
        assert harness._pool_map(_square, [1, 2, 3, 4], 2) == [1, 4, 9, 16]

    def test_call_of_another_size_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2})
        assert harness._pool_map(_square, [1, 2, 3], 3) == [1, 4, 9]
        three = _workers()
        assert len(three) == 3 and harness._POOL[0] == 3
        assert harness._pool_map(_square, [1, 2], 3) == [1, 4]
        assert harness._POOL[0] == 2
        assert len(_workers()) == 2 and not _workers() & three

    def test_one_pool_serves_several_parts_with_serial_bytes(self, tmp_path):
        parts = (
            PresetPart(stem="sweep", kind="aggregate", spec=SweepSpec(
                base=tiny_params(steps=4), param="evidence-rate",
                grid=(0.2, 0.8), runs=3)),
            preset("fig3", seed=3).parts[0],
            PresetPart(stem="trajectory", kind="trajectory", spec=SweepSpec(
                base=tiny_params(), runs=4, capture="trajectory")),
        )
        parallel, pools = [], []
        for part in parts:
            parallel.append(run_part(part, tmp_path / "w2", workers=2, seed=3))
            pools.append(harness._POOL)
        assert pools[0] is not None and pools.count(pools[0]) == 3
        for part, p2 in zip(parts, parallel):
            p1 = run_part(part, tmp_path / "w1", workers=1, seed=3)
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_workers_do_not_outlive_their_process(self):
        code = textwrap.dedent("""
            import multiprocessing, os
            from possibly import harness

            def pid(_):
                return os.getpid()

            harness.os.sched_getaffinity = lambda pid: {0, 1}
            ran = harness._pool_map(pid, range(4), 2)
            workers = sorted(p.pid for p in multiprocessing.active_children())
            assert len(workers) == 2 and set(ran) <= set(workers), (ran, workers)
            print(*workers)
        """)
        src = os.path.dirname(os.path.dirname(harness.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        pids = [int(v) for v in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

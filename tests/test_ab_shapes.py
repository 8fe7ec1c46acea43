"""scripts/ab_shapes.py: a checkout run against itself gives one table row
per shape, with equal outputs and each side's draw path; outputs that
differ, or paths of different lengths, are reported; the fig7 shape holds
the dense batches of perfbench's sweep, and sparse50t the acceptance
fixtures' level-rule batches with trajectory capture."""

import importlib.util
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from possibly import engine

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_shapes.py"
spec = importlib.util.spec_from_file_location("ab_shapes", SCRIPT)
ab_shapes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_shapes)


def test_a_checkout_against_itself():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--pairs", "1",
         "--steps", "2"], capture_output=True, text=True, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows[0][0] == "shape"
    assert [row[0] for row in rows[1:]] == list(ab_shapes.SHAPES)
    assert all(len(row) == 11 and row[4].endswith("/1") for row in rows[1:])
    # the samples import this checkout, and so draw as this process does
    path = "C" if ab_shapes.compiled(engine) else "py"
    assert all(row[9:] == [path, path] for row in rows[1:])
    assert "warning" not in done.stderr


def sample(cpu_s, sha256="a", compiled=True):
    return {"cpu_s": cpu_s, "minflt": 10, "maxrss_kb": 40960,
            "sha256": sha256, "compiled": compiled}


def test_summary_counts_the_faster_pairs():
    line = ab_shapes.summarize("large", [sample(2.0), sample(1.0)],
                               [sample(1.5), sample(1.5)])
    assert line.split()[:5] == ["large", "1500.0", "1500.0", "1.000", "1/2"]


def test_each_side_says_how_it_drew():
    line = ab_shapes.summarize(
        "large", [sample(1.0, compiled=False)] * 2,
        [sample(1.0), sample(1.0, compiled=False)])
    assert line.split()[-2:] == ["py", "mixed"]
    assert ab_shapes.draw_path([sample(1.0)]) == "C"


def test_compiled_needs_every_entry_point():
    # this checkout's helper needs all three entry points; an older
    # checkout's _DRAWS is its compiled draw function alone
    def old_draw():
        pass

    class Helper:
        draw_events = assign_levels = old_draw

    assert ab_shapes.compiled(engine) == (engine._DRAWS is not None)
    assert not ab_shapes.compiled(SimpleNamespace(_DRAWS=None))
    assert not ab_shapes.compiled(SimpleNamespace())
    assert not ab_shapes.compiled(SimpleNamespace(_DRAWS=Helper()))
    Helper.advance_columns = old_draw
    assert ab_shapes.compiled(SimpleNamespace(_DRAWS=Helper()))
    assert ab_shapes.compiled(SimpleNamespace(_DRAWS=old_draw))


def test_outputs_that_differ_fail():
    with pytest.raises(SystemExit, match="outputs differ"):
        ab_shapes.summarize("fig8", [sample(1.0)], [sample(1.0, "b")])


def test_paths_of_different_lengths_warn():
    assert ab_shapes.path_warning("/a/x", "/b/y") is None
    assert "peak RSS" in ab_shapes.path_warning("/a/x", "/b/yy")


def test_fig7_deals_each_rho_sweep_into_two_dense_batches():
    # sweep's fig7 rho sweeps at 3 runs per point: 33 runs per model, in
    # batches of 17 and 16, each of them stepped by the dense rule
    batches = ab_shapes._batches("fig7", None, 1)
    assert [(len(runs), runs[0].model, runs[0].steps, final)
            for runs, final in batches] == [
        (17, "possibilistic", 100, True), (16, "possibilistic", 100, True),
        (17, "probabilistic", 100, True), (16, "probabilistic", 100, True)]
    assert not any(engine._sparse(runs) for runs, _ in batches)


def test_sparse50t_is_sparse50_with_trajectory_capture():
    # 50 runs of the paper's population at rho = 0.05 per model, each
    # batch stepped by the sparse rule
    trajectory = ab_shapes._batches("sparse50t", None, 1)
    final = ab_shapes._batches("sparse50", None, 1)
    assert [runs for runs, _ in trajectory] == [runs for runs, _ in final]
    assert [(len(runs), runs[0].model, runs[0].steps, runs[0].rho, capture)
            for runs, capture in trajectory] == [
        (50, "possibilistic", 300, 0.05, False),
        (50, "probabilistic", 300, 0.05, False)]
    assert all(engine._sparse(runs) for runs, _ in trajectory)

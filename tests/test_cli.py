"""Command-line parsing, precedence rules, and end-to-end subcommands."""

import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from possibly import DEFAULT_SEED, POSSIBILISTIC, PROBABILISTIC, cli, harness, preset
from possibly.cli import OUT_ENV_VAR, cmd_example, main, parse_args
from possibly.engine import OPTIONS

THETA_ZERO = ("theta = 0 is not a member of the Frank family; "
              "use the product limit variant")

# argv, the flag it names, and the rest of its one-line diagnostic
RANGE_ERRORS = [
    (["run", "--seed", "1", "--agents", "1"], "--agents", "need at least 2 agents"),
    (["run", "--seed", "1", "--states", "1"], "--states", "need at least 2 states"),
    (["run", "--seed", "1", "--evidence-rate", "1.5"], "--evidence-rate",
     "must lie in [0, 1]"),
    (["run", "--seed", "1", "--noise", "-0.1"], "--noise", "must be finite and >= 0"),
    (["run", "--seed", "1", "--steps", "-1"], "--steps", "must be >= 0"),
    (["run", "--seed", "-1"], "--seed", "must be a 64-bit unsigned integer"),
    (["run", "--seed", str(2 ** 64)], "--seed", "must be a 64-bit unsigned integer"),
    (["run", "--seed", "1", "--workers", "0"], "--workers", "must be >= 1"),
    (["run", "--seed", "1", "--runs", "0"], "--runs", "must be >= 1"),
    (["run", "--seed", "1", "--noise", "nan"], "--noise", "must be finite and >= 0"),
    (["run", "--seed", "1", "--noise", "inf"], "--noise", "must be finite and >= 0"),
    # every range is tested before theta's FrankParameter check
    (["run", "--seed", "1", "--theta", "0", "--steps", "-1"], "--steps",
     "must be >= 0"),
    # a minus before inf or nan begins a value, not an option
    (["run", "--seed", "1", "--theta", "-inf"], "--theta", "theta must be finite"),
    (["run", "--seed", "1", "--theta", "-Infinity"], "--theta",
     "theta must be finite"),
]

# For every OPTIONS entry: a value in range other than the default, and one
# out of range, or None where the option has no range to leave
SCHEMA_VALUES = {
    "agents": ("7", "1"),
    "states": ("4", "1"),
    "evidence-rate": ("0.5", "1.5"),
    "noise": ("0.3", "-0.1"),
    "theta": ("5", "0"),
    "steps": ("10", "-1"),
    "runs": ("3", "0"),
    "seed": ("7", "-1"),
    "model": (PROBABILISTIC, None),
    "fusion": ("off", None),
    "fusion-adoption": ("random-one", None),
    "workers": ("2", "0"),
    "out": ("results", None),
}


@pytest.fixture(autouse=True)
def _no_out_env(monkeypatch):
    monkeypatch.delenv(OUT_ENV_VAR, raising=False)


def parse_error(argv) -> int:
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    return err.value.code


class TestParseArgs:
    def test_run_defaults_match_documented_configuration(self):
        cfg = parse_args(["run", "--seed", "42"])
        p = cfg.spec.base
        assert cfg.command == "run"
        assert (p.agents, p.states) == (100, 5)
        assert (p.rho, p.sigma) == (0.05, 0.0)
        assert p.theta.theta == 20.0
        assert p.steps == 1500
        assert p.model == POSSIBILISTIC
        assert p.fusion_enabled and p.seed == 42
        assert cfg.spec.runs == 1 and cfg.workers == 1 and cfg.out == "."
        assert cfg.spec.param is None and cfg.spec.capture == "trajectory"
        assert p == replace(preset("fig4a").parts[0].spec.base, seed=42)

    def test_flags_override_defaults(self):
        cfg = parse_args(["run", "--seed", "1", "--agents", "8", "--states", "3",
                          "--evidence-rate", "0.5", "--noise", "0.3",
                          "--theta", "5", "--steps", "10", "--model",
                          PROBABILISTIC, "--fusion", "off", "--runs", "4"])
        p = cfg.spec.base
        assert (p.agents, p.states, p.rho, p.sigma) == (8, 3, 0.5, 0.3)
        assert p.theta.theta == 5.0 and p.steps == 10
        assert p.model == PROBABILISTIC and not p.fusion_enabled
        assert cfg.spec.runs == 4

    def test_seed_required_for_run_and_sweep(self, capsys):
        assert parse_error(["run"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert parse_error(["sweep", "noise", "0.1,0.2"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_preset_seed_defaults(self):
        cfg = parse_args(["preset", "fig2"])
        assert cfg.command == "preset"
        assert cfg.preset_name == "fig2"
        assert cfg.seed == DEFAULT_SEED
        assert parse_args(["preset", "fig9", "--seed", "7"]).seed == 7

    def test_theta_zero_rejected_by_flag_name(self, capsys):
        assert parse_error(["run", "--seed", "1", "--theta", "0"]) == 2
        assert capsys.readouterr().err == f"error: --theta: {THETA_ZERO}\n"

    @pytest.mark.parametrize(
        "argv,flag,message", RANGE_ERRORS,
        ids=[f"argv{i}-{flag}" for i, (_, flag, _) in enumerate(RANGE_ERRORS)])
    def test_range_errors_name_the_flag(self, argv, flag, message, capsys):
        assert parse_error(argv) == 2
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"

    def test_bad_choice_and_bad_subcommand(self, capsys):
        assert parse_error(["run", "--seed", "1", "--model", "bayesian"]) == 2
        assert parse_error(["preset", "fig99"]) == 2
        assert parse_error(["simulate"]) == 2
        assert parse_error([]) == 2

    def test_sweep_grid_parsing(self):
        cfg = parse_args(["sweep", "theta", "0.1, 1,10", "--seed", "1"])
        assert cfg.spec.param == "theta"
        assert cfg.spec.grid == (0.1, 1.0, 10.0)
        assert cfg.spec.capture == "final"
        cfg = parse_args(["sweep", "agents", "5,10", "--seed", "1"])
        assert cfg.spec.grid == (5, 10)
        assert all(isinstance(v, int) for v in cfg.spec.grid)
        # a grid that starts with a minus is the grid, not an unknown option
        cfg = parse_args(["sweep", "theta", "-1e-3,1", "--seed", "1"])
        assert cfg.spec.grid == (-1e-3, 1.0)

    def test_sweep_grid_errors(self, capsys):
        assert parse_error(["sweep", "noise", "0.1,abc", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: grid: invalid value 'abc' for noise\n"
        assert parse_error(["sweep", "noise", ",", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: grid: needs at least one value\n"
        # values out of range fail at parse time, named as SimParams names them
        assert parse_error(["sweep", "agents", "1,2", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: grid: need at least 2 agents\n"
        assert parse_error(["sweep", "noise", "nan", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: grid: sigma must be finite and >= 0\n"

    def test_sweep_runs_default(self):
        assert parse_args(["sweep", "noise", "0.1", "--seed", "1"]).spec.runs == 100

    def test_sweep_grid_of_negative_infinity(self, capsys):
        assert parse_error(["sweep", "theta", "-inf,1", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: grid: theta must be finite\n"

    def test_help_lists_options_and_sweep_params_in_order(self, capsys):
        assert parse_error(["sweep", "--help"]) == 0
        out = capsys.readouterr().out
        assert "{agents,states,evidence-rate,noise,theta,steps}" in out
        assert re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE) == [
            "--agents", "--states", "--evidence-rate", "--noise", "--theta",
            "--steps", "--runs", "--seed", "--model", "--fusion",
            "--fusion-adoption", "--workers", "--out", "--config"]


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg_path = self.write(tmp_path, "agents = 6\nnoise = 0.25\n")
        cfg = parse_args(["run", "--seed", "1", "--agents", "8",
                          "--config", cfg_path])
        assert cfg.spec.base.agents == 8      # flag wins
        assert cfg.spec.base.sigma == 0.25    # config wins
        assert cfg.spec.base.states == 5      # default survives

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        cfg_path = self.write(tmp_path, "# setup\n\nsteps = 7\n  # more\n")
        assert parse_args(["run", "--seed", "1",
                           "--config", cfg_path]).spec.base.steps == 7

    def test_seed_and_model_from_config(self, tmp_path):
        cfg_path = self.write(tmp_path, "seed = 9\nmodel = probabilistic\n")
        cfg = parse_args(["run", "--config", cfg_path])
        assert cfg.seed == 9
        assert cfg.spec.base.model == PROBABILISTIC

    @pytest.mark.parametrize("key", tuple(OPTIONS))
    def test_flag_and_config_key_agree(self, tmp_path, capsys, key):
        good, bad = SCHEMA_VALUES[key]
        argv = ["run"] if key == "seed" else ["run", "--seed", "1"]

        def by_config(value):
            return argv + ["--config", self.write(tmp_path, f"{key} = {value}\n")]

        by_flag = parse_args(argv + [f"--{key}", good])
        assert by_flag == parse_args(by_config(good))
        default = parse_args(["run", "--seed", "1"])
        assert by_flag != default
        field = OPTIONS[key].field
        if field:  # that field alone differs from the default
            assert replace(by_flag.spec.base, **{
                field: getattr(default.spec.base, field)}) == default.spec.base
        if bad is not None:
            assert parse_error(argv + [f"--{key}", bad]) == 2
            line = capsys.readouterr().err
            assert line.startswith(f"error: --{key}: ")
            assert parse_error(by_config(bad)) == 2
            assert capsys.readouterr().err == line

    def test_repeated_key_is_rejected(self, tmp_path, capsys):
        cfg_path = self.write(tmp_path, "agents = 1\nagents = 5\n")
        assert main(["run", "--seed", "1", "--config", cfg_path]) == 2
        assert (capsys.readouterr().err
                == "error: --config: line 2: duplicate key 'agents'\n")

    def test_unknown_key_names_line(self, tmp_path, capsys):
        cfg_path = self.write(tmp_path, "agents = 6\nbanana = 2\n")
        assert parse_error(["run", "--seed", "1", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "banana" in err

    def test_a_prefix_is_neither_a_flag_nor_a_key(self, tmp_path, capsys):
        assert parse_error(["run", "--seed", "1", "--ag", "5"]) == 2
        assert (capsys.readouterr().err
                == "error: unrecognized arguments: --ag 5\n")
        assert parse_error(["run", "--seed", "1", "--config",
                            self.write(tmp_path, "ag = 5\n")]) == 2
        assert (capsys.readouterr().err
                == "error: --config: line 1: unknown key 'ag'\n")

    def test_malformed_line(self, tmp_path, capsys):
        cfg_path = self.write(tmp_path, "agents\n")
        assert parse_error(["run", "--seed", "1", "--config", cfg_path]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_value_mentions_config_origin(self, tmp_path, capsys):
        cfg_path = self.write(tmp_path, "steps = soon\n")
        assert parse_error(["run", "--seed", "1", "--config", cfg_path]) == 2
        assert (capsys.readouterr().err
                == "error: --steps: invalid value 'soon' (from config file)\n")

    @pytest.mark.parametrize("text,line", [
        ("model = bayes\n",
         "error: --model: invalid value 'bayes' (from config file)"),
        ("fusion = maybe\n",
         "error: --fusion: invalid value 'maybe' (from config file)"),
        ("agents = 1\n", "error: --agents: need at least 2 agents"),
        ("noise = nan\n", "error: --noise: must be finite and >= 0"),
        ("noise = inf\n", "error: --noise: must be finite and >= 0"),
        ("theta = 0\n", f"error: --theta: {THETA_ZERO}"),
        ("workers = 0\n", "error: --workers: must be >= 1"),
    ], ids=("model", "fusion", "agents", "noise", "noise-inf", "theta", "workers"))
    def test_config_value_errors_name_the_flag(self, tmp_path, capsys, text, line):
        cfg_path = self.write(tmp_path, text)
        assert parse_error(["run", "--seed", "1", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == line + "\n"

    def test_missing_file(self, tmp_path, capsys):
        assert parse_error(["run", "--seed", "1", "--config",
                            str(tmp_path / "nope.cfg")]) == 2
        assert "--config" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfagents = 6\n")
        assert parse_args(["run", "--seed", "1",
                           "--config", str(path)]).spec.base.agents == 6

    def test_undecodable_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"agents = 6\n\xff\n")
        assert main(["run", "--seed", "1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config: cannot read {path}: ")
        assert "0xff" in err and err.count("\n") == 1


class TestOutResolution:
    def test_env_var_supplies_out(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path))
        assert parse_args(["run", "--seed", "1"]).out == str(tmp_path)

    def test_flag_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUT_ENV_VAR, "/elsewhere")
        cfg = parse_args(["run", "--seed", "1", "--out", str(tmp_path)])
        assert cfg.out == str(tmp_path)

    def test_config_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUT_ENV_VAR, "/elsewhere")
        cfg_file = tmp_path / "o.cfg"
        cfg_file.write_text(f"out = {tmp_path}\n")
        cfg = parse_args(["run", "--seed", "1", "--config", str(cfg_file)])
        assert cfg.out == str(tmp_path)

    def test_default_is_cwd(self):
        assert parse_args(["run", "--seed", "1"]).out == "."


class TestExample:
    def test_golden_values(self):
        text = cmd_example()
        assert "pignistic = 0.4833, 0.2833, 0.2333" in text
        assert "normaliser 1 - max T = 0.2209" in text
        assert "fused = 0.6209, 1.0000, 0.9209" in text
        assert "T(pi1, pi2) = 0.4000, 0.7791, 0.7000" in text

    def test_main_prints_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "fused = 0.6209, 1.0000, 0.9209" in out

    def test_module_entry_point(self):
        # the `python -m possibly.cli` entry point, in a fresh interpreter
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run([sys.executable, "-m", "possibly.cli", "example"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        assert done.stdout == cmd_example() + "\n"


class TestMainEndToEnd:
    def test_run_writes_trajectory_and_summary(self, tmp_path, capsys):
        code = main(["run", "--seed", "3", "--agents", "4", "--states", "3",
                     "--steps", "5", "--runs", "2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        path = tmp_path / "run_trajectory.csv"
        assert f"wrote {path}" in out
        assert "final (2 runs): mean_poss_best=" in out
        assert "mean_nec_best=" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "run,step,mean_poss_best,mean_nec_best"
        assert len(lines) == 1 + 2 * 6

    def test_run_singular_summary_line(self, tmp_path, capsys):
        main(["run", "--seed", "3", "--agents", "4", "--states", "3",
              "--steps", "2", "--out", str(tmp_path)])
        assert "final (1 run):" in capsys.readouterr().out

    def test_probabilistic_run_schema(self, tmp_path, capsys):
        main(["run", "--seed", "3", "--agents", "4", "--states", "3",
              "--steps", "2", "--model", PROBABILISTIC, "--out", str(tmp_path)])
        header = (tmp_path / "run_trajectory.csv").read_text().splitlines()[0]
        assert header == "run,step,mean_prob_best"
        assert "mean_prob_best=" in capsys.readouterr().out

    def test_sweep_writes_aggregate(self, tmp_path, capsys):
        code = main(["sweep", "noise", "0.0,0.2", "--seed", "3", "--agents",
                     "4", "--states", "3", "--steps", "4", "--runs", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        path = tmp_path / "sweep_noise.csv"
        assert f"wrote {path}" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines[0] == "x,metric,mean,p10,p90"
        assert len(lines) == 1 + 2 * 2
        xs = {line.split(",")[0] for line in lines[1:]}
        assert xs == {"0.0", "0.2"}

    def test_sweep_param_with_hyphen_in_filename(self, tmp_path, capsys):
        main(["sweep", "evidence-rate", "0.2", "--seed", "3", "--agents", "4",
              "--states", "3", "--steps", "2", "--runs", "1",
              "--out", str(tmp_path)])
        assert (tmp_path / "sweep_evidence_rate.csv").exists()

    def test_bad_args_return_2_via_main(self, capsys):
        assert main(["run"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_runtime_failure_returns_1_and_writes_nothing(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("occupied")
        code = main(["run", "--seed", "3", "--agents", "4", "--states", "3",
                     "--steps", "2", "--out", str(blocker)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert blocker.read_text() == "occupied"

    def test_population_too_large_to_allocate_fails_cleanly(self, tmp_path,
                                                            capsys):
        # 10^9 agents x 10^5 states of float64 is 728 TiB, more than a 47-bit
        # address space, so the allocator refuses it before touching a page
        code = main(["run", "--seed", "1", "--agents", "1000000000",
                     "--states", "100000", "--steps", "0",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_states_too_many_to_allocate_fails_cleanly(self, tmp_path):
        # 2 agents x 10^13 states of float64 is 146 TiB. The beliefs are
        # allocated before anything of the states' length, so the allocator
        # refuses them at once. A child process under a 2 GiB address-space
        # limit runs it, so that a list of 10^13 Python floats would end
        # there in a MemoryError, not take the host's memory.
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                 "from possibly.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        done = subprocess.run(
            [sys.executable, "-c", child, "run", "--seed", "1", "--agents", "2",
             "--states", "10000000000000", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 1
        assert done.stderr.startswith("error: Unable to allocate ")
        assert done.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_memory_error_without_message_names_itself(self, monkeypatch,
                                                       capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "collect_trajectories", exhausted)
        assert main(["run", "--seed", "1", "--steps", "2"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("argv,stub", [
        (["run"], "collect_trajectories"),
        (["sweep", "noise", "0.0,0.2"], "sweep"),
    ], ids=("run", "sweep"))
    def test_unusable_out_fails_before_simulating(self, tmp_path, capsys,
                                                  monkeypatch, argv, stub):
        def simulate(*args, **kwargs):
            raise AssertionError("simulated before checking --out")

        monkeypatch.setattr(cli, stub, simulate)
        blocker = tmp_path / "blocked"
        blocker.write_text("occupied")
        code = main(argv + ["--seed", "3", "--agents", "4", "--states", "3",
                            "--steps", "2", "--runs", "1", "--out", str(blocker)])
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: [Errno 17] File exists: {str(blocker)!r}\n")
        assert blocker.read_text() == "occupied"

    def test_dead_pool_worker_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                         monkeypatch, fresh_pool):
        # fig3's points run on a pool of 2 processes; the first point to
        # start ends its process, which breaks the pool
        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "the point ran in the test process"
            os._exit(1)

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "reversal_probability", die)
        code = main(["preset", "fig3", "--workers", "2", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_preset_keeps_finished_parts_only(self, tmp_path,
                                                          monkeypatch):
        # fig8 at 2 runs of 5 steps; the second part, the probabilistic
        # one, is interrupted inside its simulation
        def small(name, seed):
            bundle = real_preset(name, seed=seed)
            return replace(bundle, parts=tuple(
                replace(part, spec=replace(
                    part.spec, runs=2, base=replace(part.spec.base, steps=5)))
                for part in bundle.parts))

        def interrupt(runs, final_only=False):
            if runs[0].model == PROBABILISTIC:
                raise KeyboardInterrupt
            return real_run_batch(runs, final_only)

        real_preset, real_run_batch = harness.preset, harness.run_batch
        monkeypatch.setattr(harness, "preset", small)
        first = small("fig8", seed=DEFAULT_SEED).parts[0]
        harness.run_part(first, tmp_path / "alone")
        monkeypatch.setattr(harness, "run_batch", interrupt)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["preset", "fig8", "--workers", "1", "--out", str(out)])
        name = first.stem + ".csv"
        assert os.listdir(out) == [name]
        assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    def test_sweep_grid_starting_with_a_minus(self, tmp_path, capsys):
        code = main(["sweep", "theta", "-1,1", "--seed", "1", "--agents", "4",
                     "--states", "3", "--steps", "2", "--runs", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep_theta.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1.0"] * 2 + ["1.0"] * 2
        code = main(["sweep", "noise", "-0.1,0.2", "--seed", "1",
                     "--out", str(tmp_path / "noise")])
        assert code == 2
        assert capsys.readouterr().err == "error: grid: sigma must be finite and >= 0\n"

    def test_bad_sweep_grid_value_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "theta", "0.5,0", "--seed", "3", "--agents", "4",
                     "--states", "3", "--steps", "2", "--runs", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: grid: {THETA_ZERO}\n"
        assert list(tmp_path.iterdir()) == []

    def test_preset_prints_each_artifact(self, tmp_path, capsys):
        code = main(["preset", "fig2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {os.path.join(str(tmp_path), 'fig2_fusion_curve.csv')}" in out
        assert (tmp_path / "fig2_fusion_curve.csv").exists()

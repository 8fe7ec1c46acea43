"""The public surface: every exported name resolves, and the README's
library example runs as written."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import possibly

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "engine", "environment", "harness", "possibility",
           "probability")


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"possibly.{module}" if module else "possibly")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    # run() returns the batch of one: a (steps + 1, m) array and an int
    metrics, degenerate = namespace["metrics"], namespace["degenerate"]
    assert isinstance(metrics, np.ndarray) and metrics.shape == (1501, 2)
    assert type(degenerate) is int and degenerate == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("{'mean_poss_best': ")

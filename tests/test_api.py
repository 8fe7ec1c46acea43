"""The public surface: every exported name resolves, the README's library
example runs as written, and every engine constant that the README or the
engine's docstring states has the stated value."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import possibly
from possibly import engine

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "engine", "environment", "harness", "possibility",
           "probability")
# `_NAME` = value or _NAME = value, the value 256, 2^15 or 2**15
STATED_CONSTANT = re.compile(
    r"(?<!\w)`?(_[A-Z][A-Z0-9_]*)`? = (\d+)(?:(?:\^|\*\*)(\d+))?")


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


def stated_constants(text):
    """Every (name, value) that text states as _NAME = value."""
    return [(name, int(base) ** int(power or 1))
            for name, base, power in STATED_CONSTANT.findall(text)]


def test_stated_constants_parse():
    text = ("`_A` = 256, _B = 2^15 and _C_2 = 2**15; `THETA` = 3, _d = 4, "
            "THETA_MAX = 700 and _E = x are none")
    assert stated_constants(text) == [("_A", 256), ("_B", 1 << 15),
                                      ("_C_2", 1 << 15)]


@pytest.mark.parametrize("source", ("README.md", "engine.__doc__"))
def test_stated_engine_constants_hold(source):
    text = (README.read_text(encoding="utf-8") if source == "README.md"
            else engine.__doc__)
    stated = stated_constants(text)
    assert stated  # the pattern still finds the statements
    assert [(name, getattr(engine, name, None)) for name, _ in stated] \
        == stated

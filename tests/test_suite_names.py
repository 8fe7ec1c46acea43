"""The test modules define each name once per module and per class: a
second `def` of a name replaces the first, and pytest then runs only the
last."""

import ast
import pathlib

import pytest

TEST_FILES = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def repeated_names(source: str) -> list[str]:
    """The names that a module or a class of source defines twice by def or
    class, as "scope.name"."""
    repeated = []
    scopes = [("<module>", ast.parse(source).body)]
    for scope, body in scopes:
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in seen:
                    repeated.append(f"{scope}.{node.name}")
                seen.add(node.name)
            if isinstance(node, ast.ClassDef):
                scopes.append((node.name, node.body))
    return repeated


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_no_name_defined_twice(path):
    assert repeated_names(path.read_text(encoding="utf-8")) == []


def test_a_second_definition_is_found():
    source = ("def test_a(): pass\n"
              "class TestB:\n"
              "    def test_c(self): pass\n"
              "    def test_c(self): pass\n"
              "def test_a(): pass\n")
    assert repeated_names(source) == ["<module>.test_a", "TestB.test_c"]

"""No ``src/qnt`` module raises or catches ``ZeroDivisionError``.

A division either checks its divisor for zero or goes through
``protocols._divide``, which gives NaN where it cannot divide; a trial or a
bound that cannot divide is NaN, never an exception to be caught.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qnt"
MODULES = sorted(SRC.glob("*.py"))


def zero_division_names(source: str) -> list[int]:
    """The lines of ``source`` that name ``ZeroDivisionError``, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "ZeroDivisionError")
        or (isinstance(node, ast.Attribute) and node.attr == "ZeroDivisionError")
    )


def test_modules_are_found():
    assert {path.name for path in MODULES} >= {"stats.py", "lossy.py", "experiments.py", "protocols.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_names_no_zero_division_error(path):
    assert zero_division_names(path.read_text()) == []


def test_a_raise_and_a_catch_are_reported():
    source = ("import builtins\n\ndef f(x):\n    if x == 0:\n        raise ZeroDivisionError('x')\n"
              "    try:\n        return 1 / x\n    except (ValueError, builtins.ZeroDivisionError):\n"
              "        return None\n# ZeroDivisionError in a comment is no name\n")
    assert zero_division_names(source) == [5, 8]

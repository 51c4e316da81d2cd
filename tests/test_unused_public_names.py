"""Every public name in ``src/qnt`` is read by some module, test or demo.

A public function, class or assignment target at module level, and a public
method, property or annotated field of a class, is API; once nothing reads it,
it is dead code that a deletion left behind.  A read is a loaded name, a loaded
attribute of anything, or a name imported with ``from ... import``, in a
``src/qnt`` module (the defining one included), a test or a demo.
``__init__.py`` does not count as a reader: it imports to re-export.
"""

import ast
import pathlib

from test_unused_imports import SRC

ROOT = SRC.parent.parent
DEFINING = sorted(SRC.glob("*.py"))
READING = sorted([path for path in DEFINING if path.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def _targets(node: ast.stmt) -> list[str]:
    """The names an assignment binds, one per element of a tuple target."""
    if isinstance(node, ast.Assign):
        return [name.id for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """The public names that the module body of ``tree`` binds, and the public methods,
    properties and annotated fields of its classes (as ``Class.name``), with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        for name in _targets(node):
            defined[name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[f"{node.name}.{member.name}"] = member.lineno
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    defined[f"{node.name}.{member.target.id}"] = member.lineno
    return {name: line for name, line in defined.items() if not name.rpartition(".")[2].startswith("_")}


def loads(tree: ast.Module) -> set[str]:
    """The names ``tree`` loads or imports by name, and the attributes it loads of anything."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_public_names(defining: dict[str, str], reading: dict[str, str]) -> list[str]:
    """``module:name (line n)`` for each public name of ``defining`` that no source of ``reading`` reads."""
    read = set().union(*(loads(ast.parse(text)) for text in reading.values()))
    return [f"{module}:{name} (line {line})" for module, text in defining.items()
            for name, line in public_definitions(ast.parse(text)).items()
            if name.rpartition(".")[2] not in read]


def test_sources_are_found():
    assert {path.name for path in DEFINING} >= {"__init__.py", "protocols.py", "experiments.py"}
    assert {path.name for path in READING} >= {"cli.py", "test_cli.py", "03_progressive_etching.py"}
    assert "__init__.py" not in {path.name for path in READING}


def test_every_public_name_is_read():
    defining = {path.name: path.read_text(encoding="utf-8") for path in DEFINING}
    reading = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in READING}
    assert unread_public_names(defining, reading) == []


def test_an_unread_public_name_is_reported():
    defining = {
        "a.py": "import numpy\nUSED, UNUSED = 1, 2\n_private = 3\n\ndef helper():\n    return USED\n\n"
                "class Gone:\n    size: int\n    kept: int\n\n    def __init__(self):\n        self.stored = 0\n\n"
                "    @property\n    def shown(self):\n        return self.kept\n\n    def alias(self):\n"
                "        pass\n",
        "__init__.py": "from .a import Gone, UNUSED, alias\n__version__ = '1'\n",
    }
    reading = {
        "a.py": defining["a.py"],
        "tests/test_a.py": "from qnt.a import helper\n\ndef test(g):\n    g.shown\n    g.size = 1\n",
    }
    # __init__.py re-exports but does not read, a store is no read, and dunder,
    # private and imported names are not definitions
    assert unread_public_names(defining, reading) == ["a.py:UNUSED (line 2)", "a.py:Gone (line 8)",
                                                      "a.py:Gone.size (line 9)", "a.py:Gone.alias (line 19)"]

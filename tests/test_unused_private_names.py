"""Every module-level private name in ``src/qnt`` is read by some ``src/qnt`` module.

A ``_``-prefixed function, class or assignment target (tuple targets included)
is no API, so once no module reads it, it is dead code that a deletion left
behind.  A read is a loaded name or an attribute of that name, in any module,
the defining one included; tests do not count.
"""

import ast

from test_unused_imports import SRC

SOURCES = sorted(SRC.glob("*.py"))


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The ``_``-prefixed names that the module body of ``tree`` binds, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):  # a tuple target holds one Name per element
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {name: line for name, line in defined.items() if name.startswith("_") and not name.startswith("__")}


def reads(tree: ast.Module) -> set[str]:
    """The names ``tree`` loads, and the attributes it takes of anything."""
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return loaded | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name (line n)`` for each private module-level name that no source reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return [f"{module}:{name} (line {line})" for module, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in read]


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "protocols.py", "experiments.py"}


def test_every_private_module_level_name_is_read():
    assert unread_private_names({path.name: path.read_text() for path in SOURCES}) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a.py": "_USED, _UNUSED = 1, 2\n__all__ = ['f']\n\ndef _helper():\n    return _USED\n\n"
                "class _Gone:\n    pass\n\n_count: int = 0\n",
        "b.py": "from . import a\n\ndef f():\n    return a._helper()\n",
    }
    assert unread_private_names(sources) == ["a.py:_UNUSED (line 1)", "a.py:_Gone (line 7)",
                                             "a.py:_count (line 10)"]

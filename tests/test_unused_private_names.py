"""Every private name in ``src/qnt`` is read by some ``src/qnt`` module.

A ``_``-prefixed function, class or assignment target (tuple targets included)
is no API, so once no module reads it, it is dead code that a deletion left
behind.  A read is a loaded name or an attribute of that name, in any module,
the defining one included; tests do not count.

The same holds for a ``_``-prefixed attribute stored anywhere (``self._x = v``):
some module must load it.  A load that only serves a subscript store, as
``self._x`` in ``self._x[k] = v`` or ``self._x[k] += 1``, writes and reads nothing.
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


def attribute_loads(tree: ast.Module) -> set[str]:
    """The attributes ``tree`` loads, leaving out those that a subscript store writes into."""
    written_into = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)}
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in written_into}


def private_attribute_stores(tree: ast.Module) -> dict[str, int]:
    """The ``_``-prefixed attributes that ``tree`` stores, with the first line storing each."""
    stored = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored[node.attr] = min(node.lineno, stored.get(node.attr, node.lineno))
    return {name: line for name, line in sorted(stored.items(), key=lambda item: item[1])
            if name.startswith("_") and not name.startswith("__")}


def unread_private_attributes(sources: dict[str, str]) -> list[str]:
    """``module:attribute (line n)`` for each private attribute stored that no source loads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loaded = set().union(*map(attribute_loads, trees.values()))
    return [f"{module}:{name} (line {line})" for module, tree in trees.items()
            for name, line in private_attribute_stores(tree).items() if name not in loaded]


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


def test_every_private_attribute_is_read():
    assert unread_private_attributes({path.name: path.read_text() for path in SOURCES}) == []


def test_an_unread_private_attribute_is_reported():
    # _degrees is the shape of a stored count whose only reader was deleted
    sources = {
        "a.py": "class T:\n    def __init__(self, nodes):\n        self._degrees = dict.fromkeys(nodes, 0)\n"
                "        for node in nodes:\n            self._degrees[node] += 1\n"
                "        self._seen, self._used = {}, []\n        self._seen[0] = 1\n"
                "        self._kept = 0\n\n    def used(self):\n        return self._used\n",
        "b.py": "def f(t):\n    return t._kept\n",
    }
    assert unread_private_attributes(sources) == ["a.py:_degrees (line 3)", "a.py:_seen (line 6)"]

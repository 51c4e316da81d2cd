import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The fenced python block under the README's "Library in one screen" heading."""
    match = re.search(r"^## Library in one screen\n+```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no 'Library in one screen' python block"
    return match.group(1)


def test_library_block_runs_and_gives_the_probabilities_in_its_comments(capsys):
    block = library_block()
    # "name = ...  # 0.521875": the values the block's comments promise
    promised = {name: float(value) for name, value in re.findall(r"^(\w+) = .*#\s*([0-9.]+)$", block, re.MULTILINE)}
    assert promised == {"p_merge": 0.521875, "p_uni": 0.54375}
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    for name, value in promised.items():
        assert namespace[name] == pytest.approx(value, abs=1e-12, rel=0)
    assert capsys.readouterr().out.startswith("{")

import pathlib
import re

import pytest

from qnt.cli import _parsers
from qnt.experiments import EXPERIMENTS

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


def usage_block() -> dict[str, list[str]]:
    """Each subcommand that the README's "Command-line interface" usage block names, with
    the options its line shows, the shared ``... = [--trials K] ...`` line expanded."""
    match = re.search(r"^## Command-line interface\n+```\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no 'Command-line interface' usage block"
    lines = match.group(1).splitlines()
    shared = [line for line in lines if line.lstrip().startswith("... = ")]
    assert len(shared) == 1
    usage: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith("qnt "):
            options = re.findall(r"\[(--[\w-]+)", line)
            if line.endswith(" ..."):
                options += re.findall(r"\[(--[\w-]+)", shared[0])
            for name in line.split()[1].split("|"):
                assert name not in usage, f"{name} has two usage lines"
                usage[name] = options
    return usage


def test_usage_block_shows_every_subcommand_with_exactly_its_options():
    commands = _parsers()[1]
    assert set(usage_block()) == {name.replace("_", "-") for name in EXPERIMENTS} == set(commands)
    for name, options in usage_block().items():
        offered = [action.option_strings[0] for action in commands[name]._actions if action.dest != "help"]
        assert options == offered, name


def test_option_counts_match_the_fields_each_experiment_reads():
    # "...: 8 for `sweep` and `etch`, 9 for `star`, `spam-s` and `spam-m`, and 10 for `loss`."
    words = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"experiment reads, listed once [^:]*: (.*?)\. ", words)
    assert match, "README does not count the fields each experiment reads"
    parts = re.split(r"(\d+) for ", match.group(1))[1:]
    counts = {name: int(count) for count, names in zip(parts[::2], parts[1::2])
              for name in re.findall(r"`([\w-]+)`", names)}
    assert counts == {name.replace("_", "-"): len(entry.reads) for name, entry in EXPERIMENTS.items()}

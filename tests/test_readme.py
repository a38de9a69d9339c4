"""Every Python example of README.md runs on its own, and its settings table is the CLI's."""

import math
import re
from pathlib import Path

import pytest

from jcpairs.cli import _SETTINGS

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs_in_a_fresh_namespace(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def _type_cell(kind, choices):
    def listed(values):
        return ", ".join(f"`{value}`" for value in values)

    if isinstance(choices, dict):
        return "; ".join(f"{command}: {listed(values)}" for command, values in choices.items())
    return listed(choices) if choices else kind.__name__


def _default_value(kind, cell):
    """The first `...` span of a default cell as a value of ``kind``.

    A setting without a default value (unset, or derived from the others)
    is described in words, without a span: None.
    """
    spans = re.findall(r"`([^`]*)`", cell)
    if not spans:
        return None
    if kind is bool:
        return {"true": True, "false": False}[spans[0]]
    if kind is str:
        return spans[0]
    if spans[0].startswith("pi/"):
        return math.pi / int(spans[0][3:])
    return kind(spans[0])


def test_readme_settings_table_is_the_cli_table():
    head = "| key | flag | type | default | commands |\n|---|---|---|---|---|\n"
    rows = TEXT.split(head, 1)[1].split("\n\n", 1)[0].splitlines()
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert [row[0] for row in cells] == [f"`{key}`" for key in _SETTINGS]
    for (_, flag, type_cell, default_cell, commands), (key, setting) in zip(cells, _SETTINGS.items()):
        kind, default, takers, choices, _ = setting
        assert flag == "`--" + key.replace("_", "-") + "`"
        assert type_cell == _type_cell(kind, choices), key
        assert _default_value(kind, default_cell) == default, key
        assert commands == ", ".join(takers), key

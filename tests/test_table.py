"""The CSV format: ``csv_text`` writes every table, and only its module
writes the seed line or a ``.10g`` field."""

import ast
from pathlib import Path

import numpy as np
import pytest

import infoplay
from infoplay._table import csv_text
from infoplay.capacity import capacity_bounds, capacity_csv
from infoplay.exit_chart import exit_curve_csv, measure_exit_curve
from infoplay.games import GameSpec
from infoplay.selfplay import LearnConfig, generation_csv, learn
from infoplay.turbo import ChannelModel, RscCode, simulate_turbo, trace_csv

PACKAGE = Path(infoplay.__file__).parent
WRITER = PACKAGE / "_table.py"
OTHER_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != WRITER)


@pytest.mark.parametrize("header, rows, seed, text", [
    (("a", "b", "c"), [(1, None, 2.5)], None, "a,b,c\n1,,2.5\n"),
    (("x", "y"), [(0.1, np.float64(1 / 3))], None, "x,y\n0.1,0.3333333333\n"),
    (("x", "y"), [(2.0, 1e-12), (float("inf"), -0.0)], None, "x,y\n2,1e-12\ninf,-0\n"),
    # an int keeps every digit, where .10g would round it
    (("n", "s"), [(12345678901, "agent-A")], 7, "# seed=7\nn,s\n12345678901,agent-A\n"),
    (("n",), [(np.int64(3),), (None,)], 0, "# seed=0\nn\n3\n\n"),
    (("n",), [], None, "n\n"),
    (("n",), [], 5, "# seed=5\nn\n"),
], ids=repr)
def test_csv_text(header, rows, seed, text):
    assert csv_text(header, rows, seed) == text


def _small_tables():
    game = GameSpec(rows=2, cols=2, k=2)
    records, _, _ = learn(game, LearnConfig(generations=2, episodes_per_generation=20,
                                            eval_episodes=100), seed=3)
    curve = measure_exit_curve(RscCode(), ChannelModel(1.0, rate=0.5), [0.0, 0.5], 1000,
                               seed=4)
    # the second bound's enumeration exceeds its cap: no exact state count
    bounds = [capacity_bounds(game), capacity_bounds(GameSpec(rows=3, cols=3, k=3), 10)]
    trace = simulate_turbo(8, 1.0, 2, 3, seed=5)
    for seed in (None, 11):
        yield capacity_csv(bounds, seed)
        yield trace_csv(trace, seed)
        yield exit_curve_csv([curve, curve], seed)
        yield generation_csv(records, seed)


def test_every_writer_gives_each_row_the_header_width():
    for text in _small_tables():
        lines = text.splitlines()
        if lines[0].startswith("# seed="):
            lines.pop(0)
        header, *rows = lines
        assert rows
        assert {len(row.split(",")) for row in rows} == {len(header.split(","))}, text


def format_literals(source: str) -> list[str]:
    """The string constants of ``source``, f-string parts and format specs
    included, that write a seed line or a ``.10g`` field."""
    return sorted(node.value for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and (node.value.startswith("# seed=") or ".10g" in node.value))


def test_finds_format_literals():
    source = ('a = f"# seed={s}"\nb = f"{x:.10g},{y:.2f}"\nc = format(x, ".10g")\n'
              'd = "{:.10g}".format(x)\ne = "seed"\n')
    assert format_literals(source) == ["# seed=", ".10g", ".10g", "{:.10g}"]


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda path: path.name)
def test_only_the_writer_holds_the_format(path):
    assert format_literals(path.read_text(encoding="utf-8")) == []

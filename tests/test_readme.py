"""Run the Python quick start in README.md and check what it promises.

Every ```python block runs, in order and in one namespace. A bare
expression whose line ends in a comment stating a value, such as
`f(x)   # 2/3: with the wind` or `rep.is_cw   # True — ...`, must
evaluate to that value (the text before the first ':' or '—').
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
STATED = re.compile(r"#\s*([^:—]+?)\s*(?:[:—]|$)")


def _blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_python_runs_and_states_true_values():
    blocks = _blocks()
    assert blocks
    ns: dict = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            stated = STATED.search(lines[node.end_lineno - 1])
            if isinstance(node, ast.Expr) and stated:
                got = eval(compile(ast.Expression(node.value), "README.md", "eval"), ns)
                want = eval(stated.group(1), {})
                if isinstance(want, bool):
                    assert bool(got) is want, ast.unparse(node)
                else:
                    assert got == pytest.approx(want, abs=1e-9), ast.unparse(node)
                checked.append(stated.group(1))
            else:
                exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), ns)
    # the values the quick start's comments state, in order
    assert checked[:5] == ["2/3", "2", "2/3", "True", "True"]
    assert len(checked) > 5

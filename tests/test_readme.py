"""The README's quick start runs and shows what the code returns."""

from __future__ import annotations

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_comments_show_the_returned_values():
    """Each line of the first Python block runs in turn; a line that is an
    expression and whose comment starts with a literal returns that value."""
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        literal = re.match(r"\s*(\(.*?\)|True|False)", comment)
        if literal:
            shown.append((ast.literal_eval(literal.group(1)), value))
    assert [want for want, _ in shown] == [(3, 15), False, (20, 10)]
    assert [got for _, got in shown] == [want for want, _ in shown]

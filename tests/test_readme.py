"""The README library tour runs as written and its shown results are true."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def _shown_results(block: str):
    """(expression, literal) for every line whose comment shows its value,
    either on the same line or on the comment line right after it."""
    last_code = None
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        try:
            value = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            value = comment = None
        if comment is not None:
            expr = code or last_code
            if expr:
                yield expr, value
        if code:
            last_code = code


def test_readme_tour_runs_and_shows_true_results():
    block = _tour()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    shown = list(_shown_results(block))
    assert len(shown) == 4
    for expr, value in shown:
        assert eval(expr, namespace) == value, expr

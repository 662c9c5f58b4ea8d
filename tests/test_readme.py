"""The README's library example runs, and every value in its comments holds.

In the example, a line that is a bare expression followed by ``# value`` or
``# value: prose`` states that the expression evaluates to ``value`` (a
Python literal, where a fraction such as 5/6 is allowed).
"""

import ast
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs_and_its_comments_hold():
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        actual = eval(compile(code, "README.md", "eval"), namespace)
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        expected = eval(comment.split(":", 1)[0], {})
        if isinstance(expected, tuple) and all(isinstance(n, int) for n in expected):
            assert actual == expected, code
        else:
            assert_allclose(np.asarray(actual, dtype=float), expected, rtol=0, atol=1e-8, err_msg=code)
        checked += 1
    assert checked == 6

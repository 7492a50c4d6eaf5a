"""README's library example runs and prints what its comments say.

Every ```python block of README.md is executed as written.  Each `print(...)`
line carries a `# value` comment, the value being the text before any ':',
and the line it prints must equal that value: within 1e-12 relative when
the value is a number, else character for character.  So a public name the
docs use cannot disappear, nor a documented value drift, unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _expected(block):
    """The `# value` comment of each print line, in order; a print without one fails."""
    values = []
    for line in block.splitlines():
        if line.startswith("print("):
            comment = re.search(r"\)\s+#\s*([^:]+)", line)
            assert comment, f"README print line has no '# value' comment: {line}"
            values.append(comment.group(1).strip())
    return values


def test_readme_has_a_python_example():
    assert BLOCKS and all(_expected(block) for block in BLOCKS)


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_python_block_prints_its_comments(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    printed = out.getvalue().splitlines()
    expected = _expected(block)
    assert len(printed) == len(expected), printed
    for got, want in zip(printed, expected):
        try:
            number = float(want)
        except ValueError:
            assert got == want
        else:
            assert float(got) == pytest.approx(number, rel=1e-12)

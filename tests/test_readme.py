"""README's Python examples run against the current API."""

import re
from pathlib import Path

import hyperlap as hl

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_exact_line_names_the_enumeration_cap():
    text = README.read_text(encoding="utf-8")
    (line,) = [x for x in text.splitlines() if "--exact" in x and "#" in x]
    assert f"(n <= ENUMERATION_CAP = {hl.ENUMERATION_CAP})" in line

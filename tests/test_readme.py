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


def _largest_admitted(price) -> int:
    """The largest n whose stage ``price`` fits the budget; prices grow with n."""
    n = 1
    while hl.core.fits_budget(price(n + 1)):
        n += 1
    return n


def test_exact_line_and_budget_paragraph_name_the_admitted_n():
    text = README.read_text(encoding="utf-8")
    scan_n = _largest_admitted(hl.core.scan_bytes)
    (line,) = [x for x in text.splitlines() if "--exact" in x and "#" in x]
    assert f"(n <= {scan_n}, by the byte budget)" in line
    paragraph = " ".join(text.split())
    dense_n = _largest_admitted(hl.core.dense_bytes)
    assert (
        f"so the exact cuts admit n ≤ {scan_n} and the matrices n ≤ {dense_n}."
        in paragraph
    )

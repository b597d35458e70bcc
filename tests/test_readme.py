"""The README's quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the quick start holds one python block"
    exec(compile(blocks[0], "README.md#quick-start", "exec"), {})

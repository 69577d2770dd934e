"""README examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})

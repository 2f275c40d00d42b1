"""The README's library quick start runs as written, so the documented
calls stay in step with the library's signatures."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, "README.md (library quick start)", "exec"), {})

"""The README's library quick start runs as written, and its config example
parses, so the documented calls and keys stay in step with the library."""

import re
from pathlib import Path

from seqdetect.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, "README.md (library quick start)", "exec"), {})


def test_config_example_parses():
    section = README.read_text().split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    (text,) = re.findall(r"```ini\n(.*?)```", section, re.S)
    parse_config(text, source="README.md (config format)")

"""The package exports and the README's library example stay in step."""
import re
from pathlib import Path

import fhshare

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exports_resolve_and_readme_quick_start_runs():
    assert [name for name in fhshare.__all__ if not hasattr(fhshare, name)] == []
    exec(compile(quick_start_code(), str(README), "exec"), {})

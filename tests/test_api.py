"""The package exports and the README's library example stay in step, and
every export has a caller or a written reason to stay."""
import ast
import re
from pathlib import Path

import fhshare

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Exports that nothing in src/fhshare or perfbench/ references, each with
# the reason it stays public.
KEPT = {
    "epsilon_backoff_region": "the paper's FH-at-v = u - epsilon comparison with FD",
    "gaussian_entropy": "the closed form the entropy tests compare with",
    "scenario_to_json": "writes the --scenario format",
    "read_sample_dump": "reads the --dump format",
    "two_generator_profile": "realizes a fractional hop count; the measures-simulator test",
}


def quick_start_code() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exports_resolve_and_readme_quick_start_runs():
    assert [name for name in fhshare.__all__ if not hasattr(fhshare, name)] == []
    exec(compile(quick_start_code(), str(README), "exec"), {})


def referenced_names() -> set:
    """Every name, attribute and from-import in the package's modules
    (bar __init__.py) and the benchmark's."""
    files = [p for p in (ROOT / "src" / "fhshare").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller_or_a_reason():
    referenced = referenced_names()
    assert sorted(set(fhshare.__all__) - referenced - set(KEPT)) == []
    # a kept name that gains a caller or leaves the exports drops out of KEPT
    assert sorted(set(KEPT) & referenced) == []
    assert sorted(set(KEPT) - set(fhshare.__all__)) == []

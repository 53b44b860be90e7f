"""The package exports and the README's library example stay in step, and
every export has a caller or a written reason to stay."""
import ast
import inspect
import re
from pathlib import Path

import fhshare

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Exports that nothing in src/fhshare or perfbench/ references, each with
# the reason it stays public.
KEPT = {
    "epsilon_backoff_region": "the paper's FH-at-v = u - epsilon comparison with FD",
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


PACKAGE = ROOT / "src" / "fhshare"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def parsed(paths) -> list:
    return [ast.parse(p.read_text()) for p in paths]


def package_trees() -> list:
    return parsed(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def benchmark_trees() -> list:
    return parsed((ROOT / "perfbench").glob("*.py"))


def reaches_package(node, handles: set) -> bool:
    """node is fhshare, a module imported from it, or fhshare.<module>."""
    if isinstance(node, ast.Name):
        return node.id in handles
    return (isinstance(node, ast.Attribute) and node.attr in MODULES
            and isinstance(node.value, ast.Name) and node.value.id == "fhshare")


def referenced_names() -> set:
    """Every name, attribute and from-import in the package's modules (bar
    __init__.py), and every name the benchmark reaches fhshare by: one
    imported from it, or an attribute read off fhshare or its modules."""
    names = set()
    for tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    for tree in benchmark_trees():
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "fhshare"]
        imported = {alias.asname or alias.name for node in imports for alias in node.names}
        names.update(alias.name for node in imports for alias in node.names)
        handles = {"fhshare"} | (imported & MODULES)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and reaches_package(node.value, handles):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_or_a_reason():
    referenced = referenced_names()
    assert sorted(set(fhshare.__all__) - referenced - set(KEPT)) == []
    # a kept name that gains a caller or leaves the exports drops out of KEPT
    assert sorted(set(KEPT) & referenced) == []
    assert sorted(set(KEPT) - set(fhshare.__all__)) == []


# Public methods, properties and classmethods of exported classes whose
# name no attribute read in src/fhshare or perfbench/ uses, each with the
# reason it stays.
KEPT_METHODS = {
    "GaussianMixture1D.of": "the README's constructor",
}


def read_attributes() -> set:
    """Every attribute name read in the package's modules (bar
    __init__.py) and in the benchmark."""
    return {node.attr for tree in package_trees() + benchmark_trees()
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def exported_methods() -> list:
    """Class.name of every public function, property, classmethod and
    staticmethod that an exported class defines itself."""
    kinds = (property, classmethod, staticmethod)
    return [f"{cls.__name__}.{name}"
            for cls in (getattr(fhshare, n) for n in fhshare.__all__) if inspect.isclass(cls)
            for name, value in vars(cls).items()
            if not name.startswith("_") and (isinstance(value, kinds) or inspect.isfunction(value))]


def test_every_exported_method_is_read_or_has_a_reason():
    read = read_attributes()
    methods = exported_methods()
    unread = sorted(m for m in methods if m.rsplit(".", 1)[1] not in read)
    assert [m for m in unread if m not in KEPT_METHODS] == []
    # a kept method that gains a reader or disappears drops out of the dict
    assert sorted(set(KEPT_METHODS) - set(unread)) == []


# Defaulted parameters of functions in src/fhshare that no call in
# src/fhshare or perfbench/ passes, each with the reason it stays.
UNSET_DEFAULTS: dict = {}


def defaulted_parameters():
    """(callee name, parameter, position or None) for every defaulted
    parameter of a function in src/fhshare; a method's positions do not
    count self or cls, and an __init__ is called by its class's name."""
    out = []
    for tree in package_trees():
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            a = f.args
            positional = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in f.decorator_list)
            skip = 1 if id(f) in methods and not static else 0
            name = methods[id(f)] if f.name == "__init__" and id(f) in methods else f.name
            first = len(positional) - len(a.defaults)
            for i in range(first, len(positional)):
                out.append((name, positional[i].arg, i - skip))
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out.append((name, arg.arg, None))
    return out


def passed_parameters() -> set:
    """(callee name, keyword) and (callee name, position) of every
    argument some call in src/fhshare or perfbench/ passes."""
    passed = set()
    for tree in package_trees() + benchmark_trees():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.update((name, i) for i in range(len(call.args)))
            passed.update((name, k.arg) for k in call.keywords if k.arg)
    return passed


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    passed = passed_parameters()
    unset = sorted(
        f"{name}.{param}" for name, param, position in defaulted_parameters()
        if (name, param) not in passed
        and (position is None or (name, position) not in passed)
    )
    assert [p for p in unset if p not in UNSET_DEFAULTS] == []
    # a kept parameter that gains a caller or disappears drops out of the dict
    assert sorted(set(UNSET_DEFAULTS) - set(unset)) == []

"""The package keeps only what a command reads.

Every public function, class and method defined in ``src/splitcvl`` must
be referenced somewhere else in ``src`` (outside its own definition and
the ``__init__`` re-exports) or in ``perfbench/``. Test-only code belongs
in ``tests/helpers.py``. A reference is a name or an attribute with the
same identifier, or, in ``perfbench/``, a dotted string such as the traced
site ``"PartitionEnv.step"``. Matching is by identifier alone, so a method
whose name is also used elsewhere (``copy``, ``step``) always passes.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitcvl"

# documented library entry points that no command calls
ENTRY_POINTS = {"default_scenario", "write_demo_corpus"}


def public_definitions():
    """(path, first line, last line, qualified name) of each public def."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield path, node.lineno, node.end_lineno, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield path, member.lineno, member.end_lineno, f"{node.name}.{member.name}"


def references():
    """(path, line, identifier) of every name the package and perfbench read."""
    sources = [(p, False) for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    sources += [(p, True) for p in (ROOT / "perfbench").rglob("*.py")]
    for path, strings in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield path, node.lineno, node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                for part in node.value.split("."):
                    yield path, node.lineno, part


def test_every_public_name_is_read():
    refs = {}
    for path, line, name in references():
        refs.setdefault(name, []).append((path, line))
    definitions = list(public_definitions())
    # an allowlisted name that is gone must leave the allowlist too
    assert ENTRY_POINTS <= {qualname for _, _, _, qualname in definitions}
    unread = []
    for path, first, last, qualname in definitions:
        name = qualname.rpartition(".")[2]
        if name in ENTRY_POINTS:
            continue
        outside = [(p, n) for p, n in refs.get(name, []) if p != path or not first <= n <= last]
        if not outside:
            unread.append(f"{path.relative_to(ROOT)}:{first} {qualname}")
    assert unread == [], "defined in src but read by no command: " + ", ".join(unread)



@pytest.mark.parametrize("module", ["splitcvl", "splitcvl.rlopt"])
def test_every_export_resolves(module):
    # a name deleted from the package but left in __all__ breaks
    # ``from <module> import *`` with AttributeError
    namespace = {}
    exec(f"from {module} import *", namespace)
    exports = importlib.import_module(module).__all__
    assert sorted(set(exports) - namespace.keys()) == []

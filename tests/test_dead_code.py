"""Every public top-level function and class in the package has a caller."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradphi"


def _references() -> Counter:
    """How often each name is used, imported or read as an attribute in
    src/, tests/ and demos/ (definitions themselves do not count)."""
    names = Counter()
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    names[node.attr] += 1
                elif isinstance(node, ast.alias):
                    names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_public_definition_is_referenced():
    refs = _references()
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and refs[node.name] == 0
    ]
    assert unreferenced == []

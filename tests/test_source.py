"""Source-level checks over the package and its tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Names that classify opcodes.  opcodes.py turns them into its kind table,
# and every other module reads that table instead.
_CLASSIFIERS = {"BLOCKCHAIN_READS", "is_dup", "is_swap", "pair_index"}
PACKAGE = sorted(p for p in (ROOT / "src" / "evmrbr").glob("*.py") if p.name != "opcodes.py")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_opcode_table_classifies_opcodes(path):
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    assert not used & _CLASSIFIERS

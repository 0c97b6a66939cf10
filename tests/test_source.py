"""Source-level checks over the package and its tests."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evmrbr
from evmrbr.opcodes import BY_NAME

try:
    from re import _parser as sre_parser  # Python 3.11 and later
except ImportError:
    import sre_parse as sre_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Names that classify opcodes.  opcodes.py turns them into its kind table,
# and every other module reads that table instead.
_CLASSIFIERS = {"BLOCKCHAIN_READS", "is_dup", "is_push", "is_swap", "pair_index"}
MODULES = sorted((ROOT / "src" / "evmrbr").glob("*.py"))
PACKAGE = [p for p in MODULES if p.name != "opcodes.py"]


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


# A string naming an opcode outside opcodes.py would classify that opcode
# by mnemonic; every other module reads the byte-indexed table instead.
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_opcode_table_names_opcodes(path):
    named = [
        node.value
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in BY_NAME
    ]
    assert not named


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


# cli.main pauses the cyclic collector for a command; library callers keep
# their own collector settings, so no other module may touch them.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cli_imports_gc(path):
    assert ("gc" in _imported_modules(path)) is (path.name == "cli.py")


# The records are plain classes: dataclasses, with the inspect, ast and dis
# modules it loads, took about a third of the time ``import evmrbr.cli`` took.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in _imported_modules(path)


# The modules every CLI command loads; the rule parser stays out, since no
# command reads .rbr text.
_CLI_MODULES = {"evmrbr"} | {
    f"evmrbr.{name}"
    for name in ("asm", "cfg", "cli", "diff", "emit", "errors", "evm_exec", "loops", "opcodes",
                 "rbr", "rbr_exec", "translate")
}


def test_importing_the_cli_loads_its_modules_and_not_dataclasses():
    code = "import sys, evmrbr.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True, timeout=60).stdout.split())
    assert "dataclasses" not in loaded
    assert {name for name in loaded if name.partition(".")[0] == "evmrbr"} == _CLI_MODULES


# The concrete oracle finds block entries from execution alone: a leader
# or translation bug it shared with the pipeline would agree with itself.
def test_the_oracle_imports_nothing_from_the_pipeline():
    path = ROOT / "src" / "evmrbr" / "evm_exec.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            imported.update([module] if module else (alias.name for alias in node.names))
    assert {"asm", "errors", "opcodes"} <= imported
    assert not imported & {"cfg", "translate", "rbr"}


# Regular-expression syntax that Python 3.11 added: atomic groups (?>...)
# and possessive repeats such as a*+.  Python 3.10 fails to compile either.
_PY311_REGEX = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def _regex_opcodes(tree):
    """The name of every opcode in a parsed pattern, nested ones included."""
    for op, arg in tree:
        yield op.name
        yield from _nested_opcodes(arg)


def _nested_opcodes(arg):
    if isinstance(arg, sre_parser.SubPattern):
        yield from _regex_opcodes(arg)
    elif isinstance(arg, (list, tuple)):
        for item in arg:
            yield from _nested_opcodes(item)


def _module_patterns():
    for info in pkgutil.iter_modules(evmrbr.__path__):
        module = importlib.import_module(f"evmrbr.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, dict):
                items = {f"{name}[{key!r}]": item for key, item in value.items()}
            else:
                items = {name: value}
            for label, item in items.items():
                if isinstance(item, re.Pattern):
                    yield f"{info.name}.{label}", item


@pytest.mark.parametrize("pattern", [pytest.param(p, id=name) for name, p in _module_patterns()])
def test_patterns_compile_on_python_3_10(pattern):
    assert not set(_regex_opcodes(sre_parser.parse(pattern.pattern, pattern.flags))) & _PY311_REGEX


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the syntax does not parse before 3.11")
def test_regex_check_sees_python_3_11_syntax():
    for pattern in (r"(?>a)", r"x(?:a|(b*+))"):
        assert set(_regex_opcodes(sre_parser.parse(pattern))) & _PY311_REGEX

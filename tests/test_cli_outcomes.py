"""The exit code and stderr lines of each command on seeded inputs.

200 inputs: 100 strings of random bytes, and 100 generated programs with
1-3 instruction opcode bytes overwritten.  For each of ``rbr``, ``saco``,
``loops`` and ``check --runs 3``, ``cli_outcomes.txt`` holds the exit code
and every stderr line, one line each, headed by the input's name and the
command, so that a diff names both.  Record the file again with

    PYTHONPATH=src python tests/test_cli_outcomes.py
"""

from __future__ import annotations

import difflib
import io
import logging
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from progen import gen_program

from evmrbr.asm import disassemble
from evmrbr.cli import main

PINNED = Path(__file__).with_name("cli_outcomes.txt")
COMMANDS = (("rbr",), ("saco",), ("loops",), ("check", "--runs", "3"))


def inputs() -> dict[str, bytes]:
    """The seeded inputs by name."""
    rng = random.Random("cli-outcomes")
    named = {}
    for i in range(100):
        named[f"random-{i:03}"] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 48)))
    for i in range(100):
        program = gen_program(random.Random(rng.randrange(10**6)))
        starts = [ins.offset for ins in disassemble(program)]
        code = bytearray(program)
        for _ in range(rng.randint(1, 3)):
            code[rng.choice(starts)] = rng.randrange(256)
        named[f"mutant-{i:03}"] = bytes(code)
    return named


def _run(argv: list[str], code: bytes) -> tuple[str, list[str]]:
    """The exit (or the exception that escaped) and stderr lines of ``main``."""
    stdin, sys.stdin = sys.stdin, io.StringIO(code.hex())
    err = io.StringIO()
    try:
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            status = f"exit {main(argv)}"
    except Exception as exc:  # recorded as an outcome, not a test failure
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = stdin
    return status, err.getvalue().splitlines()


def outcome_lines() -> list[str]:
    lines = []
    for name, code in inputs().items():
        lines.append(f"{name} input {code.hex()}")
        for command in COMMANDS:
            label = f"{name} {' '.join(command)}:"
            status, errors = _run([command[0], "-", *command[1:]], code)
            lines.append(f"{label} {status}")
            lines.extend(f"{label} | {line}" for line in errors)
    return lines


def test_cli_outcomes_are_pinned():
    # With no handler on the root logger, main sends warnings to its stderr,
    # as it does outside the test runner.  The runner's handlers are put
    # back before it removes them.
    handlers, logging.root.handlers = logging.root.handlers, []
    try:
        actual = outcome_lines()
    finally:
        logging.root.handlers = handlers
    expected = PINNED.read_text().splitlines()
    diff = "\n".join(difflib.unified_diff(expected, actual, "pinned", "now", lineterm="", n=0))
    assert actual == expected, diff


if __name__ == "__main__":
    PINNED.write_text("\n".join(outcome_lines()) + "\n")

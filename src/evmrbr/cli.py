"""Command-line front end.

All subcommands take hex bytecode from a file or from stdin (``-``).
Diagnostics go to stderr; stdout is deterministic for fixed inputs and
flags.  Exit codes: 0 success, 1 input error, 2 pipeline error, 3 when
``check`` finds divergences.
"""

from __future__ import annotations

import argparse
import functools
import gc
import logging
import sys

from .asm import disassemble, format_listing, parse_hex
from .cfg import CLONE_CAP, FallThrough, Halt, Jump, JumpI, emit_dot
from .cfg import resolve_cfg, split_blocks, successors
from .diff import differential_check
from .emit import emit_rbr, export_saco
from .errors import EvmRbrError, HexError
from .loops import detect_loops
from .opcodes import PUSH0
from .translate import call_graph, translate_cfg


def _count(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    return count


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="evmrbr",
        description="Lift EVM bytecode into a guarded rule-based representation.",
    )
    # Every command resolves at the default cap; only cfg takes another.
    parser.set_defaults(clone_cap=CLONE_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("input", help="hex bytecode file, or - for stdin")
        return cmd

    add("disasm", "print the instruction listing")
    cfg_cmd = add("cfg", "print the block summary (or DOT with --dot)")
    cfg_cmd.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    cfg_cmd.add_argument(
        "--clone-cap", type=_count(1), default=CLONE_CAP, metavar="N",
        help="max clones per block (default %(default)s)",
    )
    rbr_cmd = add("rbr", "print or write the rule program")
    rbr_cmd.add_argument("--nops", action="store_true", help="keep nop(...) markers")
    rbr_cmd.add_argument("-o", "--output", metavar="FILE", help="write to FILE")
    saco_cmd = add("saco", "print or write the export with bit-ops forgotten")
    saco_cmd.add_argument("-o", "--output", metavar="FILE", help="write to FILE")
    add("loops", "print the loop report")
    check_cmd = add("check", "differential-test the translation")
    check_cmd.add_argument("--runs", type=_count(0), default=20, metavar="N")
    check_cmd.add_argument("--seed", type=int, default=0, metavar="S")
    return parser


def _read_code(source: str) -> bytes:
    if source == "-":
        return parse_hex(sys.stdin.read())
    with open(source) as handle:
        return parse_hex(handle.read())


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


# The word naming each terminator in the block summary.
_SUMMARY_KINDS = {Jump: "jump", JumpI: "branch", FallThrough: "fall", Halt: "halt"}


def _cfg_summary(cfg, code: bytes) -> str:
    """The ``cfg`` listing; a block's bytes are those inside ``code``, so a
    PUSH running past its end counts no zero padding."""
    lines = [f"entry: {cfg.entry}"]
    for bid, block in cfg.blocks.items():
        height = "-" if block.entry_height is None else str(block.entry_height)
        succ = ", ".join(successors(block.terminator))
        kind = _SUMMARY_KINDS[type(block.terminator)] + (f" -> {succ}" if succ else "")
        dead = " dead" if block.dead else ""
        size = min(block.end_pc, len(code)) - block.start_pc
        lines.append(f"block {bid}: pc={block.start_pc} bytes={size} height={height} {kind}{dead}")
    if cfg.unresolved:
        lines.append("unresolved:")
        lines.extend(f"  {bid}: {reason}" for bid, reason in cfg.unresolved)
    return "\n".join(lines) + "\n"


def _push0_warning(cfg) -> str | None:
    """A warning naming the first live PUSH0 byte, which decodes as a halt."""
    for block in cfg.live_blocks():
        last = block.instrs[-1]
        if last.opcode.code == PUSH0:
            return (
                f"warning: offset {last.offset}: 0x5f is PUSH0 (EIP-3855, Shanghai), which "
                "this Constantinople decoder does not read; it is decoded as a halt"
            )
    return None


def _loop_report(loops: list[list[str]]) -> str:
    lines = [f"loops: {len(loops)}"]
    for i, members in enumerate(loops):
        lines.append(f"loop {i}: " + ", ".join(members))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Unless the caller set up logging, warnings go to the sys.stderr of this
    # call through a handler that leaves with it, so a later call in the
    # same process writes to its own stderr.
    handler = None
    if not logging.root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
        logging.root.addHandler(handler)
    # The pipeline leaves no reference cycles (tests/test_gc.py), so reference
    # counting frees all it makes and the cyclic collector would only rescan
    # live objects.  It is paused for the command, and turned back on only if
    # it was on when the call came in.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if collecting:
            gc.enable()
        if handler is not None:
            logging.root.removeHandler(handler)


def _run(args: argparse.Namespace) -> int:
    try:
        code = _read_code(args.input)
    except (OSError, UnicodeDecodeError, HexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        instrs = disassemble(code)
        if instrs and instrs[-1].offset + instrs[-1].size > len(code):
            print(
                f"warning: offset {instrs[-1].offset}: {instrs[-1].mnemonic} runs past the end "
                "of code; the missing bytes read as zeros",
                file=sys.stderr,
            )
        if args.command == "disasm":
            if instrs:
                print(format_listing(instrs))
            return 0
        blocks = split_blocks(instrs)
        cfg = resolve_cfg(blocks, clone_cap=args.clone_cap)
        if args.command == "cfg":
            sys.stdout.write(emit_dot(cfg) if args.dot else _cfg_summary(cfg, code))
            return 0
        for bid, reason in cfg.unresolved:
            print(f"warning: block {bid}: {reason}", file=sys.stderr)
        push0 = _push0_warning(cfg)
        if push0:
            print(push0, file=sys.stderr)
        if args.command == "rbr":
            rules = translate_cfg(cfg, nops=args.nops)
            _write_output(emit_rbr(rules), args.output)
            return 0
        if args.command == "saco":
            rules = translate_cfg(cfg)
            _write_output(export_saco(rules), args.output)
            return 0
        if args.command == "loops":
            # The call graph is read off the CFG: no rule body is built.
            sys.stdout.write(_loop_report(detect_loops(call_graph(cfg))))
            return 0
        # check: the CFG served the warnings and need not live through the
        # cases; differential_check resolves the same blocks for its rules.
        del cfg
        report = differential_check(code, n_cases=args.runs, seed=args.seed, blocks=blocks)
        sys.stdout.write(report.text())
        return 0 if report.agreed else 3
    except EvmRbrError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # the output could not be written
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

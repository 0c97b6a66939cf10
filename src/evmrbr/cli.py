"""Command-line front end.

All subcommands take hex bytecode from a file or from stdin (``-``).
Diagnostics go to stderr; stdout is deterministic for fixed inputs and
flags.  Exit codes: 0 success, 1 input error, 2 pipeline error, 3 when
``check`` finds divergences.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .asm import disassemble, format_listing, parse_hex
from .cfg import FallThrough, Jump, JumpI, emit_dot, id_sort_key, resolve_cfg, split_blocks
from .diff import differential_check
from .emit import emit_rbr, export_saco
from .errors import EvmRbrError, HexError
from .loops import detect_loops
from .translate import translate_cfg


def _count(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmrbr",
        description="Lift EVM bytecode into a guarded rule-based representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("input", help="hex bytecode file, or - for stdin")
        return cmd

    add("disasm", "print the instruction listing")
    cfg_cmd = add("cfg", "print the block summary (or DOT with --dot)")
    cfg_cmd.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    cfg_cmd.add_argument(
        "--clone-cap", type=_count(1), default=32, metavar="N",
        help="max clones per block (default 32)",
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


def _cfg_summary(cfg) -> str:
    lines = [f"entry: {cfg.entry}"]
    for bid in sorted(cfg.blocks, key=id_sort_key):
        block = cfg.blocks[bid]
        height = "-" if block.entry_height is None else str(block.entry_height)
        term = block.terminator
        if isinstance(term, Jump):
            kind = f"jump -> {term.target}"
        elif isinstance(term, JumpI):
            kind = f"branch -> {term.taken}, {term.fallthrough}"
        elif isinstance(term, FallThrough):
            kind = f"fall -> {term.target}"
        else:
            kind = "halt"
        dead = " dead" if block.dead else ""
        lines.append(
            f"block {bid}: pc={block.start_pc} bytes={block.byte_size} "
            f"height={height} {kind}{dead}"
        )
    if cfg.unresolved:
        lines.append("unresolved:")
        lines.extend(f"  {bid}: {reason}" for bid, reason in cfg.unresolved)
    return "\n".join(lines) + "\n"


def _loop_report(loops: list[list[str]]) -> str:
    lines = [f"loops: {len(loops)}"]
    for i, members in enumerate(loops):
        lines.append(f"loop {i}: " + ", ".join(members))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    try:
        code = _read_code(args.input)
    except (OSError, UnicodeDecodeError, HexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        if args.command == "disasm":
            print(format_listing(disassemble(code)))
            return 0
        if args.command == "cfg":
            cfg = resolve_cfg(split_blocks(disassemble(code)), clone_cap=args.clone_cap)
            sys.stdout.write(emit_dot(cfg) if args.dot else _cfg_summary(cfg))
            return 0

        cfg = resolve_cfg(split_blocks(disassemble(code)))
        for bid, reason in cfg.unresolved:
            print(f"warning: block {bid}: {reason}", file=sys.stderr)
        if args.command == "rbr":
            rules = translate_cfg(cfg, nops=args.nops)
            _write_output(emit_rbr(rules), args.output)
            return 0
        if args.command == "saco":
            rules = translate_cfg(cfg)
            _write_output(export_saco(rules), args.output)
            return 0
        if args.command == "loops":
            sys.stdout.write(_loop_report(detect_loops(translate_cfg(cfg))))
            return 0
        # check
        report = differential_check(code, n_cases=args.runs, seed=args.seed)
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

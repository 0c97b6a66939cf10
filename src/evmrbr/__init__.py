"""evmrbr: lift EVM bytecode into a guarded rule-based representation.

Pipeline: ``parse_hex`` -> ``disassemble`` -> ``split_blocks`` ->
``resolve_cfg`` -> ``translate_cfg`` -> ``emit_rbr``/``export_saco``,
with ``run_evm``/``run_rbr``/``differential_check`` as the testing
oracles and ``detect_loops`` for structural loop reports.
"""

from .asm import Instruction, assemble, disassemble, format_listing, parse_hex
from .cfg import CLONE_CAP as _CLONE_CAP  # public as evmrbr.cfg.CLONE_CAP
from .cfg import (
    Block,
    Cfg,
    FallThrough,
    Halt,
    Jump,
    JumpI,
    emit_dot,
    resolve_cfg,
    split_blocks,
)
from .diff import DiffReport, differential_check
from .emit import emit_rbr, export_saco
from .errors import EvmRbrError
from .evm_exec import MachineState, run_evm
from .loops import detect_loops
from .opcodes import Opcode
from .rbr import Assign, BinOp, BitOp, Call, Guard, Nop, Not, Num, Rule, Var, VarLayout
from .rbr_exec import RbrState, run_rbr
from .translate import build_layout, tau, tau_G, translate_block, translate_cfg

__version__ = "0.1.0"


def decompile(code: bytes, *, nops: bool = False, clone_cap: int = _CLONE_CAP) -> list[Rule]:
    """Convenience: bytecode bytes to rules in one call."""
    return translate_cfg(resolve_cfg(split_blocks(disassemble(code)), clone_cap), nops=nops)


def __getattr__(name: str):
    # The rule parser is imported on first use: no CLI command reads .rbr text.
    if name == "parse_rbr":
        from .parse import parse_rbr

        globals()[name] = parse_rbr
        return parse_rbr
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Concrete mini-EVM used as differential-testing ground truth.

Executes the deterministic opcode subset with real 256-bit wrap-around
semantics and records every basic-block entry PC.  Memory is word-granular
(a map from the exact address used to a 256-bit value), matching the model
the rules are checked against.  Hashing, calls, contract creation and logs
are not interpreted: programs fed to the oracle must avoid them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .asm import Instruction, disassemble
from .cfg import block_leaders
from .errors import EvmFault, StepLimitExceeded, UnsupportedOpcode
from .opcodes import BLOCKCHAIN_READS, WORD, WORD_OPS, Opcode, for_byte

# Opcodes pushing one environment quantity, and the key it is read from.
_ENV_READS = {name: key for name, key in BLOCKCHAIN_READS.items() if name != "CALLDATASIZE"}

# Mnemonic -> kind of table entry, for opcodes whose entry needs no argument.
_KINDS = {
    "POP": "pop",
    "JUMPDEST": "nop",
    "JUMP": "jump",
    "JUMPI": "jumpi",
    "STOP": "stop",
    "RETURN": "return",
    "REVERT": "return",
    "CALLDATASIZE": "calldatasize",
    "CALLDATALOAD": "calldataload",
    "MLOAD": "mload",
    "MSTORE": "mstore",
    "SLOAD": "sload",
    "SSTORE": "sstore",
}


@dataclass
class MachineState:
    """Concrete machine state; stack top is the last element."""

    stack: list[int] = field(default_factory=list)
    memory: dict[int, int] = field(default_factory=dict)
    storage: dict[int, int] = field(default_factory=dict)
    calldata: bytes = b""
    env: dict[str, int] = field(default_factory=dict)
    halted: bool = False
    pc: int = 0


def _decode(instrs: list[Instruction]) -> tuple[list[tuple | None], frozenset[int]]:
    """Per-PC table and jumpdest set of ``instrs``, a whole disassembled program.

    ``table[pc]`` is ``(kind, arg, next_pc, leader)`` at each instruction
    start and None inside immediates; ``leader`` is set where a basic block
    starts.  Its length is the code size.
    """
    leaders = block_leaders(instrs)
    size = instrs[-1].offset + instrs[-1].size if instrs else 0
    table: list[tuple | None] = [None] * size
    jumpdests = []
    entries = _ENTRIES
    for offset, op, immediate in instrs:
        kind, arg, width = entries[op.code]
        if kind == "push":
            arg = immediate
        elif kind == "pc":
            kind, arg = "push", offset
        elif kind == "nop":
            jumpdests.append(offset)
        table[offset] = (kind, arg, offset + width, offset in leaders)
    return table, frozenset(jumpdests)


def run_evm(
    code: bytes,
    calldata: bytes = b"",
    env: dict[str, int] | None = None,
    step_limit: int = 10**6,
    storage: dict[int, int] | None = None,
) -> tuple[MachineState, list[int]]:
    """Execute ``code``; returns the final state and the block-entry trace.

    ``code`` is decoded once into a per-PC table that the loop runs on.
    Halts on STOP/RETURN/REVERT/INVALID or when execution runs off the end
    of the code (implicit STOP).  Raises StepLimitExceeded after
    ``step_limit`` instructions, UnsupportedOpcode outside the subset, and
    EvmFault on stack violations or invalid jumps.
    """
    table, jumpdests = _decode(disassemble(code))
    size = len(table)
    env = dict(env or {})
    storage = dict(storage or {})
    memory: dict[int, int] = {}
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    trace: list[int] = []
    steps = 0
    pc = 0
    try:
        while pc < size:
            kind, arg, next_pc, leader = table[pc]
            if leader:
                trace.append(pc)
            steps += 1
            if steps > step_limit:
                raise StepLimitExceeded(f"no halt within {step_limit} steps")
            if kind == "push":
                push(arg)
            elif kind == "dup":
                push(stack[-arg])
            elif kind == "swap":
                stack[-1], stack[-1 - arg] = stack[-1 - arg], stack[-1]
            elif kind == "op2":
                push(arg(pop(), pop()))
            elif kind == "nop":
                pass
            elif kind == "jump":
                next_pc = pop()
                if next_pc not in jumpdests:
                    raise EvmFault(f"invalid jump target {next_pc}")
            elif kind == "jumpi":
                dest, cond = pop(), pop()
                if cond != 0:
                    if dest not in jumpdests:
                        raise EvmFault(f"invalid jump target {dest}")
                    next_pc = dest
            elif kind == "pop":
                pop()
            elif kind == "mload":
                push(memory.get(pop(), 0))
            elif kind == "mstore":
                addr = pop()
                memory[addr] = pop()
            elif kind == "sload":
                push(storage.get(pop(), 0) & WORD)
            elif kind == "sstore":
                key = pop()
                storage[key] = pop()
            elif kind == "op1":
                push(arg(pop()))
            elif kind == "op3":
                push(arg(pop(), pop(), pop()))
            elif kind == "calldataload":
                offset = pop()
                word = calldata[offset : offset + 32] if offset < len(calldata) else b""
                push(int.from_bytes(word.ljust(32, b"\0"), "big"))
            elif kind == "env":
                push(env.get(arg, 0) & WORD)
            elif kind == "calldatasize":
                push(len(calldata))
            elif kind == "stop":
                break
            elif kind == "return":
                pop(), pop()
                break
            else:
                raise UnsupportedOpcode(arg)
            if len(stack) > 1024:
                raise EvmFault("stack overflow")
            pc = next_pc
    except IndexError:
        # Every IndexError in the loop comes from the stack: a pop, DUP or
        # SWAP below its bottom.
        raise EvmFault("stack underflow") from None
    state = MachineState(stack, memory, storage, calldata, env, halted=True, pc=pc)
    return state, trace


def _entry(op: Opcode) -> tuple[str, object, int]:
    """Table kind, argument and byte width of ``op``.  PUSH takes its
    argument from the immediate and PC ("pc") from the offset, per
    instruction."""
    name = op.mnemonic
    arg = None
    if op.is_push:
        kind = "push"
    elif name == "PC":
        kind = "pc"
    elif op.is_dup:
        kind, arg = "dup", op.pair_index
    elif op.is_swap:
        kind, arg = "swap", op.pair_index
    elif name in WORD_OPS:
        arg, arity = WORD_OPS[name]
        kind = ("op1", "op2", "op3")[arity - 1]
    elif name in _ENV_READS:
        kind, arg = "env", _ENV_READS[name]
    elif op.is_invalid_class:
        kind = "stop"
    else:
        kind = _KINDS.get(name)
        if kind is None:
            kind, arg = "unsupported", name
    return kind, arg, 1 + op.immediate_len


# Opcode byte -> table entry, built once so decoding reads no Opcode property.
_ENTRIES = [_entry(for_byte(b)) for b in range(256)]

"""Concrete mini-EVM used as differential-testing ground truth.

Executes the deterministic opcode subset with real 256-bit wrap-around
semantics and records every basic-block entry PC.  The entries are found
from execution itself, not from :mod:`evmrbr.cfg`: the check compares this
trace with one derived from the CFG, so a shared leader bug would agree
with itself.  Memory is word-granular
(a map from the exact address used to a 256-bit value), matching the model
the rules are checked against.  Hashing, calls, contract creation and logs
are not interpreted: programs fed to the oracle must avoid them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .asm import disassemble
from .errors import EvmFault, StepLimitExceeded, UnsupportedOpcode
from .opcodes import JUMPDEST, KINDS, WORD, for_byte


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


def run_evm(
    code: bytes,
    calldata: bytes = b"",
    env: dict[str, int] | None = None,
    step_limit: int = 10**6,
    storage: dict[int, int] | None = None,
) -> tuple[MachineState, list[int]]:
    """Execute ``code``; returns the final state and the block-entry trace.

    ``code`` is disassembled once per call (a copy of the kept result when
    ``disassemble`` decoded the same bytes last) and the loop runs on that
    instruction list by index.  A block entry is recorded where execution
    can enter one: offset 0, every executed JUMPDEST, and the instruction
    after a JUMPI that falls through.  Halts on STOP/RETURN/REVERT/INVALID
    or when execution runs off the end of the code (implicit STOP).  Raises
    StepLimitExceeded after ``step_limit`` instructions, UnsupportedOpcode
    outside the subset, and EvmFault on stack violations or invalid jumps.
    """
    instrs = disassemble(code)
    n = len(instrs)
    # JUMPDEST offset -> instruction index.  Built from instructions, so a
    # 0x5b byte inside PUSH data is no target.
    jumpdests = {ins[0]: i for i, ins in enumerate(instrs) if ins[1].code == JUMPDEST}
    env = dict(env or {})
    storage = dict(storage or {})
    memory: dict[int, int] = {}
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    # A JUMPDEST at offset 0 records itself when it executes.
    trace: list[int] = [0] if n and 0 not in jumpdests else []
    entries = _ENTRIES
    steps = 0
    i = 0
    try:
        while i < n:
            pc, op, immediate = instrs[i]
            kind, arg = entries[op.code]
            steps += 1
            if steps > step_limit:
                raise StepLimitExceeded(f"no halt within {step_limit} steps")
            i += 1
            if kind == "push":
                push(immediate)
                if len(stack) > 1024:
                    raise EvmFault("stack overflow")
            elif kind == "dup":
                push(stack[-arg])
                if len(stack) > 1024:
                    raise EvmFault("stack overflow")
            elif kind == "swap":
                stack[-1], stack[-1 - arg] = stack[-1 - arg], stack[-1]
            elif kind == "op2":
                push(arg(pop(), pop()))
            elif kind == "jumpdest":
                trace.append(pc)
            elif kind == "jump":
                dest = pop()
                i = jumpdests.get(dest)
                if i is None:
                    raise EvmFault(f"invalid jump target {dest}")
            elif kind == "jumpi":
                dest, cond = pop(), pop()
                if cond != 0:
                    i = jumpdests.get(dest)
                    if i is None:
                        raise EvmFault(f"invalid jump target {dest}")
                elif i < n and pc + 1 not in jumpdests:
                    # JUMPI is one byte; a JUMPDEST there records itself.
                    trace.append(pc + 1)
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
                if len(stack) > 1024:
                    raise EvmFault("stack overflow")
            elif kind == "calldatasize":
                push(len(calldata))
                if len(stack) > 1024:
                    raise EvmFault("stack overflow")
            elif kind == "pc":
                push(pc)
                if len(stack) > 1024:
                    raise EvmFault("stack overflow")
            elif kind == "stop":
                break
            elif kind == "return":
                pop(), pop()
                break
            else:
                raise UnsupportedOpcode(arg)
        else:
            pc = len(code)  # ran off the end: the implicit STOP
    except IndexError:
        # Every IndexError in the loop comes from the stack: a pop, DUP or
        # SWAP below its bottom.  Instruction indices are bounds-checked.
        raise EvmFault("stack underflow") from None
    state = MachineState(stack, memory, storage, calldata, env, halted=True, pc=pc)
    return state, trace


# Opcode byte -> (kind, argument) of the loop, built once so the loop reads
# no Opcode property.  It is the table's, except that a word operation is
# op1/op2/op3 by arity, a halt is a stop or (RETURN, REVERT) a return, and
# the kinds outside the subset are unsupported, naming the mnemonic.
_ENTRIES = [
    (f"op{op.delta}", arg[0]) if kind == "word"
    else ("return" if op.delta else "stop", None) if kind == "halt"
    else ("unsupported", op.mnemonic) if kind in ("memcopy", "opaque")
    else (kind, arg)
    for op, (kind, arg) in zip(map(for_byte, range(256)), KINDS)
]

"""Concrete mini-EVM used as differential-testing ground truth.

Executes the deterministic opcode subset with real 256-bit wrap-around
semantics and records every basic-block entry PC.  The entries are found
from execution itself, not from :mod:`evmrbr.cfg`: the check compares this
trace with one derived from the CFG, so a shared leader bug would agree
with itself.  The code is cut once into straight-line runs of
pre-resolved steps; the last bytes prepared are kept with their runs, so
the cases of one check prepare once, and the loop executes a run per
iteration.  A run's leading JUMPDEST is its header, recorded on entry
rather than executed, and a PUSH and the step that consumes its constant
are one step.  No instruction adds more than one stack item, so the loop
tests the 1024-item bound once per run, against the run's instruction
count; only a run that could cross the bound, or that the step limit
cuts, runs one instruction per step with a test after each.  Memory is
word-granular (a map from the exact address used to a 256-bit value),
matching the model the rules are checked against.  Hashing, calls,
contract creation and logs are not interpreted: programs fed to the
oracle must avoid them.
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

    ``code`` is disassembled on every call and its runs are taken from
    ``_program``.  The loop runs one straight-line run per iteration, and a
    run that would pass ``step_limit`` runs only the instructions within
    it, so the limit counts instructions.  A block entry is recorded where
    execution can enter one: offset 0, every executed JUMPDEST, and the
    instruction after a JUMPI that falls through.  Halts on
    STOP/RETURN/REVERT/INVALID or when execution runs off the end of the
    code (implicit STOP).  Raises
    StepLimitExceeded after ``step_limit`` instructions, UnsupportedOpcode
    outside the subset, and EvmFault on stack violations or invalid jumps.
    """
    code = bytes(code)
    runs, jumpdests = _program(code)
    env = dict(env or {})
    storage = dict(storage or {})
    memory: dict[int, int] = {}
    stack: list[int] = []
    # A JUMPDEST at offset 0 records itself as its run's header.
    trace: list[int] = [0] if runs and runs[0][0] is None else []
    try:
        pc = _execute(runs, jumpdests, stack, memory, storage, calldata, env, trace, step_limit)
    except IndexError:
        # Every IndexError in the loop comes from the stack: a pop, DUP or
        # SWAP below its bottom.  Run indices are bounds-checked.
        raise EvmFault("stack underflow") from None
    if pc is None:
        pc = len(code)  # ran off the end: the implicit STOP
    state = MachineState(stack, memory, storage, calldata, env, halted=True, pc=pc)
    return state, trace


def _program(code: bytes) -> tuple[tuple, dict[int, int]]:
    """The runs and JUMPDEST map of ``code``: kept from the last call on
    equal bytes, else prepared from a new decode and kept.  ``code`` is
    decoded on every call, which the decoder's own memo answers; a PUSH cut
    off by the end of the code pushes its bytes padded with zeros."""
    global _prepared
    instrs = disassemble(code)
    saved_code, runs, jumpdests = _prepared
    if code != saved_code:
        runs, jumpdests = _prepare(instrs)
        _prepared = (code, runs, jumpdests)
    return runs, jumpdests


def _execute(runs, jumpdests, stack, memory, storage, calldata, env, trace, step_limit):
    """Run from run 0 until a halt; returns the halting pc, or None when
    execution runs off the end of the code."""
    push, pop = stack.append, stack.pop
    n = len(runs)
    steps = 0
    r = 0
    while r < n:
        header, count, run = runs[r]
        if header is not None:
            trace.append(header)
        steps += count
        # No instruction adds more than one item to the stack, so only a run
        # entered with more than 1024 - count items can cross the bound.
        if steps > step_limit or len(stack) + count > 1024:
            # One instruction per step, and the bound tested after each.
            run = [step for fused in run for step in _unfused(fused)]
            if steps > step_limit:
                # Only the steps within the limit run; the next one raises below.
                run = run[: max(len(run) - (steps - step_limit), 0)]
            run = _bounded(run, stack)
        # The kinds are tested about in the order of how often they run.
        for kind, arg, operand in run:
            if kind == "push":
                push(operand)
            elif kind == "op2":
                push(arg(pop(), pop()))
            elif kind == "swap":
                stack[-1], stack[-1 - arg] = stack[-1 - arg], stack[-1]
            elif kind == "dup":
                push(stack[-arg])
            elif kind == "push jumpi":
                if pop() != 0:
                    r = jumpdests.get(arg)
                    if r is None:
                        raise EvmFault(f"invalid jump target {arg}")
                    break
                if operand is not None:
                    trace.append(operand)
            elif kind == "op1":
                push(arg(pop()))
            elif kind == "push jump":
                r = jumpdests.get(arg)
                if r is None:
                    raise EvmFault(f"invalid jump target {arg}")
                break
            elif kind == "push sstore":
                storage[arg] = pop()
            elif kind == "push calldataload":
                word = calldata[arg : arg + 32] if arg < len(calldata) else b""
                push(int.from_bytes(word.ljust(32, b"\0"), "big"))
            elif kind == "push op2":
                push(operand[1](arg, pop()))
            elif kind == "env":
                push(env.get(arg, 0) & WORD)
            elif kind == "sload":
                push(storage.get(pop(), 0) & WORD)
            elif kind == "mload":
                push(memory.get(pop(), 0))
            elif kind == "pop":
                pop()
            elif kind == "mstore":
                addr = pop()
                memory[addr] = pop()
            elif kind == "jumpi":
                dest, cond = pop(), pop()
                if cond != 0:
                    r = jumpdests.get(dest)
                    if r is None:
                        raise EvmFault(f"invalid jump target {dest}")
                    break
                if operand is not None:
                    trace.append(operand)
            elif kind == "jump":
                dest = pop()
                r = jumpdests.get(dest)
                if r is None:
                    raise EvmFault(f"invalid jump target {dest}")
                break
            elif kind == "sstore":
                key = pop()
                storage[key] = pop()
            elif kind == "calldataload":
                offset = pop()
                word = calldata[offset : offset + 32] if offset < len(calldata) else b""
                push(int.from_bytes(word.ljust(32, b"\0"), "big"))
            elif kind == "op3":
                push(arg(pop(), pop(), pop()))
            elif kind == "calldatasize":
                push(len(calldata))
            elif kind == "stop":
                return operand
            elif kind == "return":
                pop(), pop()
                return operand
            else:
                raise UnsupportedOpcode(arg)
        else:
            # No jump or halt ended the run: the step limit cut it, or a
            # JUMPI fell through, or the next run opens with a JUMPDEST, or
            # the code ends.
            if steps > step_limit:
                raise StepLimitExceeded(f"no halt within {step_limit} steps")
            r += 1
    return None


def _unfused(step):
    """The steps of one instruction each that ``step`` stands for."""
    kind, value, consumer = step
    if kind == "push jumpi":
        return ("push", None, value), ("jumpi", None, consumer)
    if kind in _FUSED_KINDS:
        return ("push", None, value), consumer
    return (step,)


def _bounded(run, stack):
    """The steps of ``run``, raising EvmFault after the first one that
    leaves more than 1024 items on the stack."""
    for step in run:
        yield step
        if len(stack) > 1024:
            raise EvmFault("stack overflow")


def _prepare(instrs):
    """Cut ``instrs`` into straight-line runs of pre-resolved steps.

    A JUMPDEST opens a run; a JUMP, a JUMPI or a halting opcode closes one,
    SELFDESTRUCT (a halt outside the subset) included.  Other opcodes
    outside the subset stay inside their run and raise where they stand.
    A run is ``(header, count, steps)``: the pc of the JUMPDEST that opens
    it, recorded on entry, or None; its instructions, the JUMPDEST
    included, which also bound the items it can add to the stack, so the
    loop tests the 1024 bound once per run; and its steps, the JUMPDEST
    excluded.  Each step is ``(kind, argument, operand)``.  The
    operand is the value a push pushes (a PC is a push of its own offset),
    the pc of a halt, and for a JUMPI the offset its fall-through records:
    None when the next instruction is a JUMPDEST, which records itself, or
    when there is none.  A PUSH followed by a JUMP, JUMPI, SSTORE,
    CALLDATALOAD or two-operand word operation is one step of both
    instructions, ``(kind, value, consumer step)``, whose consumer reads
    the constant from the step instead of the stack; a fused JUMPI keeps
    its fall-through offset in place of its step.  ``_unfused`` splits a
    fused step again.  Steps without an operand are the shared tuples of
    ``_STEPS``, and pushes of one value, or fused steps of one value and
    consumer, share a step.  Returns the tuple of runs and a map from each
    JUMPDEST offset to the index of the run it opens; a 0x5b byte inside
    PUSH data is no instruction, so no target.
    """
    runs: list[tuple] = []
    jumpdests: dict[int, int] = {}
    shared, closes, fuses = _STEPS, _CLOSES, _FUSES
    pushes: dict[int, tuple] = {}  # value -> its shared push step
    fused: dict[int, tuple] = {}  # value << 8 | consumer byte -> their shared step
    # A run's instructions are its steps, its fused steps once more and
    # its header: ``extra`` counts the last two.
    header, run, extra = None, [], 0
    last = len(instrs) - 1
    for i, (pc, op, immediate) in enumerate(instrs):
        code = op.code
        step = shared[code]
        kind = step[0]
        if kind == "jumpdest":
            if run or extra:
                runs.append((header, len(run) + extra, tuple(run)))
            jumpdests[pc] = len(runs)
            header, run, extra = pc, [], 1
            continue
        if kind == "push" or kind == "pc":
            # PC pushes its own offset, a constant.
            value = pc if kind == "pc" else immediate
            step = pushes.get(value)
            if step is None:
                step = pushes[value] = ("push", None, value)
        elif kind == "stop" or kind == "return":
            step = (kind, None, pc)
        elif kind == "jumpi":
            falls_to = pc + 1 if i < last and instrs[i + 1][1].code != JUMPDEST else None
            step = (kind, None, falls_to)
        fuse = fuses[code]
        if fuse is not None and run and run[-1][0] == "push":
            # The consumer of the constant just pushed takes it from its step.
            value = run.pop()[2]
            if kind == "jumpi":
                step = (fuse, value, falls_to)
            else:
                key = value << 8 | code
                if key not in fused:
                    fused[key] = (fuse, value, step)
                step = fused[key]
            extra += 1
        run.append(step)
        if closes[code]:
            runs.append((header, len(run) + extra, tuple(run)))
            header, run, extra = None, [], 0
    if run or extra:
        runs.append((header, len(run) + extra, tuple(run)))
    return tuple(runs), jumpdests


# The last bytes run_evm prepared, their runs and their JUMPDEST map.
_prepared: tuple[bytes, tuple, dict[int, int]] = (b"", (), {})


# Opcode byte -> the loop's (kind, argument, None) step, built once so the
# loop reads no Opcode property.  The kind and argument are the table's,
# except that a word operation is op1/op2/op3 by arity, a halt is a stop
# or (RETURN, REVERT) a return, and the kinds outside the subset are
# unsupported, naming the mnemonic.
_STEPS = [
    (f"op{op.delta}", arg[0], None) if kind == "word"
    else ("return" if op.delta else "stop", None, None) if kind == "halt"
    else ("unsupported", op.mnemonic, None) if kind in ("memcopy", "opaque")
    else (kind, arg, None)
    for op, (kind, arg) in zip(map(for_byte, range(256)), KINDS)
]
# Opcode byte -> whether its step closes a run: ``Opcode.is_terminator``.
_CLOSES = [for_byte(b).is_terminator for b in range(256)]
# Opcode byte -> the kind of its step fused with a PUSH before it, or None.
# JUMP, JUMPI, SSTORE, CALLDATALOAD and the two-operand word operations
# take the constant from the fused step.
_FUSES = [
    f"push {kind}" if kind in ("jump", "jumpi", "sstore", "calldataload", "op2") else None
    for kind, _, _ in _STEPS
]
_FUSED_KINDS = frozenset(filter(None, _FUSES))

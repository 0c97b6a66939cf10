"""Seeded inputs for the benchmark, and the checks they must pass before timing.

Each workload is one contract built from ``--seed`` plus the number of
cases its ``check`` command runs.  The contracts come from the test-suite
generators in ``tests/progen.py`` (imported, not copied), so they stay
inside what the concrete oracle executes exactly: storage keys 0..3,
calldata offsets 0..96, values below 2**64.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from progen import Asm, gen_program

from evmrbr import differential_check, disassemble, resolve_cfg, split_blocks

EIP170_LIMIT = 24 * 1024
SUBROUTINES_TARGET = 8 * 1024
SUB_COUNT = 40
# Below this share of cloned blocks the subroutines workload no longer
# loads the cloning path (about half its blocks are clones by design).
MIN_CLONE_SHARE = 0.4
# Cases of the generation-time check; the timed check runs its own cases.
GEN_CHECK_CASES = 4

_ARG_OPS = ("CALLER", "CALLVALUE", "NUMBER", "TIMESTAMP")
_SUB_OPS = ("ADD", "MUL", "AND", "OR", "XOR")


class InputError(Exception):
    """A generated input does not have the properties its workload needs."""


@dataclass(frozen=True)
class Workload:
    name: str
    target_bytes: int
    check_runs: int
    min_clone_share: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decompile-24k", EIP170_LIMIT, check_runs=1, min_clone_share=0.0),
        Workload("subroutines", SUBROUTINES_TARGET, check_runs=1, min_clone_share=MIN_CLONE_SHARE),
        Workload("check-24k", EIP170_LIMIT, check_runs=20, min_clone_share=0.0),
    )
}


@dataclass(frozen=True)
class Contract:
    code: bytes
    loops: int  # loops the generator built; the loop report must match


def grown_program(seed: int, target: int) -> Contract:
    """The shortest ``gen_program`` contract of this seed reaching ``target`` bytes.

    ``gen_program`` draws segments in order from one rng, so with a fresh
    ``Random(seed)`` the program with n+1 segments extends the one with n;
    a binary search finds the first segment count past the target.  The
    size then lands within one segment of the target for every seed,
    which keeps run time from varying with the seed.
    """
    lo, hi = 1, 1
    while len(gen_program(random.Random(seed), segments=hi)) < target:
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if len(gen_program(random.Random(seed), segments=mid)) >= target:
            hi = mid
        else:
            lo = mid + 1
    code = gen_program(random.Random(seed), segments=hi)
    return Contract(code, _backward_jumps(code))


def _backward_jumps(code: bytes) -> int:
    # gen_program's only backward jumps are loop back edges: one per loop.
    instrs = disassemble(code)
    return sum(
        1
        for push, jump in zip(instrs, instrs[1:])
        if jump.mnemonic == "JUMP" and push.opcode.is_push and push.immediate < jump.offset
    )


def _asm_size(asm: Asm) -> int:
    sizes = {"label": 0, "op": 1, "push_label": 3}
    return sum(sizes[item[0]] if item[0] in sizes else 1 + item[1] for item in asm.items)


def subroutine_program(seed: int, target: int, subs: int = SUB_COUNT) -> Contract:
    """An internal-function-style contract of at least ``target`` bytes.

    ``subs`` single-block subroutines each take ``[ret, arg]``, compute from
    ``arg`` with small constants and jump back to ``ret``.  The main code
    calls them round-robin, in a new shuffled order each round, until the
    program reaches ``target``; every call site pushes its own return label,
    so the resolver clones each subroutine once per call site.  The result
    is stored at one of progen's storage keys.  No code jumps backward
    except the returns, so the program has no loops.
    """
    rng = random.Random(seed)
    names = [f"sub{i}" for i in range(subs)]
    bodies = Asm()
    for name in names:
        bodies.label(name).op("JUMPDEST")
        for _ in range(rng.randint(1, 3)):
            bodies.push(rng.randrange(1, 256)).op(rng.choice(_SUB_OPS))
        bodies.op("SWAP1").op("JUMP")
    tail = 1 + _asm_size(bodies)  # STOP, then the subroutines

    main = Asm()
    while _asm_size(main) + tail < target:
        order = names[:]
        rng.shuffle(order)
        for name in order:
            ret = main.fresh_label("ret")
            main.push_label(ret)
            for _ in range(2):
                if rng.random() < 0.5:
                    main.push(rng.choice((0, 32, 64, 96))).op("CALLDATALOAD")
                else:
                    main.op(rng.choice(_ARG_OPS))
            main.op("ADD")
            main.push_label(name).op("JUMP")
            main.label(ret).op("JUMPDEST")
            main.push(rng.randrange(4)).op("SSTORE")
            if _asm_size(main) + tail >= target:
                break
    main.op("STOP")
    main.items.extend(bodies.items)
    return Contract(main.assemble(), loops=0)


def build(workload: Workload, seed: int) -> Contract:
    if workload.name == "subroutines":
        return subroutine_program(seed, workload.target_bytes)
    return grown_program(seed, workload.target_bytes)


def validate(contract: Contract, workload: Workload, seed: int) -> dict[str, int]:
    """Raise InputError unless the contract can be timed; returns its shape.

    The contract must reach the workload's target size, resolve every
    jump, clone at least the workload's minimum share of its blocks, and
    pass a short differential check.
    """
    code = contract.code
    if len(code) < workload.target_bytes:
        raise InputError(
            f"{workload.name}: {len(code)} B is below the {workload.target_bytes} B target"
        )
    cfg = resolve_cfg(split_blocks(disassemble(code)))
    if cfg.unresolved:
        raise InputError(f"{workload.name}: unresolved jumps {cfg.unresolved[:3]}")
    cloned = sum(1 for bid in cfg.blocks if "_c" in bid)
    if cloned < workload.min_clone_share * len(cfg.blocks):
        raise InputError(
            f"{workload.name}: {cloned}/{len(cfg.blocks)} blocks cloned, "
            f"below the {workload.min_clone_share:.0%} minimum"
        )
    report = differential_check(code, n_cases=GEN_CHECK_CASES, seed=seed)
    if not report.agreed:
        raise InputError(f"{workload.name}: check disagrees at generation\n{report.text()}")
    return {"bytes": len(code), "blocks": len(cfg.blocks), "cloned": cloned}

"""Command-line behaviour: outputs, exit codes, stream separation."""

import gc
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import ADD_STORE, CORPUS
from progen import gen_program

import evmrbr.asm
import evmrbr.cli
import evmrbr.diff
import evmrbr.evm_exec
from evmrbr import decompile
from evmrbr.cli import _loop_report, main
from evmrbr.emit import emit_rbr
from evmrbr.loops import detect_loops
from evmrbr.parse import parse_rbr


@pytest.fixture()
def run(capsys, monkeypatch, tmp_path):
    def invoke(*argv, stdin: str | None = None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def cli_process(*argv, stdin: str | bytes, timeout: float | None = None,
                **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process that imports this package, with
    ``env`` added to its environment; its output is text if ``stdin`` is.
    The child is killed, and the test fails, after ``timeout`` seconds."""
    return python_process("-m", "evmrbr", *argv, stdin=stdin, timeout=timeout, **env)


def python_process(*args, stdin: str | bytes, timeout: float | None = None,
                   **env: str) -> subprocess.CompletedProcess:
    """``cli_process`` for any Python command line."""
    src = str(Path(evmrbr.cli.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=isinstance(stdin, str),
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=timeout,
    )


def hexfile(tmp_path, data: bytes, name="code.hex"):
    path = tmp_path / name
    path.write_text(data.hex())
    return str(path)


def test_disasm_stdout(run):
    code, out, err = run("disasm", "-", stdin="600501")
    assert code == 0
    assert out == "0: PUSH1 0x5\n2: ADD\n"


def test_disasm_odd_digits_is_input_error(run):
    code, out, err = run("disasm", "-", stdin="0x0")
    assert code == 1
    assert out == ""
    assert "odd number of hex digits" in err


def test_missing_file_is_input_error(run):
    code, out, err = run("disasm", "/nonexistent/path.hex")
    assert code == 1
    assert out == ""


def test_non_utf8_file_is_input_error(run, tmp_path):
    path = tmp_path / "code.hex"
    path.write_bytes(b"\xff\xfe60")
    code, out, err = run("disasm", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_output_file_is_input_error(run, tmp_path):
    output = tmp_path / "missing" / "x.rbr"
    code, out, err = run("rbr", hexfile(tmp_path, ADD_STORE), "-o", str(output))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(output) in err


def test_output_to_a_directory_is_input_error(run, tmp_path):
    code, out, err = run("saco", hexfile(tmp_path, ADD_STORE), "-o", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_stdin_is_input_error():
    result = cli_process("disasm", "-", stdin=b"\xff\xfe60", PYTHONIOENCODING="utf-8")
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "-", "--runs", "-1"), "argument --runs: must be at least 0, not -1"),
        (("cfg", "-", "--clone-cap", "0"), "argument --clone-cap: must be at least 1, not 0"),
        (("cfg", "-", "--clone-cap", "x"), "argument --clone-cap: invalid count value: 'x'"),
    ],
)
def test_out_of_range_count_is_usage_error(run, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(*argv, stdin="00")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_check_zero_runs_is_valid(run):
    assert run("check", "-", "--runs", "0", stdin="00") == (0, "divergences: 0/0\n", "")


_PADDING_WARNING = (
    "warning: offset 6: PUSH32 runs past the end of code; the missing bytes read as zeros\n"
)


@pytest.mark.parametrize("command", ["disasm", "cfg", "rbr", "saco", "loops", "check"])
def test_truncated_push_reads_zeros_and_warns_once(run, command):
    # SSTORE 1 at 0, INVALID, then a PUSH32 with two of its bytes
    code, out, err = run(command, "-", stdin="6001600055fe7f0102")
    assert (code, err) == (0, _PADDING_WARNING)
    if command == "rbr":
        assert out == "block_0(g0) =>\n  s0 = 1,\n  s1 = 0,\n  g0 = s0\n"
    if command == "disasm":
        assert out.endswith("6: PUSH32 0x102" + "0" * 60 + "\n")
    if command == "cfg":  # the summary counts the bytes present, not the padding
        assert "block 6: pc=6 bytes=3 height=- halt dead\n" in out


def test_cfg_summary(run):
    code, out, err = run("cfg", "-", stdin="6003565b00")
    assert code == 0
    assert "entry: 0" in out
    assert "block 0: pc=0 bytes=3 height=0 jump -> 3" in out


_EMPTY_OUTCOMES = {
    "disasm": (0, "", ""),
    "cfg": (0, "entry: None\n", ""),
    "rbr": (0, "", ""),
    "saco": (0, "-- saco\n", ""),
    "loops": (0, "loops: 0\n", ""),
    "check": (2, "", "error: empty bytecode\n"),
}


@pytest.mark.parametrize("command", sorted(_EMPTY_OUTCOMES))
def test_empty_bytecode(run, command):
    assert run(command, "-", stdin="") == _EMPTY_OUTCOMES[command]


def test_cfg_dot(run):
    code, out, err = run("cfg", "-", "--dot", stdin="6003565b00")
    assert code == 0
    assert out.startswith("digraph cfg {")


def test_cfg_clone_cap_flag(run, tmp_path):
    path = hexfile(tmp_path, CORPUS["two_caller_clone"])
    code, out, _ = run("cfg", path, "--clone-cap", "1")
    assert code == 0
    assert "clone cap 1 exceeded" in out


def test_rbr_stdout_and_file(run, tmp_path):
    path = hexfile(tmp_path, ADD_STORE)
    code, out, _ = run("rbr", path)
    assert code == 0
    assert "g0 = s0" in out
    target = tmp_path / "out.rbr"
    code, out, _ = run("rbr", path, "-o", str(target))
    assert code == 0
    assert out == ""
    assert "g0 = s0" in target.read_text()


def test_rbr_nops_flag(run):
    code, out, _ = run("rbr", "-", "--nops", stdin=ADD_STORE.hex())
    assert code == 0
    assert "nop(PUSH1)" in out


def test_rbr_output_parses(run):
    code, out, _ = run("rbr", "-", stdin=CORPUS["counter_loop"].hex())
    assert code == 0
    assert parse_rbr(out)


def test_saco_export(run):
    code, out, _ = run("saco", "-", stdin=CORPUS["bitops"].hex())
    assert code == 0
    assert out.startswith("-- saco\n")
    assert "and(" not in out


def test_loops_report(run):
    code, out, _ = run("loops", "-", stdin=CORPUS["counter_loop"].hex())
    assert code == 0
    assert out.splitlines()[0] == "loops: 1"
    assert out.splitlines()[1] == "loop 0: block_4, jump_4, block_11"


def test_check_ok(run):
    code, out, _ = run("check", "-", "--runs", "5", "--seed", "7", stdin=ADD_STORE.hex())
    assert code == 0
    assert out == "divergences: 0/5\n"


def test_check_reports_divergence_with_exit_3(run):
    # storage[0] is loaded from a data-dependent calldata offset: the rules
    # lose that value to a fresh variable, so the check must flag it.
    code, out, _ = run("check", "-", "--runs", "3", stdin="6000353560005500")
    assert code == 3
    assert "case 0: g0" in out
    assert out.strip().endswith("divergences: 3/3")


def test_check_ends_fast_on_nested_powers():
    # (x ^ x) ^ x of calldata word 0: over unbounded integers the rules'
    # power would take unbounded time, so it fails as a rule-run divergence.
    done = cli_process("check", "-", "--runs", "3", stdin="6000356000350a6000350a60005500",
                       timeout=20)
    assert done.returncode == 3
    *cases, last = done.stdout.splitlines()
    assert last == "divergences: 3/3"
    assert cases == [
        f"case {i}: rule-run evm=halt rbr=EvmRbrError: a power of more than 1048576 bits"
        for i in range(3)
    ]


def test_check_ends_fast_on_repeated_squaring():
    # x = 3, then x = x * x 64 times: over unbounded integers the rules'
    # product would grow without bound, so it fails as a rule-run divergence.
    done = cli_process("check", "-", "--runs", "3",
                       stdin="600360005b908002906001018060401160045700", timeout=20)
    assert done.returncode == 3
    *cases, last = done.stdout.splitlines()
    assert last == "divergences: 3/3"
    assert cases == [
        f"case {i}: rule-run evm=halt rbr=EvmRbrError: a product of operands of more than"
        " 1048576 bits"
        for i in range(3)
    ]


def test_check_unresolved_is_pipeline_error(run):
    code, out, err = run("check", "-", stdin="60003556")
    assert code == 2
    assert "unresolved" in err


@pytest.mark.parametrize(
    "hexstr, offset",
    [
        ("7f" + (1 << 190).to_bytes(32, "big").hex() + "3560005500", 1 << 190),
        ("63ffffffff3560005500", 0xFFFFFFFF),
    ],
)
def test_check_huge_calldata_offset_is_pipeline_error(run, hexstr, offset):
    code, out, err = run("check", "-", "--runs", "2", stdin=hexstr)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: cannot check code reading calldata at offset {offset} "
        "(offsets must be below 16777216)\n"
    )


def test_check_calldata_offset_below_the_bound(run):
    code, out, _ = run("check", "-", "--runs", "2", stdin="62ffffff3560005500")
    assert code == 0
    assert out == "divergences: 0/2\n"


# PUSH1 1, PUSH32 <EIP-1967 implementation slot>, SSTORE, STOP
_EIP1967_STORE = (
    "6001" "7f360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc" "5500"
)
# a random mutant of a generated program, storing at a 200-bit constant key
_WIDE_KEY_MUTANT = (
    "60403542026000356175c5011361001f57425806b2403517600355610024565b4460025"
    "55b6000600678801561003c578091019060019003610029565b50600255426003554460015500"
)


@pytest.mark.parametrize("hexstr", [_EIP1967_STORE, _WIDE_KEY_MUTANT])
@pytest.mark.parametrize("command", ["rbr", "saco", "check", "loops"])
def test_wide_storage_key_is_not_a_field(run, caplog, hexstr, command):
    code, out, err = run(command, "-", stdin=hexstr)
    assert code == 0, err
    if command == "loops":
        # loops reads the call graph off the CFG and translates nothing.
        assert caplog.records == []
        assert out == _loop_report(detect_loops(decompile(bytes.fromhex(hexstr))))
        return
    assert [rec.message for rec in caplog.records] == [
        "1 constant storage key(s) at or above 256 translated as non-constant"
    ]
    if command == "rbr":
        assert parse_rbr(out) == decompile(bytes.fromhex(hexstr))
    if command == "check":
        assert out == "divergences: 0/20\n"


def test_check_call_counts(run, monkeypatch):
    calls = {"disassemble": 0, "split_blocks": 0, "resolve_cfg": 0}
    for module in (evmrbr.cli, evmrbr.diff, evmrbr.evm_exec):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    code, out, _ = run("check", "-", "--runs", "4", stdin=CORPUS["counter_loop"].hex())
    assert (code, out) == (0, "divergences: 0/4\n")
    # The CLI decodes and splits once and resolves for its warnings, and
    # differential_check resolves the same blocks for its rules; the concrete
    # side calls disassemble once per case, and the memo answers all but the
    # first.
    assert calls == {"disassemble": 1 + 4, "split_blocks": 1, "resolve_cfg": 2}


def test_check_decodes_the_code_once(run, monkeypatch):
    decodes = []
    decode = evmrbr.asm._decode
    monkeypatch.setattr(evmrbr.asm, "_last", (b"", ()))  # empty memos
    monkeypatch.setattr(evmrbr.evm_exec, "_prepared", (b"", (), {}))
    monkeypatch.setattr(evmrbr.asm, "_decode", lambda code: decodes.append(code) or decode(code))
    code, out, _ = run("check", "-", "--runs", "4", stdin=CORPUS["counter_loop"].hex())
    assert (code, out) == (0, "divergences: 0/4\n")
    assert decodes == [CORPUS["counter_loop"]]


@pytest.fixture(params=[True, False], ids=["collecting", "paused"])
def collector(request):
    """The cyclic collector, on or off as the caller of ``main`` left it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "argv, stdin, exit_code",
    [
        (("rbr", "-"), ADD_STORE.hex(), 0),
        (("disasm", "/nonexistent/path.hex"), None, 1),
        (("rbr", "-", "-o", "{tmp}/missing/x.rbr"), ADD_STORE.hex(), 1),
        (("check", "-"), "60003556", 2),
        (("check", "-", "--runs", "3"), "6000353560005500", 3),
        (("check", "-", "--runs", "-1"), "00", "usage"),
    ],
    ids=["exit-0", "missing-file", "unwritable-output", "exit-2", "exit-3", "usage-error"],
)
def test_main_leaves_the_collector_as_it_found_it(
    run, tmp_path, collector, argv, stdin, exit_code
):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if exit_code == "usage":
        with pytest.raises(SystemExit) as exc:
            run(*argv, stdin=stdin)
        assert exc.value.code == 2
    else:
        assert run(*argv, stdin=stdin)[0] == exit_code
    assert gc.isenabled() is collector


def test_commands_run_with_the_collector_paused(run, monkeypatch, collector):
    resolve_cfg = evmrbr.cli.resolve_cfg
    seen = []

    def watched(blocks, **kwargs):
        seen.append(gc.isenabled())
        return resolve_cfg(blocks, **kwargs)

    monkeypatch.setattr(evmrbr.cli, "resolve_cfg", watched)
    for command in ("rbr", "saco", "loops"):
        assert run(command, "-", stdin=ADD_STORE.hex())[0] == 0
    assert seen == [False] * 3
    assert gc.isenabled() is collector


def test_an_escaping_error_leaves_the_collector_as_it_found_it(run, monkeypatch, collector):
    def fail(cfg, **kwargs):
        raise RuntimeError("not an EvmRbrError")

    monkeypatch.setattr(evmrbr.cli, "translate_cfg", fail)
    with pytest.raises(RuntimeError):
        run("rbr", "-", stdin=ADD_STORE.hex())
    assert gc.isenabled() is collector


_PUSH0_WARNING = (
    "warning: offset {}: 0x5f is PUSH0 (EIP-3855, Shanghai), which this "
    "Constantinople decoder does not read; it is decoded as a halt\n"
)
_COMMANDS = [("rbr",), ("saco",), ("loops",), ("check", "--runs", "3")]


@pytest.mark.parametrize(
    "hexstr, offset",
    [("5f60015500", 0), ("60015f5b00", 2), ("5f5f00", 0)],
    ids=["push0-first", "push0-after-push1", "two-push0"],
)
@pytest.mark.parametrize("command", _COMMANDS, ids=lambda c: c[0])
def test_live_push0_warns_once(run, hexstr, offset, command):
    # The PUSH0 byte decodes as a halt; stdout and the exit code are those of
    # that halt, and one line on stderr names the first such offset.
    code, out, err = run(command[0], "-", *command[1:], stdin=hexstr)
    assert (code, err) == (0, _PUSH0_WARNING.format(offset))
    if command[0] == "rbr":
        assert out == emit_rbr(decompile(bytes.fromhex(hexstr)))
    if command[0] == "check":
        assert out == "divergences: 0/3\n"


@pytest.mark.parametrize("hexstr", ["605f00", "005f"], ids=["push-data", "dead-code"])
@pytest.mark.parametrize("command", _COMMANDS, ids=lambda c: c[0])
def test_push0_byte_that_never_runs_does_not_warn(run, hexstr, command):
    code, out, err = run(command[0], "-", *command[1:], stdin=hexstr)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["rbr", "--help"], [], ["frob", "-"], ["check", "-", "--runs", "x"]],
    ids=["help", "rbr-help", "no-command", "unknown-command", "bad-runs"],
)
def test_shared_parser_keeps_help_and_usage_errors(capsys, monkeypatch, argv):
    # main reuses one parser; each call prints and exits as a new one does.
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    fresh = outcome(evmrbr.cli._build_parser.__wrapped__().parse_args)
    assert outcome(main) == outcome(main) == fresh
    assert fresh[0] == (0 if "--help" in argv else 2)


def test_import_builds_no_parser():
    script = "import evmrbr.cli; print(evmrbr.cli._build_parser.cache_info().currsize)"
    result = python_process("-c", script, stdin="")
    assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr


def test_import_loads_no_rule_parser():
    # No command reads .rbr text; the package loads the parser on first use.
    script = (
        "import sys, evmrbr.cli; print('evmrbr.parse' in sys.modules); "
        "import evmrbr; from evmrbr import parse_rbr; "
        "print('evmrbr.parse' in sys.modules, evmrbr.parse_rbr is parse_rbr)"
    )
    result = python_process("-c", script, stdin="")
    assert (result.returncode, result.stdout) == (0, "False\nTrue True\n"), result.stderr


def test_rbr_warns_about_unresolved_jumps(run):
    # data-dependent jump: output still produced, warning on stderr
    code, out, err = run("rbr", "-", stdin="6000355660005b00")
    assert code == 0
    assert "warning: block" in err
    assert "warning" not in out


def test_stdout_deterministic(run):
    first = run("rbr", "-", stdin=CORPUS["dispatcher"].hex())
    second = run("rbr", "-", stdin=CORPUS["dispatcher"].hex())
    assert first == second


_LOOPING = {
    "six_loops": CORPUS["six_loops"],
    "progen-11": gen_program(random.Random(11)),
    # Calldata word 0 picks one of two counted loops, so the loop search
    # meets the two loops in the order of a two-element successor set.
    "two-branch-loops": bytes.fromhex(
        "60003561002457600060035b801561001e57809101906001900361000b565b50600055"
        "005b600060045b801561003c578091019060019003610029565b5060015500"
    ),
}


@pytest.mark.parametrize("name", sorted(_LOOPING))
@pytest.mark.parametrize("argv", [("loops",), ("rbr",), ("cfg", "--dot")], ids=" ".join)
def test_stdout_does_not_follow_the_hash_seed(name, argv):
    # The loop search walks successor sets in hash order, and the rule and
    # block orders are taken as given; none of it may reach stdout.
    outs = [
        cli_process(argv[0], "-", *argv[1:], stdin=_LOOPING[name].hex(), PYTHONHASHSEED=seed)
        for seed in ("0", "12345")
    ]
    assert [out.returncode for out in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stderr == outs[1].stderr
    if argv == ("loops",):
        assert outs[0].stdout != "loops: 0\n"


def test_diagnostics_go_to_stderr():
    # jumpi on a pushed constant triggers the guard-fallback warning; run as
    # a real subprocess so stream separation is observed end to end
    result = cli_process("rbr", "-", stdin=CORPUS["jumpi_const"].hex())
    assert result.returncode == 0
    assert "no guard pattern" not in result.stdout
    assert "no guard pattern" in result.stderr


_REPEATED_CALLS = """
import io, logging, sys
from contextlib import redirect_stderr, redirect_stdout
from evmrbr.cli import _loop_report, main

def call():
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        main(["rbr", "-"])
    return err.getvalue()

code = sys.stdin.read()
for _ in range(2):
    sys.stdin = io.StringIO(code)
    print(repr(call()))
own = io.StringIO()
logging.basicConfig(stream=own, format="own %(message)s")
sys.stdin = io.StringIO(code)
print(repr(call()), repr(own.getvalue()), len(logging.root.handlers))
"""


def test_each_call_warns_on_its_own_stderr():
    # A fresh process, so that no handler of the test runner is installed.
    result = python_process("-c", _REPEATED_CALLS, stdin="60003561000857005b00")
    warning = "block 0: no guard pattern, testing the raw condition\n"
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        repr("WARNING: " + warning),
        repr("WARNING: " + warning),
        f"'' {'own ' + warning!r} 1",
    ]


def test_wide_storage_key_warns_in_one_line():
    result = cli_process("check", "-", "--runs", "2", stdin=_EIP1967_STORE)
    assert result.returncode == 0
    assert result.stdout == "divergences: 0/2\n"
    assert result.stderr == (
        "WARNING: 1 constant storage key(s) at or above 256 translated as non-constant\n"
    )

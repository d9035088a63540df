import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rv32mc import disassemble, load_hex_file, parse_hex, selfcheck
from rv32mc.cli import TRACE_BLOCK_LINES, dispatch
from rv32mc.harness import DEVICE_NAMES
from rv32mc.memory import UnifiedMemory
from rv32mc.programs import DEMO, PACER

GOLDEN_DEMO_TRACE = [
    "1,executing,fetch,00000000,00500093,addi x1, x0, 5,0",
    "2,executing,decode,00000000,00500093,addi x1, x0, 5,0",
    "3,executing,execute,00000000,00500093,addi x1, x0, 5,0",
    "4,executing,alu_writeback,00000000,00500093,addi x1, x0, 5,1",
    "5,executing,fetch,00000004,0000006f,jal x0, 0,0",
    "6,executing,decode,00000004,0000006f,jal x0, 0,0",
    "7,executing,jump_link,00000004,0000006f,jal x0, 0,0",
    "8,executing,alu_writeback,00000004,0000006f,jal x0, 0,1",
]


@pytest.fixture
def demo_hex(tmp_path):
    src = tmp_path / "demo.s"
    src.write_text(DEMO)
    out = tmp_path / "demo.hex"
    assert dispatch(["asm", str(src), "-o", str(out)]) == 0
    return out


def kv_run(path, capsys, *extra):
    code = dispatch(["run", str(path), "--format", "kv", *extra])
    out = capsys.readouterr().out
    return code, dict(line.split("=", 1) for line in out.strip().splitlines())


def test_asm_writes_expected_hex(demo_hex):
    assert demo_hex.read_text() == "00500093\n0000006f\n"


def test_asm_dis_round_trip(demo_hex, capsys):
    assert dispatch(["dis", str(demo_hex)]) == 0
    assert capsys.readouterr().out == "addi x1, x0, 5\njal x0, 0\n"


def test_run_demo_report(demo_hex, capsys):
    code, kv = kv_run(demo_hex, capsys)
    assert code == 0
    assert kv["retired_total"] == "2"
    assert kv["total_cycles"] == "8"
    assert kv["cpi"] == "4"
    assert kv["avg_power_uw"] == "859"
    assert kv["halt_reason"] == "self_loop"


def test_run_trace_matches_golden(demo_hex, capsys):
    assert dispatch(["run", str(demo_hex), "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[: len(GOLDEN_DEMO_TRACE)] == GOLDEN_DEMO_TRACE


def test_output_is_deterministic(demo_hex, capsys):
    dispatch(["run", str(demo_hex), "--trace"])
    first = capsys.readouterr().out
    dispatch(["run", str(demo_hex), "--trace"])
    assert capsys.readouterr().out == first


def test_run_budget_exhaustion_exit_code(tmp_path, capsys):
    src = tmp_path / "loop.s"
    src.write_text("top: addi x1, x1, 1\nbeq x0, x0, -4\n")
    out = tmp_path / "loop.hex"
    dispatch(["asm", str(src), "-o", str(out)])
    code = dispatch(["run", str(out), "--max-cycles", "10"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error[budget]:")


def test_run_fault_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.hex"
    bad.write_text("ffffffff\n")
    code = dispatch(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error[fault]:")
    assert "pc=0x00000000" in err


def test_asm_error_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.s"
    src.write_text("addi x1, x0\n")
    code = dispatch(["asm", str(src), "-o", str(tmp_path / "x.hex")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[asm]:")
    assert "line 1" in err


@pytest.mark.parametrize("command", ["run", "dis"])
def test_signed_hex_address_record_exit_code(tmp_path, capsys, command):
    # `@-1` would place the image at byte address -4.
    bad = tmp_path / "bad.hex"
    bad.write_text("@-1\n0000006f\n")
    assert_input_error(dispatch([command, str(bad)]), capsys)


@pytest.mark.parametrize("text", ["@40000000\n00000013\n", "@3fffffff\n00000013\n00000013\n# c\n"],
                         ids=["record", "second-word"])
def test_hex_past_2_32_exit_code(tmp_path, capsys, text):
    image, script = tmp_path / "far.hex", tmp_path / "far.txt"
    image.write_text(text)
    script.write_text("load far.hex\n")
    for argv in (["dis", str(image)], ["run", str(image)], ["script", str(script)]):
        err = assert_input_error(dispatch(argv), capsys)
        assert "past the last word address" in err, argv


def test_an_image_spanning_more_than_the_largest_memory_exit_code(tmp_path, capsys):
    # Each spans 4 GiB; zero-filled, its gap alone would be a 2^30-entry list.
    source, image, script = tmp_path / "far.s", tmp_path / "far.hex", tmp_path / "far.txt"
    source.write_text("addi x1, x0, 1\n.org 0xfffffff8\naddi x1, x0, 1\n")
    image.write_text("00000000\n@3fffffff\n00000001\n")
    script.write_text("load far.hex\n")
    for argv in (["asm", str(source), "-o", str(tmp_path / "out.hex")], ["dis", str(image)],
                 ["run", str(image)], ["script", str(script)]):
        gc.collect()
        tracemalloc.start()
        try:
            code = dispatch(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = assert_input_error(code, capsys)
        assert "16 MiB of the largest memory" in err and peak < 2 * 2**20, (argv, peak)
    assert not (tmp_path / "out.hex").exists()


def test_image_beyond_memory_exit_code(tmp_path, capsys):
    # Parses, but its one word lands at 0x1000, past the default 4 KiB memory.
    far = tmp_path / "far.hex"
    far.write_text("@400\n0000006f\n")
    code = dispatch(["run", str(far)])
    assert capsys.readouterr().err.startswith("error[input]:")
    assert code == 2


@pytest.mark.parametrize("flag", ["--report", "--dump-mem"])
def test_unwritable_output_path_exit_code(demo_hex, tmp_path, capsys, flag):
    code = dispatch(["run", str(demo_hex), flag, str(tmp_path / "missing" / "out.txt")])
    captured = capsys.readouterr()
    assert "final pc       : 0x00000004" in captured.out  # the report still prints
    assert captured.err.startswith("error[output]:") and captured.err.count("\n") == 1
    assert code == 2


def test_script_image_beyond_memory_exit_code(tmp_path, capsys):
    # 2000 words are 8000 bytes, past the default 4 KiB memory; `run` of the
    # same image is an input error, and so is a script that loads it.
    (tmp_path / "big.hex").write_text("00000000\n" * 2000)
    script = tmp_path / "big.txt"
    script.write_text("run 1\nload big.hex\n")
    code = dispatch(["script", str(script)])
    captured = capsys.readouterr()
    assert captured.out == ""  # found before the first step runs
    assert captured.err.startswith("error[script]:") and captured.err.count("\n") == 1
    assert code == 2
    assert dispatch(["run", str(tmp_path / "big.hex")]) == 2


def test_asm_negative_base_exit_code(demo_hex, tmp_path, capsys):
    src = tmp_path / "demo.s"
    out = tmp_path / "neg.hex"
    assert_input_error(dispatch(["asm", str(src), "-o", str(out), "--base", "-4"]), capsys)
    assert not out.exists()


def test_asm_org_past_2_32_exit_code(tmp_path, capsys):
    src, out = tmp_path / "far.s", tmp_path / "far.hex"
    src.write_text(".org 0x100000000\naddi x2, x0, 2\n")
    assert_input_error(dispatch(["asm", str(src), "-o", str(out)]), capsys)
    assert not out.exists()


def test_missing_input_exit_code(tmp_path, capsys):
    assert dispatch(["dis", str(tmp_path / "nope.hex")]) == 2
    assert capsys.readouterr().err.startswith("error[dis]:")


def test_dump_mem_is_reloadable(demo_hex, tmp_path, capsys):
    dump = tmp_path / "mem.hex"
    assert dispatch(["run", str(demo_hex), "--dump-mem", str(dump)]) == 0
    capsys.readouterr()
    image = parse_hex(dump.read_text())
    assert image.words[0] == 0x00500093
    assert len(image.words) == 1024


def test_report_file(demo_hex, tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert dispatch(["run", str(demo_hex), "--report", str(report)]) == 0
    stdout = capsys.readouterr().out
    assert report.read_text().strip() == stdout.strip()


def test_run_pacer_with_default_peripherals(tmp_path, capsys):
    src = tmp_path / "pacer.s"
    src.write_text(PACER)
    out = tmp_path / "pacer.hex"
    dispatch(["asm", str(src), "-o", str(out)])
    code, kv = kv_run(out, capsys)
    assert code == 0
    assert kv["retired_total"] == "53"
    assert kv["total_cycles"] == "212"


def test_peripheral_map_file(tmp_path, capsys):
    src = tmp_path / "touch.s"
    # x1 = 0x2000, write the control register of the remapped device
    src.write_text("addi x1, x0, 1\nslli x1, x1, 13\nsw x0, 0(x1)\njal x0, 0\n")
    out = tmp_path / "touch.hex"
    dispatch(["asm", str(src), "-o", str(out)])
    pmap = tmp_path / "devices.json"
    pmap.write_text('{"devices": [{"name": "telemetry", "base": 8192}]}')
    code, kv = kv_run(out, capsys, "--peripheral-map", str(pmap))
    assert code == 0
    # without the map the same store faults
    assert dispatch(["run", str(out)]) == 3
    assert "error[fault]" in capsys.readouterr().err


def test_script_subcommand(tmp_path, capsys):
    demo_src = tmp_path / "demo.s"
    demo_src.write_text(DEMO)
    dispatch(["asm", str(demo_src), "-o", str(tmp_path / "demo.hex")])
    capsys.readouterr()
    script = tmp_path / "bringup.txt"
    script.write_text("load demo.hex\nreset\nstart\nrun 8\nstop\nobserve 0 8\n")
    assert dispatch(["script", str(script)]) == 0
    out = capsys.readouterr().out
    assert "# run 8: 8 executing, 0 held" in out
    assert parse_hex(out).words == [0x00500093, 0x0000006F]


def test_script_validation_exit_code(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("start\n")
    assert dispatch(["script", str(script)]) == 2
    assert capsys.readouterr().err.startswith("error[script]:")


def test_selftest(capsys):
    assert dispatch(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: golden encodings: PASS" in out
    assert out.strip().endswith("selftest: PASS")


# The codec round-trips every word it decodes, so only a wrong encoder
# reaches the re-encode line.
@pytest.mark.parametrize("entry, encoder, line", [
    (("addi x1, x0, 1", 0x00100094), None,
     "selftest: FAIL encode 'addi x1, x0, 1': got 0x00100093, want 0x00100094"),
    (("addi x1, x0, 1", 0x00100093), lambda ins: 0, "selftest: FAIL re-encode 0x00100093"),
    (("addi x1, x0, 0x1", 0x00100093), None, "selftest: FAIL disassemble 0x00100093"),
], ids=["encode", "re-encode", "disassemble"])
def test_selftest_names_a_wrong_golden_encoding(monkeypatch, entry, encoder, line):
    monkeypatch.setattr(selfcheck, "GOLDEN_ENCODINGS", [entry])
    if encoder is not None:
        monkeypatch.setattr(selfcheck, "encode", encoder)
    lines = []
    assert not selfcheck._check_codec(lines.append)
    assert lines == [line, "selftest: golden encodings: FAIL (1 entries)"]


def assert_input_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[") and err.count("\n") == 1, err
    return err


# A size above the 16 MiB bound, and the message that names the bound.
TOO_BIG = "0x1000004"
TOO_BIG_ERROR = "error[input]: size_bytes=16777220 is above the 0x1000000-byte maximum\n"


@pytest.mark.parametrize("size", ["4097", "0", "-4", TOO_BIG])
def test_script_bad_mem_size_exit_code(tmp_path, capsys, size):
    script = tmp_path / "s.txt"
    script.write_text("reset\n")
    err = assert_input_error(dispatch(["script", str(script), "--mem-size", size]), capsys)
    # Memory checks the size before a device is placed above it.
    if size == TOO_BIG:
        assert err == TOO_BIG_ERROR
    else:
        assert err == f"error[input]: size_bytes={size} must be a positive multiple of 4\n"


@pytest.mark.parametrize("command", ["run", "script"])
def test_run_and_script_build_one_memory(demo_hex, tmp_path, capsys, monkeypatch, command):
    # The `--mem-size` check builds no memory of its own.
    built, init = [], UnifiedMemory.__init__
    monkeypatch.setattr(UnifiedMemory, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    target = demo_hex
    if command == "script":
        target = tmp_path / "bringup.txt"
        target.write_text("load demo.hex\nreset\nstart\nrun 8\n")
    assert dispatch([command, str(target), "--mem-size", "8192"]) == 0
    assert built == [(8192,)]


@pytest.mark.parametrize(
    "flag", [["--mem-size", "4097"], ["--max-cycles", "0"], ["--pj-per-cycle", "nan"],
             ["--freq-hz", "inf"], ["--mem-size", TOO_BIG]],
)
def test_run_bad_flag_exit_code(demo_hex, capsys, flag):
    err = assert_input_error(dispatch(["run", str(demo_hex), *flag]), capsys)
    if flag == ["--mem-size", TOO_BIG]:
        assert err == TOO_BIG_ERROR
    elif flag[0] == "--mem-size":  # checked by memory, before a device is placed above it
        assert err == f"error[input]: size_bytes={flag[1]} must be a positive multiple of 4\n"


def test_any_mem_size_exits_0_or_2_and_memory_stays_bounded(demo_hex, capsys):
    # A size far above the bound is refused before memory of that size is built.
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.integers(1, 4096).map(lambda w: 4 * w),  # valid, up to 16 KiB
        st.integers(-2**64, 0),
        st.integers(1, 2**64).filter(lambda n: n % 4),
        st.integers(0x1000001, 0x1000400),  # just above the bound
        st.integers(2**40, 2**64),  # no machine could build these
    ))
    def run(size):
        code = dispatch(["run", str(demo_hex), "--mem-size", str(size)])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error[input]: ") and err.count("\n") == 1, err
            assert "Traceback" not in err

    run()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 64 * 1024


def test_mem_size_at_the_bound_runs(demo_hex, capsys):
    assert dispatch(["run", str(demo_hex), "--mem-size", "0x1000000"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "devices",
    ["[1]", '[{"base": 8192}]', '[{"name": "pacing", "base": 1e999}]',
     '[{"name": "pacing", "base": 8192, "span": true}]', '{"device": []}', "[{",
     "[" * 100_000 + "]" * 100_000,
     '[{"name": "pacing", "base": 8192}, {"name": "pacing", "base": 8208}]',
     '[{"name": "pacing", "base": 4294967296}]'],
    ids=["int", "no-name", "inf-base", "bool-span", "no-devices-key", "bad-json", "deep",
         "repeated-name", "past-address-space"],
)
def test_bad_device_map_exit_code(demo_hex, tmp_path, capsys, devices):
    pmap = tmp_path / "devices.json"
    pmap.write_text(devices)
    assert_input_error(dispatch(["run", str(demo_hex), "--peripheral-map", str(pmap)]), capsys)


def test_negative_device_base_exit_code(demo_hex, tmp_path, capsys):
    pmap = tmp_path / "devices.json"
    pmap.write_text('[{"name": "pacing", "base": -16}]')
    code = dispatch(["run", str(demo_hex), "--peripheral-map", str(pmap)])
    assert capsys.readouterr().err == "error[input]: device 'pacing': base -16 is below address 0\n"
    assert code == 2


# --- generated inputs: every one ends in a documented exit code ---

def dispatch_quietly(argv):
    """Exit code of one CLI call, argparse's usage exit included."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return dispatch(argv)
        except SystemExit as e:
            return e.code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, src in (("demo", DEMO), ("pacer", PACER)):
        (d / f"{name}.s").write_text(src)
        assert dispatch_quietly(["asm", str(d / f"{name}.s"), "-o", str(d / f"{name}.hex")]) == 0
    (d / "big.hex").write_text("00000000\n" * 2000)
    return d


_number = st.one_of(
    st.integers(-8, 5000).map(str), st.sampled_from(["0x10", "-0x4", "0b100", "1_0", "many"])
)
_command = st.one_of(
    st.sampled_from(["demo.hex", "pacer.hex", "big.hex", "missing.hex"]).map("load ".__add__),
    st.sampled_from(["reset", "start", "stop", "RESET", "start # go"]),
    st.integers(-10, 10**4).map(lambda n: f"run {n}"),
    st.tuples(st.integers(0, 1100), st.integers(0, 64)).map(
        lambda a: f"observe {4 * a[0]} {4 * a[1]}"
    ),
)
_any_line = st.one_of(
    _command,
    st.tuples(_number, _number).map(lambda a: f"observe {a[0]} {a[1]}"),
    st.lists(st.one_of(_number, st.sampled_from(["load", "run", "observe"])), max_size=4)
    .map(" ".join),
    st.text(max_size=12),
)
_script = st.one_of(st.lists(_command, max_size=8), st.lists(_any_line, max_size=8))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=_script)
def test_generated_scripts_exit_cleanly(fuzz_dir, lines):
    script = fuzz_dir / "gen.txt"
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert dispatch_quietly(["script", str(script)]) in {0, 2, 3, 4}


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=6)
)
_device = st.dictionaries(
    st.sampled_from(["name", "base", "span", "irq"]),
    st.one_of(
        st.sampled_from([*DEVICE_NAMES, "radio"]),
        st.sampled_from([0, 4, 2048, 4096, 4100, 4112, 8192, 2**40, 2**64]),
        _json_leaf,
    ),
)
_mappable = st.fixed_dictionaries(
    {"name": st.sampled_from(DEVICE_NAMES), "base": st.sampled_from([4096, 4112, 8192, 2**40])},
    optional={"span": st.sampled_from([4, 16, 2**40])},
)
_device_map = st.one_of(
    st.lists(_mappable, max_size=3),
    st.lists(_device, max_size=5),
    st.lists(_device, max_size=5).map(lambda ds: {"devices": ds}),
    st.recursive(_json_leaf, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=8),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=_device_map, program=st.sampled_from(["demo.hex", "pacer.hex"]))
def test_generated_device_maps_exit_cleanly(fuzz_dir, config, program):
    pmap = fuzz_dir / "gen.json"
    pmap.write_text(json.dumps(config))
    argv = ["run", str(fuzz_dir / program), "--peripheral-map", str(pmap)]
    assert dispatch_quietly(argv) in {0, 2, 3, 4}


def test_script_observe_beyond_memory_exit_code(demo_hex, tmp_path, capsys):
    # 8192 bytes from 0 pass the 4 KiB memory: found before the first step runs.
    script = tmp_path / "far.txt"
    script.write_text("load demo.hex\nreset\nstart\nrun 8\nobserve 0 8192\n")
    capsys.readouterr()
    code = dispatch(["script", str(script)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[script]: line 5: addr=0x00000000: observe range beyond 4096-byte memory\n"
    )
    assert code == 2


def test_script_observe_of_nothing_past_the_last_word_exit_code(tmp_path, capsys):
    # An empty range at 2^32 has no `@` record to echo it: refused at parse.
    script = tmp_path / "far.txt"
    script.write_text("observe 0x100000000 0\n")
    code = dispatch(["script", str(script)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[script]: line 1: addr=0x100000000:"
        " observe range beyond the last word address 0xfffffffc\n"
    )
    assert code == 2


def test_script_load_of_bad_hex_names_script_line_and_file(tmp_path, capsys):
    (tmp_path / "bad.hex").write_text("zz\n")
    script = tmp_path / "bad.txt"
    script.write_text("reset\n# x\nload bad.hex\n")
    code = dispatch(["script", str(script)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[script]: line 3: bad.hex: line 1: bad hex word 'zz'\n"
    assert code == 2


def test_script_load_of_missing_file_names_script_line_and_file(tmp_path, capsys):
    script = tmp_path / "missing.txt"
    script.write_text("reset\nload nope.hex\n")
    code = dispatch(["script", str(script)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[script]: line 2: nope.hex: ")
    assert code == 2


def test_script_load_fit_error_names_its_line(demo_hex, tmp_path, capsys):
    (tmp_path / "big.hex").write_text("00000000\n" * 2000)
    script = tmp_path / "big.txt"
    script.write_text("load demo.hex\n# the next image is 8000 bytes\nload big.hex\n")
    capsys.readouterr()
    code = dispatch(["script", str(script)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[script]: line 3: ")
    assert code == 2


def test_script_fault_exit_code(tmp_path, capsys):
    (tmp_path / "bad.hex").write_text("00500093\n00000067\n")
    script = tmp_path / "fault.txt"
    script.write_text("load bad.hex\nreset\nstart\nrun 12\n")
    code = dispatch(["script", str(script)])
    captured = capsys.readouterr()
    assert captured.out == (
        "# load bad.hex: 2 words at 0x00000000\n# reset: pc=0\n# start: executing\n"
    )
    assert captured.err == (
        "error[fault]: pc=0x00000004: state=decode: opcode 0b1100111 in 0x00000067\n"
    )
    assert code == 3


def test_run_misaligned_device_access_exit_code(tmp_path, capsys):
    src = tmp_path / "mmio.s"
    # x1 = 0x1000, the first device word; 0x1002 is inside it but not word-aligned
    src.write_text("addi x1, x0, 1\nslli x1, x1, 12\nlw x2, 2(x1)\n")
    out = tmp_path / "mmio.hex"
    dispatch(["asm", str(src), "-o", str(out)])
    code = dispatch(["run", str(out)])
    assert capsys.readouterr().err == (
        "error[fault]: pc=0x00000008: state=mem_read: addr=0x00001002:"
        " device registers are word-wide\n"
    )
    assert code == 3


def test_script_observe_stops_a_running_core(demo_hex, tmp_path, capsys):
    script = tmp_path / "observe.txt"
    script.write_text("load demo.hex\nreset\nstart\nrun 6\nobserve 0 8\nrun 4\n")
    capsys.readouterr()
    assert dispatch(["script", str(script)]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("# observe 0x00000000 +8")
    assert lines[at + 1] == "# execution stopped by observation; issue 'start' to resume"
    assert lines[-1] == "# run 4: 0 executing, 4 held"


def _first_line_then_close(*argv: str) -> tuple[int, bytes, str]:
    """Run the CLI as a process whose stdout reader goes away after one
    line; its exit code, that line and its stderr."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.Popen([sys.executable, "-m", "rv32mc.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=60), first, err


def test_closed_stdout_exits_2_with_one_output_error(tmp_path):
    # About 22k trace lines: far more than a pipe holds, so the run is
    # still writing when its reader goes away after the first line.
    src = tmp_path / "loop.s"
    src.write_text("        addi  x1, x0, 2000\n"
                   "loop:   addi  x1, x1, -1\n"
                   "        beq   x1, x0, done\n"
                   "        jal   x0, loop\n"
                   "done:   jal   x0, done\n")
    hex_path = tmp_path / "loop.hex"
    assert dispatch(["asm", str(src), "-o", str(hex_path)]) == 0
    code, first, err = _first_line_then_close("run", str(hex_path), "--trace")
    assert code == 2
    assert first.startswith(b"1,executing,fetch,00000000,")
    assert len(err.splitlines()) == 1 and err.startswith("error[output]: "), err


def test_dis_to_closed_stdout_exits_2_with_one_output_error(tmp_path):
    # A 20k-line listing, about 300 KiB: one write of it all, cut short
    # when the reader goes, raised nothing and exited 0.
    hex_path = tmp_path / "big.hex"
    hex_path.write_text("00500093\n0000006f\n" * 10_000)
    code, first, err = _first_line_then_close("dis", str(hex_path))
    assert code == 2
    assert first == b"addi x1, x0, 5\n"
    assert len(err.splitlines()) == 1 and err.startswith("error[output]: "), err


class _Digest:
    """A stdout that keeps a digest of what is written, not the text, and
    the line count of each write."""

    def __init__(self):
        self.sha, self.lines = hashlib.sha256(), []

    def write(self, text):
        self.sha.update(text.encode())
        self.lines.append(text.count("\n"))

    def flush(self):
        pass


def test_dis_formats_and_writes_one_block_at_a_time(tmp_path):
    # 2^18 zero words between two instructions: 262,145 listing lines, about
    # 4.5 MB of text, never held whole; the image's word list is 2 MiB.
    hex_path = tmp_path / "gap.hex"
    hex_path.write_text("00000013\n@40000\n0000006f\n")
    out = _Digest()
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert dispatch(["dis", str(hex_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = disassemble(load_hex_file(str(hex_path)))
    assert out.sha.digest() == hashlib.sha256(expected.encode()).digest()
    assert len(out.lines) == 1025 and max(out.lines) <= TRACE_BLOCK_LINES
    assert peak < 8 * 2**20, peak

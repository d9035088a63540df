import gc
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from rv32mc import (
    ControlMode,
    Core,
    HaltReason,
    InstrClass,
    MemoryImage,
    PeripheralMap,
    Simulator,
    SystemBus,
    UnifiedMemory,
    assemble,
    execute_script,
    parse_hex,
    parse_script,
)
from rv32mc.errors import (
    MisalignedAccess,
    OutOfRange,
    ScriptError,
    UnmappedAddress,
    UnsupportedInstruction,
    WriteForbiddenInMode,
)
from rv32mc.harness import DEVICE_SPAN, Peripheral
from rv32mc.programs import PACER

DEMO = "addi x1, x0, 5\njal x0, 0\n"


# --- bring-up protocol ---

def test_program_and_start_end_to_end():
    sim = Simulator()
    sim.program_and_start(assemble(DEMO))
    assert sim.core.mode is ControlMode.EXECUTING
    assert sim.core.pc == 0
    report = sim.core.run(sim.bus)
    assert sim.core.regs[1] == 5
    assert report.halt_reason is HaltReason.SELF_LOOP


def test_program_and_start_twice_restarts():
    sim = Simulator()
    sim.program_and_start(assemble(DEMO))
    sim.core.run(sim.bus)
    sim.program_and_start(assemble("addi x2, x0, 9\njal x0, 0\n"))
    assert sim.core.pc == 0
    sim.core.run(sim.bus)
    assert sim.core.regs[2] == 9
    # the second image overwrote the words it covers
    assert sim.mem.read_word(0) == assemble("addi x2, x0, 9").words[0]


def test_program_and_start_empty_image_faults_at_word_zero():
    sim = Simulator()
    sim.program_and_start(MemoryImage(0, []))
    with pytest.raises(UnsupportedInstruction) as exc:
        sim.core.run(sim.bus)
    assert exc.value.pc == 0


def test_failed_load_leaves_observation_mode():
    sim = Simulator()
    with pytest.raises(OutOfRange):
        sim.program_and_start(MemoryImage(0, [0] * 2000))
    assert sim.core.mode is ControlMode.OBSERVATION


def test_external_write_rejected_while_executing():
    sim = Simulator()
    sim.program_and_start(assemble(DEMO))
    with pytest.raises(WriteForbiddenInMode):
        sim.mem.load_image(MemoryImage(0, [0]), sim.core.mode)


def test_bring_up_reports_are_identical_across_runs():
    def fresh_report():
        sim = Simulator()
        sim.program_and_start(assemble("lw x1, 64(x0)\nsw x1, 68(x0)\njal x0, 0\n"))
        return sim.core.run(sim.bus)

    assert fresh_report() == fresh_report()


# --- observation ---

def test_observe_returns_loaded_image():
    sim = Simulator()
    image = assemble(DEMO)
    sim.core.apply_control(ie=0, reset=0, write_enable=1)
    sim.mem.load_image(image, sim.core.mode)
    result = sim.observe(0, 4 * len(image.words))
    assert result.image == image
    assert not result.execution_stopped
    assert sim.core.mode is ControlMode.PROGRAMMING  # prior mode restored


def test_observe_does_not_mutate_memory():
    sim = Simulator()
    sim.program_and_start(assemble(DEMO))
    before = list(sim.mem.words)
    sim.observe(0, 64)
    assert sim.mem.words == before


def test_observe_stops_executing_core_without_resume():
    sim = Simulator()
    sim.program_and_start(assemble(DEMO))
    result = sim.observe(0, 8)
    assert result.execution_stopped
    assert sim.core.mode is ControlMode.OBSERVATION
    held = sim.core.step_cycle(sim.bus)
    assert held.held  # still stopped until an explicit start
    sim.core.apply_control(ie=1, reset=0)
    report = sim.core.run(sim.bus)
    assert report.halt_reason is HaltReason.SELF_LOOP


def test_observe_range_errors():
    sim = Simulator()
    with pytest.raises(OutOfRange):
        sim.observe(4096, 4)
    with pytest.raises(OutOfRange):
        sim.observe(4092, 8)
    with pytest.raises(MisalignedAccess):
        sim.observe(2, 4)
    with pytest.raises(MisalignedAccess):
        sim.observe(0, 6)


def test_observe_under_held_reset_changes_nothing():
    sim = Simulator()
    sim.core.apply_control(ie=0, reset=1)
    before = sim.core.snapshot()
    assert sim.run_cycles(5) == (0, 5)
    result = sim.observe(0, 8)
    assert not result.execution_stopped
    assert sim.core.mode is ControlMode.RESET_HOLD
    assert sim.core.snapshot() == before


@pytest.mark.parametrize("lines", [(1, 0, 0), (0, 0, 0)], ids=["executing", "observation"])
def test_run_cycles_refuses_a_negative_count(lines):
    sim = Simulator()
    sim.program_and_start(assemble(DEMO))
    sim.core.apply_control(*lines)
    before = sim.core.snapshot()
    with pytest.raises(ValueError, match="-3"):
        sim.run_cycles(-3)
    assert sim.core.snapshot() == before
    assert sim.run_cycles(0) == (0, 0)
    assert sim.core.snapshot() == before


def _range_outcome(call, *args):
    try:
        call(*args)
    except (MisalignedAccess, OutOfRange) as e:
        return type(e), e.addr
    return None


# A few bytes either side of memory's start and end, aligned or not.
_NEAR_START = st.integers(-12, 12)
_NEAR_END = st.integers(4096 - 12, 4096 + 12)


@settings(max_examples=200, deadline=None)
@given(addr=st.one_of(_NEAR_START, _NEAR_END), nbytes=st.one_of(st.integers(0, 12), _NEAR_END))
@example(addr=4096, nbytes=0)
@example(addr=8192, nbytes=0)
@example(addr=-4, nbytes=0)  # an empty image at -4 would print as `@-1`, which does not reload
def test_observe_dump_and_fit_share_one_range_rule(addr, nbytes):
    if addr % 4 or nbytes % 4:
        expected = (MisalignedAccess, addr)
    elif addr < 0 or nbytes and addr + nbytes > 4096:
        expected = (OutOfRange, addr)
    else:
        expected = None  # inside memory, or empty at an aligned address >= 0
    sim = Simulator()
    sim.program_and_start(assemble(DEMO))
    assert _range_outcome(sim.observe, addr, nbytes) == expected
    # a refused range stops nothing; an accepted one stops the running core
    assert (sim.core.mode is ControlMode.EXECUTING) == (expected is not None)
    if nbytes % 4 == 0:
        count = nbytes // 4
        assert _range_outcome(sim.mem.dump_image, addr, count) == expected
        assert _range_outcome(sim.mem.check_fits, MemoryImage(addr, [0] * count)) == expected


# --- peripherals ---

def test_mmio_write_then_read():
    pmap = PeripheralMap.default(4096)
    pmap.dispatch(0x1008, "write", value=0x1234, cycle=7)
    assert pmap.dispatch(0x1008, "read", cycle=9) == 0x1234
    log = pmap.device("pacing").event_log
    assert [(r.cycle, r.access, r.value) for r in log] == [
        (7, "write", 0x1234),
        (9, "read", 0x1234),
    ]


def test_mmio_gap_is_unmapped():
    pmap = PeripheralMap.default(4096)
    with pytest.raises(UnmappedAddress):
        pmap.dispatch(0x1050 + 0x100, "read")


def test_unmapped_vs_out_of_range_are_distinct():
    bare = Simulator()  # no peripherals: plain memory bound
    with pytest.raises(OutOfRange):
        bare.bus.read_word(0x1000)
    mapped = Simulator(peripherals=PeripheralMap.default(4096))
    assert mapped.bus.read_word(0x1000) == 0
    with pytest.raises(UnmappedAddress):
        mapped.bus.read_word(0x2000)
    assert not isinstance(UnmappedAddress("x"), OutOfRange)


def test_device_map_validation():
    with pytest.raises(ValueError):
        PeripheralMap([Peripheral("pacing", 0x1000), Peripheral("sensing", 0x1008)])
    # `device("pacing")` would find one of the two and miss the other's accesses.
    with pytest.raises(ValueError, match="^device 'pacing' is named twice$"):
        PeripheralMap([Peripheral("pacing", 0x2000), Peripheral("pacing", 0x2010)])
    with pytest.raises(ValueError):
        Peripheral("radio", 0x1000)
    with pytest.raises(ValueError):
        Simulator(peripherals=PeripheralMap([Peripheral("pacing", 0x800)]))
    for base, span in ((0x1002, 16), (0x1000, 6)):
        with pytest.raises(ValueError, match="must be multiples of 4, span positive$"):
            Peripheral("pacing", base, span)
    # No 32-bit address reaches a device past 2^32; one ending there is reachable.
    for base, span in ((1 << 32, 16), (0xFFFFFFF0, 20), (1 << 70, 16)):
        with pytest.raises(
            ValueError, match=rf"^device 'pacing': \[{base:#x}, \+{span}\) ends past 2\^32$"
        ):
            Peripheral("pacing", base, span)
    assert Peripheral("pacing", 0xFFFFFFF0).base + DEVICE_SPAN == 1 << 32
    devices = PeripheralMap.default(4096)
    with pytest.raises(KeyError):
        devices.device("radio")
    with pytest.raises(ValueError, match="^access must be 'read' or 'write', not 'erase'$"):
        devices.dispatch(0x1000, "erase")
    assert not devices.device("pacing").event_log


def test_device_base_below_zero_is_refused_by_name():
    for config in ([{"name": "pacing", "base": -16}], [{"name": "egm", "base": -4, "span": 8}]):
        name, base = config[0]["name"], config[0]["base"]
        with pytest.raises(ValueError, match=f"^device '{name}': base {base} is below address 0$"):
            PeripheralMap.from_config(config)


def test_system_bus_owns_the_memory_device_boundary():
    low = PeripheralMap([Peripheral("pacing", 0xFFC)])
    with pytest.raises(ValueError, match="^device 'pacing' overlaps memory$"):
        Simulator(peripherals=low)
    with pytest.raises(ValueError, match="^device 'pacing' overlaps memory$"):
        SystemBus(4096, low, Core())
    core = Core()
    bus = SystemBus(4096, PeripheralMap.default(4096), core)
    core.cycle_count = 41
    assert bus.read_word(0xFFC) == 0  # the last memory word
    assert bus.read_word(0x1000) == 0  # the first device word, stamped by the core
    assert [r.cycle for r in bus.peripherals.device("pacing").event_log] == [41]
    # A memory with devices above it is a memory: one object is both.
    for sim in (Simulator(), Simulator(peripherals=PeripheralMap.default(4096))):
        assert sim.bus is sim.mem and isinstance(sim.mem, UnifiedMemory)
    image = MemoryImage(0xFF8, [7, 0xFFFFFFFF])
    assert bus.load_image(image, ControlMode.PROGRAMMING) == 2
    assert bus.dump_image(0xFF8, 2) == image and bus.read_word(0xFFC) == 0xFFFFFFFF
    sim = Simulator(peripherals=PeripheralMap.default(4096))
    sim.load(image)
    assert sim.observe(0xFF8, 8).image == image
    assert sim.mem.read_word(0x1000) == 0  # a device address reaches the device


def test_simulator_with_devices_is_freed_without_the_cycle_collector():
    # Nothing on the bus refers back to the Simulator, so its memory and
    # device logs are freed when the last reference goes, not at a later
    # collection.
    gc.disable()
    try:
        sim = Simulator(peripherals=PeripheralMap.default(4096))
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_negative_address_renders_with_its_sign():
    with pytest.raises(OutOfRange) as exc:
        Simulator().observe(-4, 0)
    assert str(exc.value) == "addr=-0x00000004: observe range beyond 4096-byte memory"
    with pytest.raises(UnmappedAddress) as exc:
        PeripheralMap.default().dispatch(-4, "read")
    assert str(exc.value) == "addr=-0x00000004: no device at address"


def test_firmware_mmio_pulse_train():
    sim = Simulator(peripherals=PeripheralMap.default(4096))
    sim.program_and_start(assemble(PACER))
    report = sim.core.run(sim.bus)
    assert report.halt_reason is HaltReason.SELF_LOOP
    pacing = sim.peripherals.device("pacing")
    writes = pacing.writes()
    assert len(writes) == report.retired[InstrClass.STORE]
    assert len(writes) == 8
    cycles = [r.cycle for r in writes]
    assert cycles == sorted(cycles) and len(set(cycles)) == len(cycles)
    reads = [r for r in sim.peripherals.device("sensing").event_log if r.access == "read"]
    assert len(reads) == 8


def test_peripheral_isolation():
    sim = Simulator(peripherals=PeripheralMap.default(4096))
    sim.program_and_start(assemble(PACER))
    mem_after_load = list(sim.mem.words)
    sim.core.run(sim.bus)
    # pacing stores landed in the device, not in memory
    assert sim.mem.words == mem_after_load
    assert sim.peripherals.device("pacing").writes()


def test_device_span_does_not_allocate_registers():
    gc.collect()
    tracemalloc.start()
    try:
        egm = Peripheral("egm", 0x1000, span=2**32 - 0x1000)  # the largest span at 0x1000
        sim = Simulator(peripherals=PeripheralMap([egm]))
        top = 2**32 - 4
        assert sim.bus.read_word(top) == 0  # unwritten registers read 0
        sim.bus.schedule_write(top, 0xABCD, ControlMode.EXECUTING)
        assert sim.bus.read_word(top) == 0xABCD
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mmio_write_forbidden_in_observation():
    sim = Simulator(peripherals=PeripheralMap.default(4096))
    with pytest.raises(WriteForbiddenInMode):
        sim.bus.schedule_write(0x1008, 1, ControlMode.OBSERVATION)


# --- bring-up scripts ---

def test_parse_script_steps(tmp_path):
    hexfile = tmp_path / "demo.hex"
    hexfile.write_text("00500093\n0000006f\n")
    text = """
# bring-up
load demo.hex
reset
start
run 8
stop
observe 0x0 8
"""
    script = parse_script(Simulator(), text, resolve=lambda p: str(tmp_path / p))
    assert len(script) == 6


def test_script_requires_reset_before_start():
    with pytest.raises(ScriptError) as exc:
        parse_script(Simulator(), "start\n")
    assert "reset" in str(exc.value)


@pytest.mark.parametrize(
    "line",
    [
        "bogus", "load", "run many", "observe 0", "run 1 2",
        "run -5", "observe 0 -4", "observe -4 4", "observe 2 4", "observe 0 6",
    ],
)
def test_script_parse_errors(line):
    with pytest.raises(ScriptError):
        parse_script(Simulator(), line + "\n")


def test_execute_script_end_to_end(tmp_path):
    hexfile = tmp_path / "demo.hex"
    hexfile.write_text("00500093\n0000006f\n")
    sim = Simulator()
    script = parse_script(
        sim,
        "load demo.hex\nreset\nstart\nrun 8\nstop\nobserve 0 8\n",
        resolve=lambda p: str(tmp_path / p),
    )
    out = []
    execute_script(sim, script, write=out.append)
    assert sim.core.regs[1] == 5  # the 8 cycles retired both instructions
    # observe output is reloadable hex
    image = parse_hex("\n".join(out))
    assert image.words == [0x00500093, 0x0000006F]


def _assert_untouched(sim):
    assert sim.core.mode is ControlMode.OBSERVATION
    assert sim.core.snapshot() == Core().snapshot()
    assert not any(sim.mem.words)


def test_failed_script_load_leaves_observation_mode(tmp_path):
    (tmp_path / "big.hex").write_text("00000000\n" * 2000)  # 8000 bytes > 4 KiB
    sim = Simulator()
    with pytest.raises(ScriptError):
        parse_script(sim, "load big.hex\n", resolve=lambda p: str(tmp_path / p))
    _assert_untouched(sim)


@pytest.mark.parametrize(
    "text, line",
    [
        ("load demo.hex\nreset\nstart\nrun 8\nobserve 0 8192\n", 5),
        ("load demo.hex\n# the next image is 8000 bytes\nload big.hex\nreset\n", 3),
    ],
)
def test_parse_script_checks_against_the_simulator(tmp_path, text, line):
    (tmp_path / "demo.hex").write_text("00500093\n0000006f\n")
    (tmp_path / "big.hex").write_text("00000000\n" * 2000)
    sim = Simulator()
    with pytest.raises(ScriptError) as exc:
        parse_script(sim, text, resolve=lambda p: str(tmp_path / p))
    assert exc.value.line == line
    assert exc.value.addr == 0
    _assert_untouched(sim)


def test_script_run_counts_held_cycles(tmp_path):
    sim = Simulator()
    script = parse_script(sim, "run 5\n")
    out = []
    execute_script(sim, script, write=out.append)
    assert "# run 5: 0 executing, 5 held" in out

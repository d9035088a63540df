"""Bundled firmware: the firmware/ files track the embedded copies."""

import pathlib

from rv32mc import HaltReason, PeripheralMap, Simulator, assemble
from rv32mc.programs import PROGRAMS

FIRMWARE_DIR = pathlib.Path(__file__).resolve().parent.parent / "firmware"


def test_firmware_files_match_embedded_sources():
    for name, text in PROGRAMS.items():
        path = FIRMWARE_DIR / f"{name}.s"
        assert path.read_text() == text, f"{path} differs from rv32mc.programs.{name.upper()}"


def test_every_bundled_program_halts():
    for name, text in PROGRAMS.items():
        sim = Simulator(peripherals=PeripheralMap.default(4096))
        sim.program_and_start(assemble(text))
        report = sim.core.run(sim.bus, max_cycles=100_000)
        assert report.halt_reason is HaltReason.SELF_LOOP, name


def test_demo_reference_numbers():
    sim = Simulator()
    sim.program_and_start(assemble(PROGRAMS["demo"]))
    report = sim.core.run(sim.bus)
    assert (report.retired_total, report.total_cycles) == (2, 8)
    assert sim.core.regs[1] == 5


def test_timing_reference_numbers():
    sim = Simulator()
    sim.program_and_start(assemble(PROGRAMS["timing"]))
    report = sim.core.run(sim.bus)
    assert (report.retired_total, report.total_cycles) == (8, 31)


def test_pacer_reference_numbers():
    sim = Simulator(peripherals=PeripheralMap.default(4096))
    sim.program_and_start(assemble(PROGRAMS["pacer"]))
    report = sim.core.run(sim.bus)
    assert (report.retired_total, report.total_cycles) == (53, 212)
    assert len(sim.peripherals.device("pacing").writes()) == 8

"""The record-free clock against the record-building one.

An untraced `Core.run`, `step_instruction` and `Simulator.run_cycles` clock
the core without building TraceRecords; a traced run and `step_cycle` build
one per cycle.  All of them run the same cycle loop, which returns at a
retirement or at a cycle limit, so they must leave the machine in the same
state wherever they stop, in the middle of an instruction or at a fault.
"""

import random

import pytest

from rv32mc import (ControlMode, HaltReason, InstrClass, PeripheralMap, Simulator, TraceRecord,
                    assemble)
from rv32mc.errors import SimError
from rv32mc.programs import PROGRAMS
from progen import random_program

IMAGES = {name: assemble(src) for name, src in PROGRAMS.items()}
IMAGES.update(
    (f"progen-{seed}", random_program(random.Random(seed), max_body=60)) for seed in range(50)
)


def started(image):
    sim = Simulator(peripherals=PeripheralMap.default())
    sim.program_and_start(image)
    return sim


def counts_agree(core):
    """The engine's retirements by mnemonic add up to its retired count."""
    return sum(core.by_mnemonic.values()) == core.retired_count


def machine_state(sim):
    """Everything a cycle can change: core temporaries, memory, device logs."""
    core = sim.core
    return (
        core.snapshot(), core.fsm, core.ir, core.decoded, core.a, core.b, core.alu_out,
        core.mdr, core.instr_pc, list(sim.mem.words), sim.mem.pending_write,
        [(d.name, dict(d.regs), list(d.event_log)) for d in sim.peripherals.devices],
    )


@pytest.mark.parametrize("name", list(IMAGES))
def test_traced_and_untraced_runs_agree(name):
    plain, traced = started(IMAGES[name]), started(IMAGES[name])
    records = []
    report = plain.core.run(plain.bus, max_cycles=20_000)
    traced_report = traced.core.run(traced.bus, max_cycles=20_000, trace=records.append)
    assert report == traced_report
    assert machine_state(plain) == machine_state(traced)
    assert len(records) == report.total_cycles
    assert sum(r.retired for r in records) == report.retired_total


@pytest.mark.parametrize("name", ["demo", "timing", "pacer", "progen-7"])
@pytest.mark.parametrize("lines", [(1, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0)],
                         ids=["executing", "observation", "programming", "reset"])
def test_run_cycles_matches_step_cycle(name, lines):
    for n in (1, 3, 57):
        a, b = started(IMAGES[name]), started(IMAGES[name])
        for sim in (a, b):
            sim.run_cycles(11)  # stop in the middle of an instruction
            sim.core.apply_control(*lines)
        held = a.core.mode is not ControlMode.EXECUTING
        assert a.run_cycles(n) == ((0, n) if held else (n, 0))
        records = [b.core.step_cycle(b.bus) for _ in range(n)]
        assert all(r.held == held for r in records)
        assert machine_state(a) == machine_state(b)


def _run(sim, n):
    return sim.core.run(sim.bus, max_cycles=n).total_cycles


def _traced_run(sim, n):
    records = []
    try:
        return sim.core.run(sim.bus, max_cycles=n, trace=records.append).total_cycles
    finally:
        assert [r.cycle for r in records] == list(range(1, sim.core.cycle_count + 1))


def _step_cycles(sim, n):
    for _ in range(n):
        sim.core.step_cycle(sim.bus)
    return n


def _run_cycles(sim, n):
    return sim.run_cycles(n)[0]


PATHS = (_run, _traced_run, _step_cycles, _run_cycles)


@pytest.mark.parametrize("name", ["demo", "pacer", "progen-3", "progen-7"])
def test_every_path_stops_alike_at_every_cycle_offset(name):
    for max_cycles in range(1, 13):
        reference = started(IMAGES[name])
        cycles = _run(reference, max_cycles)  # fewer than max_cycles if it halts first
        for path in PATHS[1:]:
            sim = started(IMAGES[name])
            assert path(sim, cycles) == cycles
            assert machine_state(sim) == machine_state(reference), (path.__name__, max_cycles)
            assert counts_agree(sim.core)


FAULTS = {
    # x1 = 0x2000: above memory and past the last default device
    "unmapped-load": ("addi x1, x0, 1\nslli x1, x1, 13\nlw x2, 0(x1)\njal x0, 0\n",
                      0x8, "mem_read", 11),
    "unsupported": ("addi x1, x0, 5\nadd x2, x1, x1\n.word 0xFFFFFFFF\njal x0, 0\n",
                    0x8, "decode", 9),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_every_path_faults_alike_in_the_middle_of_an_instruction(name):
    source, pc, state, cycle_count = FAULTS[name]
    states = []
    for path in PATHS:
        sim = started(assemble(source))
        with pytest.raises(SimError) as info:
            path(sim, 100)
        assert (info.value.pc, info.value.state, sim.core.cycle_count) == (pc, state, cycle_count)
        assert counts_agree(sim.core)
        states.append(machine_state(sim))
    assert all(s == states[0] for s in states)


def test_outside_write_commits_at_the_end_of_the_first_executing_cycle():
    image = IMAGES["demo"]
    patched = 0x0000006F  # jal x0, 0
    assert image.words[0] != patched
    states = []
    for path in PATHS:
        sim = started(image)
        sim.core.apply_control(ie=0, reset=0, write_enable=1)  # programming
        sim.bus.schedule_write(0, patched, sim.core.mode)
        sim.start()
        assert path(sim, 1) == 1
        assert sim.core.ir == image.words[0]  # the fetch saw committed memory
        assert sim.mem.words[0] == patched and sim.mem.pending_write is None
        states.append(machine_state(sim))
    assert all(s == states[0] for s in states)


def test_reset_clears_the_retirement_counts():
    sim = started(IMAGES["demo"])
    sim.run_cycles(40)
    assert sim.core.retired_count and counts_agree(sim.core)
    sim.pulse_reset()
    assert sim.core.retired_count == 0 and not any(sim.core.by_mnemonic.values())


@pytest.mark.parametrize("name", ["demo", "pacer", "progen-7"])
def test_a_run_split_by_its_budget_retires_what_one_run_does(name):
    reference = started(IMAGES[name])
    whole = reference.core.run(reference.bus)
    assert whole.halt_reason is HaltReason.SELF_LOOP
    sim = started(IMAGES[name])
    first = sim.core.run(sim.bus, max_cycles=whole.total_cycles // 2)
    second = sim.core.run(sim.bus, max_cycles=whole.total_cycles)
    assert first.halt_reason is HaltReason.CYCLE_BUDGET_EXHAUSTED
    assert second.halt_reason is HaltReason.SELF_LOOP
    assert {c: first.retired[c] + second.retired[c] for c in InstrClass} == whole.retired
    assert sim.core.by_mnemonic == reference.core.by_mnemonic and counts_agree(sim.core)


def test_retired_count_is_derived_and_read_only():
    sim = started(IMAGES["pacer"])
    sim.run_cycles(100)
    assert sim.core.retired_count == sum(sim.core.by_mnemonic.values()) > 0
    with pytest.raises(AttributeError):
        sim.core.retired_count = 0


def test_trace_record_has_six_fields_and_no_held_argument():
    assert TraceRecord._fields == ("cycle", "mode", "state", "pc", "ir", "retired")
    with pytest.raises(TypeError):
        TraceRecord(1, "executing", "fetch", 0, 0, False, held=True)


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.__name__.strip("_"))
def test_a_record_is_held_exactly_when_its_mode_is_not_executing(path):
    sim, records = started(IMAGES["pacer"]), []
    if path is _traced_run:
        sim.core.run(sim.bus, max_cycles=7, trace=records.append)
    else:
        path(sim, 7)
    records.append(sim.core.step_cycle(sim.bus))
    for lines in ((0, 0, 0), (0, 0, 1), (0, 1, 0)):  # observation, programming, reset
        sim.core.apply_control(*lines)
        records.append(sim.core.step_cycle(sim.bus))
    executing = len(records) - 3
    assert [r.held for r in records] == [False] * executing + [True] * 3
    assert all(r.held == (r.mode != "executing") for r in records)

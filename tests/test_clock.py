"""The record-free clock against the record-building one.

An untraced `Core.run`, `step_instruction` and `Simulator.run_cycles` clock
the core without building TraceRecords; a traced run and `step_cycle` build
one per cycle.  Both must leave the machine in the same state.
"""

import random

import pytest

from rv32mc import ControlMode, PeripheralMap, Simulator, assemble
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

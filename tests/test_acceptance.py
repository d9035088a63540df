"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import math
import random
from fractions import Fraction

import pytest

from rv32mc import (
    CYCLE_COST,
    ControlMode,
    EnergyModel,
    HaltReason,
    MemoryImage,
    Simulator,
    assemble,
    compute_cpi,
    decode,
    disassemble,
    encode,
    estimate_energy,
    instr,
    reference_execute,
)
from rv32mc.errors import WriteForbiddenInMode
from rv32mc.isa import MNEMONIC_CLASS
from rv32mc.programs import TIMING
from rv32mc.selfcheck import GOLDEN_ENCODINGS

from golden import build_golden_table
from progen import random_program


def _pass(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_cycle_count_conformance():
    """One instruction of each class consumes exactly its stated cycles."""
    sim = Simulator()
    sim.program_and_start(assemble(TIMING))
    expected = [
        ("addi", 4),        # i-type
        ("add", 4),         # r-type
        ("sw", 4),          # store
        ("lw", 5),          # load
        ("beq", 3),         # branch, not taken
        ("beq", 3),         # branch, taken
        ("jal", 4),         # jump
        ("jal", 4),         # halt self-loop
    ]
    taken = []
    for want_m, want_c in expected:
        pc_before = sim.core.pc
        ins, cycles = sim.core.step_instruction(sim.bus)
        assert (ins.mnemonic, cycles) == (want_m, want_c)
        if ins.mnemonic == "beq":
            taken.append(sim.core.pc != pc_before + 4)
    assert taken == [False, True]  # both branch outcomes cost 3 cycles
    _pass(1, "cycle costs exactly {lw:5, sw:4, r:4, i:4, jal:4, beq taken/not:3}")


def test_criterion_2_power_reproduction():
    """Default constants reproduce the reference average power figure."""
    sim = Simulator()
    sim.program_and_start(assemble("addi x1, x0, 5\njal x0, 0\n"))
    report = sim.core.run(sim.bus)
    _, power_uw = estimate_energy(report, EnergyModel())
    assert math.isclose(power_uw, 859.0, rel_tol=1e-3)
    assert power_uw == 859.0
    _pass(2, f"17.18 pJ/cycle x 50 MHz -> {power_uw} uW (within 0.1% of 859)")


def test_criterion_3_cpi_envelope():
    """200 randomized halting programs: CPI in [3,5], exact rational."""
    rng = random.Random(0xC131)
    for _ in range(200):
        sim = Simulator()
        sim.program_and_start(random_program(rng))
        report = sim.core.run(sim.bus, max_cycles=200_000)
        assert report.halt_reason is HaltReason.SELF_LOOP
        cpi = compute_cpi(report)
        assert 3 <= cpi <= 5
        assert cpi == Fraction(
            sum(CYCLE_COST[c] * n for c, n in report.retired.items()),
            report.retired_total,
        )
    _pass(3, "CPI in [3,5] and exactly sum(retired x cost)/retired for 200 programs")


def test_criterion_3_all_loads_cpi_is_five():
    """A pure-load workload measures CPI = 5 exactly."""
    body = "\n".join(f"lw x{3 + (i % 4)}, {256 + 4 * (i % 64)}(x0)" for i in range(100))
    sim = Simulator()
    sim.program_and_start(assemble(body + "\njal x0, 0\n"))
    start = sim.core.cycle_count
    for _ in range(100):
        ins, cycles = sim.core.step_instruction(sim.bus)
        assert ins.mnemonic == "lw" and cycles == 5
    assert Fraction(sim.core.cycle_count - start, 100) == 5
    _pass(3, "all-loads workload measures CPI = 5 exactly")


def test_criterion_4_oracle_equivalence():
    """>=1000 randomized programs agree bit-exactly with the oracle."""
    rng = random.Random(0x0E0E)
    for i in range(1000):
        image = random_program(rng)
        sim = Simulator()
        sim.program_and_start(image)
        report = sim.core.run(sim.bus, max_cycles=200_000)
        assert report.halt_reason is HaltReason.SELF_LOOP, f"program {i} did not halt"
        oracle = reference_execute(image, max_instrs=200_000)
        assert oracle.regs == report.final_state.regs, f"program {i}: regfile"
        assert oracle.memory == sim.mem.words, f"program {i}: memory"
        assert oracle.pc == report.final_state.pc, f"program {i}: pc"
        assert oracle.retired == report.retired_total, f"program {i}: retired"
    _pass(4, "1000 randomized programs: identical regfile, memory, and pc")


def test_criterion_5_golden_encoding_conformance():
    """Every supported mnemonic round-trips against the independent table."""
    table = build_golden_table()
    assert {e.mnemonic for e in table} == set(MNEMONIC_CLASS)
    assert [(e.text, e.word) for e in table] == GOLDEN_ENCODINGS
    for e in table:
        ins = instr(e.mnemonic, rd=e.rd, rs1=e.rs1, rs2=e.rs2, imm=e.imm)
        assert encode(ins) == e.word
        assert decode(e.word) == ins
        assert assemble(e.text).words == [e.word]
        assert disassemble(MemoryImage(0, [e.word])).strip() == e.text
    _pass(5, f"{len(table)} golden encodings, all {len(MNEMONIC_CLASS)} mnemonics, bit-exact")


def test_criterion_6_protocol_safety():
    """External-write gating, held-mode retirement, bring-up pc, observation."""
    image = assemble("addi x1, x0, 5\njal x0, 0\n")

    # (a) external writes during execution are rejected
    sim = Simulator()
    sim.program_and_start(image)
    with pytest.raises(WriteForbiddenInMode):
        sim.mem.load_image(MemoryImage(0, [0]), sim.core.mode)
    with pytest.raises(WriteForbiddenInMode):
        sim.mem.schedule_write(0, 0, ControlMode.OBSERVATION)

    # (b) no instruction retires outside executing mode
    for lines in [(0, 0, 1), (0, 0, 0), (0, 1, 0)]:
        sim2 = Simulator()
        sim2.core.apply_control(ie=0, reset=0, write_enable=1)
        sim2.mem.load_image(image, sim2.core.mode)
        sim2.core.apply_control(*lines)
        before = sim2.core.retired_count
        for _ in range(20):
            rec = sim2.core.step_cycle(sim2.bus)
            assert rec.held and not rec.retired
        assert sim2.core.retired_count == before

    # (c) canonical bring-up starts at pc=0 with the word at address 0
    sim3 = Simulator()
    sim3.program_and_start(image)
    assert sim3.core.pc == 0
    first, _ = sim3.core.step_instruction(sim3.bus)
    assert first == decode(image.words[0])
    assert sim3.core.instr_pc == 0

    # (d) observation leaves memory bit-identical
    sim4 = Simulator()
    sim4.program_and_start(image)
    before_words = list(sim4.mem.words)
    sim4.observe(0, 256)
    for _ in range(10):
        sim4.core.step_cycle(sim4.bus)
    with pytest.raises(WriteForbiddenInMode):
        sim4.mem.schedule_write(0, 0xFFFFFFFF, sim4.core.mode)
    assert sim4.mem.words == before_words

    _pass(6, "write gating, held-mode non-retirement, bring-up pc=0, observation purity")


def test_criterion_7_out_of_scope_declared():
    """Hardware-only figures are out of scope and covered by criteria 1-6."""
    _pass(
        7,
        "declared: FPGA LUT/FF/DSP counts, silicon area, and measured dynamic "
        "power are fabrication artifacts; substituted by criteria 1-6",
    )

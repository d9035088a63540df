"""Cross-validation of the FSM engine against the functional reference."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rv32mc import HaltReason, MemoryImage, Simulator, assemble, reference_execute
from rv32mc.errors import MisalignedAccess, OutOfRange, UnsupportedInstruction
from rv32mc.memory import UnifiedMemory
from progen import random_program


def run_both(image, max_cycles=200_000):
    sim = Simulator()
    sim.program_and_start(image)
    report = sim.core.run(sim.bus, max_cycles=max_cycles)
    oracle = reference_execute(image, max_instrs=max_cycles)
    return sim, report, oracle


def assert_equivalent(image):
    sim, report, oracle = run_both(image)
    assert report.halt_reason is HaltReason.SELF_LOOP
    assert oracle.halted
    assert oracle.regs == report.final_state.regs
    assert oracle.memory == sim.mem.words
    assert oracle.pc == report.final_state.pc
    assert oracle.retired == report.retired_total


def test_demo_program_matches_oracle():
    assert_equivalent(assemble("addi x1, x0, 5\njal x0, 0\n"))


def test_store_load_round_trip_matches():
    src = """
        addi x1, x0, -123
        sw   x1, 256(x0)
        lw   x2, 256(x0)
        add  x3, x2, x2
        jal  x0, 0
"""
    assert_equivalent(assemble(src))


def test_branch_heavy_program_matches():
    src = """
        addi x1, x0, 4
top:    addi x1, x1, -1
        beq  x1, x0, done
        jal  x0, top
done:   sw   x1, 128(x0)
        jal  x0, 0
"""
    assert_equivalent(assemble(src))


def test_seeded_random_programs_match():
    rng = random.Random(2026)
    for _ in range(150):
        assert_equivalent(random_program(rng))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_random_programs_match_property(seed):
    # hypothesis-driven seeds give shrinkable counterexamples on regression
    assert_equivalent(random_program(random.Random(seed), max_body=40))


def test_oracle_halts_on_taken_self_branch():
    result = reference_execute(assemble("addi x1, x0, 3\nbeq x0, x0, 0\n"))
    assert (result.halted, result.retired, result.pc) == (True, 2, 4)


@pytest.mark.parametrize("source, error, pc, addr", [
    ("addi x1, x0, 1\nslli x1, x1, 12\nlw x2, 0(x1)\n", OutOfRange, 8, 0x1000),
    ("lw x2, 2(x0)\n", MisalignedAccess, 0, 2),
    ("addi x1, x0, 5\n.word 0x00000067\n", UnsupportedInstruction, 4, None),
    # fetch faults: a jump past the 4 KiB memory, and one to an address = 2 mod 4
    ("addi x1, x0, 5\njal x0, 4092\n", OutOfRange, 4096, 4096),
    ("jal x0, 6\n", MisalignedAccess, 6, 6),
])
def test_oracle_and_engine_fault_alike(source, error, pc, addr):
    image = assemble(source)
    with pytest.raises(error) as oracle:
        reference_execute(image)
    sim = Simulator()
    sim.program_and_start(image)
    with pytest.raises(error) as engine:
        sim.core.run(sim.bus)
    assert oracle.value.pc == engine.value.pc == pc
    assert oracle.value.addr == engine.value.addr == addr


@pytest.mark.parametrize("base, addr", [(4096, 4096), (2, 2)])
def test_oracle_refuses_images_that_do_not_fit(base, addr):
    with pytest.raises(OutOfRange) as exc:
        reference_execute(MemoryImage(base, [0x00000013]))
    assert exc.value.addr == addr


@pytest.mark.parametrize("mem_size", [4097, 4094, 0, -4, 0x1000004])
def test_oracle_refuses_a_memory_size_memory_refuses(mem_size):
    # At 4097 the aligned load at 4096 would pass the range test but not exist.
    with pytest.raises(ValueError) as memory:
        UnifiedMemory(mem_size)
    image = assemble("addi x1, x0, 1\nslli x1, x1, 12\nlw x2, 0(x1)\n")
    with pytest.raises(ValueError) as oracle:
        reference_execute(image, mem_size=mem_size)
    assert str(oracle.value) == str(memory.value)

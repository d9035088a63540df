"""Cross-validation of the FSM engine against the functional reference."""

import random

from hypothesis import given, settings, strategies as st

from rv32mc import HaltReason, Simulator, assemble, reference_execute
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

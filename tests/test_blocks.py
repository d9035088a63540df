"""The block route against the inline pass and the oracle.

An untraced `Core.run` counts the entries to a word at taken branches and
jumps back to it from a later word, translates the code there at the
`BLOCK_HEAT`th into one generated function and runs it at each entry from
then on, until its words change or a call of it retires nothing, which
drops it until the next reset; a traced run never does.  The core keeps
one table by entry address, `_blocks`: the count while cold, then the
block, then None once dropped, so a dropped entry is never counted again.
A call goes round again at its last instruction, the loop's back edge,
while another whole pass fits, but never at a self-loop, where the halt
rule stops `Core.run`; at any other exit the inline pass goes on.  So for
hot loops, self-modifying code and device accesses, an untraced run
(blocks), a traced run (the inline pass and the per-state branches) and
`reference_execute` must agree on every architectural effect, and the two
engine runs also on the core's temporaries, the retirements by mnemonic
and the device logs.
"""

import random

import pytest

from rv32mc import CYCLE_COST, HaltReason, Simulator, assemble, reference_execute
from rv32mc import core
from rv32mc.core import BLOCK_HEAT
from rv32mc.errors import SimError, UnsupportedInstruction
from rv32mc.isa import MNEMONIC_CLASS
from progen import random_loop_program, random_program
from test_clock import BUSES, IMAGES, MEMORY, SYSTEM, machine_state, started

HOT = BLOCK_HEAT + 16  # loop passes: every loop's entry gets hot


@pytest.fixture
def compiled(monkeypatch):
    """The sources the block route compiles while the test runs."""
    sources = []
    monkeypatch.setattr(core, "compile", lambda source, *args: sources.append(source)
                        or compile(source, *args), raising=False)
    return sources


@pytest.fixture
def calls(monkeypatch):
    """Each block call while the test runs: its entry, its length in words
    and the instructions it retired."""
    log, translate = [], core._translate

    def counted(words, entry, end):
        block = translate(words, entry, end)
        if block is None:
            return None
        run, lo, hi, *rest = block

        def call(regs, words, size, bym, *args):
            before = sum(bym.values())
            out = run(regs, words, size, bym, *args)
            log.append((entry, hi - lo, sum(bym.values()) - before))
            return out
        return (call, lo, hi, *rest)

    monkeypatch.setattr(core, "_translate", counted)
    return log


def _agree(image, bus=MEMORY):
    """Run `image` untraced (blocks), then traced (no blocks); assert that the
    two runs leave the same machine, and return the untraced simulator and
    its report, or the type, pc and state of its fault."""
    runs = []
    for trace in (None, lambda span: None):
        sim = started(image, bus)
        try:
            outcome = sim.core.run(sim.bus, max_cycles=200_000, trace=trace)
        except SimError as e:
            outcome = type(e), e.pc, e.state
        runs.append((sim, outcome))
    (blocks, report), (traced, traced_report) = runs
    assert report == traced_report
    assert machine_state(blocks) == machine_state(traced)
    assert blocks.core.by_mnemonic == traced.core.by_mnemonic
    return blocks, report


@pytest.mark.parametrize("bus", BUSES)
@pytest.mark.parametrize("seed", range(16))
def test_hot_loops_agree_with_the_traced_run_and_the_oracle(seed, bus, compiled):
    image = random_loop_program(random.Random(seed), HOT)
    sim, report = _agree(image, bus)
    assert compiled and any(type(b) is tuple for b in sim.core._blocks.values())  # the route ran
    oracle = reference_execute(image)
    assert report.halt_reason is HaltReason.SELF_LOOP and oracle.halted
    assert (oracle.regs, oracle.memory, oracle.pc, oracle.retired) == (
        report.final_state.regs, sim.mem.words, report.final_state.pc, report.retired_total)
    costs = {m: CYCLE_COST[cls] for m, cls in MNEMONIC_CLASS.items()}
    assert report.total_cycles == sum(n * costs[m] for m, n in sim.core.by_mnemonic.items())


LOOP = """
        addi x5, x0, {n}
top:    addi x5, x5, -1
        addi x6, x6, 3
        beq  x5, x0, done
        jal  x0, top
done:   jal  x0, done
"""


def test_an_entry_is_translated_once_at_the_heat_threshold(compiled):
    # The jal enters `top` n - 1 times; the 64th entry translates it.
    for entries, translated in ((63, 0), (64, 1), (200, 1)):
        del compiled[:]
        sim, report = _agree(assemble(LOOP.format(n=entries + 1)))
        assert len(compiled) == translated, entries
        assert sim.core.regs[6] == 3 * (entries + 1)
    del compiled[:]
    for seed in range(20):  # straight-line code: no entry repeats
        _agree(random_program(random.Random(seed)))
    assert compiled == []


# Patches the immediate of its own `addi` at 24, ahead of the pc, on every
# pass, as traced_mmio's loop does: the block fails its first entry check.
PATCHED_EVERY_PASS = f"""
        addi x6, x0, 1
        slli x6, x6, 20         # 1 << 20: +1 on an I-type immediate
        addi x2, x0, {HOT}
        lw   x5, 24(x0)         # the word at patch
loop:   add  x5, x5, x6
        sw   x5, 24(x0)
patch:  addi x4, x4, 0          # immediate = passes before this one
        addi x2, x2, -1
        beq  x2, x0, done
        jal  x0, loop
done:   jal  x0, done
"""


def test_an_addi_patched_every_pass_is_translated_once_then_left_to_the_pass(compiled):
    image = assemble(PATCHED_EVERY_PASS)
    sim, report = _agree(image)
    assert len(compiled) == 1 and sim.core._blocks == {16: None}  # dropped, never counted again
    assert sim.core.regs[4] == sum(range(1, HOT + 1))
    oracle = reference_execute(image)
    assert (oracle.regs, oracle.memory) == (report.final_state.regs, sim.mem.words)


# From the pass that takes `switch`, x12 raises the immediate of the `addi`
# at 28 by 2 before each run of it: the block stores into its own words
# ahead of the pc, the store ends it, and the new encoding runs.
STORE_AHEAD = f"""
        addi x5, x0, {HOT + 8}
        addi x20, x0, 8         # the pass that sets the step
        lw   x11, 28(x0)        # the word at patch
        jal  x0, top
top:    beq  x5, x20, switch
        add  x11, x11, x12
        sw   x11, 28(x0)
patch:  addi x7, x7, 1
        addi x5, x5, -1
        beq  x5, x0, done
        jal  x0, top
switch: addi x12, x0, 1
        slli x12, x12, 21       # +2 on an I-type immediate
        addi x20, x0, -1
        jal  x0, top
done:   jal  x0, done
"""


def test_a_store_ahead_into_a_hot_block_runs_the_new_encoding(compiled):
    image = assemble(STORE_AHEAD)
    sim, report = _agree(image)
    assert compiled
    assert sim.core.regs[7] == HOT + sum(3 + 2 * k for k in range(8))  # 1, then 3, 5, ...
    oracle = reference_execute(image)
    assert (oracle.regs, oracle.memory, oracle.retired) == (
        report.final_state.regs, sim.mem.words, report.retired_total)


# On pass `poison`, a word of the hot block becomes 0, which does not
# decode: the `addi` at 28 through the block's own store ahead of the pc,
# which ends the block, or the `addi` at 32 from outside, which drops it at
# its next entry; either way the inline pass fetches the 0 and faults.
POISON = f"""
        addi x5, x0, {HOT + 8}
        addi x12, x0, -1        # all ones until the poison pass
        lw   x11, 28(x0)        # the word at slot
        addi x20, x0, 8
top:    beq  x5, x20, poison
        and  x11, x11, x12
        sw   x11, 28(x0)
slot:   addi x7, x7, 1
        addi x5, x5, -1
        beq  x5, x0, done
        jal  x0, top
poison: {{poison}}
        addi x20, x0, -1
        jal  x0, top
done:   jal  x0, done
"""


@pytest.mark.parametrize("poison, pc", [("addi x12, x0, 0", 28), ("sw x0, 32(x0)", 32)],
                         ids=["own-store-ahead", "entry-check"])
def test_a_stored_unsupported_word_faults_alike_in_both_engine_runs(poison, pc, compiled):
    image = assemble(POISON.format(poison=poison))
    sim, report = _agree(image)
    assert report == (UnsupportedInstruction, pc, "decode") and compiled
    with pytest.raises(UnsupportedInstruction) as oracle:
        reference_execute(image)
    assert oracle.value.pc == pc


# Reads sensing DATA and writes pacing DATA on every pass, with the load
# first in the block or after an instruction that retired in it.
DEVICE_LOOP = f"""
        addi x7, x0, 1
        slli x7, x7, 12         # pacing at 0x1000
        addi x8, x7, 16         # sensing at 0x1010
        addi x5, x0, {HOT}
top:    {{first}}
        lw   x10, 8(x8)
        add  x10, x10, x5
        sw   x10, 8(x7)
        addi x5, x5, -1
        beq  x5, x0, done
        jal  x0, top
done:   jal  x0, done
"""


@pytest.mark.parametrize("first", ["addi x9, x9, 3", "lw x9, 8(x8)"])
def test_device_accesses_in_a_hot_loop_are_stamped_as_traced(first, compiled):
    sim, report = _agree(assemble(DEVICE_LOOP.format(first=first)), SYSTEM)
    assert report.halt_reason is HaltReason.SELF_LOOP and compiled
    stamps = [r.cycle for d in sim.peripherals.devices for r in d.event_log]
    assert len(stamps) == (3 if first.startswith("lw") else 2) * HOT


def test_a_block_that_retires_nothing_is_dropped(compiled):
    # Its first instruction loads from a device, so every call exits at once.
    sim, report = _agree(assemble(DEVICE_LOOP.format(first="lw x9, 8(x8)")), SYSTEM)
    assert len(compiled) == 1 and sim.core._blocks == {16: None}


def test_a_block_ends_before_a_word_that_does_not_decode(calls):
    # Translation stops at the data word at 12, so the block from `loop`
    # holds two words, and each call leaves at the taken beq at 8.
    image = IMAGES["data-word-loop"]
    sim, report = _agree(image)
    block = sim.core._blocks[4]
    assert list(sim.core._blocks) == [4] and type(block) is tuple and block[2] - block[1] == 2
    assert calls and set(calls) == {(4, 2, 2)}
    oracle = reference_execute(image)
    assert (report.halt_reason, report.total_cycles, report.retired_total) == (
        HaltReason.SELF_LOOP, 2804, oracle.retired) and oracle.retired == 801


def test_an_entry_that_no_longer_decodes_is_dropped_and_its_fetch_faults(compiled):
    # A store overwrites the loop's entry just before its 64th entry.
    sim, report = _agree(IMAGES["patched-entry"])
    assert report == (UnsupportedInstruction, 0xC, "decode") and sim.core.cycle_count == 721
    assert sim.core._blocks == {12: None} and compiled == []
    with pytest.raises(UnsupportedInstruction) as oracle:
        reference_execute(IMAGES["patched-entry"])
    assert oracle.value.pc == 0xC


def test_each_reset_translates_a_loaded_image_anew(compiled):
    sim = Simulator()
    for step in range(1, 5):  # one entry; its loop body's immediate differs
        # x6 is set from x5 alone: registers outlive a reset, the oracle's start at 0
        image = assemble(LOOP.format(n=HOT).replace("x6, x6, 3", f"x6, x5, {step}"))
        sim.program_and_start(image)
        report = sim.core.run(sim.bus)
        oracle = reference_execute(image)
        assert (oracle.regs, oracle.memory, oracle.retired) == (
            report.final_state.regs, sim.mem.words, report.retired_total)
        assert len(compiled) == step


def test_a_reset_empties_the_block_cache_and_the_entry_counts():
    sim = started(random_loop_program(random.Random(3), HOT))
    sim.core.run(sim.bus)
    assert any(type(b) is tuple for b in sim.core._blocks.values())
    sim.pulse_reset()
    assert sim.core._blocks == {}


def test_traced_runs_and_single_steps_translate_nothing(compiled):
    image = random_loop_program(random.Random(1), HOT)
    sim = started(image)
    sim.core.run(sim.bus, trace=lambda span: None)
    while sim.core.cycle_count < 3000:
        sim.core.step_instruction(sim.bus)
    assert compiled == [] and sim.core._blocks == {}


def test_blocks_are_kept_per_core_by_word_address_in_memory():
    image = random_loop_program(random.Random(2), 3 * HOT)
    sims = [started(image, bus) for bus in BUSES]
    for sim in sims:
        sim.core.run(sim.bus)
        size = len(sim.mem.words)
        assert any(type(b) is tuple for b in sim.core._blocks.values())
        assert all(pc < 4 * size and not pc & 3 for pc in sim.core._blocks)
    assert sims[0].core._blocks is not sims[1].core._blocks


# loop_kernel's shape: a jal closes an inner loop of 64 passes, 4 rounds.
# Only branches follow the last exit from the inner loop's block, so the
# run ends with the alu_out that exit left: the inner jal's link.
KERNEL = """
        addi x5, x0, 4
outer:  addi x5, x5, -1
        addi x1, x0, 0
        addi x6, x0, 64
inner:  beq  x6, x0, next
        lw   x3, 1024(x1)
        add  x4, x4, x3
        sw   x4, 1536(x1)
        addi x1, x1, 4
        addi x6, x6, -1
        jal  x0, inner
next:   beq  x5, x0, done
        jal  x0, outer
done:   beq  x0, x0, done
        .org 0x400
""" + "".join(f"        .word {(k * 2654435761) & 0xFFFFFFFF}\n" for k in range(64))

LOOPS = {  # an image, and the fewest instructions one call of a block retires at most
    "kernel": (assemble(KERNEL), 63 * 7),  # rounds 2-4 each in one call
    "progen": (random_loop_program(random.Random(29), 3 * HOT, loops=1), 6 * 12),  # a beq closes it
    "hot-loop": (IMAGES["hot-loop"], 3 * 8),  # its block starts with a lw
}


@pytest.mark.parametrize("name", LOOPS)
def test_one_call_of_a_hot_loop_runs_many_passes(name, calls):
    image, most = LOOPS[name]
    sim, report = _agree(image)
    oracle = reference_execute(image)
    assert (oracle.regs, oracle.memory, oracle.pc, oracle.retired) == (
        report.final_state.regs, sim.mem.words, report.final_state.pc, report.retired_total)
    assert max(retired for _, _, retired in calls) >= most
    if name == "kernel":
        assert len(calls) == 4  # one per round: the 64th entry is the last of round 1
        assert sim.core.alu_out == 44  # the inner jal's link


# Reads sensing DATA on the pass where x5 is 4, and memory on all others.
# The call that goes round up to that pass leaves at the loop's entry,
# with every pass before it counted; the inline pass runs that pass, its
# device read included, and its back edge calls the block for the rest.
DEVICE_ONE_PASS = f"""
        addi x12, x0, 1050
        slli x12, x12, 1        # 2100: memory
        addi x10, x12, 0
        addi x13, x0, 2012      # 0x1010 - 2100: sensing
        addi x5, x0, {HOT + 8}
top:    lw   x9, 8(x10)
        add  x20, x20, x9
        addi x5, x5, -1
        beq  x5, x0, done
        addi x11, x5, -4
        sltiu x11, x11, 1       # 1 on the pass before x5 is 4
        sub  x11, x0, x11
        and  x11, x11, x13
        add  x10, x12, x11
        jal  x0, top
done:   jal  x0, done
"""


def test_a_pass_that_loads_from_a_device_first_runs_inline_and_the_block_is_kept(calls):
    sim, report = _agree(assemble(DEVICE_ONE_PASS), SYSTEM)
    assert report.halt_reason is HaltReason.SELF_LOOP
    assert [r.access for r in sim.peripherals.device("sensing").event_log] == ["read"]
    passes = HOT + 8 - BLOCK_HEAT - 4  # from the 64th entry to the pass where x5 is 4
    # the passes where x5 is 3 and 2, and the last one's four instructions
    assert calls == [(20, 10, 10 * passes), (20, 10, 24)]
    assert list(sim.core._blocks) == [20] and type(sim.core._blocks[20]) is tuple


# `halt` jumps ahead until the backward jal at `again` has entered it 63
# times; then a store patches it into a self-loop, and the 64th entry,
# from the jal after the store, translates the self-loop and runs it.
SELF_LOOP = """
        addi x7, x0, {word}
        addi x5, x0, 64
halt:   jal  x0, next
next:   addi x5, x5, -1
        beq  x5, x0, patch
again:  jal  x0, halt
patch:  sw   x7, 8(x0)
        jal  x0, halt
"""


@pytest.mark.parametrize("halt", ["jal x0, 0", "beq x0, x0, 0"])
def test_a_translated_self_loop_halts_core_run_at_its_first_retirement(halt, calls):
    image = assemble(SELF_LOOP.format(word=assemble(halt).words[0]))
    sim, reference = started(image), started(image)
    report = sim.core.run(sim.bus)
    assert [(entry, retired) for entry, _, retired in calls] == [(8, 1)]
    assert type(sim.core._blocks[8]) is tuple
    while True:  # one cycle at a time: never a block
        record = reference.core.step_cycle(reference.bus)
        if record.retired and reference.core.pc == record.pc:
            break
    assert report.halt_reason is HaltReason.SELF_LOOP and report.final_state.pc == 8
    assert (report.total_cycles, report.final_state) == (
        reference.core.cycle_count, reference.core.snapshot())
    assert machine_state(sim) == machine_state(reference)
    assert sim.core.by_mnemonic == reference.core.by_mnemonic


# An if/else in a hot loop: a forward beq to `else`, and a forward jal to
# `endif`, where both paths join before the closing jal.
IF_ELSE = f"""
        addi x5, x0, {HOT}
top:    andi x6, x5, 1
        beq  x6, x0, else
        addi x7, x7, 3
        jal  x0, endif
else:   addi x8, x8, 5
endif:  addi x5, x5, -1
        beq  x5, x0, done
        jal  x0, top
done:   jal  x0, done
"""


def test_only_a_jump_or_branch_back_to_an_earlier_word_enters_a_block(compiled, calls):
    image = assemble(IF_ELSE)
    sim, report = _agree(image)
    oracle = reference_execute(image)
    assert (oracle.regs, oracle.memory, oracle.pc, oracle.retired) == (
        report.final_state.regs, sim.mem.words, report.final_state.pc, report.retired_total)
    assert list(sim.core._blocks) == [4] and len(compiled) == 1  # the loop head alone
    assert calls and {entry for entry, _, _ in calls} == {4}

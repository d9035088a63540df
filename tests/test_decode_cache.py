"""`isa.decode` and `isa.format_word` cache by word value, within a fixed bound."""

import pytest

from rv32mc import ControlMode, Core, HaltReason, MemoryImage, UnifiedMemory, assemble, decode
from rv32mc import encode, instr, reference_execute
from rv32mc.errors import UnsupportedInstruction
from rv32mc.core import _plan
from rv32mc.isa import DECODE_CACHE_SIZE, format_word
from rv32mc.programs import PROGRAMS

# Rewrites the immediate of its own `addi` before every pass: the word at
# `patch` is fetched as a different word each iteration, in plain memory.
SELF_PATCHING = """
        addi x6, x0, 1
        slli x6, x6, 20         # 1 << 20: +1 on an I-type immediate
        addi x2, x0, 10         # iterations
patch:  addi x4, x4, 0          # immediate = iteration number
        lw   x5, 12(x0)         # the word at patch
        add  x5, x5, x6
        sw   x5, 12(x0)
        addi x2, x2, -1
        beq  x2, x0, done
        jal  x0, patch
done:   jal  x0, done
"""


def started(image):
    mem = UnifiedMemory()
    mem.load_image(image, ControlMode.PROGRAMMING)
    core = Core()
    core.apply_control(ie=0, reset=1)
    core.apply_control(ie=1, reset=0)
    return core, mem


def test_self_modifying_loop_matches_oracle():
    image = assemble(SELF_PATCHING)
    core, mem = started(image)
    report = core.run(mem)
    oracle = reference_execute(image)
    assert report.halt_reason is HaltReason.SELF_LOOP and oracle.halted
    assert core.regs[4] == sum(range(10))
    assert oracle.regs == report.final_state.regs
    assert oracle.memory == mem.words
    assert (oracle.pc, oracle.retired) == (report.final_state.pc, report.retired_total)


def test_unsupported_word_raises_every_time_with_its_own_pc():
    for _ in range(3):
        with pytest.raises(UnsupportedInstruction):
            decode(0xFFFFFFFF)
    for pc in (0, 8):
        nops = [encode(instr("addi", rd=0, rs1=0, imm=0))] * (pc // 4)
        core, mem = started(MemoryImage(0, nops + [0xFFFFFFFF]))
        with pytest.raises(UnsupportedInstruction) as exc:
            core.run(mem)
        assert (exc.value.pc, exc.value.state) == (pc, "decode")


def test_a_word_rewritten_in_place_is_decoded_anew():
    # The addi runs once; the sw then replaces it with an unsupported word,
    # whose plan no cached one may stand in for.
    core, mem = started(assemble("""
        addi x2, x0, -1
patch:  addi x4, x4, 1
        sw   x2, 4(x0)
        jal  x0, patch
"""))
    with pytest.raises(UnsupportedInstruction) as exc:
        core.run(mem)
    assert (exc.value.pc, exc.value.state) == (4, "decode")
    assert core.regs[4] == 1 and mem.words[1] == 0xFFFFFFFF


def test_plan_cache_stays_within_its_bound():
    words = [encode(instr("addi", rd=1, rs1=1, imm=k)) for k in range(DECODE_CACHE_SIZE + 100)]
    mem = UnifiedMemory(8192)
    mem.load_image(MemoryImage(0, words + [encode(instr("jal", imm=0))]), ControlMode.PROGRAMMING)
    core = Core()
    core.apply_control(ie=0, reset=1)
    core.apply_control(ie=1, reset=0)
    assert core.run(mem).halt_reason is HaltReason.SELF_LOOP
    assert core.regs[1] == sum(range(DECODE_CACHE_SIZE + 100))
    assert _plan.cache_info().currsize <= DECODE_CACHE_SIZE


def test_decoded_follows_ir_after_every_decode():
    core, mem = started(assemble(PROGRAMS["demo"]))
    decodes = 0
    while core.retired_count < 20:
        if core.step_cycle(mem).state != "fetch":
            decodes += 1
            assert core.decoded == decode(core.ir)
    assert decodes


def test_cache_stays_within_its_bound():
    for k in range(DECODE_CACHE_SIZE + 100):
        decode(encode(instr("addi", rd=k % 32, rs1=0, imm=k // 32)))
    assert decode.cache_info().currsize <= DECODE_CACHE_SIZE


@pytest.mark.parametrize("word", [0x00500093, 0x0000006F, 0xFE000EE3])
def test_words_equal_modulo_2_32_decode_equal(word):
    assert decode(word) == decode(word + 2**32)


def test_patched_addi_renders_its_new_immediate_each_pass():
    core, mem = started(assemble(SELF_PATCHING))
    shown = []
    core.run(mem, trace=lambda rec: rec.pc == 12 and rec.retired and shown.append(format_word(rec.ir)))
    assert shown == [f"addi x4, x4, {k}" for k in range(10)]


def test_unsupported_word_renders_as_data_every_time():
    for _ in range(3):
        assert format_word(0xFFFFFFFF) == ".word 0xFFFFFFFF"


def test_format_word_cache_stays_within_its_bound():
    for k in range(DECODE_CACHE_SIZE + 100):
        format_word(encode(instr("addi", rd=k % 32, rs1=0, imm=k // 32)))
    assert format_word.cache_info().currsize <= DECODE_CACHE_SIZE

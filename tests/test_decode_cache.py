"""`isa.decode` caches by word value, within a fixed bound.

`decode` is the bound `__getitem__` of one process-wide memo of
`DECODE_CACHE_SIZE` words, so the engine, the oracle and `disassemble`
decode each distinct word of an image once between them; `format_word`
keeps no cache, and `disassemble` formats each distinct word of its image
once.  The engine keeps no decode cache of its own: the inline pass and
the per-state branches read each instruction from its decode, and a hot
loop's block decodes its words once, when it is translated.
"""

import random

import pytest

from rv32mc import ControlMode, Core, HaltReason, MemoryImage, UnifiedMemory, assemble, decode
from rv32mc import disassemble, encode, instr, isa, reference_execute
from rv32mc.errors import UnsupportedInstruction
from rv32mc.memory import DEFAULT_MEM_SIZE
from rv32mc.core import SPAN_CACHE_SIZE
from rv32mc.isa import DECODE_CACHE_SIZE, ENCODING, MASK32, format_word
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


def started(image, mem_size=DEFAULT_MEM_SIZE):
    mem = UnifiedMemory(mem_size)
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
    # whose decode no cached one may stand in for.
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


def test_more_distinct_words_than_a_word_cache_holds_run_to_the_halt():
    # `addi xN, xN, k` over N = 1..31, so the 12-bit immediate stays small.
    n = SPAN_CACHE_SIZE + 100
    words = [encode(instr("addi", rd=1 + k % 31, rs1=1 + k % 31, imm=k // 31)) for k in range(n)]
    assert len(set(words)) == n > SPAN_CACHE_SIZE
    mem = UnifiedMemory(16384)
    mem.load_image(MemoryImage(0, words + [encode(instr("jal", imm=0))]), ControlMode.PROGRAMMING)
    core = Core()
    core.apply_control(ie=0, reset=1)
    core.apply_control(ie=1, reset=0)
    assert core.run(mem).halt_reason is HaltReason.SELF_LOOP
    assert sum(core.regs.snapshot()) == sum(k // 31 for k in range(n))


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
    assert len(decode.__self__) <= DECODE_CACHE_SIZE
    assert decode(encode(instr("addi", rd=k % 32, rs1=0, imm=k // 32))) == \
        instr("addi", rd=k % 32, rs1=0, imm=k // 32)


def test_unsupported_word_is_never_stored_even_in_a_full_memo():
    memo = decode.__self__
    memo.clear()
    for k in range(DECODE_CACHE_SIZE):
        decode(encode(instr("addi", rd=k % 32, rs1=0, imm=k // 32)))
    assert len(memo) == DECODE_CACHE_SIZE
    for word in (0xFFFFFFFF, 0x00000067, 0, -1):
        for _ in range(3):
            with pytest.raises(UnsupportedInstruction):
                decode(word)
        assert word not in memo and len(memo) == DECODE_CACHE_SIZE


def test_engine_oracle_and_disassembler_decode_each_word_once(monkeypatch):
    # 2,000 distinct words overflow every lru cache; a decode that runs the
    # body builds its result through `isa._new`, a memo hit does not.
    image = MemoryImage(0, [encode(instr("addi", rd=1, rs1=1, imm=k)) for k in range(2000)]
                        + [encode(instr("jal", imm=0))])
    decode.__self__.clear()
    core, mem = started(image, 8192)
    assert core.run(mem).halt_reason is HaltReason.SELF_LOOP
    size = len(decode.__self__)
    built = []
    monkeypatch.setattr(isa, "_new", lambda fields, new=isa._new: built.append(fields) or new(fields))
    oracle = reference_execute(image, mem_size=8192)
    assert oracle.regs == core.regs.snapshot()
    assert disassemble(image).count("addi") == 2000
    assert built == [] and len(decode.__self__) == size == 2001


def _supported(rng: random.Random) -> int:
    """A random word that decodes: the shared bits of a random mnemonic, any
    bits in the fields it leaves free."""
    shape, fixed = ENCODING[rng.choice(sorted(ENCODING))]
    shared = 0x7F if shape == "jump" else 0xFE00707F if shape in ("r", "shift") else 0x707F
    return fixed | (rng.getrandbits(32) & ~shared & MASK32)


def _outcome(fn, word):
    try:
        return fn(word)
    except UnsupportedInstruction as e:
        return str(e)


def test_decode_equals_the_uncached_body_across_a_clear():
    rng = random.Random(1414)
    words = [_supported(rng) if k % 8 else rng.getrandbits(32) for k in range(DECODE_CACHE_SIZE + 8192)]
    memo = decode.__self__
    memo.clear()
    for word in words + words[:2000]:
        assert _outcome(decode, word) == _outcome(isa._decode, word)
    stored = {w for w in words if not isinstance(_outcome(isa._decode, w), str)}
    assert len(stored) > DECODE_CACHE_SIZE > len(memo)  # the memo was emptied once


@pytest.mark.parametrize("word", [0x00500093, 0x0000006F, 0xFE000EE3])
def test_words_equal_modulo_2_32_decode_equal(word):
    assert decode(word) == decode(word + 2**32)


def test_patched_addi_renders_its_new_immediate_each_pass():
    core, mem = started(assemble(SELF_PATCHING))
    shown = []
    core.run(mem, trace=lambda span: shown.extend(
        format_word(rec.ir) for rec in span.records() if rec.pc == 12 and rec.retired))
    assert shown == [f"addi x4, x4, {k}" for k in range(10)]


def test_unsupported_word_renders_as_data_every_time():
    for _ in range(3):
        assert format_word(0xFFFFFFFF) == ".word 0xFFFFFFFF"


@pytest.mark.parametrize("word", [-1, 2**32 + 0xFFFFFFFF, 0x00500093 + 2**32])
def test_format_word_reads_words_modulo_2_32(word):
    assert format_word(word) == format_word(word & MASK32)


def test_a_negative_word_disassembles_to_text_that_assembles_back():
    assert assemble(disassemble(MemoryImage(0, [-1]))).words == [0xFFFFFFFF]

import random

import pytest
from hypothesis import given, strategies as st

from rv32mc import CYCLE_COST, InstrClass, decode, encode, instr
from rv32mc.errors import (
    ImmediateOutOfRange,
    MisalignedImmediate,
    UnsupportedInstruction,
)
from rv32mc.isa import ENCODING, MNEMONIC_CLASS

SHIFT_MNEMONICS = frozenset(m for m, (shape, _) in ENCODING.items() if shape == "shift")


def test_decode_examples():
    assert decode(0x00500093) == instr("addi", rd=1, rs1=0, imm=5)
    assert decode(0x00000033) == instr("add", rd=0, rs1=0, rs2=0)
    assert decode(0x0000006F) == instr("jal", rd=0, imm=0)


def test_encode_examples():
    assert encode(instr("addi", rd=1, rs1=0, imm=5)) == 0x00500093
    assert encode(instr("beq", rs1=0, rs2=0, imm=0)) == 0x00000063


def test_all_ones_is_unsupported():
    with pytest.raises(UnsupportedInstruction):
        decode(0xFFFFFFFF)


@pytest.mark.parametrize(
    "word",
    [
        0x00000000,  # all zeros: no valid opcode
        0x00008067,  # jalr x0, 0(x1)
        0x00001063,  # bne
        0x00004063,  # blt
        0x00000003,  # lb
        0x00004003,  # lbu
        0x00001003,  # lh
        0x00000023,  # sb
        0x00001023,  # sh
        0x000000B7,  # lui
        0x00000097,  # auipc
        0x0000000F,  # fence
        0x00000073,  # ecall
        0x00100073,  # ebreak
        0x02000033,  # mul (funct7=1)
        0x02001093,  # slli with funct7=0b0000001
        0x42015093,  # srai-like with funct7=0b0100001
    ],
)
def test_outside_subset_rejected(word):
    with pytest.raises(UnsupportedInstruction):
        decode(word)


def test_cycle_costs():
    assert CYCLE_COST[InstrClass.LOAD] == 5
    assert CYCLE_COST[InstrClass.BRANCH] == 3
    assert CYCLE_COST[InstrClass.R_ALU] == 4
    assert CYCLE_COST[InstrClass.I_ALU] == 4
    assert CYCLE_COST[InstrClass.STORE] == 4
    assert CYCLE_COST[InstrClass.JUMP] == 4
    assert set(CYCLE_COST.values()) <= {3, 4, 5}
    assert set(CYCLE_COST) == set(InstrClass)


def test_encode_range_errors():
    with pytest.raises(ImmediateOutOfRange):
        encode(instr("addi", rd=1, rs1=0, imm=2048))
    with pytest.raises(ImmediateOutOfRange):
        encode(instr("addi", rd=1, rs1=0, imm=-2049))
    with pytest.raises(ImmediateOutOfRange):
        encode(instr("slli", rd=1, rs1=0, imm=32))
    with pytest.raises(ImmediateOutOfRange):
        encode(instr("beq", rs1=0, rs2=0, imm=4096))
    with pytest.raises(ImmediateOutOfRange):
        encode(instr("jal", rd=0, imm=1 << 20))
    with pytest.raises(MisalignedImmediate):
        encode(instr("beq", rs1=0, rs2=0, imm=3))
    with pytest.raises(MisalignedImmediate):
        encode(instr("jal", rd=0, imm=-5))


def test_encode_rejects_bad_registers():
    with pytest.raises(ValueError):
        encode(instr("add", rd=32, rs1=0, rs2=0))


def test_encode_rejects_unencodable_fields():
    with pytest.raises(ValueError):
        encode(instr("jal", rd=0, rs1=3, imm=0))
    with pytest.raises(ValueError):
        encode(instr("addi", rd=1, rs1=0, rs2=7, imm=0))


# --- property tests ---

_REG = st.integers(0, 31)


@st.composite
def instructions(draw):
    m = draw(st.sampled_from(sorted(MNEMONIC_CLASS)))
    cls = MNEMONIC_CLASS[m]
    if cls is InstrClass.R_ALU:
        return instr(m, rd=draw(_REG), rs1=draw(_REG), rs2=draw(_REG))
    if cls is InstrClass.I_ALU:
        if m in SHIFT_MNEMONICS:
            return instr(m, rd=draw(_REG), rs1=draw(_REG), imm=draw(st.integers(0, 31)))
        return instr(m, rd=draw(_REG), rs1=draw(_REG), imm=draw(st.integers(-2048, 2047)))
    if cls is InstrClass.LOAD:
        return instr(m, rd=draw(_REG), rs1=draw(_REG), imm=draw(st.integers(-2048, 2047)))
    if cls is InstrClass.STORE:
        return instr(m, rs1=draw(_REG), rs2=draw(_REG), imm=draw(st.integers(-2048, 2047)))
    if cls is InstrClass.BRANCH:
        return instr(m, rs1=draw(_REG), rs2=draw(_REG),
                     imm=2 * draw(st.integers(-2048, 2047)))
    return instr(m, rd=draw(_REG), imm=2 * draw(st.integers(-(1 << 19), (1 << 19) - 1)))


@given(instructions())
def test_decode_inverts_encode(ins):
    assert decode(encode(ins)) == ins


@given(instructions())
def test_encode_inverts_decode(ins):
    word = encode(ins)
    assert encode(decode(word)) == word


def test_decode_total_over_random_words():
    # Decode must either produce a re-encodable instruction or reject the
    # word; it may never crash or round-trip inconsistently.
    rng = random.Random(0xBD)
    accepted = 0
    for _ in range(1_000_000):
        word = rng.getrandbits(32)
        try:
            d = decode(word)
        except UnsupportedInstruction:
            continue
        accepted += 1
        assert encode(d) == word
    assert accepted > 0

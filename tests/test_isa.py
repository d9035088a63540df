import random

import pytest
from hypothesis import given, strategies as st

from rv32mc import CYCLE_COST, DecodedInstruction, InstrClass, decode, encode, instr
from rv32mc.errors import (
    ImmediateOutOfRange,
    MisalignedImmediate,
    UnsupportedInstruction,
)
from rv32mc.isa import ENCODING, MNEMONIC_CLASS, encode_fields

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


def test_unknown_mnemonics_and_a_wrong_class_are_refused():
    with pytest.raises(UnsupportedInstruction, match="^unknown mnemonic 'mul'$"):
        instr("mul", rd=1)
    with pytest.raises(UnsupportedInstruction, match="^unknown mnemonic 'mul'$"):
        encode(DecodedInstruction(InstrClass.R_ALU, "mul", 1))
    with pytest.raises(ValueError, match="^add is r_alu, not i_alu$"):
        encode(DecodedInstruction(InstrClass.I_ALU, "add", 1))


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


SELECTOR_BITS = 0xFE00707F  # funct7, funct3 and opcode: what decode dispatches on


def test_decode_total_over_every_selector():
    # Decode must either produce a re-encodable instruction or reject the
    # word; it may never crash or round-trip inconsistently.  Every
    # (opcode, funct3, funct7) selector is tried with two random fillings
    # of the register and immediate bits.
    rng = random.Random(0xBD)
    accepted = 0
    for funct7 in range(128):
        for funct3 in range(8):
            for opcode in range(128):
                selector = funct7 << 25 | funct3 << 12 | opcode
                for _ in range(2):
                    word = selector | rng.getrandbits(32) & ~SELECTOR_BITS
                    try:
                        d = decode(word)
                    except UnsupportedInstruction:
                        continue
                    accepted += 1
                    assert encode(d) == word
    assert accepted > 0


# --- diagnostics, frozen text ---

@pytest.mark.parametrize("word, text", [
    (0x02000033, "R-type funct3=0b000 funct7=0b0000001 in 0x02000033"),  # mul
    (0x40001033, "R-type funct3=0b001 funct7=0b0100000 in 0x40001033"),  # sll with sub's funct7
    (0x02001093, "shift funct7=0b0000001 in 0x02001093"),
    (0x42015093, "shift funct7=0b0100001 in 0x42015093"),
    (0x40001093, "shift funct7=0b0100000 in 0x40001093"),  # slli with srai's funct7
    (0x00004003, "load funct3=0b100 in 0x00004003 (only lw)"),  # lbu
    (0x00001023, "store funct3=0b001 in 0x00001023 (only sw)"),  # sh
    (0x00001063, "branch funct3=0b001 in 0x00001063 (only beq)"),  # bne
    (0x00008067, "opcode 0b1100111 in 0x00008067"),  # jalr
    (0x00000000, "opcode 0b0000000 in 0x00000000"),
    (0xFFFFFFFF, "opcode 0b1111111 in 0xFFFFFFFF"),
])
def test_decode_diagnostics_are_frozen(word, text):
    with pytest.raises(UnsupportedInstruction) as exc:
        decode(word)
    assert str(exc.value) == text


@pytest.mark.parametrize("mnemonic, fields, error, text", [
    ("addi", dict(rd=1, imm=-2049), ImmediateOutOfRange, "immediate -2049 outside [-2048, 2047]"),
    ("addi", dict(rd=1, imm=2048), ImmediateOutOfRange, "immediate 2048 outside [-2048, 2047]"),
    ("lw", dict(rd=1, imm=-2049), ImmediateOutOfRange, "immediate -2049 outside [-2048, 2047]"),
    ("sw", dict(rs2=1, imm=2048), ImmediateOutOfRange, "immediate 2048 outside [-2048, 2047]"),
    ("beq", dict(imm=-4097), ImmediateOutOfRange, "immediate -4097 outside [-4096, 4095]"),
    ("beq", dict(imm=4096), ImmediateOutOfRange, "immediate 4096 outside [-4096, 4095]"),
    ("jal", dict(imm=-(1 << 20) - 1), ImmediateOutOfRange,
     "immediate -1048577 outside [-1048576, 1048575]"),
    ("jal", dict(imm=1 << 20), ImmediateOutOfRange, "immediate 1048576 outside [-1048576, 1048575]"),
    ("slli", dict(rd=1, imm=-1), ImmediateOutOfRange, "shift amount -1 outside [0, 31]"),
    ("srai", dict(rd=1, imm=32), ImmediateOutOfRange, "shift amount 32 outside [0, 31]"),
    ("beq", dict(imm=3), MisalignedImmediate, "odd branch offset 3"),
    ("beq", dict(imm=-4095), MisalignedImmediate, "odd branch offset -4095"),
    ("jal", dict(imm=-5), MisalignedImmediate, "odd jump offset -5"),
    ("jal", dict(imm=(1 << 20) - 1), MisalignedImmediate, "odd jump offset 1048575"),
])
def test_encode_diagnostics_are_frozen(mnemonic, fields, error, text):
    with pytest.raises(error) as exc:
        encode_fields(mnemonic, **fields)
    assert type(exc.value) is error and str(exc.value) == text
    with pytest.raises(error) as exc:
        encode(instr(mnemonic, **fields))
    assert str(exc.value) == text

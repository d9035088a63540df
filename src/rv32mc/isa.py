"""Supported RV32I subset: bit-exact decode/encode and per-class cycle costs.

The subset is R-type and I-type integer ALU ops, lw, sw, beq, and jal.
Decoding is strict: any funct or opcode pattern outside the subset (jalr,
the other branches, sub-word loads/stores, lui/auipc, fence, system ops)
raises UnsupportedInstruction, so decode∘encode round trips are exact.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .errors import ImmediateOutOfRange, MisalignedImmediate, UnsupportedInstruction

MASK32 = 0xFFFFFFFF


def u32(x: int) -> int:
    return x & MASK32


def s32(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


class InstrClass(enum.Enum):
    R_ALU = "r_alu"
    I_ALU = "i_alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"


# Fixed cost of one retired instruction, in clock cycles.
CYCLE_COST = {
    InstrClass.R_ALU: 4,
    InstrClass.I_ALU: 4,
    InstrClass.LOAD: 5,
    InstrClass.STORE: 4,
    InstrClass.BRANCH: 3,
    InstrClass.JUMP: 4,
}


@dataclass(frozen=True)
class DecodedInstruction:
    cls: InstrClass
    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0


_OP_RTYPE = 0b0110011
_OP_IALU = 0b0010011
_OP_LOAD = 0b0000011
_OP_STORE = 0b0100011
_OP_BRANCH = 0b1100011
_OP_JAL = 0b1101111

# (funct3, funct7) -> mnemonic
_R_DECODE = {
    (0b000, 0b0000000): "add",
    (0b000, 0b0100000): "sub",
    (0b001, 0b0000000): "sll",
    (0b010, 0b0000000): "slt",
    (0b011, 0b0000000): "sltu",
    (0b100, 0b0000000): "xor",
    (0b101, 0b0000000): "srl",
    (0b101, 0b0100000): "sra",
    (0b110, 0b0000000): "or",
    (0b111, 0b0000000): "and",
}
_R_ENCODE = {m: f for f, m in _R_DECODE.items()}

# funct3 -> mnemonic, immediate is the full 12-bit I field
_I_DECODE = {
    0b000: "addi",
    0b010: "slti",
    0b011: "sltiu",
    0b100: "xori",
    0b110: "ori",
    0b111: "andi",
}
_I_ENCODE = {m: f for f, m in _I_DECODE.items()}

# (funct3, funct7) -> mnemonic, immediate is the 5-bit shamt field
_SHIFT_DECODE = {
    (0b001, 0b0000000): "slli",
    (0b101, 0b0000000): "srli",
    (0b101, 0b0100000): "srai",
}
_SHIFT_ENCODE = {m: f for f, m in _SHIFT_DECODE.items()}

MNEMONIC_CLASS: dict[str, InstrClass] = {
    **{m: InstrClass.R_ALU for m in _R_ENCODE},
    **{m: InstrClass.I_ALU for m in _I_ENCODE},
    **{m: InstrClass.I_ALU for m in _SHIFT_ENCODE},
    "lw": InstrClass.LOAD,
    "sw": InstrClass.STORE,
    "beq": InstrClass.BRANCH,
    "jal": InstrClass.JUMP,
}

SHIFT_MNEMONICS = frozenset(_SHIFT_ENCODE)


def instr(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> DecodedInstruction:
    """Build an instruction with the class derived from the mnemonic."""
    if mnemonic not in MNEMONIC_CLASS:
        raise UnsupportedInstruction(f"unknown mnemonic {mnemonic!r}")
    return DecodedInstruction(MNEMONIC_CLASS[mnemonic], mnemonic, rd, rs1, rs2, imm)


def _sext(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


# Distinct words `decode` remembers, least recently used dropped first.
# Keyed by word value, so code that rewrites itself decodes the new word;
# bounded, so an image of many distinct words or a loop that patches its
# own immediate costs at most this many entries for the whole process.
DECODE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode(word: int) -> DecodedInstruction:
    """Decode a 32-bit word; total over the subset, strict outside it.

    Results are cached by word (DecodedInstruction is frozen); a word
    outside the subset is not cached and raises on every call.
    """
    word = u32(word)
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = (word >> 25) & 0x7F

    if opcode == _OP_RTYPE:
        m = _R_DECODE.get((funct3, funct7))
        if m is None:
            raise UnsupportedInstruction(f"R-type funct3={funct3:#05b} funct7={funct7:#09b} in 0x{word:08X}")
        return DecodedInstruction(InstrClass.R_ALU, m, rd=rd, rs1=rs1, rs2=rs2)

    if opcode == _OP_IALU:
        shift = _SHIFT_DECODE.get((funct3, funct7))
        if shift is not None:
            return DecodedInstruction(InstrClass.I_ALU, shift, rd=rd, rs1=rs1, imm=rs2)
        if funct3 in (0b001, 0b101):
            raise UnsupportedInstruction(f"shift funct7={funct7:#09b} in 0x{word:08X}")
        m = _I_DECODE.get(funct3)
        if m is None:
            raise UnsupportedInstruction(f"I-type funct3={funct3:#05b} in 0x{word:08X}")
        return DecodedInstruction(InstrClass.I_ALU, m, rd=rd, rs1=rs1, imm=_sext(word >> 20, 12))

    if opcode == _OP_LOAD:
        if funct3 != 0b010:
            raise UnsupportedInstruction(f"load funct3={funct3:#05b} in 0x{word:08X} (only lw)")
        return DecodedInstruction(InstrClass.LOAD, "lw", rd=rd, rs1=rs1, imm=_sext(word >> 20, 12))

    if opcode == _OP_STORE:
        if funct3 != 0b010:
            raise UnsupportedInstruction(f"store funct3={funct3:#05b} in 0x{word:08X} (only sw)")
        imm = _sext((funct7 << 5) | rd, 12)
        return DecodedInstruction(InstrClass.STORE, "sw", rs1=rs1, rs2=rs2, imm=imm)

    if opcode == _OP_BRANCH:
        if funct3 != 0b000:
            raise UnsupportedInstruction(f"branch funct3={funct3:#05b} in 0x{word:08X} (only beq)")
        imm = _sext(
            ((word >> 31) << 12)
            | (((word >> 7) & 0x1) << 11)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1),
            13,
        )
        return DecodedInstruction(InstrClass.BRANCH, "beq", rs1=rs1, rs2=rs2, imm=imm)

    if opcode == _OP_JAL:
        imm = _sext(
            ((word >> 31) << 20)
            | (((word >> 12) & 0xFF) << 12)
            | (((word >> 20) & 0x1) << 11)
            | (((word >> 21) & 0x3FF) << 1),
            21,
        )
        return DecodedInstruction(InstrClass.JUMP, "jal", rd=rd, imm=imm)

    raise UnsupportedInstruction(f"opcode {opcode:#09b} in 0x{word:08X}")


def format_instruction(ins: DecodedInstruction) -> str:
    """Canonical text for one instruction; assembles back to the same word."""
    m = ins.mnemonic
    if ins.cls is InstrClass.R_ALU:
        return f"{m} x{ins.rd}, x{ins.rs1}, x{ins.rs2}"
    if ins.cls is InstrClass.I_ALU:
        return f"{m} x{ins.rd}, x{ins.rs1}, {ins.imm}"
    if ins.cls is InstrClass.LOAD:
        return f"{m} x{ins.rd}, {ins.imm}(x{ins.rs1})"
    if ins.cls is InstrClass.STORE:
        return f"{m} x{ins.rs2}, {ins.imm}(x{ins.rs1})"
    if ins.cls is InstrClass.BRANCH:
        return f"{m} x{ins.rs1}, x{ins.rs2}, {ins.imm}"
    return f"{m} x{ins.rd}, {ins.imm}"


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def format_word(word: int) -> str:
    """Canonical text for any word; one outside the subset becomes `.word`.

    Cached by word value within the same bound as `decode`: a trace
    renders the same `ir` on each cycle of its instruction, and code that
    rewrites itself renders the new word.
    """
    try:
        return format_instruction(decode(word))
    except UnsupportedInstruction:
        return f".word 0x{word:08X}"


def _check_reg(name: str, value: int) -> None:
    if not 0 <= value <= 31:
        raise ValueError(f"{name}={value} is not a register index")


def _check_zero(mnemonic: str, **fields: int) -> None:
    for name, value in fields.items():
        if value != 0:
            raise ValueError(f"{mnemonic} does not encode {name} (got {value})")


def _check_signed(imm: int, bits: int) -> None:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= imm <= hi:
        raise ImmediateOutOfRange(f"immediate {imm} outside [{lo}, {hi}]")


def encode(ins: DecodedInstruction) -> int:
    """Inverse of decode; rejects fields the format cannot represent."""
    m = ins.mnemonic
    if m not in MNEMONIC_CLASS:
        raise UnsupportedInstruction(f"unknown mnemonic {m!r}")
    if MNEMONIC_CLASS[m] is not ins.cls:
        raise ValueError(f"{m} is {MNEMONIC_CLASS[m].value}, not {ins.cls.value}")
    _check_reg("rd", ins.rd)
    _check_reg("rs1", ins.rs1)
    _check_reg("rs2", ins.rs2)

    if m in _R_ENCODE:
        _check_zero(m, imm=ins.imm)
        f3, f7 = _R_ENCODE[m]
        return (f7 << 25) | (ins.rs2 << 20) | (ins.rs1 << 15) | (f3 << 12) | (ins.rd << 7) | _OP_RTYPE

    if m in _SHIFT_ENCODE:
        _check_zero(m, rs2=ins.rs2)
        if not 0 <= ins.imm <= 31:
            raise ImmediateOutOfRange(f"shift amount {ins.imm} outside [0, 31]")
        f3, f7 = _SHIFT_ENCODE[m]
        return (f7 << 25) | (ins.imm << 20) | (ins.rs1 << 15) | (f3 << 12) | (ins.rd << 7) | _OP_IALU

    if m in _I_ENCODE:
        _check_zero(m, rs2=ins.rs2)
        _check_signed(ins.imm, 12)
        return ((ins.imm & 0xFFF) << 20) | (ins.rs1 << 15) | (_I_ENCODE[m] << 12) | (ins.rd << 7) | _OP_IALU

    if m == "lw":
        _check_zero(m, rs2=ins.rs2)
        _check_signed(ins.imm, 12)
        return ((ins.imm & 0xFFF) << 20) | (ins.rs1 << 15) | (0b010 << 12) | (ins.rd << 7) | _OP_LOAD

    if m == "sw":
        _check_zero(m, rd=ins.rd)
        _check_signed(ins.imm, 12)
        imm = ins.imm & 0xFFF
        return (
            ((imm >> 5) << 25)
            | (ins.rs2 << 20)
            | (ins.rs1 << 15)
            | (0b010 << 12)
            | ((imm & 0x1F) << 7)
            | _OP_STORE
        )

    if m == "beq":
        _check_zero(m, rd=ins.rd)
        _check_signed(ins.imm, 13)
        if ins.imm % 2:
            raise MisalignedImmediate(f"odd branch offset {ins.imm}")
        imm = ins.imm & 0x1FFF
        return (
            ((imm >> 12) << 31)
            | (((imm >> 5) & 0x3F) << 25)
            | (ins.rs2 << 20)
            | (ins.rs1 << 15)
            | (((imm >> 1) & 0xF) << 8)
            | (((imm >> 11) & 0x1) << 7)
            | _OP_BRANCH
        )

    # jal
    _check_zero(m, rs1=ins.rs1, rs2=ins.rs2)
    _check_signed(ins.imm, 21)
    if ins.imm % 2:
        raise MisalignedImmediate(f"odd jump offset {ins.imm}")
    imm = ins.imm & 0x1FFFFF
    return (
        ((imm >> 20) << 31)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 0x1) << 20)
        | (((imm >> 12) & 0xFF) << 12)
        | (ins.rd << 7)
        | _OP_JAL
    )

"""Supported RV32I subset: bit-exact decode/encode and per-class cycle costs.

The subset is R-type and I-type integer ALU ops, lw, sw, beq, and jal.
Decoding is strict: any funct or opcode pattern outside the subset (jalr,
the other branches, sub-word loads/stores, lui/auipc, fence, system ops)
raises UnsupportedInstruction, so decode∘encode round trips are exact.

The format is written once, in two tables: one row per operand shape
(class, opcode, unused fields, the immediate's bit layout) and one row per
mnemonic (shape, funct3, funct7).  `ENCODING`, `MNEMONIC_CLASS` and the
decode table derive from them, and `encode_fields` and `decode` each walk
the same layout, one direction each.

`decode(word)` is the bound `__getitem__` of a process-wide memo: it takes
the word positionally only, and its own docstring is dict's.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .errors import ImmediateOutOfRange, MisalignedImmediate, UnsupportedInstruction

MASK32 = 0xFFFFFFFF


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


class DecodedInstruction(NamedTuple):
    cls: InstrClass
    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0


# Operand shape -> (class, opcode, fields the shape does not encode, the
# immediate's fields in the word as (bit of the immediate, bit of the word,
# width), as the ISA manual's "Immediate Encoding Variants" draw them).  The
# shape also says how the assembler writes its operands (each row's comment).
_SHAPES: dict[str, tuple[InstrClass, int, tuple[str, ...], tuple[tuple[int, int, int], ...]]] = {
    "r": (InstrClass.R_ALU, 0b0110011, ("imm",), ()),                # rd, rs1, rs2
    "i": (InstrClass.I_ALU, 0b0010011, ("rs2",), ((0, 20, 12),)),     # rd, rs1, imm
    "shift": (InstrClass.I_ALU, 0b0010011, ("rs2",), ((0, 20, 5),)),  # rd, rs1, shamt
    "load": (InstrClass.LOAD, 0b0000011, ("rs2",), ((0, 20, 12),)),   # rd, imm(rs1)
    "store": (InstrClass.STORE, 0b0100011, ("rd",), ((5, 25, 7), (0, 7, 5))),  # rs2, imm(rs1)
    "branch": (InstrClass.BRANCH, 0b1100011, ("rd",),  # rs1, rs2, even offset
               ((12, 31, 1), (5, 25, 6), (1, 8, 4), (11, 7, 1))),
    "jump": (InstrClass.JUMP, 0b1101111, ("rs1", "rs2"),  # rd, even offset
             ((20, 31, 1), (1, 21, 10), (11, 20, 1), (12, 12, 8))),
}

# Mnemonic -> (operand shape, funct3, funct7); None where the shape has
# immediate bits in that field's place.
_MNEMONICS: dict[str, tuple[str, int | None, int | None]] = {
    "add": ("r", 0b000, 0b0000000),
    "sub": ("r", 0b000, 0b0100000),
    "sll": ("r", 0b001, 0b0000000),
    "slt": ("r", 0b010, 0b0000000),
    "sltu": ("r", 0b011, 0b0000000),
    "xor": ("r", 0b100, 0b0000000),
    "srl": ("r", 0b101, 0b0000000),
    "sra": ("r", 0b101, 0b0100000),
    "or": ("r", 0b110, 0b0000000),
    "and": ("r", 0b111, 0b0000000),
    "addi": ("i", 0b000, None),
    "slti": ("i", 0b010, None),
    "sltiu": ("i", 0b011, None),
    "xori": ("i", 0b100, None),
    "ori": ("i", 0b110, None),
    "andi": ("i", 0b111, None),
    "slli": ("shift", 0b001, 0b0000000),
    "srli": ("shift", 0b101, 0b0000000),
    "srai": ("shift", 0b101, 0b0100000),
    "lw": ("load", 0b010, None),
    "sw": ("store", 0b010, None),
    "beq": ("branch", 0b000, None),
    "jal": ("jump", None, None),
}

# Mnemonic -> (operand shape, the bits every encoding of it shares).
ENCODING: dict[str, tuple[str, int]] = {m: (shape, (f7 or 0) << 25 | (f3 or 0) << 12 | _SHAPES[shape][1])
                                        for m, (shape, f3, f7) in _MNEMONICS.items()}

MNEMONIC_CLASS: dict[str, InstrClass] = {m: _SHAPES[shape][0] for m, (shape, _) in ENCODING.items()}


def _immediate(shape: str) -> tuple[str, int, int, int, int, tuple[tuple[int, int, int], ...]]:
    """What its immediate is called, its range and width, the bits of it the
    word drops, and its fields as (bit of it, bit of the word, mask)."""
    layout = _SHAPES[shape][3]
    bits = max((at + width for at, _, width in layout), default=0)
    kept = sum(((1 << width) - 1) << at for at, _, width in layout)
    fields = tuple((at, bit, (1 << width) - 1) for at, bit, width in layout)
    if shape == "shift":
        return "shift amount", 0, kept, bits, 0, fields
    half = (1 << bits) >> 1
    return "immediate", -half, half - 1, bits, ((1 << bits) - 1) & ~kept, fields


_IMMEDIATES = {shape: _immediate(shape) for shape in _SHAPES}


def instr(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> DecodedInstruction:
    """Build an instruction with the class derived from the mnemonic."""
    if mnemonic not in MNEMONIC_CLASS:
        raise UnsupportedInstruction(f"unknown mnemonic {mnemonic!r}")
    return DecodedInstruction(MNEMONIC_CLASS[mnemonic], mnemonic, rd, rs1, rs2, imm)


def _decode_table() -> dict[int, tuple]:
    """opcode | funct3 << 12 -> (class, mnemonic, or {funct7: mnemonic} where
    funct7 selects it, the masks of rd, rs1 and rs2, and the immediate's
    width and fields).  jal has no funct3, so it sits under all eight."""
    table: dict = {}
    for m, (shape, f3, f7) in _MNEMONICS.items():
        cls, opcode, unused, _ = _SHAPES[shape]
        masks = [0 if name in unused else 0x1F for name in ("rd", "rs1", "rs2")]
        bits, fields = _IMMEDIATES[shape][3], _IMMEDIATES[shape][5]
        for key in range(opcode, 0x8000, 0x1000) if f3 is None else [opcode | f3 << 12]:
            if f7 is None:
                table[key] = (cls, m, *masks, bits, fields)
            else:
                table.setdefault(key, (cls, {}, *masks, bits, fields))[1][f7] = m
    return table


_DECODE = _decode_table()

# Opcode -> (shape, mnemonic) of its last row: for I-type, a shift.
_BY_OPCODE = {_SHAPES[shape][1]: (shape, m) for m, (shape, _, _) in _MNEMONICS.items()}


def _unsupported(word: int) -> UnsupportedInstruction:
    opcode, funct3, funct7 = word & 0x7F, (word >> 12) & 0x7, word >> 25
    shape, m = _BY_OPCODE.get(opcode, (None, None))
    if shape == "r":
        why = f"R-type funct3={funct3:#05b} funct7={funct7:#09b} in 0x{word:08X}"
    elif shape == "shift":  # every funct3 is used; only a shift's funct7 can miss
        why = f"shift funct7={funct7:#09b} in 0x{word:08X}"
    elif shape:
        why = f"{shape} funct3={funct3:#05b} in 0x{word:08X} (only {m})"
    else:
        why = f"opcode {opcode:#09b} in 0x{word:08X}"
    return UnsupportedInstruction(why)


# Distinct words `decode` remembers, 128 KiB of code: each word of an image
# is decoded once per process.  Keyed by word value, so code that rewrites
# itself decodes the new word; a full memo is emptied before it grows.
DECODE_CACHE_SIZE = 32768


# `decode` gives every field, so it builds its result directly: the
# NamedTuple's own __new__ is a Python-level call.
_new = functools.partial(tuple.__new__, DecodedInstruction)


def _decode(word: int) -> DecodedInstruction:
    word &= MASK32
    cls, m, rd, rs1, rs2, bits, fields = _DECODE.get(word & 0x707F, (None,) * 7)
    if isinstance(m, dict):
        m = m.get(word >> 25)
    if m is None:
        raise _unsupported(word)
    imm = -(word >> 31) << bits  # no funct7 of the subset sets bit 31
    for at, bit, mask in fields:
        imm |= ((word >> bit) & mask) << at
    return _new((cls, m, (word >> 7) & rd, (word >> 15) & rs1, (word >> 20) & rs2, imm))


class _DecodeMemo(dict):
    """Decode a 32-bit word; total over the subset, strict outside it.

    `decode` is the memo's bound `__getitem__`, so a hit is a C-level dict
    lookup; a miss stores the immutable result, emptying a full memo first.
    A word outside the subset is never stored and raises on every call.
    """

    def __missing__(self, word: int) -> DecodedInstruction:
        ins = _decode(word)
        if len(self) >= DECODE_CACHE_SIZE:
            self.clear()
        self[word] = ins
        return ins


decode = _DecodeMemo().__getitem__


# Classes bound once: an enum member read through its class is a
# Python-level lookup, and formatting tests the class of every word.
_R_ALU, _I_ALU, _LOAD, _STORE, _BRANCH = (
    InstrClass.R_ALU, InstrClass.I_ALU, InstrClass.LOAD, InstrClass.STORE, InstrClass.BRANCH
)


def format_instruction(ins: DecodedInstruction) -> str:
    """Canonical text for one instruction; assembles back to the same word."""
    cls, m, rd, rs1, rs2, imm = ins
    if cls is _R_ALU:
        return f"{m} x{rd}, x{rs1}, x{rs2}"
    if cls is _I_ALU:
        return f"{m} x{rd}, x{rs1}, {imm}"
    if cls is _LOAD:
        return f"{m} x{rd}, {imm}(x{rs1})"
    if cls is _STORE:
        return f"{m} x{rs2}, {imm}(x{rs1})"
    if cls is _BRANCH:
        return f"{m} x{rs1}, x{rs2}, {imm}"
    return f"{m} x{rd}, {imm}"


def format_word(word: int) -> str:
    """Canonical text for any word; one outside the subset becomes `.word`."""
    try:
        return format_instruction(decode(word))
    except UnsupportedInstruction:
        return f".word 0x{word & MASK32:08X}"


def encode_fields(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """The word of `mnemonic` with these fields: the one bit packer.

    Registers must be 0..31 and a field the operand shape does not encode
    must be 0; `encode` checks both, the assembler parses nothing else.
    The immediate is range-checked here, then laid out as the shape says.
    """
    shape, word = ENCODING[mnemonic]
    what, lo, hi, _, dropped, fields = _IMMEDIATES[shape]
    if fields:
        if not lo <= imm <= hi:
            raise ImmediateOutOfRange(f"{what} {imm} outside [{lo}, {hi}]")
        if imm & dropped:
            raise MisalignedImmediate(f"odd {shape} offset {imm}")
        for at, bit, mask in fields:
            word |= ((imm >> at) & mask) << bit
    return word | (rs2 << 20) | (rs1 << 15) | (rd << 7)


def encode(ins: DecodedInstruction) -> int:
    """Inverse of decode; rejects fields the format cannot represent."""
    m = ins.mnemonic
    if m not in ENCODING:
        raise UnsupportedInstruction(f"unknown mnemonic {m!r}")
    cls, _, unused, _ = _SHAPES[ENCODING[m][0]]
    if cls is not ins.cls:
        raise ValueError(f"{m} is {cls.value}, not {ins.cls.value}")
    for name in ("rd", "rs1", "rs2"):
        if not 0 <= getattr(ins, name) <= 31:
            raise ValueError(f"{name}={getattr(ins, name)} is not a register index")
    for name in unused:
        if getattr(ins, name) != 0:
            raise ValueError(f"{m} does not encode {name} (got {getattr(ins, name)})")
    return encode_fields(m, ins.rd, ins.rs1, ins.rs2, ins.imm)

"""Supported RV32I subset: bit-exact decode/encode and per-class cycle costs.

The subset is R-type and I-type integer ALU ops, lw, sw, beq, and jal.
Decoding is strict: any funct or opcode pattern outside the subset (jalr,
the other branches, sub-word loads/stores, lui/auipc, fence, system ops)
raises UnsupportedInstruction, so decode∘encode round trips are exact.

`decode(word)` is the bound `__getitem__` of a process-wide memo: it takes
the word positionally only, and its own docstring is dict's.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

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


class DecodedInstruction(NamedTuple):
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

# funct3 -> mnemonic, immediate is the full 12-bit I field
_I_DECODE = {
    0b000: "addi",
    0b010: "slti",
    0b011: "sltiu",
    0b100: "xori",
    0b110: "ori",
    0b111: "andi",
}

# (funct3, funct7) -> mnemonic, immediate is the 5-bit shamt field
_SHIFT_DECODE = {
    (0b001, 0b0000000): "slli",
    (0b101, 0b0000000): "srli",
    (0b101, 0b0100000): "srai",
}

# Operand shape -> (class, fields the shape does not encode).  The shape
# says which fields an instruction has, where its immediate goes in the
# word, and how the assembler writes its operands.
_SHAPES: dict[str, tuple[InstrClass, tuple[str, ...]]] = {
    "r": (InstrClass.R_ALU, ("imm",)),       # rd, rs1, rs2
    "i": (InstrClass.I_ALU, ("rs2",)),       # rd, rs1, 12-bit imm
    "shift": (InstrClass.I_ALU, ("rs2",)),   # rd, rs1, 5-bit shamt
    "load": (InstrClass.LOAD, ("rs2",)),     # rd, imm(rs1), I layout
    "store": (InstrClass.STORE, ("rd",)),    # rs2, imm(rs1)
    "branch": (InstrClass.BRANCH, ("rd",)),  # rs1, rs2, even 13-bit offset
    "jump": (InstrClass.JUMP, ("rs1", "rs2")),  # rd, even 21-bit offset
}

# Mnemonic -> (operand shape, the bits every encoding of it shares:
# opcode, funct3 and, for "r" and "shift", funct7).  `encode_fields` packs
# from it and `decode` looks up its inverse.
ENCODING: dict[str, tuple[str, int]] = {
    **{m: ("r", f7 << 25 | f3 << 12 | _OP_RTYPE) for (f3, f7), m in _R_DECODE.items()},
    **{m: ("i", f3 << 12 | _OP_IALU) for f3, m in _I_DECODE.items()},
    **{m: ("shift", f7 << 25 | f3 << 12 | _OP_IALU) for (f3, f7), m in _SHIFT_DECODE.items()},
    "lw": ("load", 0b010 << 12 | _OP_LOAD),
    "sw": ("store", 0b010 << 12 | _OP_STORE),
    "beq": ("branch", _OP_BRANCH),
    "jal": ("jump", _OP_JAL),
}

MNEMONIC_CLASS: dict[str, InstrClass] = {m: _SHAPES[shape][0] for m, (shape, _) in ENCODING.items()}


def instr(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> DecodedInstruction:
    """Build an instruction with the class derived from the mnemonic."""
    if mnemonic not in MNEMONIC_CLASS:
        raise UnsupportedInstruction(f"unknown mnemonic {mnemonic!r}")
    return DecodedInstruction(MNEMONIC_CLASS[mnemonic], mnemonic, rd, rs1, rs2, imm)


def _decode_table() -> dict[int, tuple[InstrClass, str, str | dict[int, str]]]:
    """opcode | funct3 << 12 -> (class, shape, mnemonic), or for the
    shapes that funct7 selects within, (class, shape, {funct7: mnemonic}).
    jal has no funct3, so it sits under all eight."""
    table: dict = {}
    for m, (shape, fixed) in ENCODING.items():
        cls = _SHAPES[shape][0]
        for f3 in range(8) if shape == "jump" else [(fixed >> 12) & 0x7]:
            key = (f3 << 12) | (fixed & 0x7F)
            if shape in ("r", "shift"):
                table.setdefault(key, (cls, shape, {}))[2][fixed >> 25] = m
            else:
                table[key] = (cls, shape, m)
    return table


_DECODE = _decode_table()

# Opcode -> (shape, mnemonic) where the subset has one funct3 of it.
_ONLY = {fixed & 0x7F: (shape, m) for m, (shape, fixed) in ENCODING.items()
         if shape in ("load", "store", "branch")}


def _unsupported(word: int) -> UnsupportedInstruction:
    opcode, funct3, funct7 = word & 0x7F, (word >> 12) & 0x7, word >> 25
    if opcode == _OP_RTYPE:
        why = f"R-type funct3={funct3:#05b} funct7={funct7:#09b} in 0x{word:08X}"
    elif opcode == _OP_IALU:  # every funct3 is used; only a shift's funct7 can miss
        why = f"shift funct7={funct7:#09b} in 0x{word:08X}"
    elif opcode in _ONLY:
        shape, m = _ONLY[opcode]
        why = f"{shape} funct3={funct3:#05b} in 0x{word:08X} (only {m})"
    else:
        why = f"opcode {opcode:#09b} in 0x{word:08X}"
    return UnsupportedInstruction(why)


# Distinct words `decode` remembers, 128 KiB of code: each word of an image
# is decoded once per process.  Keyed by word value, so code that rewrites
# itself decodes the new word; a full memo is emptied before it grows.
DECODE_CACHE_SIZE = 32768
# Distinct words each per-word `lru_cache` (`format_word` and the trace's
# CSV tail) remembers, least recently used first out.
WORD_CACHE_SIZE = 1024


# `decode` gives every field, so it builds its result directly: the
# NamedTuple's own __new__ is a Python-level call.
_new = functools.partial(tuple.__new__, DecodedInstruction)


def _decode(word: int) -> DecodedInstruction:
    word &= MASK32
    cls, shape, m = _DECODE.get(word & 0x707F, (None, None, None))
    if isinstance(m, dict):
        m = m.get(word >> 25)
    if m is None:
        raise _unsupported(word)
    rd = (word >> 7) & 0x1F
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    if shape == "r":
        return _new((cls, m, rd, rs1, rs2, 0))
    if shape == "shift":
        return _new((cls, m, rd, rs1, 0, rs2))
    # Every immediate's sign is bit 31: shifting the signed word right
    # sign-extends the top field, and the other fields are OR'd below it.
    sword = (word ^ 0x80000000) - 0x80000000
    if shape == "i" or shape == "load":
        return _new((cls, m, rd, rs1, 0, sword >> 20))
    if shape == "store":
        return _new((cls, m, 0, rs1, rs2, ((sword >> 25) << 5) | rd))
    if shape == "branch":
        imm = (
            ((sword >> 31) << 12)
            | (((word >> 7) & 0x1) << 11)
            | (((word >> 25) & 0x3F) << 5)
            | (((word >> 8) & 0xF) << 1)
        )
        return _new((cls, m, 0, rs1, rs2, imm))
    imm = (
        ((sword >> 31) << 20)
        | (((word >> 12) & 0xFF) << 12)
        | (((word >> 20) & 0x1) << 11)
        | (((word >> 21) & 0x3FF) << 1)
    )
    return _new((cls, m, rd, 0, 0, imm))


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


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def format_word(word: int) -> str:
    """Canonical text for any word; one outside the subset becomes `.word`.

    Cached by word value, `WORD_CACHE_SIZE` of them: a trace
    renders the same `ir` on each cycle of its instruction, and code that
    rewrites itself renders the new word.
    """
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
    word |= (rs2 << 20) | (rs1 << 15) | (rd << 7)
    if shape == "r":
        return word
    if shape == "shift":
        if not 0 <= imm <= 31:
            raise ImmediateOutOfRange(f"shift amount {imm} outside [0, 31]")
        return word | (imm << 20)
    bits = 21 if shape == "jump" else 13 if shape == "branch" else 12
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= imm <= hi:
        raise ImmediateOutOfRange(f"immediate {imm} outside [{lo}, {hi}]")
    if bits > 12 and imm % 2:
        raise MisalignedImmediate(f"odd {shape} offset {imm}")
    imm &= (1 << bits) - 1
    if shape == "store":
        return word | ((imm >> 5) << 25) | ((imm & 0x1F) << 7)
    if shape == "branch":
        return (
            word
            | ((imm >> 12) << 31)
            | (((imm >> 5) & 0x3F) << 25)
            | (((imm >> 1) & 0xF) << 8)
            | (((imm >> 11) & 0x1) << 7)
        )
    if shape == "jump":
        return (
            word
            | ((imm >> 20) << 31)
            | (((imm >> 1) & 0x3FF) << 21)
            | (((imm >> 11) & 0x1) << 20)
            | (((imm >> 12) & 0xFF) << 12)
        )
    return word | (imm << 20)  # "i" and "load"


def encode(ins: DecodedInstruction) -> int:
    """Inverse of decode; rejects fields the format cannot represent."""
    m = ins.mnemonic
    if m not in ENCODING:
        raise UnsupportedInstruction(f"unknown mnemonic {m!r}")
    cls, unused = _SHAPES[ENCODING[m][0]]
    if cls is not ins.cls:
        raise ValueError(f"{m} is {cls.value}, not {ins.cls.value}")
    for name in ("rd", "rs1", "rs2"):
        if not 0 <= getattr(ins, name) <= 31:
            raise ValueError(f"{name}={getattr(ins, name)} is not a register index")
    for name in unused:
        if getattr(ins, name) != 0:
            raise ValueError(f"{m} does not encode {name} (got {getattr(ins, name)})")
    return encode_fields(m, ins.rd, ins.rs1, ins.rs2, ins.imm)

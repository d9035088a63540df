"""Two-pass assembler, disassembler, and the hex image file format.

Grammar, one statement per line:

    [label:] mnemonic operands      # comment   // comment
    [label:] .org ADDR              place following words at ADDR
    [label:] .word VALUE            emit a raw 32-bit word

Registers are x0..x31 only.  Immediates are decimal or 0x hex, optionally
signed; a decimal has no leading zero before a nonzero digit (`010` is
refused, not read as octal).  Branch and jump targets are labels (resolved pc-relative) or
signed byte-offset literals.  Memory operands are written OFFSET(xN).

Hex image files carry one 8-digit word per line, lowest address first,
with optional `@HEXADDR` records giving the word address of what follows;
`#` and `//` comments and blank lines are ignored.  Dumps and observation
output use the same format, so they are reloadable.  `image_to_hex` packs
all words in one call, and `parse_hex` reads text of exactly that form
(an optional first line of `@` and 1 to 8 hex digits, then only lines of
8 ASCII hex digits, each ending in `\\n`) as one block; any other text is
read line by line, with the same result.
"""

from __future__ import annotations

import re
import struct

from .errors import (
    AsmError,
    BadOperand,
    BranchTargetMisaligned,
    DuplicateLabel,
    EncodeError,
    ImmediateOutOfRange,
    MisalignedImmediate,
    OperandCount,
    UndefinedLabel,
    UnknownMnemonic,
)
from .isa import ENCODING, MASK32, encode_fields, format_word
from .memory import MemoryImage

_COMMENT_RE = re.compile(r"#.*|//.*")
_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.]*)\s*:\s*(.*)$")
_IDENT_RE = re.compile(r"^[A-Za-z_.][\w.]*$")
_REGS = {f"x{n}": n for n in range(32)}
_LAST_WORD = MASK32 & ~3  # the highest word address
_NUMBER = r"[+-]?(?:0[xX][0-9a-fA-F]+|[1-9][0-9]*|0+)"
_IMM_RE = re.compile(rf"^{_NUMBER}$")
_MEM_RE = re.compile(rf"^({_NUMBER})\s*\(\s*(x\d+)\s*\)$")
# Hex image lines: a word, or `@` and a word address, unsigned hex only.
_HEX_WORD_RE = re.compile(r"[0-9a-fA-F]{1,8}")
_HEX_ADDR_RE = re.compile(r"@[0-9a-fA-F]{1,8}")
# The words of image_to_hex's form: one character class, not a repeated
# 9-character group, so matching keeps no stack entry per line.
_HEX_BLOCK_RE = re.compile(r"[0-9a-fA-F\n]*")


def _parse_reg(tok: str, line: int) -> int:
    reg = _REGS.get(tok)
    if reg is None:
        raise BadOperand(f"{tok!r} is not a register (x0..x31)", line=line)
    return reg


def _parse_imm(tok: str, line: int) -> int:
    if not _IMM_RE.match(tok):
        raise BadOperand(f"{tok!r} is not a decimal or 0x immediate", line=line)
    return int(tok, 0)


def assemble(source: str, base: int = 0) -> MemoryImage:
    """Assemble source text into a memory image.

    Pass 1 places statements and collects labels; pass 2 encodes.  The
    image starts at the first emitted word; `.org` gaps are zero-filled.
    """
    if base % 4 or not 0 <= base <= MASK32:
        raise BadOperand(f"base address {base:#x} is not a word-aligned 32-bit address")

    labels: dict[str, int] = {}
    stmts: list[tuple[int, int, str, str]] = []  # (line, address, mnemonic, operands)
    addr = base

    for lineno, text in enumerate(source.splitlines(), start=1):
        if "#" in text or "//" in text:
            text = _COMMENT_RE.sub("", text)
        text = text.strip()
        while ":" in text:
            m = _LABEL_RE.match(text)
            if not m:
                break
            label, text = m.group(1), m.group(2).strip()
            if label in labels:
                raise DuplicateLabel(f"label {label!r} already defined", line=lineno)
            labels[label] = addr
        if not text:
            continue

        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""

        if mnemonic == ".org":
            target = _parse_imm(rest.strip(), lineno) if rest.strip() else None
            if target is None:
                raise OperandCount(".org needs an address", line=lineno)
            if target % 4:
                raise MisalignedImmediate(f".org {target:#x} is not word-aligned", line=lineno)
            if target < addr:
                raise BadOperand(f".org {target:#x} moves backward from {addr:#x}", line=lineno)
            if target > _LAST_WORD:
                raise BadOperand(f".org {target:#x} is past the last word address", line=lineno)
            addr = target
            continue

        if mnemonic == ".word" and not rest:
            raise OperandCount(".word needs a value", line=lineno)
        if addr > _LAST_WORD:
            raise BadOperand(f"statement at {addr:#x} is past the last word address", line=lineno)
        stmts.append((lineno, addr, mnemonic, rest))
        addr += 4

    emitted: dict[int, int] = {}
    for lineno, addr, mnemonic, rest in stmts:
        if mnemonic == ".word":
            value = _parse_imm(rest, lineno)
            if not -(1 << 31) <= value < (1 << 32):
                raise ImmediateOutOfRange(f".word value {value} needs more than 32 bits", line=lineno)
            emitted[addr] = value & 0xFFFFFFFF
        else:
            emitted[addr] = _encode_statement(lineno, addr, mnemonic, rest, labels)
    return MemoryImage.gather(emitted, base)


def _encode_statement(line: int, addr: int, m: str, rest: str, labels: dict[str, int]) -> int:
    """Parse the operands of `m` as its operand shape writes them, then pack."""
    if m not in ENCODING:
        raise UnknownMnemonic(f"unknown mnemonic {m!r}", line=line)
    shape = ENCODING[m][0]
    ops = [o.strip() for o in rest.split(",")] if rest else []
    n = 2 if shape in ("load", "store", "jump") else 3
    if len(ops) != n:
        raise OperandCount(f"{m} takes {n} operands, got {len(ops)}", line=line)

    rd = rs1 = rs2 = imm = 0
    if shape == "r":
        rd, rs1, rs2 = _parse_reg(ops[0], line), _parse_reg(ops[1], line), _parse_reg(ops[2], line)
    elif shape == "i" or shape == "shift":
        rd, rs1, imm = _parse_reg(ops[0], line), _parse_reg(ops[1], line), _parse_imm(ops[2], line)
    elif shape == "load":
        imm, rs1 = _parse_mem_operand(ops[1], line)
        rd = _parse_reg(ops[0], line)
    elif shape == "store":
        imm, rs1 = _parse_mem_operand(ops[1], line)
        rs2 = _parse_reg(ops[0], line)
    elif shape == "branch":
        imm = _branch_offset(ops[2], line, addr, labels)
        rs1, rs2 = _parse_reg(ops[0], line), _parse_reg(ops[1], line)
    else:  # jump
        imm = _branch_offset(ops[1], line, addr, labels)
        rd = _parse_reg(ops[0], line)
    try:
        return encode_fields(m, rd, rs1, rs2, imm)
    except EncodeError as e:
        raise type(e)(e.message, line=line) from e


def _parse_mem_operand(tok: str, line: int) -> tuple[int, int]:
    m = _MEM_RE.match(tok)
    if not m:
        raise BadOperand(f"{tok!r} is not an OFFSET(xN) operand", line=line)
    return int(m.group(1), 0), _parse_reg(m.group(2), line)


def _branch_offset(tok: str, line: int, addr: int, labels: dict[str, int]) -> int:
    if _IMM_RE.match(tok):
        offset = int(tok, 0)
        if offset % 2:
            raise BranchTargetMisaligned(f"odd target offset {offset}", line=line)
        return offset
    if _IDENT_RE.match(tok) and tok not in _REGS:
        if tok not in labels:
            raise UndefinedLabel(f"label {tok!r} is not defined", line=line)
        return labels[tok] - addr
    raise BadOperand(f"{tok!r} is not a label or offset", line=line)


def disassemble(image: MemoryImage) -> str:
    """Canonical source for an image; undecodable words become `.word`."""
    return "\n".join([*map(format_word, image.words), ""])


# --- hex image files ---

def image_to_hex(image: MemoryImage) -> str:
    """The image as text `parse_hex` reads back: its base must be a word
    address, and its last word (or its base, if empty) below 2^32."""
    base, words = image.base_address, image.words
    if base < 0 or base % 4 or base + 4 * max(len(words), 1) > 1 << 32:
        raise ValueError(f"base {base:#x} with {len(words)} words: an image must start at "
                         f"a word address and end at or below 0x100000000")
    try:
        body = struct.pack(f">{len(words)}I", *words).hex("\n", 4)
    except struct.error:
        i = next(i for i, w in enumerate(words) if not (isinstance(w, int) and 0 <= w <= MASK32))
        raise ValueError(f"word at {base + 4 * i:#x} is {words[i]!r}, "
                         f"outside 0..0xffffffff") from None
    head = f"@{base >> 2:x}\n" if base else ""
    return head + body + ("\n" if body else "")


def parse_hex(text: str) -> MemoryImage:
    """Inverse of image_to_hex; sparse records are zero-filled between.  An
    `@` record or a word at byte address 2^32 or above is refused."""
    head, body = text.partition("\n")[::2] if text.startswith("@") else ("", text)
    n = len(body) // 9
    if (len(body) == 9 * n and body[8::9] == "\n" * n and body.count("\n") == n
            and _HEX_BLOCK_RE.fullmatch(body) and (not head or _HEX_ADDR_RE.fullmatch(head)
                                                   and int(head[1:], 16) + max(n, 1) <= 1 << 30)):
        # image_to_hex's own form: every other character is a proven hex digit.
        block = list(struct.unpack(f">{n}I", bytes.fromhex(body)))
        return MemoryImage(int(head[1:], 16) * 4 if head and block else 0, block)
    words: dict[int, int] = {}
    addr = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("@"):
            if not _HEX_ADDR_RE.fullmatch(line):
                raise AsmError(f"bad address record {line!r}", line=lineno)
            addr = int(line[1:], 16) * 4
            if addr >> 32:
                raise AsmError(f"{line!r} is past the last word address", line=lineno)
            continue
        if not _HEX_WORD_RE.fullmatch(line):
            raise AsmError(f"bad hex word {line!r}", line=lineno)
        if addr >> 32:
            raise AsmError(f"word at {addr:#x} is past the last word address", line=lineno)
        words[addr] = int(line, 16)
        addr += 4
    return MemoryImage.gather(words, 0)


def load_hex_file(path: str) -> MemoryImage:
    with open(path, "r", encoding="utf-8") as f:
        return parse_hex(f.read())


def save_hex_file(path: str, image: MemoryImage) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(image_to_hex(image))

"""Seeded random-program generator for equivalence and CPI testing.

`random_program` writes straight-line ALU/memory code with forward-only
branches and jumps, so every instruction retires at most once and the
final self-loop jump is always reached.  `random_loop_program` writes
bounded counted loops around such bodies: a decrementing counter closes
each loop with a backward `beq`, so a body's words repeat many times and
halting stays guaranteed, and a forward `beq` on the counter skips a word
of the body on some passes.  Data accesses go through a reserved base
register (x2 = 2048) into the upper half of the default 4 KiB memory,
clear of the code.  Generation uses only the instruction constructors,
never the assembler, so the assembler is not in the loop being verified.
"""

import random

from rv32mc import MemoryImage, encode, instr

R_OPS = ["add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"]
I_OPS = ["addi", "slti", "sltiu", "xori", "ori", "andi"]
SHIFT_OPS = ["slli", "srli", "srai"]

DATA_BASE_REG = 2  # x2 = 2048 after the generated prologue
# A loop's counter, the flag its backward branch tests, and the constant 1.
COUNTER_REG, FLAG_REG, ONE_REG = 28, 29, 30
LOOP_RESERVED = (DATA_BASE_REG, COUNTER_REG, FLAG_REG, ONE_REG)

_KINDS = ["r"] * 5 + ["i"] * 4 + ["shift"] * 1 + ["load"] * 3 + ["store"] * 3 + ["branch"] * 2 + ["jump"] * 1


def _pick_rd(rng: random.Random, reserved: tuple[int, ...]) -> int:
    rd = rng.randrange(32)
    return 6 if rd in reserved else rd


def _data_offset(rng: random.Random, data_words: int) -> int:
    # word offsets into [2048, 2048 + 4 * data_words) relative to x2
    return 4 * rng.randrange(data_words)


def _body(rng: random.Random, ins: list, n_body: int, reserved: tuple[int, ...],
          data_words: int = 512) -> None:
    """Append `n_body` random instructions whose branches and jumps go
    forward to at most the word just past them, which write no `reserved`
    register and access the first `data_words` (<= 512) data words."""
    body_start = len(ins)
    end = body_start + n_body
    for i in range(body_start, end):
        kind = rng.choice(_KINDS)
        if kind == "r":
            ins.append(instr(rng.choice(R_OPS), rd=_pick_rd(rng, reserved),
                             rs1=rng.randrange(32), rs2=rng.randrange(32)))
        elif kind == "i":
            ins.append(instr(rng.choice(I_OPS), rd=_pick_rd(rng, reserved),
                             rs1=rng.randrange(32), imm=rng.randint(-2048, 2047)))
        elif kind == "shift":
            ins.append(instr(rng.choice(SHIFT_OPS), rd=_pick_rd(rng, reserved),
                             rs1=rng.randrange(32), imm=rng.randrange(32)))
        elif kind == "load":
            ins.append(instr("lw", rd=_pick_rd(rng, reserved), rs1=DATA_BASE_REG,
                             imm=_data_offset(rng, data_words)))
        elif kind == "store":
            ins.append(instr("sw", rs2=rng.randrange(32), rs1=DATA_BASE_REG,
                             imm=_data_offset(rng, data_words)))
        elif kind == "branch":
            target = rng.randint(i + 1, min(i + 8, end))
            ins.append(instr("beq", rs1=rng.randrange(32), rs2=rng.randrange(32),
                             imm=4 * (target - i)))
        else:
            target = rng.randint(i + 1, min(i + 8, end))
            ins.append(instr("jal", rd=_pick_rd(rng, reserved), imm=4 * (target - i)))


def random_program(rng: random.Random, max_body: int = 120) -> MemoryImage:
    """A halting program as an image at base 0."""
    ins = [
        instr("addi", rd=DATA_BASE_REG, rs1=0, imm=1),
        instr("slli", rd=DATA_BASE_REG, rs1=DATA_BASE_REG, imm=11),
    ]
    for reg in (1, 3, 4, 5):
        ins.append(instr("addi", rd=reg, rs1=0, imm=rng.randint(-2048, 2047)))

    _body(rng, ins, rng.randint(4, max_body), (DATA_BASE_REG,))
    ins.append(instr("jal", rd=0, imm=0))  # self-loop halt
    return MemoryImage(0, [encode(x) for x in ins])


def random_loop_program(rng: random.Random, iterations: int, max_body: int = 24,
                        loops: int = 2) -> MemoryImage:
    """A halting program of `loops` counted loops, one after another, each
    running its random body `iterations` (>= 1) times."""
    ins = [
        instr("addi", rd=DATA_BASE_REG, rs1=0, imm=1),
        instr("slli", rd=DATA_BASE_REG, rs1=DATA_BASE_REG, imm=11),
        instr("addi", rd=ONE_REG, rs1=0, imm=1),
    ]
    for reg in (1, 3, 4, 5):
        ins.append(instr("addi", rd=reg, rs1=0, imm=rng.randint(-2048, 2047)))
    for _ in range(loops):
        ins.append(instr("addi", rd=COUNTER_REG, rs1=0, imm=iterations))
        top = len(ins)
        # a forward beq, taken on every second, fourth or eighth pass
        ins.append(instr("andi", rd=FLAG_REG, rs1=COUNTER_REG, imm=rng.choice((1, 3, 7))))
        ins.append(instr("beq", rs1=FLAG_REG, rs2=0, imm=8))
        ins.append(instr(rng.choice(I_OPS), rd=_pick_rd(rng, LOOP_RESERVED),
                         rs1=rng.randrange(32), imm=rng.randint(-2048, 2047)))
        # few data words, so that loads read what earlier passes stored
        _body(rng, ins, rng.randint(4, max_body), LOOP_RESERVED, data_words=8)
        ins.append(instr("addi", rd=COUNTER_REG, rs1=COUNTER_REG, imm=-1))
        ins.append(instr("sltu", rd=FLAG_REG, rs1=0, rs2=COUNTER_REG))  # 1 while it counts
        ins.append(instr("beq", rs1=FLAG_REG, rs2=ONE_REG, imm=4 * (top - len(ins))))
    ins.append(instr("jal", rd=0, imm=0))  # self-loop halt
    return MemoryImage(0, [encode(x) for x in ins])

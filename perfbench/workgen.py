"""Seeded firmware generators for the three benchmark workloads.

Each generator returns a Firmware: assembly source, the memory size it
needs, and the exact simulated figures the paper's cycle table predicts
for it.  The expected figures are counted here, instruction by
instruction, from the cycle table below, not taken from the simulator, so
the benchmark checks the model against the paper and not against itself.

The seed only chooses data values, registers, immediates and the order of
instructions; the number of instructions of each class that run is fixed
by the workload, so host time does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Cycles per retired instruction, by class, as the paper fixes them.
PAPER_CYCLES = {"r_alu": 4, "i_alu": 4, "load": 5, "store": 4, "branch": 3, "jump": 4}

R_OPS = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and")
I_OPS = ("addi", "slti", "sltiu", "xori", "ori", "andi")
SHIFT_OPS = ("slli", "srli", "srai")

_CLASS = {
    **{m: "r_alu" for m in R_OPS},
    **{m: "i_alu" for m in I_OPS + SHIFT_OPS},
    "lw": "load",
    "sw": "store",
    "beq": "branch",
    "jal": "jump",
}

# Default memory size; the default device map puts pacing at 0x1000 and
# sensing at 0x1010, just above it.
DEFAULT_MEM = 4096


@dataclass
class Firmware:
    source: str
    mem_size: int
    counts: dict[str, int]
    extra: dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return sum(n * PAPER_CYCLES[c] for c, n in self.counts.items())

    @property
    def retired(self) -> int:
        return sum(self.counts.values())

    @property
    def cpi(self) -> Fraction:
        return Fraction(self.cycles, self.retired)


class _Emitter:
    """Source lines plus how many times each executes."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.counts = {c: 0 for c in PAPER_CYCLES}
        self.n_words = 0
        self.pending_label: str | None = None

    @property
    def addr(self) -> int:
        return 4 * self.n_words

    def op(self, text: str, times: int = 1) -> None:
        """Emit one instruction that retires `times` times."""
        self.counts[_CLASS[text.split(None, 1)[0]]] += times
        label = f"{self.pending_label}:" if self.pending_label else ""
        self.pending_label = None
        self.lines.append(f"{label:<8}{text}")
        self.n_words += 1

    def li(self, rd: int, value: int) -> None:
        """Load a 32-bit constant without lui: addi, then 11-bit chunks."""
        value &= 0xFFFFFFFF
        if value < 2048:
            self.op(f"addi x{rd}, x0, {value}")
            return
        self.op(f"addi x{rd}, x0, {value >> 22}")
        self.op(f"slli x{rd}, x{rd}, 11")
        self.op(f"ori x{rd}, x{rd}, {(value >> 11) & 0x7FF}")
        self.op(f"slli x{rd}, x{rd}, 11")
        self.op(f"ori x{rd}, x{rd}, {value & 0x7FF}")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def loop_kernel(seed: int, rounds: int = 36) -> Firmware:
    """Counted backward loops over a 64-word table in the default memory.

    Seven words run `rounds * 64` times each, so decode sees a handful of
    distinct words thousands of times and assembly is negligible.
    """
    rng = random.Random(seed)
    table, out = 0x400, 0x600
    e = _Emitter()
    e.lines.append(f"# loop_kernel seed={seed} rounds={rounds}")
    e.op(f"addi x5, x0, {rounds}")
    e.pending_label = "outer"
    e.op("beq x5, x0, done", rounds + 1)
    e.op("addi x1, x0, 0", rounds)
    e.op("addi x6, x0, 64", rounds)
    e.pending_label = "inner"
    e.op("beq x6, x0, next", rounds * 65)
    e.op(f"lw x3, {table}(x1)", rounds * 64)
    e.op("add x4, x4, x3", rounds * 64)
    e.op(f"sw x4, {out}(x1)", rounds * 64)
    e.op("addi x1, x1, 4", rounds * 64)
    e.op("addi x6, x6, -1", rounds * 64)
    e.op("jal x0, inner", rounds * 64)
    e.pending_label = "next"
    e.op("addi x5, x5, -1", rounds)
    e.op("jal x0, outer", rounds)
    e.pending_label = "done"
    e.op("jal x0, done")
    e.lines.append(f"        .org {table:#x}")
    e.lines.extend(f"        .word 0x{rng.getrandbits(32):08x}" for _ in range(64))
    return Firmware(e.source(), DEFAULT_MEM, e.counts)


def toolchain_image(seed: int, blocks: int = 350, mem_size: int = 0x40000) -> Firmware:
    """Straight-line firmware of every class, forward branches only.

    Each block runs a fixed mix (14 R, 15 I, 6 lw, 6 sw, 1 taken beq, 5
    untaken beq, 1 jal) in seeded order.  The taken beq and the jal jump
    over 1 to 8 dead instructions; the untaken beqs compare two of x0..x3,
    whose values differ, against labels up to 4 KiB ahead.  So no
    instruction runs twice and few words repeat.  A 1024-word data table
    is placed with `.org` past a zero-filled gap, at 3/4 of the memory
    (256 KiB by default); the final register file is stored to memory so
    a memory dump shows it.
    """
    rng = random.Random(seed)
    data, scratch = mem_size * 3 // 4, mem_size * 7 // 8
    work = [0] + list(range(4, 32))  # x1..x3 hold bases and a nonzero constant
    e = _Emitter()
    e.lines.append(f"# toolchain_image seed={seed} blocks={blocks}")
    e.li(1, data + 2048)
    e.li(2, scratch + 2048)
    e.li(3, rng.randrange(1, data))

    def r_op() -> str:
        m = rng.choice(R_OPS)
        return f"{m} x{rng.choice(work)}, x{rng.randrange(32)}, x{rng.randrange(32)}"

    def i_op() -> str:
        m = rng.choice(I_OPS + SHIFT_OPS)
        imm = rng.randrange(32) if m in SHIFT_OPS else rng.randrange(-2048, 2048)
        return f"{m} x{rng.choice(work)}, x{rng.randrange(32)}, {imm}"

    # Labels wanted on the instruction at a given word index; an untaken
    # branch may name any of them, since it never goes there.
    labels: dict[int, str] = {}

    def label_at(index: int) -> str:
        return labels.setdefault(index, f"L{index}")

    def emit(text: str, times: int = 1) -> None:
        e.pending_label = labels.get(e.n_words)
        e.op(text, times)

    kinds = ["R"] * 14 + ["I"] * 15 + ["L"] * 6 + ["S"] * 6 + ["BT"] + ["BN"] * 5 + ["J"]
    for _ in range(blocks):
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "R":
                emit(r_op())
            elif kind == "I":
                emit(i_op())
            elif kind == "L":
                emit(f"lw x{rng.choice(work[1:])}, {4 * rng.randrange(-512, 512)}(x1)")
            elif kind == "S":
                emit(f"sw x{rng.randrange(32)}, {4 * rng.randrange(-512, 0)}(x2)")
            elif kind == "BN":
                target = label_at(e.n_words + rng.randrange(2, 1024))
                rs1, rs2 = rng.sample(range(4), 2)
                emit(f"beq x{rs1}, x{rs2}, {target}")
            else:
                dead = rng.randrange(1, 9)
                target = label_at(e.n_words + 1 + dead)
                r = rng.randrange(32)
                emit(f"beq x{r}, x{r}, {target}" if kind == "BT" else f"jal x{rng.choice(work)}, {target}")
                for _ in range(dead):
                    emit(rng.choice((r_op, i_op))(), 0)
    for k in range(1, 32):
        emit(f"sw x{k}, {4 * k}(x2)")
    # Untaken branches near the end may name labels past the last store:
    # they all go on the final self-loop.
    late = [name for index, name in sorted(labels.items()) if index >= e.n_words]
    e.pending_label = ": ".join(late + ["halt"])
    e.op("jal x0, halt")
    e.lines.append(f"        .org {data:#x}")
    e.lines.extend(f"        .word 0x{rng.getrandbits(32):08x}" for _ in range(1024))
    extra = {"save_addr": scratch + 2048 + 4}
    return Firmware(e.source(), mem_size, e.counts, extra)


def traced_mmio(seed: int, iterations: int = 1024) -> Firmware:
    """Pacer-style loop: read sensing, write pacing, patch own code.

    Every iteration stores a new immediate into the `addi` at `target`
    before it runs, so the word there changes on every pass (an odd step
    modulo 2048 repeats no immediate within 2048 iterations).
    """
    if not 1 <= iterations <= 2048:
        raise ValueError("iterations must be in 1..2048 to keep every patched word distinct")
    from rv32mc.isa import encode, instr

    rng = random.Random(seed)
    step = 2 * rng.randrange(1024) + 1
    patch_base = encode(instr("addi", rd=12, rs1=12, imm=0))
    e = _Emitter()
    e.lines.append(f"# traced_mmio seed={seed} iterations={iterations} step={step}")
    e.op("addi x7, x0, 1")
    e.op("slli x7, x7, 12")  # pacing block at 0x1000
    e.op("addi x8, x7, 16")  # sensing block at 0x1010
    e.li(15, rng.getrandbits(32))
    e.op("sw x15, 8(x8)")  # preset sensing DATA
    e.li(10, patch_base)
    target_line = len(e.lines)
    e.op("addi x11, x0, TARGET")
    e.li(6, iterations)
    body = [
        "lw x9, 8(x8)",  # sample sensing DATA
        "add x9, x9, x5",
        "sw x9, 8(x7)",  # fire pacing DATA
        f"addi x13, x13, {step}",
        "andi x13, x13, 2047",
        "slli x14, x13, 20",
        "or x14, x14, x10",
        "sw x14, 0(x11)",  # patch the immediate of `target`
        "addi x12, x12, 0",
        "addi x5, x5, 1",
        "beq x5, x6, done",
        "jal x0, loop",
    ]
    for k, text in enumerate(body):
        e.pending_label = {0: "loop", 8: "target"}.get(k)
        if k == 8:
            target_addr = e.addr
        e.op(text, iterations - 1 if k == len(body) - 1 else iterations)
    e.pending_label = "done"
    e.op("jal x0, done")
    e.lines[target_line] = e.lines[target_line].replace("TARGET", str(target_addr))
    period = sum(PAPER_CYCLES[_CLASS[text.split()[0]]] for text in body)
    extra = {"iterations": iterations, "pacing_period": period}
    return Firmware(e.source(), DEFAULT_MEM, e.counts, extra)


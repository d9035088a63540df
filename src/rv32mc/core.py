"""Multi-cycle, non-pipelined execution engine.

One FSM state executes per clock cycle, so the cycle cost of an
instruction is the length of its state sequence:

    r/i-type : Fetch -> Decode -> Execute -> AluWriteback        (4)
    load     : Fetch -> Decode -> MemAddr -> MemRead -> LoadWb   (5)
    store    : Fetch -> Decode -> MemAddr -> MemWrite            (4)
    branch   : Fetch -> Decode -> BranchCompletion               (3)
    jump     : Fetch -> Decode -> JumpLink -> AluWriteback       (4)

The state decomposition is internal; the per-class totals are the
contract.  Multi-cycle temporaries (ir, a, b, alu_out, mdr, and the
in-flight instruction's pc) change only at cycle boundaries, and memory
writes scheduled during a cycle commit at its end.

reference_execute is a deliberately separate functional model - one
instruction per step, no FSM, no cycle accounting, its own operator
semantics - used to cross-check the engine's architectural effects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Protocol

from .control import ControlMode, mode_from_lines
from .errors import MisalignedAccess, NotExecuting, OutOfRange, SimError
from .isa import MASK32, DecodedInstruction, InstrClass, decode, format_word, s32, u32
from .memory import DEFAULT_MEM_SIZE, MemoryImage
from .metrics import HaltReason, RunReport

# Cycles `Core.run` may spend before it reports budget exhaustion.
DEFAULT_MAX_CYCLES = 1_000_000


class Bus(Protocol):
    """What the core needs from its memory system."""

    def read_word(self, addr: int) -> int: ...
    def schedule_write(self, addr: int, value: int, mode: ControlMode) -> None: ...
    def commit_cycle(self) -> None: ...


class FsmState(enum.Enum):
    FETCH = "fetch"
    DECODE = "decode"
    EXECUTE = "execute"
    ALU_WRITEBACK = "alu_writeback"
    MEM_ADDR = "mem_addr"
    MEM_READ = "mem_read"
    LOAD_WRITEBACK = "load_writeback"
    MEM_WRITE = "mem_write"
    BRANCH_COMPLETION = "branch_completion"
    JUMP_LINK = "jump_link"


_AFTER_DECODE = {
    InstrClass.R_ALU: FsmState.EXECUTE,
    InstrClass.I_ALU: FsmState.EXECUTE,
    InstrClass.LOAD: FsmState.MEM_ADDR,
    InstrClass.STORE: FsmState.MEM_ADDR,
    InstrClass.BRANCH: FsmState.BRANCH_COMPLETION,
    InstrClass.JUMP: FsmState.JUMP_LINK,
}

# I-type ALU ops reuse the R-type operator with the immediate as operand b.
_I_TO_R = {
    "addi": "add", "slti": "slt", "sltiu": "sltu", "xori": "xor",
    "ori": "or", "andi": "and", "slli": "sll", "srli": "srl", "srai": "sra",
}

_ALU_OPS: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: u32(a + b),
    "sub": lambda a, b: u32(a - b),
    "sll": lambda a, b: u32(a << (b & 31)),
    "slt": lambda a, b: int(s32(a) < s32(b)),
    "sltu": lambda a, b: int(u32(a) < u32(b)),
    "xor": lambda a, b: u32(a ^ b),
    "srl": lambda a, b: u32(a) >> (b & 31),
    "sra": lambda a, b: u32(s32(a) >> (b & 31)),
    "or": lambda a, b: u32(a | b),
    "and": lambda a, b: u32(a & b),
}


class RegisterFile:
    """32 words; x0 is hardwired to zero (writes are discarded)."""

    def __init__(self) -> None:
        self._regs = [0] * 32

    def __getitem__(self, i: int) -> int:
        return self._regs[i]

    def __setitem__(self, i: int, value: int) -> None:
        if i:
            self._regs[i] = u32(value)

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self._regs)


@dataclass(frozen=True)
class TraceRecord:
    cycle: int
    mode: str
    state: str
    pc: int
    ir: int
    retired: bool
    held: bool = False

    @property
    def disasm(self) -> str:
        return format_word(self.ir)

    def as_csv(self) -> str:
        return (
            f"{self.cycle},{self.mode},{self.state},"
            f"{self.pc:08x},{self.ir:08x},{self.disasm},{int(self.retired)}"
        )


@dataclass(frozen=True)
class CoreSnapshot:
    pc: int
    regs: tuple[int, ...]
    fsm: str
    mode: str
    cycle_count: int
    retired_count: int
    held_cycles: int


HaltPolicy = Callable[["Core", DecodedInstruction], bool]


def self_loop_halt(core: "Core", ins: DecodedInstruction) -> bool:
    """A retired jump or taken branch that lands on itself parks the core."""
    if ins.cls not in (InstrClass.JUMP, InstrClass.BRANCH):
        return False
    return core.pc == core.instr_pc


class Core:
    def __init__(self) -> None:
        self.regs = RegisterFile()
        self.pc = 0
        self.fsm = FsmState.FETCH
        self.mode = ControlMode.OBSERVATION  # power-on: IE low, writes disabled
        self.ir = 0
        self.decoded: DecodedInstruction | None = None
        self.a = 0
        self.b = 0
        self.alu_out = 0
        self.mdr = 0
        self.instr_pc = 0
        self.cycle_count = 0
        self.retired_count = 0
        self.held_cycles = 0

    def apply_control(self, ie: int, reset: int, write_enable: int = 0) -> ControlMode:
        """Drive the control lines; reset clears pc, the FSM, and temporaries."""
        self.mode = mode_from_lines(ie, reset, write_enable)
        if self.mode is ControlMode.RESET_HOLD:
            self.pc = 0
            self.fsm = FsmState.FETCH
            self.ir = self.a = self.b = self.alu_out = self.mdr = self.instr_pc = 0
            self.decoded = None
            self.cycle_count = self.retired_count = self.held_cycles = 0
        return self.mode

    def snapshot(self) -> CoreSnapshot:
        return CoreSnapshot(
            pc=self.pc,
            regs=self.regs.snapshot(),
            fsm=self.fsm.value,
            mode=self.mode.value,
            cycle_count=self.cycle_count,
            retired_count=self.retired_count,
            held_cycles=self.held_cycles,
        )

    # --- cycle-level stepping ---

    def step_cycle(self, bus: Bus) -> TraceRecord:
        """Advance one clock.  Outside executing mode the clock is held:
        no architectural or microarchitectural state changes."""
        if self.mode is not ControlMode.EXECUTING:
            self.held_cycles += 1
            pc = self.pc if self.fsm is FsmState.FETCH else self.instr_pc
            return TraceRecord(
                cycle=self.cycle_count,
                mode=self.mode.value,
                state=self.fsm.value,
                pc=pc,
                ir=self.ir,
                retired=False,
                held=True,
            )

        state = self.fsm
        try:
            next_state, retired = self._exec_state(state, bus)
        except SimError as e:
            if e.pc is None:
                e.pc = self.pc if state is FsmState.FETCH else self.instr_pc
            if e.state is None:
                e.state = state.value
            raise
        self.cycle_count += 1
        bus.commit_cycle()
        self.fsm = next_state
        if retired:
            self.retired_count += 1
        return TraceRecord(
            cycle=self.cycle_count,
            mode=self.mode.value,
            state=state.value,
            pc=self.instr_pc,
            ir=self.ir,
            retired=retired,
        )

    def _exec_state(self, state: FsmState, bus: Bus) -> tuple[FsmState, bool]:
        if state is FsmState.FETCH:
            self.instr_pc = self.pc
            self.ir = bus.read_word(self.pc)
            self.pc = u32(self.pc + 4)
            return FsmState.DECODE, False

        if state is FsmState.DECODE:
            self.decoded = decode(self.ir)
            self.a = self.regs[self.decoded.rs1]
            self.b = self.regs[self.decoded.rs2]
            return _AFTER_DECODE[self.decoded.cls], False

        d = self.decoded
        assert d is not None

        if state is FsmState.EXECUTE:
            op = _ALU_OPS[_I_TO_R.get(d.mnemonic, d.mnemonic)]
            rhs = self.b if d.cls is InstrClass.R_ALU else u32(d.imm)
            self.alu_out = op(self.a, rhs)
            return FsmState.ALU_WRITEBACK, False

        if state is FsmState.ALU_WRITEBACK:
            self.regs[d.rd] = self.alu_out
            return FsmState.FETCH, True

        if state is FsmState.MEM_ADDR:
            self.alu_out = u32(self.a + d.imm)
            return (
                FsmState.MEM_READ if d.cls is InstrClass.LOAD else FsmState.MEM_WRITE
            ), False

        if state is FsmState.MEM_READ:
            self.mdr = bus.read_word(self.alu_out)
            return FsmState.LOAD_WRITEBACK, False

        if state is FsmState.LOAD_WRITEBACK:
            self.regs[d.rd] = self.mdr
            return FsmState.FETCH, True

        if state is FsmState.MEM_WRITE:
            bus.schedule_write(self.alu_out, self.b, ControlMode.EXECUTING)
            return FsmState.FETCH, True

        if state is FsmState.BRANCH_COMPLETION:
            if self.a == self.b:
                self.pc = u32(self.instr_pc + d.imm)
            return FsmState.FETCH, True

        # JUMP_LINK
        self.alu_out = u32(self.instr_pc + 4)
        self.pc = u32(self.instr_pc + d.imm)
        return FsmState.ALU_WRITEBACK, False

    # --- instruction-level stepping ---

    def step_instruction(self, bus: Bus) -> tuple[DecodedInstruction, int]:
        """Run cycles until one instruction retires; (instruction, cycles)."""
        if self.mode is not ControlMode.EXECUTING:
            raise NotExecuting(f"core is in {self.mode.value} mode")
        start_retired = self.retired_count
        start_cycles = self.cycle_count
        while self.retired_count == start_retired:
            self.step_cycle(bus)
        assert self.decoded is not None
        return self.decoded, self.cycle_count - start_cycles

    def run(
        self,
        bus: Bus,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        halt: HaltPolicy = self_loop_halt,
        trace: Callable[[TraceRecord], None] | None = None,
    ) -> RunReport:
        """Step until the halt policy fires or the cycle budget is spent.

        Faults (unsupported instructions, memory errors) propagate with the
        pc and FSM state attached; budget exhaustion is a report outcome.
        """
        if max_cycles <= 0:
            raise ValueError(f"max_cycles={max_cycles} must be positive")
        if self.mode is not ControlMode.EXECUTING:
            raise NotExecuting(f"core is in {self.mode.value} mode")
        start_cycles = self.cycle_count
        start_held = self.held_cycles
        retired: dict[InstrClass, int] = {cls: 0 for cls in InstrClass}
        reason = None
        while True:
            if self.cycle_count - start_cycles >= max_cycles:
                reason = HaltReason.CYCLE_BUDGET_EXHAUSTED
                break
            rec = self.step_cycle(bus)
            if trace is not None:
                trace(rec)
            if rec.retired:
                assert self.decoded is not None
                retired[self.decoded.cls] += 1
                if halt(self, self.decoded):
                    reason = HaltReason.SELF_LOOP
                    break
        return RunReport(
            total_cycles=self.cycle_count - start_cycles,
            held_cycles=self.held_cycles - start_held,
            retired=retired,
            halt_reason=reason,
            final_state=self.snapshot(),
        )


# --- functional reference oracle ---

@dataclass
class OracleResult:
    regs: tuple[int, ...]
    memory: list[int]
    pc: int
    retired: int
    halted: bool


def reference_execute(
    image: MemoryImage,
    entry: int = 0,
    max_instrs: int = 1_000_000,
    mem_size: int = DEFAULT_MEM_SIZE,
) -> OracleResult:
    """One-instruction-per-step functional model over a fresh flat memory.

    Semantics are written out longhand on purpose: this is the second,
    independent route for every architectural effect the FSM engine
    produces, so it shares no ALU or state-sequencing code with it.
    """
    words = [0] * (mem_size // 4)
    for k, w in enumerate(image.words):
        idx = (image.base_address + 4 * k) >> 2
        if image.base_address % 4 or not 0 <= idx < len(words):
            raise OutOfRange("image does not fit oracle memory", addr=image.base_address + 4 * k)
        words[idx] = u32(w)

    regs = [0] * 32
    pc = entry
    retired = 0
    halted = False

    def mem_index(addr: int) -> int:
        if addr % 4:
            raise MisalignedAccess("word access must be 4-byte aligned", addr=addr, pc=pc)
        if not 0 <= addr < mem_size:
            raise OutOfRange(f"beyond {mem_size}-byte memory", addr=addr, pc=pc)
        return addr >> 2

    while retired < max_instrs and not halted:
        word = words[mem_index(pc)]
        try:
            d = decode(word)
        except SimError as e:
            e.pc = pc
            raise
        next_pc = (pc + 4) & MASK32
        m, a, b = d.mnemonic, regs[d.rs1], regs[d.rs2]

        if d.cls is InstrClass.R_ALU or d.cls is InstrClass.I_ALU:
            if d.cls is InstrClass.I_ALU:
                b = d.imm & MASK32
            if m in ("add", "addi"):
                val = (a + b) & MASK32
            elif m == "sub":
                val = (a - b) & MASK32
            elif m in ("xor", "xori"):
                val = a ^ b
            elif m in ("or", "ori"):
                val = a | b
            elif m in ("and", "andi"):
                val = a & b
            elif m in ("sll", "slli"):
                val = (a << (b & 31)) & MASK32
            elif m in ("srl", "srli"):
                val = a >> (b & 31)
            elif m in ("sra", "srai"):
                sa = a - 0x100000000 if a & 0x80000000 else a
                val = (sa >> (b & 31)) & MASK32
            elif m in ("slt", "slti"):
                sa = a - 0x100000000 if a & 0x80000000 else a
                sb = b - 0x100000000 if b & 0x80000000 else b
                val = 1 if sa < sb else 0
            else:  # sltu / sltiu
                val = 1 if a < b else 0
            if d.rd:
                regs[d.rd] = val
        elif d.cls is InstrClass.LOAD:
            if d.rd:
                regs[d.rd] = words[mem_index((a + d.imm) & MASK32)]
        elif d.cls is InstrClass.STORE:
            words[mem_index((a + d.imm) & MASK32)] = b
        elif d.cls is InstrClass.BRANCH:
            if a == b:
                next_pc = (pc + d.imm) & MASK32
                if next_pc == pc:
                    halted = True
        else:  # JUMP
            if d.rd:
                regs[d.rd] = (pc + 4) & MASK32
            next_pc = (pc + d.imm) & MASK32
            if next_pc == pc:
                halted = True

        retired += 1
        pc = next_pc

    return OracleResult(tuple(regs), words, pc, retired, halted)

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

One private loop, `Core._cycles`, runs executing cycles until a cycle
limit or, if asked, the halt rule; every way of clocking the core goes
through it, `Core.run` once per run.  It keeps pc, the temporaries and the
cycle count in locals and writes them to the core once, when it ends or
faults.  At Fetch, once a cycle of the call has run (so a write scheduled
from outside has committed), an inner loop runs whole instructions while
five cycles remain before the limit (so none can cross it), reading and
writing an aligned word of the bus's `words` in place (a store's write is
its commit).  Otherwise one branch per FSM state does that state's work
for one cycle, and the class's `_SEQUENCE` names the state after it:
`step_cycle`, the first cycle of a call, a budget that ends inside an
instruction, and any instruction whose fetch, load or store is not an
aligned memory word.  Those branches make every bus access, and write
`cycle_count` before each, so device stamps fall as per cycle.  It counts
each retirement by mnemonic, commits memory only after a cycle that can
leave a write pending, and hands a trace sink one TraceSpan per
instruction, also for one in flight when the loop stops.

An untraced run (`run`, `Simulator.run_cycles`) has a third route, for hot
loops.  The inline pass counts the entries to each word address at a taken
branch or jump back to it from a later word (a loop's back edge), in one
table on the core; the `BLOCK_HEAT`th translates the code from there
through that back edge, or to an earlier jal or `BLOCK_LENGTH`
instructions, once, into one Python function (`_translate`, by `compile`),
a block, which takes the count's place and is called at each entry.  Each
effect is one line with its registers, immediate, link and target as
constants; a beq is a side exit.  If the last instruction goes back to the
entry, the call goes round there, counting the pass in a local.  The exit
that leaves counts the retirements of all the call's passes by mnemonic and
returns their cycle sum, and the inline pass goes on at its pc.  Its
contract with the other two routes:
- a block runs, and goes round again, only if the cycles spent so far
  plus its whole cycle sum fit before `limit - 5`, so the inline pass's
  budget rule holds; a jump or branch to its own address (the halt rule)
  never goes round, so `run` sees that retirement;
- on every entry it checks that its words still equal those it was made
  from; an entry whose words changed, whose call retired nothing, or where
  nothing decodes is dropped: it holds None, never counted, until a reset;
- a load or store of anything but an aligned memory word exits before it,
  with every instruction ahead of it retired, so device accesses and their
  stamps stay in the per-state branches; a pass whose first instruction
  would make one is left to the inline pass, so such an exit always
  follows a retirement of the call; a store into the block's own words
  exits after it, so no pass runs stale words; translation ends before a
  word that does not decode, so no fault is raised in a block;
- after a block, ir, instr_pc, decoded, a, b, alu_out and mdr are what
  the inline pass would leave.
Traced runs and single steps never run blocks, so every trace is the
inline pass's and the per-state branches'.

reference_execute is a deliberately separate functional model - one
instruction per step, no FSM, no cycle accounting, its own operator
semantics - used to cross-check the engine's architectural effects.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .control import ControlMode, mode_from_lines
from .errors import MisalignedAccess, NotExecuting, OutOfRange, SimError
from .isa import MASK32, MNEMONIC_CLASS, DecodedInstruction, InstrClass, decode, format_word
from .memory import DEFAULT_MEM_SIZE, MemoryImage, UnifiedMemory, check_size
from .metrics import HaltReason, RunReport

# Cycles `Core.run` may spend before it reports budget exhaustion.
DEFAULT_MAX_CYCLES = 1_000_000


# FSM states, each its trace name; the engine holds these objects and
# tests them by identity.
_FETCH, _DECODE, _EXECUTE, _ALU_WRITEBACK = "fetch", "decode", "execute", "alu_writeback"
_MEM_ADDR, _MEM_READ, _LOAD_WRITEBACK = "mem_addr", "mem_read", "load_writeback"
_MEM_WRITE, _BRANCH_COMPLETION, _JUMP_LINK = "mem_write", "branch_completion", "jump_link"
_EXECUTING = ControlMode.EXECUTING
_R_ALU, _I_ALU, _LOAD, _STORE, _BRANCH = (
    InstrClass.R_ALU, InstrClass.I_ALU, InstrClass.LOAD, InstrClass.STORE, InstrClass.BRANCH
)

# Each class's FSM state names in order; a state has one position in every class.
_SEQUENCE = {cls: (_FETCH, _DECODE, *rest) for cls, rest in {
    InstrClass.R_ALU: (_EXECUTE, _ALU_WRITEBACK), InstrClass.I_ALU: (_EXECUTE, _ALU_WRITEBACK),
    InstrClass.LOAD: (_MEM_ADDR, _MEM_READ, _LOAD_WRITEBACK), InstrClass.STORE: (_MEM_ADDR, _MEM_WRITE),
    InstrClass.BRANCH: (_BRANCH_COMPLETION,), InstrClass.JUMP: (_JUMP_LINK, _ALU_WRITEBACK),
}.items()}
_HEAD = (_FETCH, _DECODE)  # every class's, before Decode names the class

# State names by mnemonic (string keys hash in C, and `InstrClass` hashes
# its name in Python), and the state after each: Fetch after the last.
_NAMES = {m: _SEQUENCE[cls] for m, cls in MNEMONIC_CLASS.items()}
_NEXT = {m: dict(zip(names, names[1:] + (_FETCH,))) for m, names in _NAMES.items()}

# Each ALU op as a Python expression of its 32-bit unsigned operands; an
# I-type op takes its immediate as operand b.  The one home of the engine's
# ALU: the inline pass and the per-state branches call it as a function,
# and a block writes it out with register reads and constants as operands.
_ALU_EXPR = {
    m: expr
    for names, expr in (
        ("add addi", "({a} + {b}) & 0xFFFFFFFF"),
        ("sub", "({a} - {b}) & 0xFFFFFFFF"),
        ("sll slli", "({a} << ({b} & 31)) & 0xFFFFFFFF"),
        ("slt slti", "1 if ({a} ^ 0x80000000) < ({b} ^ 0x80000000) else 0"),
        ("sltu sltiu", "1 if {a} < {b} else 0"),
        ("xor xori", "{a} ^ {b}"),
        ("srl srli", "{a} >> ({b} & 31)"),
        ("sra srai", "(({a} ^ 0x80000000) - 0x80000000 >> ({b} & 31)) & 0xFFFFFFFF"),
        ("or ori", "{a} | {b}"),
        ("and andi", "{a} & {b}"),
    )
    for m in names.split()
}
_ALU_OPS: dict[str, Callable[[int, int], int]] = {
    m: eval("lambda a, b: " + expr.format(a="a", b="b")) for m, expr in _ALU_EXPR.items()
}

# The block route.  Entries to one word address, counted at taken branches
# and jumps back to it, before an untraced run translates the code there
# into a block; and the most instructions one block holds.
BLOCK_HEAT = 64
BLOCK_LENGTH = 64


def _translate(words: list[int], entry: int, end: int) -> tuple | None:
    """The block from word address `entry` through the back edge at `end`
    (see the module docstring): (function, first and end word index, the
    words it was made from, its cycle sum), or None if nothing decodes there.
    `function(regs, words, size, by_mnemonic, alu_out, mdr, left)` runs
    passes while the next one fits in the `left` cycles, counts the
    retirements of all of them at the exit that leaves, and returns (cycles,
    pc, a, b, alu_out, mdr, (instr_pc, ir, decoded)) as the inline pass would
    leave them, or None if nothing retired."""
    body, pc = [], entry
    while pc <= end and len(body) < BLOCK_LENGTH:
        try:
            decoded = decode(words[pc >> 2])
        except SimError:
            break
        body.append((pc, decoded))
        if decoded[0] is InstrClass.JUMP:
            break
        pc += 4
    if not body:
        return None
    lo, hi = entry >> 2, (entry >> 2) + len(body)
    names = {f"L{k}": (pc, words[pc >> 2], decoded) for k, (pc, decoded) in enumerate(body)}
    lines, done = [], []  # generated lines; the mnemonics retired before the next one
    ab, alu = "", "alu_out"  # the last retired one's a, b and alu_out

    def cycles(ms: list[str]) -> int:
        return sum(len(_NAMES[m]) for m in ms)

    every = [d[1] for _, d in body]  # a whole pass's mnemonics
    cost = cycles(every)
    # It goes round at its last instruction if that goes back to the entry
    # from a later word (a self-loop is the halt rule's), counting passes in `n`.
    last, (cls, *_, imm) = body[-1]
    loop = entry < last and cls in (_BRANCH, InstrClass.JUMP) and (last + imm) & MASK32 == entry
    per = lambda k: f" + {k} * n" if loop else ""  # k times the passes before this one

    def leave(pc: int) -> str:  # count what retired, this pass and the `n` before it; go on at `pc`
        counts = "".join(f"bym[{m!r}] += {done.count(m)}{per(every.count(m))}; "
                         for m in dict.fromkeys(every if loop else done))
        return f"{counts}return {cycles(done)}{per(cost)}, {pc}, {ab}, {alu}, mdr, L{len(done) - 1}"

    def exit_to(pc: int) -> list[str]:  # round again at the closing exit while a pass fits, else leave
        if not loop or pc != entry or len(done) < len(body):
            return [leave(pc)]
        first = body[0][1]  # nor one whose next pass starts with an access of no memory word
        fits = (f" and (y := (regs[{first[3]}] + {first[5]}) & 0xFFFFFFFF) < size and not y & 3"
                if first[0] in (_LOAD, _STORE) else "")
        again = f"alu_out = {alu}; " if alu != "alu_out" else ""
        return [f"if (left := left - {cost}) >= {cost}{fits}: n += 1; {again}continue", leave(pc)]

    for k, (pc, (cls, m, rd, rs1, rs2, imm)) in enumerate(body):
        to, after = f"regs[{rd}] = " if rd else "", pc + 4  # pc < size: no wrap
        if cls is _LOAD or cls is _STORE:
            lines.append(f"x{k} = (regs[{rs1}] + {imm}) & 0xFFFFFFFF")
            lines.append(f"if x{k} >= size or x{k} & 3: {leave(pc) if done else 'return None'}")
        # a, b as the exits after this one read them: taken before it writes
        # one of its operands, if a load or store, or the end, follows
        if rd in (rs1, rs2) and rd and (k + 1 == len(body) or body[k + 1][1][0] in (_LOAD, _STORE)):
            lines.append(f"a, b = regs[{rs1}], regs[{rs2}]")
            ab = "a, b"
        else:
            ab = f"regs[{rs1}], regs[{rs2}]"
        if cls is _R_ALU or cls is _I_ALU:
            operand = f"regs[{rs2}]" if cls is _R_ALU else imm & MASK32
            lines.append(f"{to}alu_out = " + _ALU_EXPR[m].format(a=f"regs[{rs1}]", b=operand))
            alu = "alu_out"
        elif cls is _LOAD:
            lines.append(f"{to}mdr = words[x{k} >> 2]")
            alu = f"x{k}"
        elif cls is _STORE:
            lines.append(f"words[x{k} >> 2] = regs[{rs2}]")
            alu = f"x{k}"
        elif cls is _BRANCH:
            done.append(m)
            lines.append(f"if regs[{rs1}] == regs[{rs2}]:")
            lines.extend(f"    {line}" for line in exit_to((pc + imm) & MASK32))
            continue
        else:  # jal, the last
            alu, after = pc + 4, (pc + imm) & MASK32  # the link; the target
            if rd:
                lines.append(f"{to}{alu}")
        done.append(m)
        if cls is _STORE and k + 1 < len(body):
            lines.append(f"if {4 * lo} <= x{k} < {4 * hi}: {leave(after)}")
    lines.extend(exit_to(after))
    if loop:
        lines = ["n = 0", "while True:", *(f"    {line}" for line in lines)]
    source = "def block(regs, words, size, bym, alu_out, mdr, left):\n" + "".join(
        f"    {line}\n" for line in lines)
    exec(compile(source, f"<block {entry:#x}>", "exec"), names)
    return names["block"], lo, hi, words[lo:hi], cost


class RegisterFile:
    """32 words; x0 is hardwired to zero (writes are discarded)."""

    def __init__(self) -> None:
        self._regs = [0] * 32

    def __getitem__(self, i: int) -> int:
        return self._regs[i]

    def __setitem__(self, i: int, value: int) -> None:
        if i:
            self._regs[i] = value & MASK32

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self._regs)


class TraceRecord(NamedTuple):
    """One clock cycle as the trace shows it; a tuple, so it is immutable."""

    cycle: int
    mode: str
    state: str
    pc: int
    ir: int
    retired: bool

    @property
    def held(self) -> bool:
        """A cycle is held exactly when the core is not executing."""
        return self.mode != _EXECUTING.value

    def as_csv(self) -> str:
        cycle, mode, state, pc, ir, retired = self
        return f"{cycle}{csv_suffixes(mode, pc, ir, (state,), retired)[0]}"


# Spans (one instruction's consecutive cycles) `csv_suffixes` remembers,
# least recently used first out: more than a long loop's spans.
SPAN_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=SPAN_CACHE_SIZE)
def csv_suffixes(mode: str, pc: int, ir: int, states: tuple[str, ...], retired: bool) -> tuple[str, ...]:
    """Each cycle's trace CSV line after its cycle number, the one home of the
    layout; only the last can be retired.  Cached: a loop repeats its spans."""
    tail = f"{pc:08x},{ir:08x},{format_word(ir)},"
    *head, last = states
    return (*[f",{mode},{state},{tail}0" for state in head], f",{mode},{last},{tail}{'01'[retired]}")


class TraceSpan(NamedTuple):
    """Consecutive executing cycles of one instruction from `cycle`, one FSM
    state name each; `retired` if the last of them retired it."""

    cycle: int
    pc: int
    ir: int
    states: tuple[str, ...]
    retired: bool

    def records(self) -> list[TraceRecord]:
        cycle, pc, ir, states, retired = self
        last = cycle + len(states) - 1
        return [_record((c, _EXECUTING.value, state, pc, ir, retired and c == last))
                for c, state in enumerate(states, cycle)]


# Built directly: NamedTuple's `__new__` is a Python frame.
_record = functools.partial(tuple.__new__, TraceRecord)
_span = functools.partial(tuple.__new__, TraceSpan)


class CoreSnapshot(NamedTuple):
    pc: int
    regs: tuple[int, ...]
    fsm: str
    mode: str
    cycle_count: int
    retired_count: int


class Core:
    def __init__(self) -> None:
        self.regs = RegisterFile()
        self._regs = self.regs._regs  # the engine's direct view; it guards x0 itself
        # Power-on: reset, then IE low with writes disabled (observation).
        self.apply_control(ie=0, reset=1)
        self.apply_control(ie=0, reset=0)

    def apply_control(self, ie: int, reset: int, write_enable: int = 0) -> ControlMode:
        """Drive the control lines; reset clears pc, the FSM, temporaries and
        the block route's one table of entry counts, blocks and drops."""
        self.mode = mode_from_lines(ie, reset, write_enable)
        if self.mode is ControlMode.RESET_HOLD:
            self.pc = 0
            self.fsm = _FETCH
            self.ir = self.a = self.b = self.alu_out = self.mdr = self.instr_pc = 0
            self.decoded: DecodedInstruction | None = None
            self.cycle_count = 0
            self.by_mnemonic = dict.fromkeys(MNEMONIC_CLASS, 0)  # retirements
            self._blocks: dict[int, int | tuple | None] = {}  # a count, a block or None: dropped
        return self.mode

    @property
    def retired_count(self) -> int:
        return sum(self.by_mnemonic.values())

    def snapshot(self) -> CoreSnapshot:
        return CoreSnapshot(self.pc, self.regs.snapshot(), self.fsm, self.mode.value,
                            self.cycle_count, self.retired_count)

    # --- cycle-level stepping ---

    def _cycles(self, bus: UnifiedMemory, limit: int,
                trace: Callable[[TraceSpan], None] | None, halt: bool = False) -> bool:
        """Run executing cycles until `cycle_count` reaches `limit` (False)
        or, if `halt`, a retirement meets the halt rule (True); `trace` gets
        a TraceSpan at each retirement, and at the return or fault one of
        any cycles since.
        Memory commits after a MemWrite cycle, and after the first cycle for
        a write scheduled from outside before it.  Blocks, whole
        instructions and single states run on the same locals, written to
        the core once."""
        regs, by_mnemonic, ops, after = self._regs, self.by_mnemonic, _ALU_OPS, _NEXT
        read, write, commit, words = bus.read_word, bus.schedule_write, bus.commit_cycle, bus.words
        size = 4 * len(words)
        state, pc, instr_pc, ir, decoded = self.fsm, self.pc, self.instr_pc, self.ir, self.decoded
        a, b, alu_out, mdr, cycle = self.a, self.b, self.alu_out, self.mdr, self.cycle_count
        first = start = cycle + 1  # `start`: the first cycle of the next span
        last = limit - 5  # the last cycle count from which any instruction fits
        blocks, entered = self._blocks, False
        hot = trace is None  # blocks may run
        try:
            while cycle < limit:
                if state is _FETCH and first <= cycle <= last:  # whole instructions
                    while cycle <= last:
                        if pc >= size or pc & 3:  # a device or a fault: Fetch below
                            break
                        instr_pc = pc
                        ir = words[pc >> 2]
                        pc = (pc + 4) & MASK32
                        cycle += 1
                        state = _DECODE
                        cls, m, rd, rs1, rs2, imm = decoded = decode(ir)
                        a, b = regs[rs1], regs[rs2]
                        if cls is _I_ALU or cls is _R_ALU:
                            alu_out = ops[m](a, b if cls is _R_ALU else imm & MASK32)
                            if rd:
                                regs[rd] = alu_out
                            cycle += 3
                        elif cls is _BRANCH:
                            if a == b:
                                pc = (instr_pc + imm) & MASK32
                                entered = hot and pc < instr_pc
                            cycle += 2
                        elif cls is _LOAD:
                            alu_out = addr = (a + imm) & MASK32
                            cycle += 2
                            if addr >= size or addr & 3:  # MemRead below
                                state = _MEM_READ
                                break
                            mdr = words[addr >> 2]
                            if rd:
                                regs[rd] = mdr
                            cycle += 2
                        elif cls is _STORE:
                            alu_out = addr = (a + imm) & MASK32
                            cycle += 2
                            if addr >= size or addr & 3:  # MemWrite below
                                state = _MEM_WRITE
                                break
                            words[addr >> 2] = b  # the MemWrite and its commit
                            cycle += 1
                        else:  # jump
                            alu_out = pc  # the link: instr_pc + 4
                            pc = (instr_pc + imm) & MASK32
                            if rd:
                                regs[rd] = alu_out
                            cycle += 3
                            entered = hot and pc < instr_pc
                        state = _FETCH
                        by_mnemonic[m] += 1
                        if trace is not None:
                            begin, start = start, cycle + 1  # moved first: a sink may raise
                            trace(_span((begin, instr_pc, ir, _NAMES[m], True)))
                        # any class but a jump or taken branch leaves pc at instr_pc + 4
                        if halt and pc == instr_pc:
                            return True
                        # A taken branch or jump back to an earlier word enters the block there.
                        if entered:
                            entered = False
                            block = blocks.get(pc, 0)  # entries so far, a block, or None: dropped
                            if block.__class__ is int and not pc & 3:  # cold: count an entry at a word
                                block = blocks[pc] = (block + 1 if block + 1 < BLOCK_HEAT
                                                      else _translate(words, pc, instr_pc))
                            if block.__class__ is tuple and cycle + block[4] <= last:  # its cycle sum fits
                                run, lo, hi, snap, _ = block
                                # rewritten since its translation, or retired nothing: dropped until a reset
                                if words[lo:hi] != snap or not (
                                        out := run(regs, words, size, by_mnemonic, alu_out, mdr, last - cycle)):
                                    blocks[pc] = None
                                else:
                                    spent, pc, a, b, alu_out, mdr, (instr_pc, ir, decoded) = out
                                    cycle += spent
                                    if halt and pc == instr_pc:
                                        return True
                    if cycle > last:  # else a fetch the pass left would re-enter it forever
                        continue
                # One cycle: the work of `state`; a bus access is stamped at this cycle.
                if state is _FETCH:
                    instr_pc = pc
                    self.cycle_count = cycle
                    ir = read(pc)
                    pc = (pc + 4) & MASK32
                elif state is _DECODE:
                    cls, m, rd, rs1, rs2, imm = decoded = decode(ir)
                    a, b = regs[rs1], regs[rs2]
                elif state is _EXECUTE:
                    cls, m, rd, rs1, rs2, imm = decoded
                    alu_out = ops[m](a, b if cls is _R_ALU else imm & MASK32)
                elif state is _ALU_WRITEBACK:
                    rd = decoded[2]
                    if rd:
                        regs[rd] = alu_out
                elif state is _MEM_ADDR:
                    alu_out = (a + decoded[5]) & MASK32
                elif state is _MEM_READ:
                    self.cycle_count = cycle
                    mdr = read(alu_out)
                elif state is _LOAD_WRITEBACK:
                    rd = decoded[2]
                    if rd:
                        regs[rd] = mdr
                elif state is _MEM_WRITE:
                    self.cycle_count = cycle
                    write(alu_out, b, _EXECUTING)
                elif state is _BRANCH_COMPLETION:
                    if a == b:
                        pc = (instr_pc + decoded[5]) & MASK32
                else:  # JumpLink
                    alu_out = (instr_pc + 4) & MASK32
                    pc = (instr_pc + decoded[5]) & MASK32
                cycle += 1
                if state is _MEM_WRITE or cycle == first:
                    commit()
                state = after[decoded[1]][state] if state is not _FETCH else _DECODE
                if state is not _FETCH:
                    continue
                m = decoded[1]
                by_mnemonic[m] += 1
                if trace is not None:
                    begin, start = start, cycle + 1
                    trace(_span((begin, instr_pc, ir, _NAMES[m][begin - start:], True)))
                if halt and pc == instr_pc:
                    return True
            return False
        except SimError as e:  # raised by the work of `state`
            if e.pc is None:
                e.pc = pc if state is _FETCH else instr_pc
            if e.state is None:
                e.state = state
            raise
        finally:  # the one write-back: `step_cycle`, callers and faults read the core
            self.fsm, self.pc, self.instr_pc, self.ir, self.decoded = state, pc, instr_pc, ir, decoded
            self.a, self.b, self.alu_out, self.mdr, self.cycle_count = a, b, alu_out, mdr, cycle
            if trace is not None and start <= cycle:  # cycles that did not retire
                names = _HEAD if state is _DECODE else _NAMES[decoded[1]]
                end = names.index(state)  # the position of the state that runs next
                trace(_span((start, instr_pc, ir, names[end + start - cycle - 1:end], False)))

    def _clock(self, bus: UnifiedMemory, cycles: int = 1) -> None:
        """Advance `cycles` (>= 0) clocks without records.

        Outside executing mode the clock is held: no architectural or
        microarchitectural state changes, so `snapshot()` is unchanged.
        """
        if self.mode is _EXECUTING:
            self._cycles(bus, self.cycle_count + cycles, None)

    def step_cycle(self, bus: UnifiedMemory) -> TraceRecord:
        """Advance one clock and describe it; a held cycle changes nothing."""
        if self.mode is _EXECUTING:
            spans: list[TraceSpan] = []
            self._cycles(bus, self.cycle_count + 1, spans.append)
            return spans[0].records()[0]
        state, mode = self.fsm, self.mode
        pc = self.pc if state is _FETCH else self.instr_pc
        return TraceRecord(self.cycle_count, mode.value, state, pc, self.ir, False)

    # --- instruction-level stepping ---

    def step_instruction(self, bus: UnifiedMemory) -> tuple[DecodedInstruction, int]:
        """Run cycles until one instruction retires; (instruction, cycles)."""
        if self.mode is not _EXECUTING:
            raise NotExecuting(f"core is in {self.mode.value} mode")
        start_cycles = self.cycle_count
        self._clock(bus)
        while self.fsm is not _FETCH:  # one cycle at a time: never a block
            self._clock(bus)
        assert self.decoded is not None
        return self.decoded, self.cycle_count - start_cycles

    def run(
        self,
        bus: UnifiedMemory,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        trace: Callable[[TraceSpan], None] | None = None,
    ) -> RunReport:
        """Step until the core parks itself or the cycle budget is spent.

        The halt rule: the core parks when a retired jump or taken branch
        lands on its own address (`jal x0, 0`, `beq x0, x0, 0`).
        `reference_execute` applies the same rule, written out separately.
        Faults (unsupported instructions, memory errors) propagate with the
        pc and FSM state attached; budget exhaustion is a report outcome.
        `trace` gets one TraceSpan per instruction after its last cycle in
        this run (not retired if the run ends inside it); `trace=lambda
        span: records.extend(span.records())` keeps a record per cycle.  A
        sink must not read `Core` attributes: they are set when the run ends.
        """
        if max_cycles <= 0:
            raise ValueError(f"max_cycles={max_cycles} must be positive")
        if self.mode is not _EXECUTING:
            raise NotExecuting(f"core is in {self.mode.value} mode")
        start_cycles = self.cycle_count
        before = dict(self.by_mnemonic)
        halted = self._cycles(bus, start_cycles + max_cycles, trace, True)
        retired = {cls: 0 for cls in InstrClass}
        for m, n in self.by_mnemonic.items():
            retired[MNEMONIC_CLASS[m]] += n - before[m]
        return RunReport(
            total_cycles=self.cycle_count - start_cycles,
            retired=retired,
            halt_reason=HaltReason.SELF_LOOP if halted else HaltReason.CYCLE_BUDGET_EXHAUSTED,
            final_state=self.snapshot(),
        )


# --- functional reference oracle ---

class OracleResult(NamedTuple):
    regs: tuple[int, ...]
    memory: list[int]
    pc: int
    retired: int
    halted: bool


def reference_execute(
    image: MemoryImage,
    max_instrs: int = 1_000_000,
    mem_size: int = DEFAULT_MEM_SIZE,
) -> OracleResult:
    """One-instruction-per-step functional model over a fresh flat memory,
    starting at pc 0 as the core does out of reset.

    Semantics are written out longhand on purpose: this is the second,
    independent route for every architectural effect the FSM engine
    produces, so it shares no ALU or state-sequencing code with it.
    """
    check_size(mem_size)
    words = [0] * (mem_size // 4)
    base, end = image.base_address, 4 * len(words)
    if image.words and (base % 4 or not 0 <= base <= end - 4 * len(image.words)):
        # The first word that does not fit: the base, or the end of memory.
        raise OutOfRange("image does not fit oracle memory",
                         addr=base if base % 4 or not 0 <= base < end else end)
    words[base >> 2:(base >> 2) + len(image.words)] = [w & MASK32 for w in image.words]

    regs = [0] * 32
    pc = 0
    retired = 0
    halted = False

    def access_fault(addr: int) -> None:  # a word access misaligned or outside memory
        if addr % 4:
            raise MisalignedAccess("word access must be 4-byte aligned", addr=addr, pc=pc)
        raise OutOfRange(f"beyond {mem_size}-byte memory", addr=addr, pc=pc)

    # Classes bound once: an enum member read through its class is a
    # Python-level lookup, and the loop tests the class of every instruction.
    r_alu, i_alu, load, store, branch = (
        InstrClass.R_ALU, InstrClass.I_ALU, InstrClass.LOAD, InstrClass.STORE, InstrClass.BRANCH
    )
    while retired < max_instrs and not halted:
        if pc & 3 or pc >= mem_size:
            access_fault(pc)
        word = words[pc >> 2]
        try:
            cls, m, rd, rs1, rs2, imm = decode(word)
        except SimError as e:
            e.pc = pc
            raise
        next_pc = (pc + 4) & MASK32
        a, b = regs[rs1], regs[rs2]

        if cls is r_alu or cls is i_alu:
            if cls is i_alu:
                b = imm & MASK32
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
            if rd:
                regs[rd] = val
        elif cls is load or cls is store:
            addr = (a + imm) & MASK32
            if addr & 3 or addr >= mem_size:
                access_fault(addr)
            if cls is store:
                words[addr >> 2] = b
            elif rd:
                regs[rd] = words[addr >> 2]
        elif cls is branch:
            if a == b:
                next_pc = (pc + imm) & MASK32
                if next_pc == pc:
                    halted = True
        else:  # JUMP
            if rd:
                regs[rd] = (pc + 4) & MASK32
            next_pc = (pc + imm) & MASK32
            if next_pc == pc:
                halted = True

        retired += 1
        pc = next_pc

    return OracleResult(tuple(regs), words, pc, retired, halted)

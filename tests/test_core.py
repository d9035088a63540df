import pytest
from hypothesis import given, settings, strategies as st

from rv32mc import (
    ControlMode,
    Core,
    HaltReason,
    MemoryImage,
    TraceRecord,
    UnifiedMemory,
    assemble,
    encode,
    instr,
)
from rv32mc.errors import NotExecuting, OutOfRange, UnsupportedInstruction


def make_rig(source: str):
    """Fresh core + memory loaded with `source` and started at pc=0."""
    mem = UnifiedMemory()
    mem.load_image(assemble(source), ControlMode.PROGRAMMING)
    core = Core()
    core.apply_control(ie=0, reset=1)
    core.apply_control(ie=1, reset=0)
    return core, mem


# --- control lines ---

def test_apply_control_all_combinations():
    core = Core()
    assert core.apply_control(0, 1, 0) is ControlMode.RESET_HOLD
    assert core.apply_control(1, 1, 1) is ControlMode.RESET_HOLD  # reset dominates
    assert core.apply_control(1, 0, 0) is ControlMode.EXECUTING
    assert core.apply_control(1, 0, 1) is ControlMode.EXECUTING  # IE over write enable
    assert core.apply_control(0, 0, 1) is ControlMode.PROGRAMMING
    assert core.apply_control(0, 0, 0) is ControlMode.OBSERVATION


def test_reset_clears_pc_and_temporaries():
    core, mem = make_rig("addi x1, x0, 5\njal x0, 0\n")
    core.step_cycle(mem)
    core.step_cycle(mem)
    assert core.pc == 4 and core.ir != 0
    core.apply_control(ie=0, reset=1)
    assert core.pc == 0 and core.ir == 0 and core.fsm == "fetch"
    assert core.cycle_count == 0 and core.decoded is None
    core.apply_control(ie=1, reset=0)
    assert core.pc == 0  # execution restarts from address zero


def test_non_executing_modes_hold_the_clock():
    core, mem = make_rig("addi x1, x0, 5\n")
    for mode_lines in [(0, 1, 0), (0, 0, 1), (0, 0, 0)]:
        core.apply_control(*mode_lines)
        before = core.snapshot()
        mem_before = list(mem.words)
        rec = core.step_cycle(mem)
        assert rec.held and not rec.retired
        assert core.snapshot() == before
        assert mem.words == mem_before


# --- per-class execution ---

def test_addi_retires_in_four_cycles():
    core, mem = make_rig("addi x1, x0, 5\n")
    for _ in range(4):
        core.step_cycle(mem)
    assert core.retired_count == 1
    assert core.regs[1] == 5
    assert core.pc == 4
    assert core.cycle_count == 4


def test_state_sequences_per_class():
    seqs = {
        "add x1, x0, x0": ["fetch", "decode", "execute", "alu_writeback"],
        "addi x1, x0, 1": ["fetch", "decode", "execute", "alu_writeback"],
        "lw x1, 0(x0)": ["fetch", "decode", "mem_addr", "mem_read", "load_writeback"],
        "sw x1, 64(x0)": ["fetch", "decode", "mem_addr", "mem_write"],
        "beq x0, x0, 8": ["fetch", "decode", "branch_completion"],
        "jal x1, 8": ["fetch", "decode", "jump_link", "alu_writeback"],
    }
    for src, expected in seqs.items():
        core, mem = make_rig(src + "\n")
        states = []
        while core.retired_count == 0:
            states.append(core.step_cycle(mem).state)
        assert states == expected, src


def test_load_reads_committed_memory():
    core, mem = make_rig("lw x2, 16(x0)\njal x0, 0\n")
    mem.schedule_write(16, 0xCAFEF00D, ControlMode.PROGRAMMING)
    mem.commit_cycle()
    ins, cycles = core.step_instruction(mem)
    assert (ins.mnemonic, cycles) == ("lw", 5)
    assert core.regs[2] == 0xCAFEF00D


def test_store_commits_at_cycle_end():
    core, mem = make_rig("addi x1, x0, 77\nsw x1, 100(x0)\njal x0, 0\n")
    core.step_instruction(mem)
    ins, cycles = core.step_instruction(mem)
    assert (ins.mnemonic, cycles) == ("sw", 4)
    assert mem.read_word(100) == 77


def test_branch_taken_timing_and_target():
    core, mem = make_rig("beq x0, x0, 8\naddi x1, x0, 1\naddi x2, x0, 2\njal x0, 0\n")
    ins, cycles = core.step_instruction(mem)
    assert cycles == 3 and core.pc == 8
    core.step_instruction(mem)
    assert core.regs[2] == 2 and core.regs[1] == 0


def test_branch_not_taken():
    core, mem = make_rig("addi x1, x0, 1\nbeq x1, x0, 8\njal x0, 0\n")
    core.step_instruction(mem)
    ins, cycles = core.step_instruction(mem)
    assert (ins.mnemonic, cycles) == ("beq", 3)
    assert core.pc == 8  # fall through to the next instruction


def test_jal_links_and_jumps():
    core, mem = make_rig("jal x5, 12\njal x0, 0\njal x0, 0\njal x0, 0\n")
    ins, cycles = core.step_instruction(mem)
    assert (ins.mnemonic, cycles) == ("jal", 4)
    assert core.regs[5] == 4
    assert core.pc == 12


def test_writes_to_x0_are_discarded():
    core, mem = make_rig("addi x0, x0, 99\nlw x0, 0(x0)\njal x0, 8\n")
    core.step_instruction(mem)
    assert core.regs[0] == 0
    core.step_instruction(mem)
    assert core.regs[0] == 0
    core.step_instruction(mem)
    assert core.regs[0] == 0  # jal link to x0 also discarded


def test_alu_semantics_wrap_and_shift():
    src = """
        addi x1, x0, -1         # 0xFFFFFFFF
        addi x2, x0, 1
        add  x3, x1, x2         # wraps to 0
        srai x4, x1, 4          # arithmetic: stays -1
        srli x5, x1, 28         # logical: 0xF
        sltu x6, x0, x1         # 0 < 0xFFFFFFFF unsigned
        slt  x7, x1, x0         # -1 < 0 signed
        sll  x8, x2, x1         # shift amount masked to 31
        jal  x0, 0
"""
    core, mem = make_rig(src)
    for _ in range(8):
        core.step_instruction(mem)
    regs = core.regs
    assert regs[3] == 0
    assert regs[4] == 0xFFFFFFFF
    assert regs[5] == 0xF
    assert regs[6] == 1 and regs[7] == 1
    assert regs[8] == 0x80000000


# --- instruction- and run-level stepping ---

def test_step_instruction_requires_executing():
    core = Core()
    with pytest.raises(NotExecuting):
        core.step_instruction(UnifiedMemory())


def test_run_requires_executing():
    with pytest.raises(NotExecuting):
        Core().run(UnifiedMemory())


def test_run_demo_program():
    core, mem = make_rig("addi x1, x0, 5\njal x0, 0\n")
    report = core.run(mem)
    assert report.halt_reason is HaltReason.SELF_LOOP
    assert report.retired_total == 2
    assert report.total_cycles == 8
    assert core.regs[1] == 5


def test_run_cycle_sum_example():
    # lw + sw + beq-not-taken + halt = 5 + 4 + 3 + 4
    src = """
        lw  x1, 64(x0)
        sw  x1, 68(x0)
        beq x1, x3, 8
        jal x0, 0
"""
    core, mem = make_rig(src)
    core.regs[3] = 1  # force not-taken
    report = core.run(mem)
    assert report.total_cycles == 16
    assert report.retired_total == 4


def test_taken_self_branch_halts():
    core, mem = make_rig("loop: beq x0, x0, loop\n")
    report = core.run(mem)
    assert report.halt_reason is HaltReason.SELF_LOOP
    assert report.total_cycles == 3


def test_not_taken_self_branch_does_not_halt():
    core, mem = make_rig("addi x1, x0, 1\nloop: beq x1, x0, loop\njal x0, 0\n")
    report = core.run(mem)
    assert report.halt_reason is HaltReason.SELF_LOOP
    assert report.retired_total == 3  # beq fell through to the jal


def test_run_rejects_empty_budget():
    core, mem = make_rig("jal x0, 0\n")
    with pytest.raises(ValueError):
        core.run(mem, max_cycles=0)


def test_run_budget_exhaustion():
    # two-instruction loop that never self-loops
    core, mem = make_rig("top: addi x1, x1, 1\nbeq x0, x0, -4\n")
    report = core.run(mem, max_cycles=10)
    assert report.halt_reason is HaltReason.CYCLE_BUDGET_EXHAUSTED
    assert report.total_cycles == 10


def test_unsupported_instruction_diagnoses_pc_and_state():
    core, mem = make_rig(".word 0xFFFFFFFF\n")
    with pytest.raises(UnsupportedInstruction) as exc:
        core.run(mem)
    assert exc.value.pc == 0
    assert exc.value.state == "decode"
    assert "pc=0x00000000" in str(exc.value)


def test_fetch_from_zeroed_memory_faults():
    core, mem = make_rig("")
    with pytest.raises(UnsupportedInstruction):
        core.run(mem)


def test_memory_fault_carries_pc_context():
    core, mem = make_rig("lw x1, 0(x2)\njal x0, 0\n")
    core.regs[2] = 0x10000
    with pytest.raises(OutOfRange) as exc:
        core.run(mem)
    assert exc.value.pc == 0
    assert exc.value.state == "mem_read"


def test_jump_to_misaligned_address_faults_at_fetch():
    # +2 is encodable (even) but not a word address; the next fetch trips
    from rv32mc.errors import MisalignedAccess

    mem = UnifiedMemory()
    mem.load_image(MemoryImage(0, [encode(instr("jal", rd=0, imm=2))]),
                   ControlMode.PROGRAMMING)
    core = Core()
    core.apply_control(ie=0, reset=1)
    core.apply_control(ie=1, reset=0)
    with pytest.raises(MisalignedAccess) as exc:
        core.run(mem)
    assert exc.value.addr == 2
    assert exc.value.state == "fetch"


def test_runs_are_deterministic():
    def trace_csv():
        core, mem = make_rig("addi x1, x0, 3\nsw x1, 40(x0)\nlw x2, 40(x0)\njal x0, 0\n")
        lines = []
        core.run(mem, trace=lambda span: lines.extend(rec.as_csv() for rec in span.records()))
        return lines

    assert trace_csv() == trace_csv()


def test_trace_record_is_immutable_and_not_held_by_default():
    rec = TraceRecord(4, "executing", "alu_writeback", 0, 0x00500093, True)
    assert rec.held is False
    for field in ("cycle", "mode", "state", "pc", "ir", "retired", "held"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    assert rec.as_csv() == "4,executing,alu_writeback,00000000,00500093,addi x1, x0, 5,1"


# --- invariants ---

@given(st.integers(0, 2**32 - 1), st.integers(0, 31))
@settings(max_examples=50)
def test_x0_invariant(value, reg):
    core, mem = make_rig("add x0, x1, x2\njal x0, 0\n")
    core.regs[reg] = value
    assert core.regs[0] == 0
    core.run(mem)
    assert core.regs[0] == 0


def test_cycle_count_equals_class_costs():
    from rv32mc import CYCLE_COST

    core, mem = make_rig("addi x1, x0, 1\nlw x2, 64(x0)\nsw x1, 64(x0)\njal x0, 0\n")
    report = core.run(mem)
    expected = sum(CYCLE_COST[cls] * n for cls, n in report.retired.items())
    assert report.total_cycles == expected


def test_mode_safety_no_retirement_outside_executing():
    core, mem = make_rig("addi x1, x0, 1\njal x0, 0\n")
    # stop mid-instruction, spin the clock in every held mode
    core.step_cycle(mem)
    for lines in [(0, 0, 1), (0, 0, 0)]:
        core.apply_control(*lines)
        for _ in range(5):
            assert not core.step_cycle(mem).retired
        assert core.retired_count == 0
    # resuming completes the in-flight instruction
    core.apply_control(ie=1, reset=0)
    ins, cycles = core.step_instruction(mem)
    assert ins.mnemonic == "addi" and core.regs[1] == 1
    assert cycles == 3  # fetch already happened before the stop

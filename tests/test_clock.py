"""The record-free clock against the traced one.

An untraced `Core.run`, `step_instruction` and `Simulator.run_cycles` clock
the core without a trace; a traced run hands its sink one TraceSpan per
instruction, and `step_cycle` makes its record from a one-cycle span.  All
of them run the same cycle loop, which returns at a retirement or at a
cycle limit, so they must leave the machine in the same state wherever
they stop, in the middle of an instruction or at a fault.  A span's states
are not recorded but derived from its class and the state that runs next,
so traced runs entered and left at every cycle offset must give the
records that `step_cycle` gives one cycle at a time.  An untraced run
also runs a hot loop's code as compiled blocks, each block and each pass
one goes round only if its whole cycle sum fits, so a hot loop cut at
every cycle offset and resumed must end as one unbroken run does; and
generated loops, run whole, split by their budget or ended by a fault,
run in blocks too.

The engine reads and writes memory words in place and takes only other
addresses through its bus, so the tests that compare paths run on both
kinds of bus: a bare `UnifiedMemory` (a `Simulator` without peripherals)
and a `SystemBus` with the default devices just above memory.
"""

import contextlib
import io
import random

import pytest

from rv32mc import (CYCLE_COST, ControlMode, HaltReason, InstrClass, MemoryImage, PeripheralMap,
                    Simulator, TraceRecord, TraceSpan, assemble, decode, image_to_hex)
from rv32mc.cli import dispatch
from rv32mc.core import _SEQUENCE, BLOCK_HEAT
from rv32mc.errors import MisalignedAccess, OutOfRange, SimError, UnmappedAddress
from rv32mc.programs import PROGRAMS
from progen import random_loop_program, random_program

IMAGES = {name: assemble(src) for name, src in PROGRAMS.items()}
IMAGES.update(
    (f"progen-{seed}", random_program(random.Random(seed), max_body=60)) for seed in range(50)
)
# A loop whose entry gets hot, so an untraced run ends it in blocks: a load,
# a store skipped on every fourth pass by a side exit, and a linking jal.
IMAGES["hot-loop"] = assemble(f"""
        addi x5, x0, {BLOCK_HEAT + 8}
        addi x2, x0, 1
        slli x2, x2, 11         # 2048: data
top:    lw   x3, 0(x2)
        addi x3, x3, 7
        andi x4, x5, 3
        beq  x4, x0, skip
        sw   x3, 0(x2)
skip:   addi x5, x5, -1
        beq  x5, x0, done
        jal  x1, top
done:   jal  x0, done
""")
# Generated counted loops, each entry hot: an untraced run ends them in blocks.
HOT_LOOPS = [f"progen-loop-{seed}" for seed in range(4)]
IMAGES.update((name, random_loop_program(random.Random(seed), BLOCK_HEAT + 8, max_body=12))
              for seed, name in enumerate(HOT_LOOPS))


SYSTEM, MEMORY = BUSES = ("system", "memory")


def started(image, bus=SYSTEM):
    """A simulator started on `image`, whose core's bus is a `SystemBus` with
    the default devices (SYSTEM) or its bare memory (MEMORY)."""
    sim = Simulator(peripherals=PeripheralMap.default() if bus == SYSTEM else None)
    sim.program_and_start(image)
    return sim


def counts_agree(core):
    """The engine's retirements by mnemonic add up to its retired count."""
    return sum(core.by_mnemonic.values()) == core.retired_count


def machine_state(sim):
    """Everything a cycle can change: core temporaries, memory, device logs."""
    core, devices = sim.core, sim.peripherals.devices if sim.peripherals else ()
    return (
        core.snapshot(), core.fsm, core.ir, core.decoded, core.a, core.b, core.alu_out,
        core.mdr, core.instr_pc, list(sim.mem.words), sim.mem.pending_write,
        [(d.name, dict(d.regs), list(d.event_log)) for d in devices],
    )


def _outcome(run):
    """What `run()` returned, or the type, pc and state of the error it raised;
    any error, so that one that is not a SimError shows as a mismatch."""
    try:
        return run()
    except Exception as e:
        return type(e), getattr(e, "pc", None), getattr(e, "state", None)


@pytest.mark.parametrize("name", list(IMAGES))
def test_traced_and_untraced_runs_agree(name):
    for bus in BUSES:  # pacer's first device load faults on bare memory
        plain, traced = started(IMAGES[name], bus), started(IMAGES[name], bus)
        records = []
        report = _outcome(lambda: plain.core.run(plain.bus, max_cycles=20_000))
        traced_report = _outcome(lambda: traced.core.run(
            traced.bus, max_cycles=20_000, trace=lambda span: records.extend(span.records())))
        assert report == traced_report, bus
        assert machine_state(plain) == machine_state(traced), bus
        assert len(records) == traced.core.cycle_count
        assert sum(r.retired for r in records) == traced.core.retired_count


@pytest.mark.parametrize("name", ["demo", "timing", "pacer", "progen-7"])
@pytest.mark.parametrize("lines", [(1, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0)],
                         ids=["executing", "observation", "programming", "reset"])
def test_run_cycles_matches_step_cycle(name, lines):
    for n in (1, 3, 57):
        a, b = started(IMAGES[name]), started(IMAGES[name])
        for sim in (a, b):
            sim.run_cycles(11)  # stop in the middle of an instruction
            sim.core.apply_control(*lines)
        held = a.core.mode is not ControlMode.EXECUTING
        assert a.run_cycles(n) == ((0, n) if held else (n, 0))
        records = [b.core.step_cycle(b.bus) for _ in range(n)]
        assert all(r.held == held for r in records)
        assert machine_state(a) == machine_state(b)


def _run(sim, n):
    return sim.core.run(sim.bus, max_cycles=n).total_cycles


def _traced_run(sim, n):
    records = []
    try:
        return sim.core.run(sim.bus, max_cycles=n,
                            trace=lambda span: records.extend(span.records())).total_cycles
    finally:
        assert [r.cycle for r in records] == list(range(1, sim.core.cycle_count + 1))


def _step_cycles(sim, n):
    for _ in range(n):
        sim.core.step_cycle(sim.bus)
    return n


def _run_cycles(sim, n):
    return sim.run_cycles(n)[0]


PATHS = (_run, _traced_run, _step_cycles, _run_cycles)


@pytest.mark.parametrize("name", ["demo", "pacer", "progen-3", "progen-7"])
def test_every_path_stops_alike_at_every_cycle_offset(name):
    for bus in BUSES:
        for max_cycles in range(1, 13):
            reference = started(IMAGES[name], bus)
            cycles = _run(reference, max_cycles)  # fewer than max_cycles if it halts first
            for path in PATHS[1:]:
                sim = started(IMAGES[name], bus)
                assert path(sim, cycles) == cycles
                assert machine_state(sim) == machine_state(reference), (path, max_cycles, bus)
                assert counts_agree(sim.core)


@pytest.mark.parametrize("bus", BUSES)
def test_no_run_spends_more_cycles_than_its_budget(bus):
    # Loads take five cycles, the most of any class: a whole instruction
    # begun too close to the limit would run past it.
    image = assemble("loop: lw x1, 0(x0)\naddi x2, x2, 1\nlw x3, 4(x0)\njal x0, loop\n")
    for max_cycles in range(1, 120):
        sim = started(image, bus)
        report = sim.core.run(sim.bus, max_cycles=max_cycles)
        assert report.total_cycles == sim.core.cycle_count <= max_cycles, max_cycles


FAULTS = {name: (assemble(source), *rest) for name, (source, *rest) in {
    # x1 = 0x2000: above memory and past the last default device
    "unmapped-load": ("addi x1, x0, 1\nslli x1, x1, 13\nlw x2, 0(x1)\njal x0, 0\n",
                      0x8, "mem_read", 11),
    "unsupported": ("addi x1, x0, 5\nadd x2, x1, x1\n.word 0xFFFFFFFF\njal x0, 0\n",
                    0x8, "decode", 9),
    "unmapped-store": ("addi x1, x0, 1\nslli x1, x1, 13\nsw x2, 0(x1)\njal x0, 0\n",
                       0x8, "mem_write", 11),
    # The jump lands on 0x6, an even offset but not a word address: its fetch trips
    "misaligned-jump": ("addi x1, x0, 5\njal x0, 2\njal x0, 0\n", 0x6, "fetch", 8),
}.items()}
# Two generated loops whose halt is a word that does not decode: every path
# faults at its Decode after the same passes, the untraced ones run in
# blocks, and no count by hand gives the cycle (None).
FAULTS.update((f"{name}-unsupported", (MemoryImage(0, IMAGES[name].words[:-1] + [0xFFFFFFFF]),
                                        4 * len(IMAGES[name].words) - 4, "decode", None))
              for name in HOT_LOOPS[:2])


@pytest.mark.parametrize("name", list(FAULTS))
def test_every_path_faults_alike_in_the_middle_of_an_instruction(name):
    image, pc, state, cycle_count = FAULTS[name]
    states = []
    for path in PATHS:
        sim = started(image)
        with pytest.raises(SimError) as info:
            path(sim, 20_000)
        assert (info.value.pc, info.value.state) == (pc, state)
        assert cycle_count in (None, sim.core.cycle_count)
        assert counts_agree(sim.core)
        states.append(machine_state(sim))
    assert all(s == states[0] for s in states)


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.__name__.strip("_"))
def test_device_accesses_are_stamped_three_cycles_after_their_fetch(path):
    # Every load and store of the pacer goes to a device; its MemRead or
    # MemWrite is the fourth cycle of the instruction.
    reference, spans = started(IMAGES["pacer"]), []
    reference.core.run(reference.bus, trace=spans.append)
    memory_classes = (InstrClass.LOAD, InstrClass.STORE)
    expected = [span.cycle - 1 + 3 for span in spans if decode(span.ir).cls in memory_classes]
    sim = started(IMAGES["pacer"])
    path(sim, reference.core.cycle_count)
    stamps = sorted(r.cycle for d in sim.peripherals.devices for r in d.event_log)
    assert stamps == expected and len(expected) == 16


def _store_fetches(name):
    """The cycle count before the fetch of each store of a program's run."""
    sim, spans = started(IMAGES[name]), []
    sim.core.run(sim.bus, trace=spans.append)
    return [span.cycle - 1 for span in spans if decode(span.ir).cls is InstrClass.STORE]


@pytest.mark.parametrize("name", ["timing", "progen-7"])
@pytest.mark.parametrize("path", [_run, _run_cycles], ids=lambda path: path.__name__.strip("_"))
def test_runs_ended_inside_a_store_continue_as_step_cycle_does(path, name):
    # A run that ends after the store's first, second, third or fourth cycle
    # leaves its MemWrite to the per-state branch, in this call or the next one.
    fetches = _store_fetches(name)
    assert fetches
    for bus in BUSES:
        for fetch in fetches:
            for k in range(1, 5):
                sim, stepped = started(IMAGES[name], bus), started(IMAGES[name], bus)
                for budget in (fetch + k, 12):  # stop inside the store, then go on
                    _step_cycles(stepped, path(sim, budget))
                    assert machine_state(sim) == machine_state(stepped), (bus, fetch, k, budget)
                    assert sim.mem.pending_write is None


# Word addresses at the edge of the default 4 KiB memory, and the fault
# step_cycle gives there by bus kind, None for a run that parks.  On the
# system bus the first device sits at `size`, and nothing at 0x2000.
EDGE = {"last": 4092, "size": 4096, "misaligned": 4094, "unmapped": 0x2000}
EDGE_FAULT = {
    MEMORY: {"last": None, "size": OutOfRange, "misaligned": MisalignedAccess,
             "unmapped": OutOfRange},
    SYSTEM: {"last": None, "misaligned": MisalignedAccess, "unmapped": UnmappedAddress},
}
PARK = 0x0000006F  # jal x0, 0


def _access(kind, addr):
    """A program that makes one `kind` access (fetch, lw or sw) at `addr` and
    parks; the last word of memory parks too."""
    if kind == "fetch":  # the jump at 4 lands on addr
        body = f"addi x2, x0, 77\njal x0, {addr - 4}\n"
    else:  # x1 holds addr rounded down to 16 bytes
        body = (f"addi x1, x0, {addr >> 4}\nslli x1, x1, 4\naddi x2, x0, 77\n"
                f"{kind} {'x3' if kind == 'lw' else 'x2'}, {addr & 15}(x1)\njal x0, 0\n")
    return body + ".org 4092\njal x0, 0\n"


def _stepped_outcome(sim, n):
    """Step up to `n` cycles, to the halt rule: the cycles run, or the type,
    pc and state of a fault."""
    for cycle in range(1, n + 1):
        try:
            record = sim.core.step_cycle(sim.bus)
        except SimError as e:
            return type(e), e.pc, e.state
        if record.retired and sim.core.pc == record.pc:
            return cycle
    return n


@pytest.mark.parametrize("bus", BUSES)
@pytest.mark.parametrize("where", list(EDGE))
@pytest.mark.parametrize("kind", ["fetch", "lw", "sw"])
def test_accesses_at_the_edge_of_memory_act_as_step_cycle_does(kind, where, bus):
    image = assemble(_access(kind, EDGE[where]))
    reference = started(image, bus)
    expected = _stepped_outcome(reference, 100)
    fault = EDGE_FAULT[bus].get(where, "device")  # a device register: any outcome
    if fault is None:
        assert isinstance(expected, int), expected
        assert reference.mem.words[-1] == (77 if kind == "sw" else PARK)
        assert reference.core.regs[3] == (PARK if kind == "lw" else 0)
    elif fault != "device":
        assert expected[0] is fault
    budget = expected if isinstance(expected, int) else 100
    for path in PATHS:
        sim = started(image, bus)
        outcome = _outcome(lambda: path(sim, budget))
        assert outcome == expected, path.__name__
        assert machine_state(sim) == machine_state(reference), path.__name__


def _with_outside_write(image, patched):
    """A started core whose memory holds a write scheduled from outside."""
    sim = started(image)
    sim.core.apply_control(ie=0, reset=0, write_enable=1)  # programming
    sim.bus.schedule_write(0, patched, sim.core.mode)
    sim.start()
    return sim


def test_outside_write_commits_at_the_end_of_the_first_executing_cycle():
    image = IMAGES["demo"]
    patched = 0x0000006F  # jal x0, 0
    assert image.words[0] != patched
    for budget in (1, 8, 20_000):  # one cycle, two instructions, the whole run
        cycles = _run(_with_outside_write(image, patched), budget)
        states = []
        for path in PATHS:
            sim = _with_outside_write(image, patched)
            assert path(sim, cycles) == cycles
            assert sim.mem.words[0] == patched and sim.mem.pending_write is None, budget
            states.append(machine_state(sim))
        assert all(s == states[0] for s in states), budget
        # The first fetch saw committed memory: the addi, which then ran.
        assert sim.core.ir == image.words[0 if cycles <= 4 else 1]
        assert sim.core.regs[1] == (5 if cycles >= 4 else 0)


def test_reset_clears_the_retirement_counts():
    sim = started(IMAGES["demo"])
    sim.run_cycles(40)
    assert sim.core.retired_count and counts_agree(sim.core)
    sim.pulse_reset()
    assert sim.core.retired_count == 0 and not any(sim.core.by_mnemonic.values())


@pytest.mark.parametrize("name", ["demo", "pacer", "progen-7", "hot-loop", HOT_LOOPS[0]])
def test_a_run_split_by_its_budget_retires_what_one_run_does(name):
    reference = started(IMAGES[name])
    whole = reference.core.run(reference.bus)
    assert whole.halt_reason is HaltReason.SELF_LOOP
    sim = started(IMAGES[name])
    first = sim.core.run(sim.bus, max_cycles=whole.total_cycles // 2)
    second = sim.core.run(sim.bus, max_cycles=whole.total_cycles)
    assert first.halt_reason is HaltReason.CYCLE_BUDGET_EXHAUSTED
    assert second.halt_reason is HaltReason.SELF_LOOP
    assert {c: first.retired[c] + second.retired[c] for c in InstrClass} == whole.retired
    assert sim.core.by_mnemonic == reference.core.by_mnemonic and counts_agree(sim.core)


@pytest.mark.parametrize("path", [_run, _run_cycles], ids=lambda path: path.__name__.strip("_"))
def test_a_hot_loop_cut_at_every_offset_and_resumed_ends_as_one_run(path):
    # The last eight passes of the loop (at most 31 cycles each) and its
    # halt run in blocks, one call going round for up to four of them, each
    # entered or gone round only if its whole cycle sum fits the budget left.
    for bus in BUSES:
        reference = started(IMAGES["hot-loop"], bus)
        total = _run(reference, 10_000)
        for cut in range(total - 8 * 31, total):
            sim = started(IMAGES["hot-loop"], bus)
            assert path(sim, cut) == cut
            assert path(sim, total - cut) == total - cut, (bus, cut)
            assert machine_state(sim) == machine_state(reference), (bus, cut)
            assert sim.core.by_mnemonic == reference.core.by_mnemonic


def test_retired_count_is_derived_and_read_only():
    sim = started(IMAGES["pacer"])
    sim.run_cycles(100)
    assert sim.core.retired_count == sum(sim.core.by_mnemonic.values()) > 0
    with pytest.raises(AttributeError):
        sim.core.retired_count = 0


def test_trace_record_has_six_fields_and_no_held_argument():
    assert TraceRecord._fields == ("cycle", "mode", "state", "pc", "ir", "retired")
    with pytest.raises(TypeError):
        TraceRecord(1, "executing", "fetch", 0, 0, False, held=True)


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.__name__.strip("_"))
def test_a_record_is_held_exactly_when_its_mode_is_not_executing(path):
    sim, records = started(IMAGES["pacer"]), []
    if path is _traced_run:
        sim.core.run(sim.bus, max_cycles=7, trace=lambda span: records.extend(span.records()))
    else:
        path(sim, 7)
    records.append(sim.core.step_cycle(sim.bus))
    for lines in ((0, 0, 0), (0, 0, 1), (0, 1, 0)):  # observation, programming, reset
        sim.core.apply_control(*lines)
        records.append(sim.core.step_cycle(sim.bus))
    executing = len(records) - 3
    assert [r.held for r in records] == [False] * executing + [True] * 3
    assert all(r.held == (r.mode != "executing") for r in records)


def _spans(sim, n):
    """The spans of one traced `Core.run` of at most `n` cycles, to its end or
    its fault."""
    spans = []
    try:
        sim.core.run(sim.bus, max_cycles=n, trace=spans.append)
    except SimError:
        pass
    return spans


def _records(spans):
    return [rec for span in spans for rec in span.records()]


def _stepped(sim, n):
    """The records of up to `n` `step_cycle` calls, to a halt or a fault."""
    records = []
    with contextlib.suppress(SimError):
        while len(records) < n:
            records.append(sim.core.step_cycle(sim.bus))
            if records[-1].retired and sim.core.pc == records[-1].pc:
                break  # the halt rule: a self-loop retired
    return records


def test_each_class_runs_its_cycle_cost_with_each_state_at_one_position():
    assert {cls: len(states) for cls, states in _SEQUENCE.items()} == CYCLE_COST
    positions = {}
    for states in _SEQUENCE.values():
        for i, state in enumerate(states):
            assert positions.setdefault(state, i) == i


ENTRIES = {name: IMAGES[name] for name in ("demo", "pacer", "progen-3", "progen-7")}
ENTRIES.update((name, FAULTS[name][0]) for name in FAULTS)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_traced_runs_entered_and_left_mid_instruction_give_step_cycle_records(name):
    for entry in range(13):
        for budget in range(1, 14):
            traced, stepped = started(ENTRIES[name]), started(ENTRIES[name])
            with contextlib.suppress(SimError):
                traced.run_cycles(entry)
                stepped.run_cycles(entry)
            if traced.core.cycle_count < entry:  # faulted before the entry point
                continue
            assert _records(_spans(traced, budget)) == _stepped(stepped, budget), (entry, budget)
            assert machine_state(traced) == machine_state(stepped)


@pytest.mark.parametrize("name", ["demo", "pacer", "progen-7", "unmapped-load"])
def test_traced_runs_split_by_budget_concatenate_to_one_traced_run(name):
    whole = _records(_spans(started(ENTRIES[name]), 10_000))
    for split in {1, 2, 5, 11, len(whole) // 2, len(whole) - 1} & set(range(1, len(whole))):
        sim = started(ENTRIES[name])
        first = _spans(sim, split)
        assert _records(first) + _records(_spans(sim, 10_000)) == whole, split


@pytest.mark.parametrize("name", ["pacer", "progen-7", "unmapped-load", "unsupported"])
def test_spans_are_consecutive_and_only_their_last_cycle_retires(name):
    sim = started(ENTRIES[name])
    sim.run_cycles(6)  # enter in the middle of an instruction
    spans = _spans(sim, 10_000)
    cycle = 7
    for span in spans:
        assert isinstance(span, TraceSpan) and span.cycle == cycle and span.states
        records = span.records()
        assert [r.cycle for r in records] == list(range(cycle, cycle + len(span.states)))
        assert [r.retired for r in records] == [False] * (len(records) - 1) + [span.retired]
        assert [r.state for r in records] == list(span.states)
        assert {(r.pc, r.ir, r.mode) for r in records} == {(span.pc, span.ir, "executing")}
        cycle += len(span.states)
    assert cycle == sim.core.cycle_count + 1
    assert all(span.retired for span in spans[:-1])


@pytest.mark.parametrize("name", ["pacer", "unmapped-load"])
@pytest.mark.parametrize("max_cycles", [100, 10_000])
def test_cli_trace_lines_are_as_csv_of_the_span_records(tmp_path, name, max_cycles):
    hex_path = tmp_path / f"{name}.hex"
    hex_path.write_text(image_to_hex(ENTRIES[name]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        dispatch(["run", str(hex_path), "--trace", "--format", "kv",
                  "--max-cycles", str(max_cycles)])
    lines = out.getvalue().split("halt_reason=")[0].splitlines()
    assert lines == [rec.as_csv() for rec in _records(_spans(started(ENTRIES[name]), max_cycles))]

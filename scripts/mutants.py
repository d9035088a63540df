"""Mutation check: each mutant of the engine must fail a test.

    python3 scripts/mutants.py [--rev HEAD]

The revision (`HEAD` by default, or `WORKTREE` for the checkout as it is
now) is exported into a temporary directory as `scripts/bench.py` does.
Each entry of `MUTANTS` replaces one or more exact texts, in order, each
by its own new text, in one file of that export; an old text that does not
occur exactly once when its turn comes makes the mutant `stale`, a failure
and not a skip, so it cannot pass unnoticed.  The entry's named tests run
first, and the whole tier-1 suite only if they all pass, less
`SELF_CHECK`, which every mutant fails because its old text is gone from
the tree; then the file is put back.  A mutant is `killed` when a run
fails and `survived` when both pass.  Named tests that pytest cannot
select or run (exit 2-5) are an `error`.  The script exits 1 unless every
mutant is killed.

The engine's loop runs whole instructions inline and a part of one
through its per-state branches, so each mutant of an instruction's effects
goes into both copies; the ALU table and the write-back of the loop's
locals are shared.  The inline pass touches only aligned memory words, in
place: a fetch, load or store anywhere else leaves it, with the state that
makes the access, for the per-state branches, the one copy of each bus
access and its cycle stamp.  So the inline pass's own bus mutants are its
address guards and the states it sets.  The inline pass hands the trace
its instruction's whole state tuple, so only the per-state retirement and
the partial span slice theirs.  The per-state branches take each successor
from one table, `_NEXT`, so its mutant goes into that table.
An untraced run has a third route, the blocks it compiles from hot code:
their mutants change one generated effect of each class (an ALU op, the
load, the store, the side-exit beq and the jal's link), let a forward jump
enter a block, drop the check of a block's words on entry, compile one
entry early, keep a block whose words changed or whose call retired
nothing, count a dropped entry again, keep the blocks across a reset, let
a block run past the cycle limit, and, for a call that goes round at its
closing exit back to its entry, count no pass but the last, go round one
pass past the budget, go round at a self-loop, start a pass at a device
access, and leave the previous pass's alu_out stale.
The last mutants reach past the engine: the trace's held flag, a held
clock that runs the engine, held cycles counted as executing, a device
map that names one device twice, the retired flag of a span's CSV lines,
the bound of the trace's span cache, the `.word` text of an undecodable
word, the oracle's `slt`, the decode memo's bound, a decode cache keyed
by address at both decode sites, the CLI's trace blocks, their size and
the `finally` that writes the lines before a fault, a `dis` listing
written in one call, a listing of each distinct word once instead of
each word of the image, the `--mem-size` bound, the last word address as
the bound of an empty range, `image_to_hex`'s base check, an `@` record
read by its prefix alone, and the assembler's second walk, which must
get each branch and jump and each statement that raised, an eager import
of the bring-up harness at the top of the CLI, a record of the harness
that is a dataclass again, a package that answers a name it does not
export, the system bus's memory bound one word short, a device write it
no longer gates by mode, and a device that reaches past the 32-bit
address space. The codec's mutants each change one fact of its two
tables, which both directions read, so only the independent golden
encodings can see them.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench import export  # noqa: E402

SELF_CHECK = "tests/test_mutants_script.py::test_every_old_text_occurs_exactly_once_in_the_tree"
TIER1 = ["--continue-on-collection-errors", "--deselect", SELF_CHECK]
# Seconds one pytest run of a mutant may take; a mutant that hangs the
# engine is killed by the timeout.
TIMEOUT = 600
# pytest exit codes that mean the test selection is wrong, not that a test
# failed: interrupted, internal error, usage error, no tests collected.
_BAD_SELECTION = (2, 3, 4, 5)

Runner = Callable[[Path, list[str]], int]


class Mutant(NamedTuple):
    name: str
    path: str
    edits: list[tuple[str, str]]  # (old, new) texts, applied in order
    tests: tuple[str, ...]


CORE = "src/rv32mc/core.py"
ISA = "src/rv32mc/isa.py"
CLI = "src/rv32mc/cli.py"
MEMORY = "src/rv32mc/memory.py"
ASM = "src/rv32mc/asm.py"
HARNESS = "src/rv32mc/harness.py"
INIT = "src/rv32mc/__init__.py"
CLOCK = "tests/test_clock.py"
FAULTS = f"{CLOCK}::test_every_path_faults_alike_in_the_middle_of_an_instruction"
ENTERED = f"{CLOCK}::test_traced_runs_entered_and_left_mid_instruction_give_step_cycle_records"
OUTSIDE = f"{CLOCK}::test_outside_write_commits_at_the_end_of_the_first_executing_cycle"
ORACLE = "tests/test_oracle.py"
ALU = "tests/test_core.py::test_alu_semantics_wrap_and_shift"
X0 = "tests/test_core.py::test_x0_invariant"
X0_STEPPED = "tests/test_core.py::test_writes_to_x0_are_discarded"
STORE_STEPPED = "tests/test_core.py::test_store_commits_at_cycle_end"
STAMPS = f"{CLOCK}::test_device_accesses_are_stamped_three_cycles_after_their_fetch"
STORE_ENDS = f"{CLOCK}::test_runs_ended_inside_a_store_continue_as_step_cycle_does"
EDGE = f"{CLOCK}::test_accesses_at_the_edge_of_memory_act_as_step_cycle_does"
STOPS = f"{CLOCK}::test_every_path_stops_alike_at_every_cycle_offset"
HELD = f"{CLOCK}::test_a_record_is_held_exactly_when_its_mode_is_not_executing"
AGREE = f"{CLOCK}::test_traced_and_untraced_runs_agree"
WORD_TEXT = "tests/test_decode_cache.py::test_format_word_reads_words_modulo_2_32"
DECODED_ONCE = "tests/test_decode_cache.py::test_engine_oracle_and_disassembler_decode_each_word_once"
CYCLES = f"{CLOCK}::test_run_cycles_matches_step_cycle"
BLOCKS = "tests/test_trace_blocks.py::test_trace_lines_cross_blocks_and_survive_every_ending"
DIS_BLOCKS = "tests/test_cli.py::test_dis_formats_and_writes_one_block_at_a_time"
REWRITTEN = "tests/test_decode_cache.py::test_a_word_rewritten_in_place_is_decoded_anew"
SELF_MODIFYING = "tests/test_decode_cache.py::test_self_modifying_loop_matches_oracle"
GOLDEN = "tests/test_golden_outputs.py::test_cli_outputs_match_golden_files"
ENCODES = "tests/test_golden_encodings.py::test_encode_matches_golden"
DECODES = "tests/test_golden_encodings.py::test_decode_matches_golden"
BAD_MEM_SIZE = "tests/test_cli.py::test_run_bad_flag_exit_code"
ORACLE_MEM_SIZE = "tests/test_oracle.py::test_oracle_refuses_a_memory_size_memory_refuses"
AT_THE_BOUND = "tests/test_cli.py::test_mem_size_at_the_bound_runs"
HEX_BASE = "tests/test_hex_fast_path.py::test_image_to_hex_refuses_a_base_the_format_cannot_hold"
HEX_ADDRESS = "tests/test_asm.py::test_hex_address_record_is_unsigned_hex"
BUDGET = f"{CLOCK}::test_no_run_spends_more_cycles_than_its_budget"
SECOND_RUN = "tests/test_trace_blocks.py::test_a_second_traced_run_in_one_process_renders_from_the_cache"
DIS_EXAMPLES = "tests/test_asm.py::test_disassemble_examples"
EMPTY_PAST_LAST_WORD = "tests/test_cli.py::test_script_observe_of_nothing_past_the_last_word_exit_code"
TWO_ERRORS = "tests/test_asm.py::test_a_source_with_two_errors_reports_the_same_one"
FORWARD_LABELS = "tests/test_asm.py::test_backward_and_forward_labels"
HELD_RUN = "tests/test_harness.py::test_script_run_counts_held_cycles"
HELD_RESET = "tests/test_harness.py::test_observe_under_held_reset_changes_nothing"
DEVICE_MAP = "tests/test_harness.py::test_device_map_validation"
BOUNDARY = "tests/test_harness.py::test_system_bus_owns_the_memory_device_boundary"
MMIO_GATED = "tests/test_harness.py::test_mmio_write_forbidden_in_observation"
IMPORTS = "tests/test_imports.py"
CLI_IMPORTS = f"{IMPORTS}::test_the_package_and_its_cli_load_only_the_cli_and_errors"
COMMAND_IMPORTS = f"{IMPORTS}::test_a_command_imports_only_what_it_runs"
UNKNOWN_NAME = f"{IMPORTS}::test_an_unknown_name_raises_attribute_error_naming_it"
BLOCKS_TWIN = "tests/test_blocks.py::test_hot_loops_agree_with_the_traced_run_and_the_oracle"
BLOCK_HEAT = "tests/test_blocks.py::test_an_entry_is_translated_once_at_the_heat_threshold"
BLOCK_PATCHED = ("tests/test_blocks.py::"
                 "test_an_addi_patched_every_pass_is_translated_once_then_left_to_the_pass")
BLOCK_IDLE = "tests/test_blocks.py::test_a_block_that_retires_nothing_is_dropped"
BLOCK_RESET = "tests/test_blocks.py::test_a_reset_empties_the_block_cache_and_the_entry_counts"
BLOCK_RELOADS = "tests/test_blocks.py::test_each_reset_translates_a_loaded_image_anew"
BLOCK_CUTS = f"{CLOCK}::test_a_hot_loop_cut_at_every_offset_and_resumed_ends_as_one_run"
BLOCK_PASSES = "tests/test_blocks.py::test_one_call_of_a_hot_loop_runs_many_passes"
BLOCK_DEVICE_PASS = ("tests/test_blocks.py::"
                     "test_a_pass_that_loads_from_a_device_first_runs_inline_and_the_block_is_kept")
BLOCK_SELF_LOOP = "tests/test_blocks.py::test_a_translated_self_loop_halts_core_run_at_its_first_retirement"
BLOCK_FORWARD = "tests/test_blocks.py::test_only_a_jump_or_branch_back_to_an_earlier_word_enters_a_block"

# A line break and an indent of `Core._cycles`: the bodies of the per-state
# branches, of the inline pass's loop, of its class branches and of its
# address guards.
STATE = "\n" + " " * 20
LOOP = "\n" + " " * 24
INLINE = "\n" + " " * 28
DEEP = "\n" + " " * 32
# A decode cached by the address it was fetched from; a hit decodes nothing.
CACHED = "_BY_ADDR.get(instr_pc) or _BY_ADDR.setdefault(instr_pc, decode(ir))"

MUTANTS = [
    Mutant("sra-as-srl-table", CORE,
           [('("sra srai", "(({a} ^ 0x80000000) - 0x80000000 >> ({b} & 31)) & 0xFFFFFFFF"),',
             '("sra srai", "{a} >> ({b} & 31)"),')],
           (ALU, ORACLE)),
    Mutant("sra-as-srl-inline", CORE,
           [(INLINE + "alu_out = ops[m](a, b if cls is _R_ALU else imm & MASK32)",
             INLINE + 'alu_out = ops[m.replace("sra", "srl")](a, b if cls is _R_ALU else imm & MASK32)')],
           (ORACLE,)),
    Mutant("sra-as-srl-state", CORE,
           [(STATE + "alu_out = ops[m](a, b if cls is _R_ALU else imm & MASK32)",
             STATE + 'alu_out = ops[m.replace("sra", "srl")](a, b if cls is _R_ALU else imm & MASK32)')],
           (ALU,)),
    Mutant("x0-writable-inline", CORE,
           [("imm & MASK32)" + INLINE + "if rd:\n",
             "imm & MASK32)" + INLINE + "if True:\n")],
           (X0, ORACLE)),
    Mutant("x0-writable-state", CORE,
           [("rd = decoded[2]" + STATE + "if rd:" + STATE + "    regs[rd] = alu_out",
             "rd = decoded[2]" + STATE + "if True:" + STATE + "    regs[rd] = alu_out")],
           (X0_STEPPED,)),
    Mutant("store-never-committed-inline", CORE,
           [("words[addr >> 2] = b  # the MemWrite and its commit",
             "pass  # the MemWrite and its commit")],
           (ORACLE,)),
    Mutant("store-committed-one-cycle-late-state", CORE,
           [("if state is _MEM_WRITE or cycle == first:",
             "if state is _FETCH or cycle == first:")],
           (STORE_ENDS,)),
    Mutant("store-never-committed-state", CORE,
           [("if state is _MEM_WRITE or cycle == first:",
             "if cycle == first:")],
           (STORE_ENDS,)),
    Mutant("device-stamp-plus-one-state-load", CORE,
           [("self.cycle_count = cycle" + STATE + "mdr = read(alu_out)",
             "self.cycle_count = cycle + 1" + STATE + "mdr = read(alu_out)")],
           (STAMPS,)),
    Mutant("device-stamp-plus-one-state-store", CORE,
           [("self.cycle_count = cycle" + STATE + "write(alu_out",
             "self.cycle_count = cycle + 1" + STATE + "write(alu_out")],
           (STAMPS,)),
    Mutant("no-cycle-count-before-device-load-state", CORE,
           [("self.cycle_count = cycle" + STATE + "mdr = read(alu_out)",
             "mdr = read(alu_out)")],
           (ENTERED,)),
    Mutant("inline-crosses-limit", CORE,
           [("last = limit - 5",
             "last = limit - 4")],
           (BUDGET,)),
    Mutant("inline-on-first-cycle", CORE,
           [("first <= cycle <= last",
             "first - 1 <= cycle <= last")],
           (OUTSIDE,)),
    Mutant("fetch-fault-pc-plus-4-state", CORE,
           [("ir = read(pc)" + STATE + "pc = (pc + 4) & MASK32",
             "pc = (pc + 4) & MASK32" + STATE + "ir = read(instr_pc)")],
           (FAULTS,)),
    Mutant("pending-write-visible-to-first-fetch", CORE,
           [("self.cycle_count = cycle" + STATE + "ir = read(pc)",
             "self.cycle_count = cycle" + STATE + "commit()" + STATE + "ir = read(pc)")],
           (OUTSIDE,)),
    Mutant("no-state-before-decode-inline", CORE,
           [(LOOP + "state = _DECODE",
             "")],
           (FAULTS,)),
    Mutant("no-state-before-mem-read-inline", CORE,
           [(DEEP + "state = _MEM_READ",
             "")],
           (FAULTS,)),
    Mutant("no-state-before-mem-write-inline", CORE,
           [(DEEP + "state = _MEM_WRITE",
             "")],
           (FAULTS,)),
    Mutant("fetch-bound-past-memory-inline", CORE,
           [("if pc >= size or pc & 3:",
             "if pc > size or pc & 3:")],
           (EDGE,)),
    Mutant("load-alignment-dropped-inline", CORE,
           [("if addr >= size or addr & 3:  # MemRead below",
             "if addr >= size:  # MemRead below")],
           (EDGE,)),
    Mutant("store-alignment-dropped-inline", CORE,
           [("if addr >= size or addr & 3:  # MemWrite below",
             "if addr >= size:  # MemWrite below")],
           (EDGE,)),
    Mutant("write-back-without-cycle-count", CORE,
           [("self.mdr, self.cycle_count = a, b, alu_out, mdr, cycle",
             "self.mdr = a, b, alu_out, mdr")],
           (STOPS,)),
    Mutant("write-back-without-decoded", CORE,
           [("self.ir, self.decoded = state, pc, instr_pc, ir, decoded",
             "self.ir = state, pc, instr_pc, ir")],
           (STOPS,)),
    Mutant("beq-costs-4-inline", CORE,
           [("entered = hot and pc < instr_pc" + INLINE + "cycle += 2\n",
             "entered = hot and pc < instr_pc" + INLINE + "cycle += 3\n")],
           (AGREE,)),
    Mutant("loop-runs-one-cycle-past-limit", CORE,
           [("while cycle < limit:",
             "while cycle <= limit:")],
           (CYCLES,)),
    Mutant("retired-span-from-the-head-state", CORE,
           [("_NAMES[m][begin - start:]",
             "_NAMES[m][:start - begin]")],
           (ENTERED,)),
    Mutant("partial-span-from-the-head", CORE,
           [("names[end + start - cycle - 1:end]",
             "names[:cycle - start + 1]")],
           (ENTERED,)),
    Mutant("load-takes-the-store-successor-after-mem-addr", CORE,
           [("for m, names in _NAMES.items()}\n",
             'for m, names in _NAMES.items()}\n_NEXT["lw"][_MEM_ADDR] = _MEM_WRITE\n')],
           (CYCLES,)),
    Mutant("block-alu-operands-swapped", CORE,
           [('_ALU_EXPR[m].format(a=f"regs[{rs1}]", b=operand)',
             '_ALU_EXPR[m].format(a=operand, b=f"regs[{rs1}]")')],
           (BLOCKS_TWIN,)),
    Mutant("block-load-reads-the-next-word", CORE,
           [('lines.append(f"{to}mdr = words[x{k} >> 2]")',
             'lines.append(f"{to}mdr = words[(x{k} >> 2) + 1]")')],
           (BLOCKS_TWIN,)),
    Mutant("block-store-writes-its-base", CORE,
           [('lines.append(f"words[x{k} >> 2] = regs[{rs2}]")',
             'lines.append(f"words[x{k} >> 2] = regs[{rs1}]")')],
           (BLOCKS_TWIN,)),
    Mutant("block-side-exit-inverted", CORE,
           [('lines.append(f"if regs[{rs1}] == regs[{rs2}]:")',
             'lines.append(f"if regs[{rs1}] != regs[{rs2}]:")')],
           (BLOCKS_TWIN,)),
    Mutant("block-jal-links-past-the-next-word", CORE,
           [("alu, after = pc + 4, (pc + imm) & MASK32",
             "alu, after = pc + 8, (pc + imm) & MASK32")],
           (BLOCKS_TWIN,)),
    Mutant("block-entry-unchecked", CORE,
           [("if words[lo:hi] != snap or not (",
             "if not (")],
           (BLOCK_PATCHED,)),
    Mutant("block-heat-one-entry-early", CORE,
           [("BLOCK_HEAT = 64",
             "BLOCK_HEAT = 63")],
           (BLOCK_HEAT,)),
    Mutant("block-kept-after-its-words-changed", CORE,
           [("if words[lo:hi] != snap or not (",
             "if words[lo:hi] != snap:" + DEEP + "    pass" + DEEP + "elif not (")],
           (BLOCK_PATCHED,)),
    Mutant("device-first-block-kept", CORE,
           # a call that retired nothing leaves its words as they were
           [("blocks[pc] = None",
             "if words[lo:hi] != snap: blocks[pc] = None")],
           (BLOCK_IDLE,)),
    Mutant("dropped-entry-counted-again", CORE,
           [("blocks[pc] = None",
             "del blocks[pc]")],
           (BLOCK_PATCHED,)),
    Mutant("block-cache-kept-across-reset", CORE,
           [("self._blocks: dict[int, int | tuple | None] = {}",
             "self._blocks: dict[int, int | tuple | None] = getattr(self, '_blocks', {})")],
           (BLOCK_RESET, BLOCK_RELOADS)),
    Mutant("block-cost-ignored", CORE,
           [("cycle + block[4] <= last",
             "cycle <= last")],
           (BLOCK_CUTS,)),
    Mutant("block-loop-pass-uncounted", CORE,
           [('f"bym[{m!r}] += {done.count(m)}{per(every.count(m))}; "',
             'f"bym[{m!r}] += {done.count(m)}; "')],
           (BLOCK_PASSES,)),
    Mutant("block-loop-goes-round-past-the-budget", CORE,
           [(") >= {cost}{fits}: ",
             ") >= {cost - cycles(done)}{fits}: ")],
           (BLOCK_CUTS,)),
    Mutant("block-self-loop-goes-round", CORE,
           [("loop = entry < last and cls in",
             "loop = cls in")],
           (BLOCK_SELF_LOOP,)),
    Mutant("forward-jump-enters-a-block", CORE,
           [("cycle += 3" + INLINE + "entered = hot and pc < instr_pc",
             "cycle += 3" + INLINE + "entered = hot")],
           (BLOCK_FORWARD,)),
    Mutant("block-loop-enters-a-device-access", CORE,
           [('if first[0] in (_LOAD, _STORE) else "")',
             'if False else "")')],
           (BLOCK_DEVICE_PASS,)),
    Mutant("block-loop-alu-out-stale", CORE,
           [('again = f"alu_out = {alu}; " if alu != "alu_out" else ""',
             'again = ""')],
           (BLOCK_PASSES,)),
    Mutant("held-inverted", CORE,
           [("return self.mode != _EXECUTING.value",
             "return self.mode == _EXECUTING.value")],
           (HELD,)),
    Mutant("held-clock-runs-the-engine", CORE,
           [("if self.mode is _EXECUTING:\n            self._cycles(bus, self.cycle_count + cycles,",
             "if True:\n            self._cycles(bus, self.cycle_count + cycles,")],
           (HELD_RUN, HELD_RESET)),
    Mutant("held-cycles-counted-as-executing", HARNESS,
           [("return executed, cycles - executed",
             "return cycles, 0")],
           (HELD_RUN, HELD_RESET)),
    Mutant("repeated-device-name-accepted", HARNESS,
           [("if any(d.name == e.name for e in self.devices[:i]):",
             "if False:")],
           (DEVICE_MAP,)),
    Mutant("trace-retired-flag-on-every-line", CORE,
           [('{tail}0" for state in head]',
             "{tail}{'01'[retired]}\" for state in head]")],
           (BLOCKS,)),
    Mutant("trace-retired-flag-on-no-line", CORE,
           [("{tail}{'01'[retired]}\")",
             '{tail}0")')],
           (BLOCKS,)),
    Mutant("trace-cache-bound-1024", CORE,
           [("SPAN_CACHE_SIZE = 2048",
             "SPAN_CACHE_SIZE = 1024")],
           (SECOND_RUN,)),
    Mutant("word-fallback-unmasked", ISA,
           [('return f".word 0x{word & MASK32:08X}"',
             'return f".word 0x{word:08X}"')],
           (WORD_TEXT,)),
    Mutant("decode-memo-bound-1024", ISA,
           [("DECODE_CACHE_SIZE = 32768",
             "DECODE_CACHE_SIZE = 1024")],
           (DECODED_ONCE,)),
    Mutant("trace-blocks-of-4096-lines", CLI,
           [("TRACE_BLOCK_LINES = 256",
             "TRACE_BLOCK_LINES = 4096")],
           (BLOCKS,)),
    Mutant("trace-written-only-after-a-clean-run", CLI,
           # the trace's last block written after the run, not in a `finally`
           [("finally:\n            _write_lines(block)",
             "except SimError:\n            raise\n        _write_lines(block)")],
           (BLOCKS, GOLDEN)),
    Mutant("decode-cache-keyed-by-address", CORE,
           # a word rewritten in place keeps the decoding of its first value
           [("\n_EXECUTING = ControlMode.EXECUTING",
             "\n_BY_ADDR = {}\n_EXECUTING = ControlMode.EXECUTING"),
            (LOOP + "cls, m, rd, rs1, rs2, imm = decoded = decode(ir)",
             LOOP + "cls, m, rd, rs1, rs2, imm = decoded = " + CACHED),
            (STATE + "cls, m, rd, rs1, rs2, imm = decoded = decode(ir)",
             STATE + "cls, m, rd, rs1, rs2, imm = decoded = " + CACHED)],
           (REWRITTEN, SELF_MODIFYING)),
    Mutant("dis-listing-in-one-write", CLI,
           [("for i in range(0, len(image.words), TRACE_BLOCK_LINES):",
             "for i in range(0, len(image.words) and 1):"),
            ("disassemble(MemoryImage(image.base_address + 4 * i, block))",
             "disassemble(image)")],
           (DIS_BLOCKS,)),
    Mutant("listing-of-distinct-words", ASM,
           [("map(table.__getitem__, image.words)",
             "table.values()")],
           (DIS_EXAMPLES, DIS_BLOCKS)),
    Mutant("mem-size-bound-dropped", MEMORY,
           [("if size_bytes > MAX_MEM_SIZE:",
             "if False:")],
           (BAD_MEM_SIZE, ORACLE_MEM_SIZE)),
    Mutant("mem-size-bound-refuses-itself", MEMORY,
           [("if size_bytes > MAX_MEM_SIZE:",
             "if size_bytes >= MAX_MEM_SIZE:")],
           (AT_THE_BOUND,)),
    Mutant("empty-range-bound-dropped", MEMORY,
           [("not addr <= addr + nbytes <= (self.size_bytes if nbytes else MASK32)",
             "nbytes and not addr <= addr + nbytes <= self.size_bytes")],
           (EMPTY_PAST_LAST_WORD,)),
    Mutant("image-to-hex-base-check-dropped", ASM,
           [("if base < 0 or base % 4 or base + 4 * max(len(words), 1) > 1 << 32:",
             "if False:")],
           (HEX_BASE,)),
    Mutant("hex-address-record-prefix-match", ASM,
           [("if not _HEX_ADDR_RE.fullmatch(line):",
             "if not _HEX_ADDR_RE.match(line):")],
           (HEX_ADDRESS,)),
    Mutant("raised-statement-dropped", ASM,
           [("except (AsmError, EncodeError):  # raised again by the second walk, in line order\n"
             "                deferred.append((lineno, addr, text, runs[-1]))",
             "except (AsmError, EncodeError):\n                pass")],
           (TWO_ERRORS,)),
    Mutant("branches-encoded-in-pass-1", ASM,
           [("            deferred.append((lineno, addr, text, runs[-1]))\n"
             "            words.append(0)\n        else:",
             "            words.append(_encode_statement(lineno, addr, mnemonic, rest, labels))\n"
             "        else:")],
           (FORWARD_LABELS,)),
    Mutant("cli-imports-the-harness-eagerly", CLI,
           [("from .errors import SimError\n",
             "from .errors import SimError\nfrom .harness import PeripheralMap, Simulator\n")],
           (CLI_IMPORTS, COMMAND_IMPORTS)),
    Mutant("access-record-a-dataclass-again", HARNESS,
           [("from typing import Any, Callable, Iterable, NamedTuple\n",
             "import dataclasses\nfrom typing import Any, Callable, Iterable, NamedTuple\n"),
            ("class AccessRecord(NamedTuple):\n",
             "@dataclasses.dataclass(frozen=True)\nclass AccessRecord:\n")],
           (COMMAND_IMPORTS,)),
    Mutant("memory-top-word-routed-to-devices", HARNESS,
           [("if 0 <= addr < self.size_bytes:\n            return super().read_word(addr)",
             "if 0 <= addr < self.size_bytes - 4:\n            return super().read_word(addr)")],
           (BOUNDARY,)),
    Mutant("device-write-ungated", HARNESS,
           [("        if mode not in WRITE_MODES:\n"
             "            raise WriteForbiddenInMode(f\"write while in {mode.value} mode\", addr=addr)\n"
             "        self.peripherals.dispatch(",
             "        self.peripherals.dispatch(")],
           (MMIO_GATED,)),
    Mutant("device-past-the-address-space-accepted", HARNESS,
           [("if base + span > 1 << 32:",
             "if False:")],
           (DEVICE_MAP,)),
    Mutant("unknown-export-reads-none", INIT,
           [("raise AttributeError(f\"module {__name__!r} has no attribute {name!r}\")",
             "return None")],
           (UNKNOWN_NAME,)),
    Mutant("slt-unsigned-oracle", CORE,
           [("val = 1 if sa < sb else 0",
             "val = 1 if a < b else 0")],
           (ORACLE,)),
    Mutant("branch-imm-4-1-one-word-bit-up", ISA,
           [("(1, 8, 4)",
             "(1, 9, 4)")],
           (ENCODES,)),
    Mutant("decode-sign-term-dropped", ISA,
           [("imm = -(word >> 31) << bits",
             "imm = 0")],
           (DECODES,)),
    Mutant("jump-imm-19-12-one-bit-narrower", ISA,
           [("(12, 12, 8)",
             "(12, 12, 7)")],
           (ENCODES,)),
    Mutant("sra-funct7-cleared", ISA,
           [('"sra": ("r", 0b101, 0b0100000)',
             '"sra": ("r", 0b101, 0b0000000)')],
           (ENCODES,)),
]


def run_pytest(checkout: Path, args: list[str]) -> int:
    """One pytest process in `checkout`, as tier-1 runs it; its exit code,
    or 1 if it outlives `TIMEOUT`."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    try:
        return subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return 1


def check(mutant: Mutant, checkout: Path, run: Runner = run_pytest) -> dict:
    """Apply `mutant` to `checkout`, run its tests, then tier-1 if they
    pass, and put the file back: the outcome and the seconds it took."""
    path = checkout / mutant.path
    original = text = path.read_text()
    for i, (old, new) in enumerate(mutant.edits):
        found = text.count(old)
        if found != 1:
            return {"name": mutant.name, "outcome": "stale", "seconds": 0.0,
                    "why": f"old text {i} occurs {found} times in {mutant.path}"}
        text = text.replace(old, new)
    began = time.perf_counter()
    path.write_text(text)
    try:
        code = run(checkout, list(mutant.tests))
        if code in _BAD_SELECTION:
            outcome, why = "error", f"its named tests exit {code}"
        elif code:
            outcome, why = "killed", "by its named tests"
        elif run(checkout, TIER1):
            outcome, why = "killed", "by tier-1"
        else:
            outcome, why = "survived", "every test passed"
    finally:
        path.write_text(original)
    return {"name": mutant.name, "outcome": outcome, "seconds": time.perf_counter() - began,
            "why": why}


def main(argv: list[str] | None = None, run: Runner = run_pytest, log=print) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rev", default="HEAD", help="git revision, or WORKTREE")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rv32mc-mutants-") as tmp:
        checkout = Path(tmp) / "tree"
        export(args.rev, checkout)
        results = []
        for mutant in MUTANTS:
            r = check(mutant, checkout, run)
            log(f"{r['name']:40s} {r['outcome']:8s} {r['seconds']:6.1f} s  {r['why']}")
            results.append(r)
    bad = [r for r in results if r["outcome"] != "killed"]
    log(f"{len(results) - len(bad)}/{len(results)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

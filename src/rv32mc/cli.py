"""Command-line front end.

Subcommands:
    asm      assemble a source file to a hex image
    dis      disassemble a hex image to canonical source
    run      program, reset, execute, and report cycles/CPI/energy
    script   execute a bring-up script
    selftest frozen-encoding and engine consistency checks

Exit codes: 0 success, 1 a failed `selftest` check, 2 input errors
(source, image, script, device map or flag value) and output errors (an
unwritable `--report` or `--dump-mem` path, or a stdout closed by its
reader, as in `rv32mc run x.hex --trace | head -1`), 3 runtime faults,
4 cycle-budget exhaustion.  All configuration is via flags.  Each flag
is checked once: by its argparse type, or by the code that uses it
(`memory.check_size`, EnergyModel, Core.run), and all of those checks run
before the first instruction is fetched.  `--mem-size` is at most 16 MiB
(`memory.MAX_MEM_SIZE`), refused before any memory is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .asm import assemble, disassemble, load_hex_file, save_hex_file
from .core import DEFAULT_MAX_CYCLES, TraceSpan, csv_suffixes
from .errors import SimError
from .harness import PeripheralMap, Simulator, execute_script, parse_script
from .memory import DEFAULT_MEM_SIZE, MemoryImage, check_size
from .metrics import EnergyModel, HaltReason, attach_metrics, render_kv, render_text
from .selfcheck import run_selftest

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAULT = 3
EXIT_BUDGET = 4

# Trace or listing lines written to stdout per write.  Bounded, so a
# consumer that keeps its last few writes keeps a bounded amount of text,
# and a reader that closes stdout ends the next write with BrokenPipeError.
TRACE_BLOCK_LINES = 256


def _error(kind: str, exc: object) -> None:
    print(f"error[{kind}]: {exc}", file=sys.stderr)


def integer(text: str) -> int:
    """Decimal or 0x-prefixed integer flag value."""
    return int(text, 0)


def _simulator(args: argparse.Namespace) -> Simulator:
    """Memory of `--mem-size` and its devices: the default map, packed just
    above memory, or `--peripheral-map`'s.  The size is checked first, so
    a bad size is not reported as a bad device."""
    check_size(args.mem_size)
    if args.peripheral_map is None:
        return Simulator(args.mem_size, PeripheralMap.default(args.mem_size))
    with open(args.peripheral_map, "r", encoding="utf-8") as f:
        return Simulator(args.mem_size, PeripheralMap.from_config(json.load(f)))


def _write_lines(lines: list[str]) -> None:
    """Write `lines` to stdout as `print` would, in one call."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_asm(args: argparse.Namespace) -> int:
    try:
        with open(args.source, "r", encoding="utf-8") as f:
            image = assemble(f.read(), base=args.base)
        save_hex_file(args.output, image)
    except (OSError, ValueError, SimError) as e:
        _error("asm", e)
        return EXIT_INPUT
    return EXIT_OK


def _cmd_dis(args: argparse.Namespace) -> int:
    try:
        image = load_hex_file(args.image)
    except (OSError, ValueError, SimError) as e:
        _error("dis", e)
        return EXIT_INPUT
    for i in range(0, len(image.words), TRACE_BLOCK_LINES):  # bounded, so a closed stdout shows
        block = image.words[i:i + TRACE_BLOCK_LINES]
        sys.stdout.write(disassemble(MemoryImage(image.base_address + 4 * i, block)))
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        energy = EnergyModel(args.pj_per_cycle, args.freq_hz)
        image = load_hex_file(args.image)
        sim = _simulator(args)
        sim.program_and_start(image)
    except (OSError, ValueError, RecursionError, SimError) as e:  # RecursionError: deep JSON
        _error("input", e)
        return EXIT_INPUT

    block: list[str] = []
    trace = None
    if args.trace:
        def trace(span: TraceSpan) -> None:
            cycle, pc, ir, states, retired = span
            for suffix in csv_suffixes("executing", pc, ir, states, retired):
                block.append(f"{cycle}{suffix}")
                cycle += 1
            if len(block) >= TRACE_BLOCK_LINES:  # a span adds at most 5
                _write_lines(block[:TRACE_BLOCK_LINES])
                del block[:TRACE_BLOCK_LINES]

    try:
        try:
            report = sim.core.run(sim.bus, max_cycles=args.max_cycles, trace=trace)
        finally:
            _write_lines(block)  # the lines before a fault, too
    except ValueError as e:  # --max-cycles, refused by Core.run before the first fetch
        _error("input", e)
        return EXIT_INPUT
    except SimError as e:
        _error("fault", e)
        return EXIT_FAULT

    attach_metrics(report, energy)
    rendered = render_kv(report) if args.format == "kv" else render_text(report)
    print(rendered)
    try:
        if args.report:
            with open(args.report, "w", encoding="utf-8") as f:
                f.write(rendered + "\n")
        if args.dump_mem:
            save_hex_file(args.dump_mem, sim.mem.dump_image())
    except OSError as e:  # an unwritable --report or --dump-mem path
        _error("output", e)
        return EXIT_INPUT

    if report.halt_reason is HaltReason.CYCLE_BUDGET_EXHAUSTED:
        _error("budget", f"no halt within {args.max_cycles} cycles")
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_script(args: argparse.Namespace) -> int:
    try:
        sim = _simulator(args)
    except ValueError as e:
        _error("input", e)
        return EXIT_INPUT
    base_dir = os.path.dirname(os.path.abspath(args.script))
    try:
        with open(args.script, "r", encoding="utf-8") as f:
            script = parse_script(sim, f.read(), resolve=lambda p: os.path.join(base_dir, p))
    except (OSError, ValueError, SimError) as e:
        _error("script", e)
        return EXIT_INPUT
    try:
        execute_script(sim, script, write=print)
    except SimError as e:
        _error("fault", e)
        return EXIT_FAULT
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    return EXIT_OK if run_selftest(write=print) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rv32mc",
        description="Cycle-accurate multi-cycle RV32I controller-core simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble source to a hex image")
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--base", type=integer, default=0)
    p.set_defaults(func=_cmd_asm)

    p = sub.add_parser("dis", help="disassemble a hex image")
    p.add_argument("image")
    p.set_defaults(func=_cmd_dis)

    p = sub.add_parser("run", help="program, execute, and report")
    p.add_argument("image")
    p.add_argument("--trace", action="store_true", help="print one CSV line per cycle")
    p.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p.add_argument("--mem-size", type=integer, default=DEFAULT_MEM_SIZE)
    p.add_argument("--pj-per-cycle", type=float, default=EnergyModel.pj_per_cycle)
    p.add_argument("--freq-hz", type=float, default=EnergyModel.freq_hz)
    p.add_argument("--peripheral-map", default=None, help="JSON device map")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.add_argument("--report", default=None, help="also write the report to a file")
    p.add_argument("--dump-mem", default=None, help="write final memory as a hex image")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("script", help="execute a bring-up script")
    p.add_argument("script")
    p.add_argument("--mem-size", type=integer, default=DEFAULT_MEM_SIZE)
    p.set_defaults(func=_cmd_script, peripheral_map=None)

    p = sub.add_parser("selftest", help="frozen-encoding and engine checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()  # so a closed stdout shows here, not at interpreter exit
    except BrokenPipeError as e:
        # The interpreter flushes stdout once more at exit; give that flush
        # somewhere to go, so it cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _error("output", e)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()

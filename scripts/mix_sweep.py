#!/usr/bin/env python3
"""Sweep instruction mixes and report CPI and energy per workload.

Builds synthetic straight-line workloads with controlled class ratios,
runs each on the cycle-accurate engine, and tabulates measured CPI
against the analytic value, plus energy at the configured constants.
The pure-load row pins the CPI ceiling of 5; pure-branch pins the
floor of 3.

    python scripts/mix_sweep.py --reps 50
    python scripts/mix_sweep.py --pj-per-cycle 17.18 --freq-hz 50e6
"""

import argparse
from fractions import Fraction

from rv32mc import (
    CYCLE_COST,
    EnergyModel,
    InstrClass,
    MemoryImage,
    Simulator,
    compute_cpi,
    encode,
    estimate_energy,
    instr,
)
from rv32mc.memory import DEFAULT_MEM_SIZE

# name -> instruction template counts per repetition
MIXES = {
    "all_loads": {"lw": 1},
    "all_stores": {"sw": 1},
    "all_alu": {"add": 1},
    "all_branches": {"beq_nt": 1},
    "control_loop": {"lw": 2, "add": 2, "sw": 1, "beq_nt": 1, "jal": 1},
    "even_mix": {"lw": 1, "sw": 1, "add": 1, "addi": 1, "beq_nt": 1, "jal": 1},
}


def build_workload(mix: dict[str, int], reps: int, mem_size: int) -> MemoryImage:
    """Straight-line repetition of the mix, ending in a self-loop halt.

    Data accesses go through x2, parked on the last two words of memory
    so stores stay clear of the code for any rep count that fits.
    """
    body = []
    for _ in range(reps):
        for name, count in mix.items():
            for _ in range(count):
                if name == "lw":
                    body.append(instr("lw", rd=3, rs1=2, imm=0))
                elif name == "sw":
                    body.append(instr("sw", rs2=3, rs1=2, imm=4))
                elif name == "beq_nt":
                    body.append(instr("beq", rs1=3, rs2=4, imm=4))  # x3 != x4
                elif name == "jal":
                    body.append(instr("jal", rd=5, imm=4))
                elif name == "addi":
                    body.append(instr("addi", rd=6, rs1=6, imm=1))
                else:
                    body.append(instr(name, rd=6, rs1=6, rs2=0))
    prologue = [
        instr("addi", rd=2, rs1=0, imm=1),
        instr("slli", rd=2, rs1=2, imm=mem_size.bit_length() - 1),
        instr("addi", rd=2, rs1=2, imm=-8),
        instr("addi", rd=3, rs1=0, imm=7),
        instr("addi", rd=4, rs1=0, imm=9),
    ]
    words = [encode(i) for i in prologue + body]
    words.append(encode(instr("jal", rd=0, imm=0)))
    if 4 * len(words) > mem_size - 8:
        raise SystemExit("workload does not fit below the data window; raise --mem-size")
    return MemoryImage(0, words)


def analytic_cpi(mix: dict[str, int]) -> Fraction:
    class_of = {
        "lw": InstrClass.LOAD, "sw": InstrClass.STORE, "add": InstrClass.R_ALU,
        "addi": InstrClass.I_ALU, "beq_nt": InstrClass.BRANCH, "jal": InstrClass.JUMP,
    }
    cycles = sum(CYCLE_COST[class_of[m]] * n for m, n in mix.items())
    return Fraction(cycles, sum(mix.values()))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=50, help="mix repetitions per workload")
    ap.add_argument("--pj-per-cycle", type=float, default=EnergyModel.pj_per_cycle)
    ap.add_argument("--freq-hz", type=float, default=EnergyModel.freq_hz)
    ap.add_argument("--mem-size", type=int, default=16384,
                    help="power of two; larger than default so long workloads fit")
    args = ap.parse_args()
    if args.mem_size & (args.mem_size - 1) or args.mem_size < DEFAULT_MEM_SIZE:
        ap.error(f"--mem-size must be a power of two >= {DEFAULT_MEM_SIZE}")

    model = EnergyModel(args.pj_per_cycle, args.freq_hz)
    print(f"{'mix':<14} {'retired':>7} {'cycles':>7} {'cpi':>7} {'analytic':>9} "
          f"{'energy_pj':>10} {'uJ/1k_instr':>11}")
    for name, mix in MIXES.items():
        image = build_workload(mix, args.reps, args.mem_size)
        sim = Simulator(args.mem_size)
        sim.program_and_start(image)
        report = sim.core.run(sim.bus, max_cycles=10_000_000)
        cpi = compute_cpi(report)
        energy_pj, power = estimate_energy(report, model)
        # analytic value ignores the prologue and halt; report both
        per_1k = energy_pj / report.retired_total * 1000 / 1e6
        print(f"{name:<14} {report.retired_total:>7} {report.total_cycles:>7} "
              f"{float(cpi):>7.3f} {float(analytic_cpi(mix)):>9.3f} "
              f"{energy_pj:>10.1f} {per_1k:>11.3f}")
    print(f"\navg power at {model.freq_hz / 1e6:.0f} MHz: {power:.1f} uW "
          f"({model.pj_per_cycle} pJ/cycle)")


if __name__ == "__main__":
    main()

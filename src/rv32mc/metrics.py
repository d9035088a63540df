"""Cycle, CPI, energy, and power accounting.

CPI is exact rational arithmetic over retired instructions.  Energy is a
first-order cycles-times-constant model: the defaults are 17.18 pJ/cycle
at a 50 MHz clock, which work out to 859 uW of average power under the
continuous-execution assumption.  Held (non-executing) cycles are reported
separately and never enter the energy total.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import NoInstructionsRetired
from .isa import CYCLE_COST, InstrClass

if TYPE_CHECKING:
    from .core import CoreSnapshot


class HaltReason(enum.Enum):
    SELF_LOOP = "self_loop"
    CYCLE_BUDGET_EXHAUSTED = "cycle_budget_exhausted"


@dataclass
class EnergyModel:
    pj_per_cycle: float = 17.18
    freq_hz: float = 50e6

    def __post_init__(self) -> None:
        if not (0 < self.pj_per_cycle < math.inf and 0 < self.freq_hz < math.inf):
            raise ValueError("energy model constants must be positive and finite")


@dataclass
class RunReport:
    total_cycles: int
    held_cycles: int
    retired: dict[InstrClass, int]
    halt_reason: HaltReason
    final_state: "CoreSnapshot"
    cpi: Fraction | None = None
    energy_pj: float | None = None
    avg_power_uw: float | None = None

    @property
    def retired_total(self) -> int:
        return sum(self.retired.values())


def compute_cpi(report: RunReport) -> Fraction:
    """Executing cycles per retired instruction, exact."""
    retired = report.retired_total
    if retired == 0:
        raise NoInstructionsRetired("no instructions retired; CPI undefined")
    return Fraction(report.total_cycles, retired)


def estimate_energy(report: RunReport, model: EnergyModel) -> tuple[float, float]:
    """(energy in pJ over executing cycles, average power in uW at the model's frequency)."""
    energy_pj = report.total_cycles * model.pj_per_cycle
    avg_power_uw = model.pj_per_cycle * model.freq_hz * 1e-6
    return energy_pj, avg_power_uw


def attach_metrics(report: RunReport, model: EnergyModel) -> RunReport:
    report.cpi = compute_cpi(report) if report.retired_total else None
    report.energy_pj, report.avg_power_uw = estimate_energy(report, model)
    return report


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_text(report: RunReport) -> str:
    lines = [
        f"halt reason    : {report.halt_reason.value}",
        f"cycles         : {report.total_cycles}",
        f"held cycles    : {report.held_cycles}",
        f"retired        : {report.retired_total}",
    ]
    for cls in InstrClass:
        n = report.retired.get(cls, 0)
        lines.append(f"  {cls.value:<13}: {n} ({n * CYCLE_COST[cls]} cycles)")
    if report.cpi is not None:
        lines.append(
            f"cpi            : {float(report.cpi):.4f}"
            f" ({report.cpi.numerator}/{report.cpi.denominator} exact)"
        )
    if report.energy_pj is not None:
        lines.append(f"energy         : {_fmt(report.energy_pj)} pJ")
    if report.avg_power_uw is not None:
        lines.append(f"avg power      : {_fmt(report.avg_power_uw)} uW")
    s = report.final_state
    lines.append(f"final pc       : 0x{s.pc:08x}")
    return "\n".join(lines)


def render_kv(report: RunReport) -> str:
    """One key=value pair per line, for scripting."""
    pairs = [
        ("halt_reason", report.halt_reason.value),
        ("total_cycles", report.total_cycles),
        ("held_cycles", report.held_cycles),
        ("retired_total", report.retired_total),
    ]
    for cls in InstrClass:
        pairs.append((f"retired.{cls.value}", report.retired.get(cls, 0)))
    if report.cpi is not None:
        pairs.append(("cpi", _fmt(float(report.cpi))))
        pairs.append(("cpi_exact", f"{report.cpi.numerator}/{report.cpi.denominator}"))
    if report.energy_pj is not None:
        pairs.append(("energy_pj", _fmt(report.energy_pj)))
    if report.avg_power_uw is not None:
        pairs.append(("avg_power_uw", _fmt(report.avg_power_uw)))
    pairs.append(("final_pc", f"0x{report.final_state.pc:08x}"))
    return "\n".join(f"{k}={v}" for k, v in pairs)

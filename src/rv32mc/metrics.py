"""Cycle, CPI, energy, and power accounting.

CPI is exact rational arithmetic over retired instructions.  Energy is a
first-order cycles-times-constant model: the defaults are 17.18 pJ/cycle
at a 50 MHz clock, which work out to 859 uW of average power under the
continuous-execution assumption.  A report covers a run's executing
cycles; held ones are what `Simulator.run_cycles` and the script echo count.

The report is one ordered field list (`_fields`): one entry per text line,
holding the line's label and value and the key=value pairs it stands for.
`render_text` and `render_kv` are joins over that list, so the two formats
cannot disagree on which fields appear, in what order, or when.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import NoInstructionsRetired
from .isa import CYCLE_COST, InstrClass

if TYPE_CHECKING:
    from .core import CoreSnapshot


class HaltReason(enum.Enum):
    SELF_LOOP = "self_loop"
    CYCLE_BUDGET_EXHAUSTED = "cycle_budget_exhausted"


class EnergyModel:
    # The defaults' one home: `cli.build_parser` reads them here.
    pj_per_cycle = 17.18
    freq_hz = 50e6

    def __init__(self, pj_per_cycle: float = pj_per_cycle, freq_hz: float = freq_hz):
        if not (0 < pj_per_cycle < math.inf and 0 < freq_hz < math.inf):
            raise ValueError("energy model constants must be positive and finite")
        self.pj_per_cycle, self.freq_hz = pj_per_cycle, freq_hz


class RunReport:
    """A run's counts; `attach_metrics` fills `cpi`, `energy_pj` and `avg_power_uw`."""

    def __init__(self, total_cycles: int, retired: dict[InstrClass, int],
                 halt_reason: HaltReason, final_state: CoreSnapshot):
        self.total_cycles, self.retired = total_cycles, retired
        self.halt_reason, self.final_state = halt_reason, final_state
        self.cpi: Fraction | None = None
        self.energy_pj: float | None = None
        self.avg_power_uw: float | None = None

    def __eq__(self, other: object) -> bool:
        return type(other) is RunReport and vars(other) == vars(self)

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


def _fields(report: RunReport) -> list[tuple[str, object, tuple[tuple[str, object], ...]]]:
    """The report in order, one entry per text line: its label, its text
    value, and the key=value pairs the line stands for."""
    reason, pc = report.halt_reason.value, f"0x{report.final_state.pc:08x}"
    fields = [
        ("halt reason", reason, (("halt_reason", reason),)),
        ("cycles", report.total_cycles, (("total_cycles", report.total_cycles),)),
        ("retired", report.retired_total, (("retired_total", report.retired_total),)),
    ]
    for cls in InstrClass:
        n = report.retired.get(cls, 0)
        fields.append((f"  {cls.value}", f"{n} ({n * CYCLE_COST[cls]} cycles)",
                       ((f"retired.{cls.value}", n),)))
    if report.cpi is not None:
        exact = f"{report.cpi.numerator}/{report.cpi.denominator}"
        fields.append(("cpi", f"{float(report.cpi):.4f} ({exact} exact)",
                       (("cpi", _fmt(float(report.cpi))), ("cpi_exact", exact))))
    if report.energy_pj is not None:
        energy = _fmt(report.energy_pj)
        fields.append(("energy", f"{energy} pJ", (("energy_pj", energy),)))
    if report.avg_power_uw is not None:
        power = _fmt(report.avg_power_uw)
        fields.append(("avg power", f"{power} uW", (("avg_power_uw", power),)))
    fields.append(("final pc", pc, (("final_pc", pc),)))
    return fields


def render_text(report: RunReport) -> str:
    return "\n".join(f"{label:<15}: {value}" for label, value, _ in _fields(report))


def render_kv(report: RunReport) -> str:
    """One key=value pair per line, for scripting."""
    return "\n".join(f"{k}={v}" for _, _, pairs in _fields(report) for k, v in pairs)

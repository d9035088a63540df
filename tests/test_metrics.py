import math
from fractions import Fraction

import pytest

from rv32mc import (
    Core,
    EnergyModel,
    HaltReason,
    InstrClass,
    RunReport,
    attach_metrics,
    render_kv,
    render_text,
)


def make_report(retired, total_cycles):
    core = Core()
    return RunReport(
        total_cycles=total_cycles,
        retired=retired,
        halt_reason=HaltReason.SELF_LOOP,
        final_state=core.snapshot(),
    )


def metrics(retired, total_cycles, model=None):
    """A report with `attach_metrics`' figures filled in."""
    return attach_metrics(make_report(retired, total_cycles), model or EnergyModel())


def test_cpi_all_loads_is_five():
    assert metrics({InstrClass.LOAD: 100}, 500).cpi == 5


def test_cpi_mixed_classes():
    retired = {
        InstrClass.LOAD: 10,
        InstrClass.STORE: 10,
        InstrClass.BRANCH: 10,
        InstrClass.I_ALU: 10,
    }
    report = metrics(retired, 10 * 5 + 10 * 4 + 10 * 3 + 10 * 4)
    assert report.cpi == Fraction(160, 40) == 4


def test_cpi_is_exact_rational():
    report = metrics({InstrClass.LOAD: 2, InstrClass.BRANCH: 1}, 13)
    assert report.cpi == Fraction(13, 3)


def test_default_constants_reproduce_reference_power():
    assert metrics({InstrClass.JUMP: 1}, 4).avg_power_uw == 859.0  # 17.18 pJ/cycle at 50 MHz


def test_zero_cycles_zero_energy():
    assert metrics({}, 0).energy_pj == 0.0


def test_thousand_cycles_by_hand():
    # 1000 cycles x 17.18 pJ/cycle, multiplied out by hand
    energy = metrics({InstrClass.LOAD: 200}, 1000).energy_pj
    assert math.isclose(energy, 17180.0, rel_tol=0, abs_tol=1e-9)


def test_energy_linear_in_cycles():
    model = EnergyModel()
    e1 = metrics({InstrClass.JUMP: 10}, 40, model).energy_pj
    e7 = metrics({InstrClass.JUMP: 70}, 280, model).energy_pj
    assert math.isclose(e7, 7 * e1, rel_tol=1e-12)


def test_unit_algebra_consistency():
    model = EnergyModel()
    report = metrics({InstrClass.LOAD: 123}, 615, model)
    # uW x seconds x 1e6 = pJ
    back = report.avg_power_uw * (report.total_cycles / model.freq_hz) * 1e6
    assert math.isclose(back, report.energy_pj, rel_tol=1e-9)


def test_model_validation():
    with pytest.raises(ValueError):
        EnergyModel(pj_per_cycle=0)
    with pytest.raises(ValueError):
        EnergyModel(freq_hz=-1)


def test_attach_metrics_and_render():
    report = make_report({InstrClass.I_ALU: 1, InstrClass.JUMP: 1}, 8)
    attach_metrics(report, EnergyModel())
    assert report.cpi == 4
    text = render_text(report)
    assert "cpi            : 4.0000 (4/1 exact)" in text
    assert "avg power      : 859 uW" in text

    kv = dict(line.split("=", 1) for line in render_kv(report).splitlines())
    assert kv["total_cycles"] == "8"
    assert kv["retired_total"] == "2"
    assert kv["retired.i_alu"] == "1"
    assert kv["cpi_exact"] == "4/1"
    assert kv["avg_power_uw"] == "859"
    assert kv["halt_reason"] == "self_loop"


def test_report_totals_match_engine():
    from rv32mc import CYCLE_COST, Simulator, assemble

    sim = Simulator()
    sim.program_and_start(assemble("lw x1, 64(x0)\nsw x1, 64(x0)\njal x0, 0\n"))
    report = attach_metrics(sim.core.run(sim.bus), EnergyModel())
    assert report.total_cycles == sum(
        CYCLE_COST[c] * n for c, n in report.retired.items()
    )
    assert report.cpi == Fraction(13, 3)


def _text_labels(report):
    return [line.split(":", 1)[0].strip() for line in render_text(report).splitlines()]


def _kv_keys(report):
    return [line.split("=", 1)[0] for line in render_kv(report).splitlines()]


def test_no_retirements_means_no_cpi_in_either_format():
    report = attach_metrics(make_report({}, 0), EnergyModel())
    assert report.cpi is None
    assert "cpi" not in _text_labels(report)
    assert not {"cpi", "cpi_exact"} & set(_kv_keys(report))
    assert "energy" in _text_labels(report) and "energy_pj" in _kv_keys(report)


def test_no_energy_or_power_without_attach_metrics():
    report = make_report({InstrClass.JUMP: 1}, 4)
    assert "energy" not in _text_labels(report) and "avg power" not in _text_labels(report)
    assert not {"energy_pj", "avg_power_uw"} & set(_kv_keys(report))


"""scripts/mix_sweep.py: its report is engine output, frozen byte for byte."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from rv32mc import CYCLE_COST, InstrClass

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mix_sweep.py"
REPS = 5

EXPECTED = """\
mix            retired  cycles     cpi  analytic  energy_pj uJ/1k_instr
all_loads           11      49   4.455     5.000      841.8       0.077
all_stores          11      44   4.000     4.000      755.9       0.069
all_alu             11      44   4.000     4.000      755.9       0.069
all_branches        11      39   3.545     3.000      670.0       0.061
control_loop        41     169   4.122     4.143     2903.4       0.071
even_mix            36     144   4.000     4.000     2473.9       0.069

avg power at 50 MHz: 859.0 uW (17.18 pJ/cycle)
"""

# Class of each mix template; the script builds a 5-addi/slli prologue and
# ends in one self-loop jal.
TEMPLATE_CLASS = {
    "lw": InstrClass.LOAD, "sw": InstrClass.STORE, "add": InstrClass.R_ALU,
    "addi": InstrClass.I_ALU, "beq_nt": InstrClass.BRANCH, "jal": InstrClass.JUMP,
}
PROLOGUE = 5 * CYCLE_COST[InstrClass.I_ALU]
HALT = CYCLE_COST[InstrClass.JUMP]


def sweep_output() -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--reps", str(REPS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_is_unchanged():
    assert sweep_output() == EXPECTED


def test_cycles_are_the_class_cost_sum():
    spec = importlib.util.spec_from_file_location("mix_sweep", SCRIPT)
    mix_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mix_sweep)
    rows = {line.split()[0]: line.split() for line in sweep_output().splitlines()[1:] if line}
    assert set(mix_sweep.MIXES) <= rows.keys()
    for name, mix in mix_sweep.MIXES.items():
        body = REPS * sum(CYCLE_COST[TEMPLATE_CLASS[m]] * n for m, n in mix.items())
        retired, cycles = int(rows[name][1]), int(rows[name][2])
        assert cycles == PROLOGUE + body + HALT, name
        assert retired == 5 + REPS * sum(mix.values()) + 1, name

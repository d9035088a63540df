"""Cycle-accurate model of a multi-cycle RV32I controller core.

The engine executes one FSM state per clock (loads take 5 cycles,
branches 3, everything else 4) over a unified instruction/data memory
with asynchronous reads and synchronous writes.  Execution is gated by
external IE/reset control lines, so firmware can be loaded, observed,
and started deterministically; a separate functional model cross-checks
every architectural effect.
"""

from .asm import assemble, disassemble, image_to_hex, load_hex_file, parse_hex, save_hex_file
from .control import ControlMode
from .core import (
    Core,
    CoreSnapshot,
    OracleResult,
    RegisterFile,
    TraceRecord,
    TraceSpan,
    reference_execute,
)
from .errors import SimError
from .harness import (
    ObserveResult,
    Peripheral,
    PeripheralMap,
    Simulator,
    SystemBus,
    execute_script,
    parse_script,
)
from .isa import (
    CYCLE_COST,
    DecodedInstruction,
    InstrClass,
    decode,
    encode,
    instr,
)
from .memory import MemoryImage, UnifiedMemory
from .metrics import (
    EnergyModel,
    HaltReason,
    RunReport,
    attach_metrics,
    compute_cpi,
    estimate_energy,
    render_kv,
    render_text,
)

__version__ = "0.1.0"

__all__ = [
    "assemble", "disassemble", "image_to_hex", "load_hex_file", "parse_hex",
    "save_hex_file", "ControlMode", "Core", "CoreSnapshot", "OracleResult",
    "RegisterFile", "TraceRecord", "TraceSpan", "reference_execute",
    "SimError", "ObserveResult", "Peripheral", "PeripheralMap", "Simulator",
    "SystemBus", "execute_script", "parse_script", "CYCLE_COST",
    "DecodedInstruction", "InstrClass", "decode", "encode", "instr",
    "MemoryImage", "UnifiedMemory",
    "EnergyModel", "HaltReason", "RunReport", "attach_metrics", "compute_cpi",
    "estimate_energy", "render_kv", "render_text",
]

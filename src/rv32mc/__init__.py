"""Cycle-accurate model of a multi-cycle RV32I controller core.

The engine executes one FSM state per clock (loads take 5 cycles,
branches 3, everything else 4) over a unified instruction/data memory
with asynchronous reads and synchronous writes.  Execution is gated by
external IE/reset control lines, so firmware can be loaded, observed,
and started deterministically; a separate functional model cross-checks
every architectural effect.

Each export is imported from its module on first use, so a process loads
only the modules whose names it reads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asm": ("assemble", "disassemble", "image_to_hex", "load_hex_file", "parse_hex",
            "save_hex_file"),
    "control": ("ControlMode",),
    "core": ("Core", "CoreSnapshot", "OracleResult", "RegisterFile", "TraceRecord", "TraceSpan",
             "reference_execute"),
    "errors": ("SimError",),
    "harness": ("ObserveResult", "Peripheral", "PeripheralMap", "Simulator", "SystemBus",
                "execute_script", "parse_script"),
    "isa": ("CYCLE_COST", "DecodedInstruction", "InstrClass", "decode", "encode", "instr"),
    "memory": ("MemoryImage", "UnifiedMemory"),
    "metrics": ("EnergyModel", "HaltReason", "RunReport", "attach_metrics", "render_kv",
                "render_text"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the module that owns export `name` and keep its value here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value

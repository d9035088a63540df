"""Error types shared across the toolchain and the simulator.

Every error carries optional context (source line, machine pc/state,
faulting address) so diagnostics can be rendered on one line wherever
the error surfaces.
"""

from __future__ import annotations


class SimError(Exception):
    """Base class; message plus optional source/machine context."""

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        addr: int | None = None,
        pc: int | None = None,
        state: str | None = None,
    ):
        super().__init__(message)
        self.message = message
        self.line = line
        self.addr = addr
        self.pc = pc
        self.state = state

    def __str__(self) -> str:
        parts = []
        if self.line is not None:
            parts.append(f"line {self.line}")
        if self.pc is not None:
            parts.append(f"pc=0x{self.pc:08x}")
        if self.state is not None:
            parts.append(f"state={self.state}")
        if self.addr is not None:
            sign = "-" if self.addr < 0 else ""
            parts.append(f"addr={sign}0x{abs(self.addr):08x}")
        parts.append(self.message)
        return ": ".join(parts)


# --- instruction codec ---

class UnsupportedInstruction(SimError):
    """Word is not in the supported instruction subset."""


class EncodeError(SimError):
    pass


class ImmediateOutOfRange(EncodeError):
    pass


class MisalignedImmediate(EncodeError):
    """Odd immediate for a branch or jump."""


# --- assembler ---

class AsmError(SimError):
    """Source-level diagnostic; `line` is the 1-based origin line."""


class UnknownMnemonic(AsmError):
    pass


class UndefinedLabel(AsmError):
    pass


class DuplicateLabel(AsmError):
    pass


class OperandCount(AsmError):
    pass


class BadOperand(AsmError):
    pass


class BranchTargetMisaligned(AsmError):
    pass


# --- memory and bus ---

class MisalignedAccess(SimError):
    pass


class OutOfRange(SimError):
    pass


class WriteForbiddenInMode(SimError):
    pass


class DoubleWritePerCycle(SimError):
    """Second write scheduled before the cycle boundary; single write port."""


class UnmappedAddress(SimError):
    """Address beyond memory that falls in no peripheral's range."""


# --- execution control ---

class NotExecuting(SimError):
    pass


class NoInstructionsRetired(SimError):
    pass


class ScriptError(SimError):
    """Bring-up script parse or validation failure."""

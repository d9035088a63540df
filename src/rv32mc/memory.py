"""Unified instruction/data memory.

Reads are asynchronous: they return the committed contents immediately.
Writes are synchronous: schedule_write records at most one pending write,
which commit_cycle applies at the cycle boundary.  Writes are gated by the
control mode, so observation mode can never mutate memory.

MemoryImage is one contiguous block of words.
"""

from __future__ import annotations

from typing import NamedTuple

from .control import WRITE_MODES, ControlMode
from .errors import (
    DoubleWritePerCycle,
    MisalignedAccess,
    OutOfRange,
    WriteForbiddenInMode,
)
from .isa import MASK32

DEFAULT_MEM_SIZE = 4096  # bytes
MAX_MEM_SIZE = 0x1000000  # bytes: 16 MiB, a list of 4M words


class MemoryImage(NamedTuple):
    """Contiguous block of words placed at a word-aligned byte address."""

    base_address: int
    words: list[int]


def check_size(size_bytes: int) -> None:
    """Refuse a memory size that is not a positive multiple of 4 bytes, or
    that is above MAX_MEM_SIZE, before any memory of that size is built."""
    if size_bytes <= 0 or size_bytes % 4:
        raise ValueError(f"size_bytes={size_bytes} must be a positive multiple of 4")
    if size_bytes > MAX_MEM_SIZE:
        raise ValueError(f"size_bytes={size_bytes} is above the {MAX_MEM_SIZE:#x}-byte maximum")


class UnifiedMemory:
    def __init__(self, size_bytes: int = DEFAULT_MEM_SIZE):
        check_size(size_bytes)
        self.size_bytes = size_bytes
        self.words = [0] * (size_bytes // 4)
        self.pending_write: tuple[int, int] | None = None

    def _check_addr(self, addr: int) -> None:
        if addr % 4:
            raise MisalignedAccess("word access must be 4-byte aligned", addr=addr)
        if not 0 <= addr <= self.size_bytes - 4:
            raise OutOfRange(f"beyond {self.size_bytes}-byte memory", addr=addr)

    def read_word(self, addr: int) -> int:
        """Committed contents at addr; a pending write is not yet visible."""
        self._check_addr(addr)
        return self.words[addr >> 2]

    def schedule_write(self, addr: int, value: int, mode: ControlMode) -> None:
        if mode not in WRITE_MODES:
            raise WriteForbiddenInMode(f"write while in {mode.value} mode", addr=addr)
        self._check_addr(addr)
        if self.pending_write is not None:
            raise DoubleWritePerCycle("write port already claimed this cycle", addr=addr)
        self.pending_write = (addr, value & MASK32)

    def commit_cycle(self) -> None:
        if self.pending_write is not None:
            addr, value = self.pending_write
            self.words[addr >> 2] = value
            self.pending_write = None

    def check_range(self, addr: int, nbytes: int, what: str) -> None:
        """The one rule for a byte range an outside caller may touch: raise
        unless [addr, addr+nbytes) is word-aligned and lies inside memory.
        An empty range is valid at any aligned address from 0 to the last
        word address, 2^32 - 4, the highest a hex `@` record can name;
        `what` names the range in the error."""
        if addr % 4 or nbytes % 4:
            raise MisalignedAccess(f"{what} [{addr:#x}, +{nbytes}) must be word-aligned", addr=addr)
        if addr < 0 or not addr <= addr + nbytes <= (self.size_bytes if nbytes else MASK32):
            bound = (f"{self.size_bytes}-byte memory" if nbytes or addr < 0
                     else "the last word address 0xfffffffc")
            raise OutOfRange(f"{what} beyond {bound}", addr=addr)

    def load_image(self, image: MemoryImage, mode: ControlMode) -> int:
        """Write a whole image through the free write port; programming mode only."""
        if mode is not ControlMode.PROGRAMMING:
            raise WriteForbiddenInMode(f"image load while in {mode.value} mode")
        self.check_range(image.base_address, 4 * len(image.words), "image")
        if image.words and self.pending_write is not None:
            raise DoubleWritePerCycle("write port already claimed this cycle", addr=image.base_address)
        start = image.base_address >> 2
        self.words[start:start + len(image.words)] = [w & MASK32 for w in image.words]
        return len(image.words)

    def dump_image(self, start: int = 0, count: int | None = None) -> MemoryImage:
        """Committed memory contents as a reloadable image."""
        if count is None:
            count = (self.size_bytes - start) // 4
        self.check_range(start, 4 * count, "dump range")
        return MemoryImage(start, self.words[start >> 2:(start >> 2) + count])

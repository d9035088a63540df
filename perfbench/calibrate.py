"""Host-speed calibration kernel.

On a shared host the same pipeline can take twice as long from one minute
to the next, because other tenants load the machine.  Every timed
pipeline is paired with two runs of this fixed pure-Python kernel, one
just before it and one just after, and its host time is scaled by
REFERENCE_S / mean kernel time: the result is the time the pipeline would
take on a host where the kernel takes REFERENCE_S.  The kernel mixes the
interpreter work the simulator does (integer arithmetic, small frozen
dataclasses, method calls, dict stores, string formatting) so that it
slows down with the host as the pipelines do.  It imports nothing from
rv32mc, so a change to the program cannot move it, and it keeps almost
nothing alive, so it does not raise the process's peak memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REFERENCE_S = 0.025
_N = 10_000


@dataclass(frozen=True)
class _Record:
    a: int
    b: int
    tag: str


class _Counter:
    def __init__(self) -> None:
        self.x = 0

    def step(self, i: int) -> int:
        self.x = (self.x + i) & 0xFFFFFFFF
        return self.x


def _integers() -> int:
    s = 0
    for i in range(10 * _N):
        s += i * i
    return s


def _objects() -> int:
    counter, table, s = _Counter(), {}, 0
    for i in range(_N):
        r = _Record(i, i + 1, "x")
        s += r.a + r.b + counter.step(i)
        table[i & 63] = r
    return s


def _strings() -> int:
    n = 0
    for i in range(_N):
        n += len(f"{i},{i:08x},{'ab' if i & 1 else 'cd'}".split(","))
    return n


def kernel_seconds() -> float:
    """Host time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _integers()
    _objects()
    _strings()
    return time.perf_counter() - t0


def normalised(seconds: float, kernel: float) -> float:
    """`seconds` measured next to a kernel run of `kernel` seconds, at reference speed."""
    return seconds * REFERENCE_S / kernel

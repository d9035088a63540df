"""Host-side bring-up controller.

Drives the IE / reset / WriteData sequence that separates programming from
execution, provides read-only observation of memory, and routes core
accesses that fall above memory to stub peripherals (pacing, sensing, egm,
telemetry, battery).  `SystemBus` owns that boundary: it is a memory of
[0, size), and every device sits above it.  Every word of a device's span
(16 bytes by default) is a sparse register that reads 0 until written; the
first three are named CONTROL (0x0), STATUS (0x4) and DATA (0x8).  Every
access is logged with a cycle stamp.

Bring-up is built from six Simulator primitives, and bring-up scripts
are line-oriented, one primitive per command:

    load <hexfile>          Simulator.load
    reset                   Simulator.pulse_reset
    start                   Simulator.start
    stop                    Simulator.stop
    run <cycles>            Simulator.run_cycles
    observe <addr> <len>    Simulator.observe

`parse_script` checks a script against the Simulator that will run it,
load fits and observe ranges included, so a script that parses fails
only by faulting.  Observation output is emitted in the hex image
format, so it can be fed straight back to `load`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple

from .asm import image_to_hex, load_hex_file
from .control import WRITE_MODES, ControlMode
from .core import Core
from .errors import (
    AsmError,
    MisalignedAccess,
    ScriptError,
    SimError,
    UnmappedAddress,
    WriteForbiddenInMode,
)
from .memory import DEFAULT_MEM_SIZE, MemoryImage, UnifiedMemory

DEVICE_NAMES = ("pacing", "sensing", "egm", "telemetry", "battery")
DEVICE_SPAN = 16


class AccessRecord(NamedTuple):
    cycle: int
    access: str  # "read" | "write"
    addr: int
    value: int


class Peripheral:
    def __init__(self, name: str, base: int, span: int = DEVICE_SPAN):
        if name not in DEVICE_NAMES:
            raise ValueError(f"unknown device {name!r}; expected one of {DEVICE_NAMES}")
        if base < 0:
            raise ValueError(f"device {name!r}: base {base} is below address 0")
        if base % 4 or span % 4 or span <= 0:
            raise ValueError(
                f"{name}: base {base:#x} and span {span} must be multiples of 4, span positive"
            )
        if base + span > 1 << 32:
            raise ValueError(f"device {name!r}: [{base:#x}, +{span}) ends past 2^32")
        self.name, self.base, self.span = name, base, span
        self.regs: dict[int, int] = {}  # word index -> value; unwritten registers read 0
        self.event_log: list[AccessRecord] = []

    def writes(self) -> list[AccessRecord]:
        return [r for r in self.event_log if r.access == "write"]


class PeripheralMap:
    def __init__(self, devices: Iterable[Peripheral]):
        self.devices = list(devices)
        for i, d in enumerate(self.devices):
            if any(d.name == e.name for e in self.devices[:i]):
                raise ValueError(f"device {d.name!r} is named twice")
        spans = sorted((d.base, d.base + d.span, d.name) for d in self.devices)
        for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
            if start_b < end_a:
                raise ValueError(f"devices {name_a!r} and {name_b!r} overlap")

    @classmethod
    def default(cls, mem_size_bytes: int = DEFAULT_MEM_SIZE) -> "PeripheralMap":
        """One device per block, packed immediately above memory."""
        return cls(
            Peripheral(name, mem_size_bytes + i * DEVICE_SPAN)
            for i, name in enumerate(DEVICE_NAMES)
        )

    @classmethod
    def from_config(cls, config: object) -> "PeripheralMap":
        """Devices from parsed device-map JSON: a list of objects with a
        string `name`, an integer `base` and an optional integer `span`,
        bare or under a top-level `devices` key."""
        if isinstance(config, dict):
            config = config.get("devices")
        if not isinstance(config, list):
            raise ValueError('device map must be a list of devices or {"devices": [...]}')
        devices = []
        for i, entry in enumerate(config):
            if not isinstance(entry, dict):
                raise ValueError(f"device {i}: expected an object, got {type(entry).__name__}")
            name = entry.get("name")
            if not isinstance(name, str):
                raise ValueError(f"device {i}: 'name' must be a string")
            base, span = entry.get("base"), entry.get("span", DEVICE_SPAN)
            for key, value in (("base", base), ("span", span)):
                if type(value) is not int:  # bool and float are rejected too
                    raise ValueError(f"device {i} ({name}): {key!r} must be an integer")
            devices.append(Peripheral(name, base, span))
        return cls(devices)

    def device(self, name: str) -> Peripheral:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(name)

    def dispatch(self, addr: int, access: str, value: int = 0, cycle: int = 0) -> int:
        """Read or write one device register; every access is logged."""
        if addr % 4:
            raise MisalignedAccess("device registers are word-wide", addr=addr)
        for dev in self.devices:
            if dev.base <= addr < dev.base + dev.span:
                break
        else:
            raise UnmappedAddress("no device at address", addr=addr)
        idx = (addr - dev.base) >> 2
        if access == "read":
            value = dev.regs.get(idx, 0)
        elif access == "write":
            dev.regs[idx] = value & 0xFFFFFFFF
        else:
            raise ValueError(f"access must be 'read' or 'write', not {access!r}")
        dev.event_log.append(AccessRecord(cycle, access, addr, value & 0xFFFFFFFF))
        return value


class SystemBus(UnifiedMemory):
    """The one address decoder, a memory with devices above it: [0, size_bytes)
    is memory, and every other address goes to a device, stamped with the
    core's cycle count.  Devices have no write port: the commit is memory's."""

    def __init__(self, size_bytes: int, peripherals: PeripheralMap, core: Core):
        super().__init__(size_bytes)
        for d in peripherals.devices:
            if d.base < size_bytes:
                raise ValueError(f"device {d.name!r} overlaps memory")
        self.peripherals = peripherals
        self.core = core

    def read_word(self, addr: int) -> int:
        if 0 <= addr < self.size_bytes:
            return super().read_word(addr)
        return self.peripherals.dispatch(addr, "read", cycle=self.core.cycle_count)

    def schedule_write(self, addr: int, value: int, mode: ControlMode) -> None:
        if 0 <= addr < self.size_bytes:
            super().schedule_write(addr, value, mode)
            return
        if mode not in WRITE_MODES:
            raise WriteForbiddenInMode(f"write while in {mode.value} mode", addr=addr)
        self.peripherals.dispatch(addr, "write", value=value, cycle=self.core.cycle_count)


class ObserveResult(NamedTuple):
    image: MemoryImage
    execution_stopped: bool


class Simulator:
    """One core + one unified memory (+ optional peripherals).

    The core's bus is the memory itself: a bare UnifiedMemory, or with
    peripherals a SystemBus, which is one.

    Bring-up goes through six primitives - load, pulse_reset, start, stop,
    run_cycles and observe - that each drive the control lines themselves.
    `program_and_start` and bring-up scripts are both built from them.
    """

    def __init__(
        self, mem_size_bytes: int = DEFAULT_MEM_SIZE, peripherals: PeripheralMap | None = None
    ):
        self.core = Core()
        self.peripherals = peripherals
        self.mem = self.bus = (UnifiedMemory(mem_size_bytes) if peripherals is None
                               else SystemBus(mem_size_bytes, peripherals, self.core))

    def load(self, image: MemoryImage) -> int:
        """Write an image in programming mode; returns the words written.

        Ends in observation mode even when the load fails, so memory is
        never left writable from outside.
        """
        self.core.apply_control(ie=0, reset=0, write_enable=1)
        try:
            return self.mem.load_image(image, self.core.mode)
        finally:
            self.stop()

    def pulse_reset(self) -> None:
        """Assert reset, then release into observation; reset acts as the
        line is driven, and a clock under it would be held, changing nothing."""
        self.core.apply_control(ie=0, reset=1)
        self.stop()

    def start(self) -> None:
        """Raise instruction-enable; the core executes from its current pc."""
        self.core.apply_control(ie=1, reset=0)

    def stop(self) -> None:
        """Drop all control lines: observation mode, memory read-only."""
        self.core.apply_control(ie=0, reset=0, write_enable=0)

    def run_cycles(self, cycles: int) -> tuple[int, int]:
        """Clock `cycles` times in the current mode; (executing, held) counts."""
        if cycles < 0:
            raise ValueError(f"cycles={cycles} must not be negative")
        start = self.core.cycle_count
        self.core._clock(self.bus, cycles)  # one mode throughout; a fault raises
        executed = self.core.cycle_count - start
        return executed, cycles - executed

    def program_and_start(self, image: MemoryImage) -> None:
        """Canonical bring-up: load, reset to pc=0, then enable execution."""
        self.load(image)
        self.pulse_reset()
        self.start()

    def observe(self, addr: int, length: int) -> ObserveResult:
        """Read [addr, addr+length) of memory, checked before anything else.

        Observation changes nothing, except that a running core is stopped
        (observation deasserts IE) and is not silently resumed.
        """
        self.mem.check_range(addr, length, "observe range")
        running = self.core.mode is ControlMode.EXECUTING
        if running:
            self.stop()
        return ObserveResult(self.mem.dump_image(addr, length // 4), execution_stopped=running)


# --- bring-up scripts ---

class Step(NamedTuple):
    """One script command with its parsed arguments."""

    command: str
    args: tuple
    text: str  # the command as written, echoed by `load`


def _echo_observe(step: Step, result: ObserveResult) -> str:
    lines = [f"# observe 0x{step.args[0]:08x} +{step.args[1]}"]
    if result.execution_stopped:
        lines.append("# execution stopped by observation; issue 'start' to resume")
    return "\n".join(lines + image_to_hex(result.image).splitlines())


# Script command -> (argument count, Simulator primitive, echo of its result).
_COMMANDS: dict[str, tuple[int, str, Callable[[Step, Any], str]]] = {
    "load": (1, "load", lambda s, n: f"# {s.text}: {n} words at 0x{s.args[0].base_address:08x}"),
    "reset": (0, "pulse_reset", lambda s, _: "# reset: pc=0"),
    "start": (0, "start", lambda s, _: "# start: executing"),
    "stop": (0, "stop", lambda s, _: "# stop: observation"),
    "run": (1, "run_cycles", lambda s, r: f"# run {s.args[0]}: {r[0]} executing, {r[1]} held"),
    "observe": (2, "observe", _echo_observe),
}


def _script_int(tok: str, lineno: int) -> int:
    try:
        value = int(tok, 0)
    except ValueError:
        raise ScriptError(f"bad number {tok!r}", line=lineno) from None
    if value < 0:
        raise ScriptError(f"negative number {tok!r}", line=lineno)
    return value


def parse_script(
    sim: Simulator, text: str, resolve: Callable[[str], str] = lambda p: p
) -> list[Step]:
    """Parse script text and check it against the Simulator that will run
    it; `resolve` maps hex file names to paths.

    Every input error is raised here as a ScriptError naming its script
    line (a hex file's own error too, after the file's name), so a script
    that parses fails at run time only by faulting.  A `load` image must
    fit memory and an `observe` range must lie inside it.
    """
    steps: list[Step] = []
    reset_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        cmd, args = tokens[0].lower(), tokens[1:]
        if cmd not in _COMMANDS:
            raise ScriptError(f"unknown command {cmd!r}", line=lineno)
        nargs = _COMMANDS[cmd][0]
        if len(args) != nargs:
            raise ScriptError(f"{cmd} takes {nargs} argument(s), got {len(args)}", line=lineno)
        if cmd == "load":
            try:
                values: tuple = (load_hex_file(resolve(args[0])),)
            except (OSError, UnicodeDecodeError, AsmError) as e:
                raise ScriptError(f"{args[0]}: {e}", line=lineno) from None
        else:
            values = tuple(_script_int(tok, lineno) for tok in args)
        try:
            if cmd == "load":
                sim.mem.check_fits(values[0])
            elif cmd == "observe":
                sim.mem.check_range(*values, "observe range")
        except SimError as e:
            raise ScriptError(e.message, line=lineno, addr=e.addr) from None
        if cmd == "start" and not reset_seen:
            raise ScriptError("start before any reset", line=lineno)
        reset_seen = reset_seen or cmd == "reset"
        steps.append(Step(cmd, values, " ".join([cmd, *args])))
    return steps


def execute_script(
    sim: Simulator, script: list[Step], write: Callable[[str], None] = print
) -> None:
    """Run a parsed script; observation output is reloadable hex."""
    for step in script:
        _, primitive, echo = _COMMANDS[step.command]
        write(echo(step, getattr(sim, primitive)(*step.args)))

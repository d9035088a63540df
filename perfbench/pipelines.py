"""The three workloads: set-up, timed pipeline, and correctness checks.

Each workload class does its set-up in `__init__` (firmware generation,
assembly where the pipeline starts from an image, temp files), runs its
timed pipeline in `run()` through the public API or the in-process CLI
(`rv32mc.cli.dispatch`), and checks one pipeline's outputs in `verify()`
outside the timed region.  `once()` holds the checks made once per
benchmark process.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import rv32mc
from rv32mc import cli

import workgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_FILE = HERE / "golden_traces.json"
GOLDEN_PROGRAMS = ("demo", "timing", "pacer")


class Checks:
    """Correctness checks attempted and failed; the first failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class HashSink:
    """Stands in for stdout: hashes everything written, keeps only a tail."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._tail: collections.deque[str] = collections.deque(maxlen=8)

    def write(self, s: str) -> int:
        self._hash.update(s.encode())
        self._tail.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def tail(self) -> str:
        return "".join(self._tail)


def parse_kv(text: str) -> dict[str, str]:
    """The `--format kv` report at the end of `text`."""
    report = text[text.rindex("halt_reason="):]
    return dict(line.split("=", 1) for line in report.splitlines() if "=" in line)


def check_kv(checks: Checks, kv: dict[str, str], fw: workgen.Firmware) -> tuple[int, int, Fraction]:
    """Exact simulated figures against the paper's cycle table."""
    cycles, retired = int(kv["total_cycles"]), int(kv["retired_total"])
    cpi = Fraction(kv["cpi_exact"])
    checks.check("halt_reason", kv["halt_reason"] == "self_loop")
    checks.check("core.sim_cycles", cycles == fw.cycles)
    checks.check("core.retired", retired == fw.retired)
    checks.check("core.cpi", cpi == fw.cpi)
    return cycles, retired, cpi


def trace_digest(stdout: str) -> str:
    """sha256 of the CSV trace lines of a `run --trace --format kv` output."""
    trace = stdout[: stdout.index("halt_reason=")]
    return hashlib.sha256(trace.encode()).hexdigest()


def golden_digests(workdir: Path) -> dict[str, str]:
    """Trace digests of the bundled firmware, via the CLI."""
    digests = {}
    for name in GOLDEN_PROGRAMS:
        hex_path = str(workdir / f"golden_{name}.hex")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.dispatch(["asm", str(ROOT / "firmware" / f"{name}.s"), "-o", hex_path])
            rc = rc or cli.dispatch(["run", hex_path, "--trace", "--format", "kv"])
        digests[name] = trace_digest(out.getvalue()) if rc == 0 else f"exit {rc}"
    return digests


class Workload:
    size: dict[str, int] = {}  # generator size arguments; tests shrink them

    def __init__(self, seed: int, workdir: Path, fw: workgen.Firmware) -> None:
        self.workdir = workdir
        self.fw = fw
        self.budget = 2 * fw.cycles
        self.digests: dict[str, str] = {}

    def once(self, checks: Checks) -> None:
        golden = json.loads(GOLDEN_FILE.read_text())
        for name, digest in golden_digests(self.workdir).items():
            self.digests[f"golden_{name}"] = digest
            checks.check(f"golden trace {name}", digest == golden[name])

    def repeats(self, checks: Checks, key: str, digest: str) -> None:
        """The first pipeline's digest is the reference for the others."""
        checks.check(f"{key} repeats", self.digests.setdefault(key, digest) == digest)

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)


class LoopKernel(Workload):
    """Untraced engine run via the public API, then the oracle."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, workgen.loop_kernel(seed, **self.size))
        self.image = rv32mc.assemble(self.fw.source)

    def run(self):
        sim = rv32mc.Simulator(self.fw.mem_size)
        sim.program_and_start(self.image)
        report = sim.core.run(sim.bus, max_cycles=self.budget)
        rv32mc.attach_metrics(report, rv32mc.EnergyModel())
        kv = rv32mc.render_kv(report)
        oracle = rv32mc.reference_execute(
            self.image, max_instrs=self.budget, mem_size=self.fw.mem_size
        )
        return report, kv, oracle, sim.mem.dump_image().words

    def verify(self, out, checks: Checks) -> tuple[int, int, Fraction]:
        report, kv, oracle, memory = out
        figures = check_kv(checks, parse_kv(kv), self.fw)
        checks.check("oracle halted", oracle.halted)
        checks.check("oracle regs", oracle.regs == report.final_state.regs)
        checks.check("oracle memory", oracle.memory == memory)
        checks.check("oracle pc", oracle.pc == report.final_state.pc)
        checks.check("oracle retired", oracle.retired == report.retired_total)
        return figures


class ToolchainImage(Workload):
    """asm, run --dump-mem, dis, the oracle and selftest, all in-process."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, workgen.toolchain_image(seed, **self.size))
        self.src = self._write("toolchain.s", self.fw.source)
        self.hex = str(workdir / "toolchain.hex")
        self.dump = str(workdir / "toolchain.dump.hex")

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rcs = [cli.dispatch(["asm", self.src, "-o", self.hex])]
            rcs.append(cli.dispatch([
                "run", self.hex, "--mem-size", str(self.fw.mem_size),
                "--max-cycles", str(self.budget), "--format", "kv", "--dump-mem", self.dump,
            ]))
            kv = out.getvalue()
            out.seek(0)
            out.truncate()
            rcs.append(cli.dispatch(["dis", self.hex]))
            dis = out.getvalue()
            image = rv32mc.load_hex_file(self.hex)
            oracle = rv32mc.reference_execute(
                image, max_instrs=self.budget, mem_size=self.fw.mem_size
            )
            rcs.append(cli.dispatch(["selftest"]))
        return rcs, kv, dis, image, oracle

    def verify(self, out, checks: Checks) -> tuple[int, int, Fraction]:
        rcs, kv_text, dis, image, oracle = out
        checks.check("exit codes asm/run/dis/selftest", rcs == [0, 0, 0, 0])
        kv = parse_kv(kv_text)
        figures = check_kv(checks, kv, self.fw)
        dump = rv32mc.load_hex_file(self.dump)
        memory = [0] * (dump.base_address // 4) + dump.words
        memory += [0] * (len(oracle.memory) - len(memory))
        save = self.fw.extra["save_addr"] // 4
        checks.check("oracle halted", oracle.halted)
        checks.check("oracle regs", tuple(memory[save:save + 31]) == oracle.regs[1:])
        checks.check("oracle memory", memory == oracle.memory)
        checks.check("oracle pc", int(kv["final_pc"], 16) == oracle.pc)
        checks.check("oracle retired", figures[1] == oracle.retired)
        if "dis" not in self.digests:
            # The disassembly must assemble back to the same image.
            again = rv32mc.assemble(dis, base=image.base_address)
            checks.check("dis round trip", again.words == image.words)
        self.repeats(checks, "dis", hashlib.sha256(dis.encode()).hexdigest())
        return figures


class TracedMmio(Workload):
    """`run --trace` of self-modifying MMIO firmware, stdout hashed."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, workgen.traced_mmio(seed, **self.size))
        self.image = rv32mc.assemble(self.fw.source)
        self.hex = self._write("traced_mmio.hex", rv32mc.image_to_hex(self.image))

    def once(self, checks: Checks) -> None:
        super().once(checks)
        # The pacing pulse train, from the device log of an API run.
        sim = rv32mc.Simulator(self.fw.mem_size, rv32mc.PeripheralMap.default(self.fw.mem_size))
        sim.program_and_start(self.image)
        sim.core.run(sim.bus, max_cycles=self.budget)
        stamps = [r.cycle for r in sim.peripherals.device("pacing").writes()]
        periods = {b - a for a, b in zip(stamps, stamps[1:])}
        checks.check("pacing write count", len(stamps) == self.fw.extra["iterations"])
        checks.check("pacing write period", periods == {self.fw.extra["pacing_period"]})

    def run(self):
        sink = HashSink()
        with contextlib.redirect_stdout(sink):
            rc = cli.dispatch([
                "run", self.hex, "--trace", "--format", "kv", "--max-cycles", str(self.budget),
            ])
        return rc, sink.hexdigest(), sink.tail()

    def verify(self, out, checks: Checks) -> tuple[int, int, Fraction]:
        rc, digest, tail = out
        checks.check("exit code run", rc == 0)
        figures = check_kv(checks, parse_kv(tail), self.fw)
        self.repeats(checks, "trace", digest)
        return figures


WORKLOADS = {
    "loop_kernel": LoopKernel,
    "toolchain_image": ToolchainImage,
    "traced_mmio": TracedMmio,
}

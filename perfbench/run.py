"""rv32mc benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload loop_kernel --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rv32mc is imported from its
`src/` directory, never from an installed copy.  The workload runs closed
loop on one thread: each pipeline starts when the previous one has been
checked.  Host times are scaled to a reference host speed measured around
each of them (see calibrate.py); the raw figures are in the details.
The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced run with
`--trace 1`.  The line before it holds the details: environment, run
count, medians and quartiles, failed checks and, when traced, the spans
of one pipeline.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
MODULES = ("isa", "core", "asm", "memory", "harness", "metrics", "cli", "selfcheck", "bench")


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


class Timings:
    """Host times of timed calls, the mean calibration kernel time around
    each, and the host times scaled to reference speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.kernel: list[float] = []
        self.scaled: list[float] = []

    def time(self, fn):
        # From a collected heap, so that garbage of the previous call neither
        # sets the peak memory nor is collected inside the timed region.
        gc.collect()
        before = calibrate.kernel_seconds()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        kernel = (before + calibrate.kernel_seconds()) / 2
        self.raw.append(raw)
        self.kernel.append(kernel)
        self.scaled.append(calibrate.normalised(raw, kernel))
        return result

    def detail(self) -> dict:
        return {"scaled": _quartiles(self.scaled), "raw": _quartiles(self.raw),
                "calibration_kernel": _quartiles(self.kernel)}


def _set_up(workload: str, seed: int) -> None:
    """A fresh process that only sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def _timed_runs(bench, checks, seconds: float) -> Timings:
    """Time pipelines until `seconds` have passed (at least MIN_RUNS)."""
    timings = Timings()
    deadline = time.perf_counter() + seconds
    while True:
        bench.verify(timings.time(bench.run), checks)
        if time.perf_counter() >= deadline and len(timings.raw) >= MIN_RUNS:
            return timings


def end_to_end(bench, checks, args) -> tuple[dict, dict]:
    """Timed pipelines for `seconds`, each after a set-up process, so that
    both sample the same stretch of host time."""
    setups, walls = Timings(), Timings()
    bench.verify(bench.run(), checks)  # warm-up
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(walls.raw) < MIN_RUNS:
        setups.time(lambda: _set_up(args.workload, args.seed))
        bench.verify(walls.time(bench.run), checks)
    wall = statistics.median(walls.scaled)
    metrics = {
        "setup_s": statistics.median(setups.scaled),
        "wall_s": wall,
        "sim_instr_per_s": bench.fw.retired / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
    }
    return metrics, {"setup_s": setups.detail(), "wall_s": walls.detail()}


def layer_metrics(rec, wall: float, figures) -> dict[str, float]:
    """Per-layer figures of one traced pipeline."""
    def total(*names: str) -> float:
        return sum(rec.agg[n].total for n in names if n in rec.agg)

    def count(key: str) -> float:
        return rec.counters.get(key, 0)

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    cycles, retired, cpi = figures
    calls, distinct = count("decode_calls"), len(rec.decode_words)
    m = {
        "isa.decode_calls": calls,
        "isa.decode_distinct_words": distinct,
        "isa.decode_reuse": 1 - distinct / calls if calls else 0.0,
        "isa.decode_s": total("isa.decode"),
        "core.run_s": total("core.run"),
        "core.cycles_per_s": rate(count("run_cycles_untraced"), count("run_s_untraced")),
        "core.traced_cycles_per_s": rate(count("run_cycles_traced"), count("run_s_traced")),
        "core.trace_render_s": total("core.as_csv", "bench.sink"),
        "core.trace_bytes": count("trace_bytes"),
        "core.oracle_s": total("core.reference_execute"),
        "core.oracle_instr_per_s": rate(count("oracle_instr"), total("core.reference_execute")),
        "core.sim_cycles": cycles,
        "core.retired": retired,
        "core.cpi": float(cpi),
        "asm.assemble_lines_per_s": rate(count("asm_lines"), total("asm.assemble")),
        "asm.parse_hex_words_per_s": rate(count("hex_words"), total("asm.parse_hex")),
        "asm.image_to_hex_words_per_s": rate(count("to_hex_words"), total("asm.image_to_hex")),
        "asm.disassemble_words_per_s": rate(count("dis_words"), total("asm.disassemble")),
        "asm.image_words": count("image_words"),
        "memory.load_image_s": total("memory.load_image"),
        "memory.read_calls": count("read_calls"),
        "memory.write_commits": count("write_commits"),
        "memory.dump_words": count("dump_words"),
        "harness.program_and_start_s": total("harness.program_and_start"),
        "harness.mmio_accesses": count("mmio_accesses"),
        "harness.dispatch_s": total("harness.dispatch"),
        "harness.event_log_len": sum(
            len(d.event_log) for pm in rec.peripheral_maps.values() for d in pm.devices
        ),
        "metrics.attach_render_s": total(
            "metrics.attach_metrics", "metrics.render_kv", "metrics.render_text"
        ),
        "cli.asm_s": total("cli.asm"),
        "cli.run_s": total("cli.run"),
        "cli.dis_s": total("cli.dis"),
        "selfcheck.selftest_s": total("selfcheck.run_selftest"),
    }
    self_s = dict.fromkeys(MODULES, 0.0)
    for name, a in rec.agg.items():
        self_s[name.split(".", 1)[0]] += a.self_time
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_s[mod]
        m[f"{mod}.self_share"] = self_s[mod] / wall
    m["trace.wall_s"] = wall
    return m


# Counts that must repeat exactly from one traced pipeline to the next.
EXACT = ("isa.decode_calls", "isa.decode_distinct_words", "core.sim_cycles", "core.retired",
         "core.trace_bytes", "asm.image_words", "memory.read_calls", "memory.write_commits",
         "memory.dump_words", "harness.mmio_accesses", "harness.event_log_len")


def per_layer(bench, checks, args) -> tuple[dict, dict]:
    """Untraced for half the time, then traced with spans for the rest."""
    import pipelines
    import spanrec

    bench.verify(bench.run(), checks)  # warm-up
    untraced = _timed_runs(bench, checks, args.seconds / 2)
    traced = Timings()
    rec = spanrec.Recorder()
    runs: list[dict[str, float]] = []

    def traced_pipeline():
        rec.reset()
        with rec.root():
            return bench.run()

    deadline = time.perf_counter() + args.seconds / 2
    with spanrec.instrument(rec, pipelines.HashSink):
        while time.perf_counter() < deadline or len(runs) < 2:
            figures = bench.verify(traced.time(traced_pipeline), checks)
            runs.append(layer_metrics(rec, rec.agg["bench.pipeline"].total, figures))
    for key in EXACT:
        checks.check(f"{key} repeats", len({r[key] for r in runs}) == 1)
    stats = {k: _quartiles([r[k] for r in runs]) for k in runs[0]}
    m = {k: s["median"] for k, s in stats.items()}
    # Both sides at reference speed, so that host drift between the two
    # halves does not show as overhead.
    untraced_s = statistics.median(untraced.scaled)
    m["trace.overhead_s"] = statistics.median(traced.scaled) - untraced_s
    m["trace.overhead_share"] = m["trace.overhead_s"] / untraced_s
    m["gate.mismatch_share"] = checks.failed / checks.attempted
    spans = [{"name": n, "start": round(t0 - rec.spans[0][1], 6), "end": round(t1 - rec.spans[0][1], 6),
              "parent": p} for n, t0, t1, p in rec.spans]
    detail = {"untraced_wall_s": untraced.detail(), "traced_wall_s": traced.detail(),
              "per_layer": stats, "spans": spans}
    return m, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rv32mc" / "__init__.py").is_file():
        print(f"error: no rv32mc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pipelines

    if Path(pipelines.rv32mc.__file__).resolve().parent != (src / "rv32mc").resolve():
        print(f"error: rv32mc imported from {pipelines.rv32mc.__file__}", file=sys.stderr)
        return 2
    if args.workload not in pipelines.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(pipelines.WORKLOADS)}")

    # Temp files stay inside the benchmark's own directory of the checkout.
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=HERE) as workdir:
        bench = pipelines.WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.setup_only:
            return 0
        checks = pipelines.Checks()
        bench.once(checks)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(bench, checks, args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        python=platform.python_version(), platform=platform.platform(),
        nproc=os.cpu_count(), digests=bench.digests, failures=checks.failures,
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

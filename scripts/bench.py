"""Compare two revisions on the benchmark and write BENCH_<n>.json.

    python3 scripts/bench.py --parent HEAD --change WORKTREE --out BENCH_6.json \\
        --seeds 6001 6002 6003 6004 6005 6006 6007 6008 6009 6010 --trace-seed 6099

Each revision is exported into its own directory under a temporary
directory (`git archive`; `WORKTREE` copies the checkout's tracked and
untracked, not ignored, files as they are now), so both sides run the
same unmodified `perfbench/` of their own revision.  For each workload,
pair k runs `perfbench/run.py --trace 0` once per side with the k-th
seed, the parent first in even pairs and the change first in odd ones,
then one `--trace 1` run per side gives the per-layer figures.  Each
per-layer rate is also given relative to the host speed of its run: the
median time of perfbench's calibration kernel over the traced pipelines,
which is pure Python and imports nothing from rv32mc, so no change to the
program can move it.

Apart from the benchmark, each `rv32mc` command is timed as a fresh
process per side (`cli`): an untraced `run` of `firmware/demo.s`'s image,
which halts after a few cycles, so it is start-up alone; `run --trace`
on the traced_mmio image of the trace seed (`--format kv`, a loop that
reuses its words) and on the toolchain_image hex of that seed
(straight-line code, no word reused);
`asm` of that toolchain_image source (its hex to stdout), `dis` and an
untraced `run --format kv` of its hex; and `selftest`.  The sources and
images are written by the parent's generator and assembler.  Each command
runs `CLI_REPS` times per side, alternating, stdout to /dev/null; the JSON
holds the wall times, their min, median and quartiles per side (the min is
the start-up cost with the least host noise), the exit codes, and the
sha256 of one more run's stdout per side.  They carry no verdict.
The children, these and perfbench's, inherit this process's environment,
and `dont_write_bytecode` records their `sys.flags.dont_write_bytecode`:
when it is 1, every fresh process compiles the modules it imports, as
perfbench's `setup_s` process does, so the figures include compiling.

The JSON holds both revisions, each with its source size (`src_loc`,
the newlines in `src/rv32mc/*.py`, as `wc -l` counts them, and
`src_loc_by_module`, the same per file name) and its knobs
(`public_params`: the parameters, less `self` and `cls`, of every
function in `rv32mc.__all__` and of the constructor and the public
methods defined on each class there that is not an enum, counted with
`inspect.signature` in a process of that revision; constants and callables
without a signature count 0), the Python version, `nproc`, the seeds,
every run's metrics with `correct`/`failed`, and per end-to-end metric
the medians with quartiles, the pair wins and a verdict against the
bound in BENCHMARK.json:

    failed          a run of either side was not correct
    worse           the change's median is worse by more than the bound
    better          the change wins at least 9/10 of the pairs and the
                    medians differ by more than the parent's q3 - q1
    unresolved      the parent's spread (q3 - q1) / median exceeds the
                    bound and not every change run beats every parent run
    within bound    none of these
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SIDES = ("parent", "change")
# Length of the one traced run per side: its figures are medians over the
# traced pipelines, and it runs for per-layer shares, not for a claim.
TRACE_SECONDS = 10

Runner = Callable[[Path, str, int, float, int], dict]
# Fresh processes per side and command: a start-up change of about 10 ms
# needs more than 7 on this kind of host to show beside its quartiles.
CLI_REPS = 15
# Run in a checkout: writes the two sources and hex images of a seed with its
# generator, and the hex image of firmware/demo.s, and prints the memory size
# toolchain_image needs.
_WRITE_IMAGES = """
import sys
sys.path[:0] = ["src", "perfbench"]
import rv32mc, workgen
dest, seed = sys.argv[1], int(sys.argv[2])
images = {"traced_mmio": workgen.traced_mmio(seed), "toolchain_image": workgen.toolchain_image(seed)}
for name, fw in images.items():
    open(f"{dest}/{name}.s", "w").write(fw.source)
    open(f"{dest}/{name}.hex", "w").write(rv32mc.image_to_hex(rv32mc.assemble(fw.source)))
demo = open("firmware/demo.s").read()
open(f"{dest}/demo.hex", "w").write(rv32mc.image_to_hex(rv32mc.assemble(demo)))
print(images["toolchain_image"].mem_size)
"""
# Run in a checkout: prints its `public_params` (see above).
_COUNT_PARAMS = """
import enum, inspect, sys
sys.path[:0] = ["src"]
import rv32mc

def count(fn):
    try:
        return sum(p not in ("self", "cls") for p in inspect.signature(fn).parameters)
    except (TypeError, ValueError):  # no signature: a constant, or a builtin method
        return 0

n = 0
for obj in (getattr(rv32mc, name) for name in rv32mc.__all__):
    if not isinstance(obj, type):
        n += count(obj)
    elif not issubclass(obj, enum.Enum):
        methods = (getattr(obj, m) for m in vars(obj) if not m.startswith("_"))
        n += count(obj) + sum(count(m) for m in methods if inspect.isroutine(m))
print(n)
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def src_loc_by_module(checkout: Path) -> dict[str, int]:
    """`wc -l src/rv32mc/*.py` of a checkout by file name: newlines, not lines."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted(checkout.glob("src/rv32mc/*.py"))}


def src_loc(checkout: Path) -> int:
    """The total of `src_loc_by_module`, as `wc -l` prints it."""
    return sum(src_loc_by_module(checkout).values())


def public_params(checkout: Path) -> int:
    """The settable public parameters of a checkout's package (see above)."""
    return int(subprocess.run([sys.executable, "-c", _COUNT_PARAMS], cwd=checkout, check=True,
                              capture_output=True, text=True).stdout)


def _sizes(checkout: Path) -> dict:
    return {"src_loc": src_loc(checkout), "src_loc_by_module": src_loc_by_module(checkout),
            "public_params": public_params(checkout)}


def export(rev: str, dest: Path) -> dict:
    """Put the files of `rev` (or of the working tree) into `dest`."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        for name in _git("ls-files", "-z", "-co", "--exclude-standard").split("\0"):
            if name and (ROOT / name).is_file():  # a deleted tracked file is listed too
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return {"rev": WORKTREE, "head": _git("rev-parse", "HEAD").strip(),
                "modified": _git("status", "--porcelain").splitlines(), **_sizes(dest)}
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"rev": rev, "commit": commit, **_sizes(dest)}


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` process; its last stdout line, or why there is
    none, and for a traced run the median calibration kernel time of the
    traced pipelines, from the detail line before it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if trace:
            kernel = json.loads(lines[-2])["detail"]["traced_wall_s"]["calibration_kernel"]
            result["calibration_kernel_s"] = kernel["median"]
    except (IndexError, KeyError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles as perfbench reports them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(spec: dict, parent: list[float], change: list[float], ok: bool) -> dict:
    """Medians, pair wins and the verdict of one end-to-end metric."""
    lower = spec["better"] == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p, c = quartiles(parent), quartiles(change)
    wins = sum(beats(b, a) for a, b in zip(parent, change))
    worse_by = (c["median"] - p["median"]) / p["median"] * (1 if lower else -1)
    spread = p["q3"] - p["q1"]
    if not ok:
        v = "failed"
    elif worse_by > spec["bound"]:
        v = "worse"
    elif wins >= 0.9 * len(parent) and beats(c["median"], p["median"]) \
            and abs(c["median"] - p["median"]) > spread:
        v = "better"
    elif spread / p["median"] > spec["bound"] and not all(
            beats(b, a) for a in parent for b in change):
        v = "unresolved"
    else:
        v = "within bound"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c, "ratio": c["median"] / p["median"],
            "pair_wins": wins, "pairs": len(parent), "verdict": v}


def per_layer(parent: dict, change: dict) -> dict:
    """Each figure of both traced runs, with change/parent and, for rates,
    change/parent of the rate times the calibration kernel time of the
    same run: the rate on a host of one fixed speed."""
    out = {}
    kernels = parent.get("calibration_kernel_s"), change.get("calibration_kernel_s")
    for name, p in parent["metrics"].items():
        c = change["metrics"].get(name, 0.0)
        row = {"parent": p, "change": c, "ratio": c / p if p else None}
        if name.endswith("_per_s") and p and all(kernels):
            row["ratio_to_reference"] = (c * kernels[1]) / (p * kernels[0])
        out[name] = row
    return out


def bench_workload(spec: dict, workload: str, dirs: dict[str, Path], seeds: list[int],
                   trace_seed: int, seconds: float, trace_seconds: float,
                   runner: Runner = run_perfbench, log=print) -> dict:
    """Alternating `--trace 0` pairs, one `--trace 1` run per side, summarised."""
    runs = []
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = runner(dirs[side], workload, seed, seconds, 0)
            runs.append({"pair": k, "seed": seed, "side": side, **result})
            log(f"{workload} pair {k} seed {seed} {side}: correct={result['correct']} "
                + " ".join(f"{m}={v:.4g}" for m, v in result["metrics"].items()))
    traced = {side: runner(dirs[side], workload, trace_seed, trace_seconds, 1) for side in SIDES}
    ok = all(r["correct"] and not r["failed"] for r in [*runs, *traced.values()])
    end_to_end = {}
    for m in spec["end_to_end"]:
        by_side = {side: [r["metrics"].get(m["name"], float("nan")) for r in runs if r["side"] == side]
                   for side in SIDES}
        end_to_end[m["name"]] = verdict(m, by_side["parent"], by_side["change"], ok)
    return {"seeds": seeds, "trace_seed": trace_seed, "runs": runs, "end_to_end": end_to_end,
            "traced_runs": traced,
            "per_layer": per_layer(traced["parent"], traced["change"])}


def cli_commands(checkout: Path, dest: Path, seed: int) -> dict[str, list[str]]:
    """The `rv32mc` arguments of each timed command, after writing its input
    into `dest` with the generator and assembler of `checkout`."""
    mem_size = subprocess.run([sys.executable, "-c", _WRITE_IMAGES, str(dest), str(seed)],
                              cwd=checkout, check=True, capture_output=True, text=True).stdout.strip()
    image = str(dest / "toolchain_image.hex")
    return {
        "demo_run": ["run", str(dest / "demo.hex")],
        "traced_mmio_run_trace_kv": ["run", str(dest / "traced_mmio.hex"), "--trace", "--format", "kv"],
        "toolchain_image_run_trace": ["run", image, "--trace", "--mem-size", mem_size],
        "toolchain_image_asm": ["asm", str(dest / "toolchain_image.s"), "-o", "/dev/stdout"],
        "toolchain_image_dis": ["dis", image],
        "toolchain_image_run_kv": ["run", image, "--format", "kv", "--mem-size", mem_size],
        "selftest": ["selftest"],
    }


def run_cli(checkout: Path, argv: list[str], stdout=subprocess.DEVNULL) -> tuple[float, int, bytes]:
    """One fresh `rv32mc` process of `checkout`: wall time, exit code, stdout."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "from rv32mc.cli import main; main()", *argv],
                          cwd=checkout, env=env, stdout=stdout, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, proc.returncode, proc.stdout or b""


def dont_write_bytecode() -> int:
    """`sys.flags.dont_write_bytecode` of a child of this process."""
    return int(subprocess.run([sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"],
                              check=True, capture_output=True, text=True).stdout)


def bench_cli(dirs: dict[str, Path], commands: dict[str, list[str]], reps: int = CLI_REPS,
              run: Callable[..., tuple[float, int, bytes]] = run_cli) -> dict:
    """Each command `reps` times per side, alternating which side goes first."""
    out = {}
    for name, argv in commands.items():
        walls, codes = {side: [] for side in SIDES}, {side: [] for side in SIDES}
        for k in range(reps):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                wall, code, _ = run(dirs[side], argv)
                walls[side].append(wall)
                codes[side].append(code)
        digests = {side: hashlib.sha256(run(dirs[side], argv, subprocess.PIPE)[2]).hexdigest()
                   for side in SIDES}
        out[name] = {"argv": argv, "reps": reps, "unit": "s",
                     **{side: {**quartiles(walls[side]), "runs": walls[side], "exit_codes": codes[side],
                               "stdout_sha256": digests[side]} for side in SIDES}}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help=f"git revision, or {WORKTREE}")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json, written at the repo root")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one per pair")
    parser.add_argument("--trace-seed", type=int, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="rv32mc-bench-") as tmp:
        revisions = {side: export(rev, Path(tmp) / side)
                     for side, rev in (("parent", args.parent), ("change", args.change))}
        dirs = {side: Path(tmp) / side for side in SIDES}
        report = {
            "revisions": revisions,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "dont_write_bytecode": dont_write_bytecode(),
            "settings": {"seconds": seconds, "trace_seconds": TRACE_SECONDS,
                         "pairs": len(args.seeds), "order": "parent first in even pairs"},
            "workloads": {
                w["name"]: bench_workload(spec, w["name"], dirs, args.seeds, args.trace_seed,
                                          seconds, TRACE_SECONDS,
                                          log=lambda s: print(s, file=sys.stderr))
                for w in spec["workloads"]
            },
            "cli": bench_cli(dirs, cli_commands(dirs["parent"], Path(tmp), args.trace_seed)),
        }
    for c in report["cli"].values():  # each side's fastest run, beside its quartiles
        for side in SIDES:
            c[side]["min"] = min(c[side]["runs"])
    (ROOT / args.out).write_text(json.dumps(report, indent=1) + "\n")
    for w, r in report["workloads"].items():
        for name, m in r["end_to_end"].items():
            print(f"{w:16s} {name:16s} {m['parent']['median']:10.4g} -> {m['change']['median']:10.4g}"
                  f"  wins {m['pair_wins']}/{m['pairs']}  {m['verdict']}")
    for name, c in report["cli"].items():
        print(f"{name:28s} min {c['parent']['min']:.4g} -> {c['change']['min']:.4g} s, median "
              f"{c['parent']['median']:.4g} -> {c['change']['median']:.4g} s"
              f"  same stdout: {c['parent']['stdout_sha256'] == c['change']['stdout_sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

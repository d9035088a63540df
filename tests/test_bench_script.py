"""scripts/bench.py: the BENCH_<n>.json it assembles, with a stubbed runner
that starts no benchmark process, and its fresh-process CLI timings."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class StubRunner:
    """Canned perfbench results: the change halves `wall_s`, raises
    `setup_s` by half, and leaves `peak_rss_mb` alone; its traced run
    triples the assembler rate on a host that runs 1.5x as fast."""

    def __init__(self, fail_side=None):
        self.calls = []
        self.fail_side = fail_side

    def __call__(self, checkout, workload, seed, seconds, trace):
        side = checkout.name
        self.calls.append((side, seed, trace))
        extra = {}
        if trace:
            rate = {"parent": 100.0, "change": 300.0}[side]
            to_hex = {"parent": 1000.0, "change": 1500.0}[side]
            metrics = {"asm.assemble_lines_per_s": rate, "asm.image_to_hex_words_per_s": to_hex,
                       "isa.decode_calls": 7.0}
            # Host drift between the runs: the kernel takes 2/3 as long.
            extra["calibration_kernel_s"] = {"parent": 0.03, "change": 0.02}[side]
        else:
            wall = (0.8 if side == "parent" else 0.4) + seed * 1e-3
            metrics = {"wall_s": wall, "sim_instr_per_s": 1 / wall, "peak_rss_mb": 50.0,
                       "setup_s": 0.2 if side == "parent" else 0.3}
        failed = int(side == self.fail_side)
        return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics,
                **extra}


def run(bench, runner, seeds=range(1, 11)):
    dirs = {side: Path("/unused") / side for side in ("parent", "change")}
    return bench.bench_workload(SPEC, "toolchain_image", dirs, list(seeds), 99, 30, 10,
                                runner=runner, log=lambda s: None)


def test_pairs_alternate_which_side_runs_first(bench):
    runner = StubRunner()
    run(bench, runner, seeds=[1, 2, 3])
    assert runner.calls == [
        ("parent", 1, 0), ("change", 1, 0),
        ("change", 2, 0), ("parent", 2, 0),
        ("parent", 3, 0), ("change", 3, 0),
        ("parent", 99, 1), ("change", 99, 1),
    ]


def test_medians_wins_and_verdicts(bench):
    result = run(bench, StubRunner())
    e2e = result["end_to_end"]
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    wall = e2e["wall_s"]
    assert wall["parent"]["median"] == pytest.approx(0.8055)
    assert wall["change"]["median"] == pytest.approx(0.4055)
    assert (wall["pair_wins"], wall["pairs"], wall["verdict"]) == (10, 10, "better")
    assert e2e["sim_instr_per_s"]["verdict"] == "better"
    assert e2e["peak_rss_mb"]["verdict"] == "within bound"
    assert e2e["peak_rss_mb"]["pair_wins"] == 0  # ties count for neither side
    assert e2e["setup_s"]["verdict"] == "worse"
    assert len(result["runs"]) == 20 and result["seeds"] == list(range(1, 11))


def test_a_failed_run_fails_every_metric(bench):
    result = run(bench, StubRunner(fail_side="change"))
    assert {m["verdict"] for m in result["end_to_end"].values()} == {"failed"}


def test_wide_parent_spread_is_unresolved(bench):
    spec = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
    parent = [1.0, 1.6, 1.0, 1.6, 1.0, 1.6]
    change = [1.1, 1.1, 1.1, 1.1, 1.1, 1.1]
    assert bench.verdict(spec, parent, change, True)["verdict"] == "unresolved"
    # Every change run beats every parent run: resolved, but the medians
    # differ by less than the parent's spread, so it is no gain either.
    assert bench.verdict(spec, parent, [0.9] * 6, True)["verdict"] == "within bound"


def test_per_layer_rates_relative_to_the_reference_rate(bench):
    # The reference is the calibration kernel, so every rate of the
    # program, the hex writer's included, is given against it.
    layer = run(bench, StubRunner())["per_layer"]
    assert layer["asm.assemble_lines_per_s"]["ratio"] == pytest.approx(3.0)
    assert layer["asm.assemble_lines_per_s"]["ratio_to_reference"] == pytest.approx(2.0)
    assert layer["asm.image_to_hex_words_per_s"]["ratio_to_reference"] == pytest.approx(1.0)
    assert "ratio_to_reference" not in layer["isa.decode_calls"]


def test_traced_run_reads_the_kernel_time_from_the_detail_line(bench, tmp_path):
    # A stand-in for perfbench/run.py: the detail line, then the result.
    (tmp_path / "perfbench").mkdir()
    detail = {"detail": {"traced_wall_s": {"calibration_kernel": {"median": 0.027}}}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"asm.assemble_lines_per_s": {"value": 5.0, "unit": "1/s"}}}
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print({json.dumps(json.dumps(detail))})\nprint({json.dumps(json.dumps(result))})\n")
    traced = bench.run_perfbench(tmp_path, "toolchain_image", 1, 1.0, 1)
    assert traced["calibration_kernel_s"] == 0.027
    assert traced["metrics"] == {"asm.assemble_lines_per_s": 5.0}
    assert "calibration_kernel_s" not in bench.run_perfbench(tmp_path, "toolchain_image", 1, 1.0, 0)


def test_src_loc_counts_newlines_of_the_package_sources_as_wc_does(bench, tmp_path):
    pkg = tmp_path / "src" / "rv32mc"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("one\ntwo\n")
    (pkg / "b.py").write_text("\n\nno newline at the end")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (pkg / "sub" / "c.py").write_text("not\ncounted\n")
    assert bench.src_loc(tmp_path) == 4
    assert bench.src_loc_by_module(tmp_path) == {"a.py": 2, "b.py": 2}
    sources = sorted(str(p) for p in (ROOT / "src" / "rv32mc").glob("*.py"))
    total = subprocess.run(["wc", "-l", *sources], capture_output=True, text=True, check=True)
    *files, last = (line.split(None, 1) for line in total.stdout.splitlines())
    assert bench.src_loc(ROOT) == int(last[0])
    assert bench.src_loc_by_module(ROOT) == {Path(name).name: int(n) for n, name in files}


def test_public_params_counts_functions_constructors_and_public_methods(bench, tmp_path):
    pkg = tmp_path / "src" / "rv32mc"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "import enum\n"
        "def f(a, b=1): pass\n"
        "class C:\n"
        "    def __init__(self, x): pass\n"
        "    def m(self, y=2): pass\n"
        "    def _p(self, z): pass\n"
        "class E(enum.Enum):\n"
        "    A = 1\n"
        "LIMIT = 3\n"
        "__all__ = ['f', 'C', 'E', 'LIMIT']\n")
    # a, b; x; y: `self`, the private method, the enum and the constant count nothing
    assert bench.public_params(tmp_path) == 4


def test_public_params_reads_exports_a_package_resolves_on_first_use(bench, tmp_path):
    pkg = tmp_path / "src" / "rv32mc"
    pkg.mkdir(parents=True)
    (pkg / "defs.py").write_text(
        "import enum\n"
        "def f(a, b=1): pass\n"
        "class C:\n"
        "    def __init__(self, x): pass\n"
        "    def m(self, y=2): pass\n"
        "class E(enum.Enum):\n"
        "    A = 1\n"
        "LIMIT = 3\n")
    (pkg / "__init__.py").write_text(
        "import importlib\n"
        "__all__ = ['f', 'C', 'E', 'LIMIT']\n"
        "def __getattr__(name):\n"
        "    if name not in __all__:\n"
        "        raise AttributeError(name)\n"
        "    return getattr(importlib.import_module('.defs', __name__), name)\n")
    # The package's namespace holds none of the four until each is read.
    assert bench.public_params(tmp_path) == 4


def test_cli_commands_alternate_sides_and_keep_times_codes_and_digests(bench):
    calls = []

    def run(checkout, argv, stdout=subprocess.DEVNULL):
        calls.append((checkout.name, argv[1], stdout))
        wall = {"parent": 0.2, "change": 0.1}[checkout.name] + len(calls) * 1e-3
        return wall, 0, f"{checkout.name} {argv[1]}".encode()

    dirs = {side: Path("/unused") / side for side in ("parent", "change")}
    commands = {"first": ["run", "a.hex", "--trace"], "second": ["run", "b.hex", "--trace"]}
    result = bench.bench_cli(dirs, commands, reps=5, run=run)
    assert list(result) == ["first", "second"]
    first = result["first"]
    assert set(first) == {"argv", "reps", "unit", "parent", "change"}  # no verdict
    assert (first["argv"], first["reps"], first["unit"]) == (commands["first"], 5, "s")
    for side in ("parent", "change"):
        assert set(first[side]) == {"median", "q1", "q3", "runs", "exit_codes", "stdout_sha256"}
        assert first[side]["exit_codes"] == [0] * 5 and len(first[side]["runs"]) == 5
        assert first[side]["median"] == sorted(first[side]["runs"])[2]
        assert first[side]["stdout_sha256"] == hashlib.sha256(f"{side} a.hex".encode()).hexdigest()
    timed = [(side, stdout) for side, image, stdout in calls if image == "a.hex"]
    assert [side for side, _ in timed[:10]] == ["parent", "change", "change", "parent"] * 2 + [
        "parent", "change"]
    assert {stdout for _, stdout in timed[:10]} == {subprocess.DEVNULL}
    assert timed[10:] == [("parent", subprocess.PIPE), ("change", subprocess.PIPE)]


def test_cli_commands_run_the_generated_images_in_fresh_processes(bench, tmp_path):
    commands = bench.cli_commands(ROOT, tmp_path, 3)
    assert list(commands) == ["demo_run", "traced_mmio_run_trace_kv", "toolchain_image_run_trace",
                              "toolchain_image_asm", "toolchain_image_dis",
                              "toolchain_image_run_kv", "selftest"]
    assert commands["demo_run"] == ["run", str(tmp_path / "demo.hex")]
    assert commands["traced_mmio_run_trace_kv"] == [
        "run", str(tmp_path / "traced_mmio.hex"), "--trace", "--format", "kv"]
    assert commands["toolchain_image_run_trace"][:3] == [
        "run", str(tmp_path / "toolchain_image.hex"), "--trace"]
    _, code, hex_text = bench.run_cli(ROOT, commands["toolchain_image_asm"], subprocess.PIPE)
    assert code == 0 and hex_text == (tmp_path / "toolchain_image.hex").read_bytes()
    demo = tmp_path / "demo.hex"
    demo.write_text("00500093\n0000006f\n")
    wall, code, out = bench.run_cli(ROOT, ["run", str(demo), "--trace"], subprocess.PIPE)
    assert wall > 0 and code == 0
    assert out.decode().splitlines()[0] == "1,executing,fetch,00000000,00500093,addi x1, x0, 5,0"

"""The import contract: a process loads only the modules whose names it
reads.  Each check runs in a fresh interpreter, so no module another test
imported is already loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Prints, as JSON, the `rv32mc.*` modules loaded at the point it is pasted.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rv32mc.'))))"


def _fresh(code: str, *argv: str):
    """Run `code` in a new interpreter that imports rv32mc from `src/`; its
    last stdout line, read as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}", *argv],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_package_and_its_cli_load_only_the_cli_and_errors():
    assert _fresh(f"import rv32mc, rv32mc.cli\n{LOADED}") == ["rv32mc.cli", "rv32mc.errors"]


def test_an_export_loads_only_its_module_and_what_that_imports():
    loaded = _fresh(f"import rv32mc\nrv32mc.assemble\n{LOADED}")
    assert loaded == [f"rv32mc.{m}" for m in ("asm", "control", "errors", "isa", "memory")]


def test_every_export_is_the_object_its_module_defines_and_is_kept():
    # Per export: the module a function or class names as its own, the
    # rv32mc modules that bind the name to the same object, and whether the
    # package keeps it after the first read.
    facts = _fresh(
        "import rv32mc\n"
        "out = {}\n"
        "for name in rv32mc.__all__:\n"
        "    value = getattr(rv32mc, name)\n"
        "    homes = [m for m, mod in list(sys.modules.items())\n"
        "             if m.startswith('rv32mc.') and vars(mod).get(name, None) is value]\n"
        "    out[name] = [getattr(value, '__module__', None), homes, vars(rv32mc)[name] is value]\n"
        "print(json.dumps(out))")
    assert len(facts) == 36
    for name, (owner, homes, kept) in facts.items():
        assert homes and kept, name
        assert owner is None or not owner.startswith("rv32mc") or owner in homes, name


def test_a_star_import_binds_exactly_the_exports():
    bound, exports = _fresh(
        "import rv32mc\n"
        "ns = {}\n"
        "exec('from rv32mc import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), sorted(rv32mc.__all__)]))")
    assert bound == exports


def test_an_unknown_name_raises_attribute_error_naming_it():
    error, has = _fresh(
        "import rv32mc\n"
        "try:\n"
        "    rv32mc.no_such_export\n"
        "    error = None\n"
        "except AttributeError as e:\n"
        "    error = str(e)\n"
        "print(json.dumps([error, hasattr(rv32mc, 'no_such_export')]))")
    assert error is not None and "no_such_export" in error
    assert has is False


@pytest.mark.parametrize("command, runs, never", [
    ("asm", "rv32mc.asm", {"rv32mc.harness", "rv32mc.selfcheck"}),
    ("dis", "rv32mc.asm", {"rv32mc.harness", "rv32mc.selfcheck"}),
    ("run", "rv32mc.harness", {"rv32mc.selfcheck"}),
    ("script", "rv32mc.harness", {"rv32mc.selfcheck"}),
    ("selftest", "rv32mc.selfcheck", set()),
])
def test_a_command_imports_only_what_it_runs(tmp_path, command, runs, never):
    # No record of the package is a dataclass, so no command pays for
    # `dataclasses` or the `inspect` it imports.
    hex_path, script_path = tmp_path / "demo.hex", tmp_path / "bringup.txt"
    hex_path.write_text("00500093\n0000006f\n")
    script_path.write_text("load demo.hex\nreset\nstart\nrun 8\nobserve 0 8\n")
    argv = {"asm": ["asm", str(ROOT / "firmware" / "demo.s"), "-o", str(tmp_path / "out.hex")],
            "script": ["script", str(script_path)], "selftest": ["selftest"]}.get(
        command, [command, str(hex_path)])
    code, loaded = _fresh(
        "import contextlib, io\n"
        "from rv32mc.cli import dispatch\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = dispatch(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.startswith('rv32mc.') or m in ('dataclasses', 'inspect'))]))",
        *argv)
    assert code == 0 and runs in loaded
    assert never.isdisjoint(loaded)
    assert not {"dataclasses", "inspect"} & set(loaded), loaded

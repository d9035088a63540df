"""scripts/mutants.py: the mutants it lists still apply to the tree, and with
a stubbed pytest runner, which starts no test process, the order of its
runs, its outcomes and its exit code."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_exactly_once_in_the_tree(mutants):
    for m in mutants.MUTANTS:
        assert m.edits and m.tests, m.name
        text = (ROOT / m.path).read_text()
        for old, new in m.edits:
            assert text.count(old) == 1 and old != new, (m.name, old)
            text = text.replace(old, new)


def test_names_are_unique_and_named_tests_exist(mutants):
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        for test in m.tests:
            path, _, func = test.partition("::")
            assert (ROOT / path).is_file(), test
            assert not func or f"def {func}(" in (ROOT / path).read_text(), test


class StubRunner:
    """Canned pytest exit codes, one per stage, recording each call with
    the text of the mutated file at the time."""

    def __init__(self, path, named=1, tier1=0):
        self.path, self.codes, self.calls = path, {"named": named, "tier-1": tier1}, []

    def __call__(self, checkout, args):
        stage = "tier-1" if args == ["--continue-on-collection-errors"] else "named"
        self.calls.append((stage, args, (checkout / self.path).read_text()))
        return self.codes[stage]


def _tree(tmp_path, text="x = 1\ny = 2\n"):
    (tmp_path / "pkg").mkdir(parents=True)
    (tmp_path / "pkg" / "mod.py").write_text(text)
    return tmp_path


def _mutant(mutants, old="y = 2", new="y = 3"):
    return mutants.Mutant("y-plus-one", "pkg/mod.py", [(old, new)], ("tests/test_y.py::test_y",))


def test_killed_by_its_named_tests_runs_no_tier1_and_restores_the_file(mutants, tmp_path):
    tree, runner = _tree(tmp_path), StubRunner("pkg/mod.py", named=1)
    result = mutants.check(_mutant(mutants), tree, runner)
    assert (result["name"], result["outcome"], result["why"]) == (
        "y-plus-one", "killed", "by its named tests")
    assert runner.calls == [("named", ["tests/test_y.py::test_y"], "x = 1\ny = 3\n")]
    assert (tree / "pkg" / "mod.py").read_text() == "x = 1\ny = 2\n"


@pytest.mark.parametrize("tier1, outcome", [(1, "killed"), (0, "survived")])
def test_a_mutant_its_named_tests_miss_goes_to_tier1(mutants, tmp_path, tier1, outcome):
    tree, runner = _tree(tmp_path), StubRunner("pkg/mod.py", named=0, tier1=tier1)
    assert mutants.check(_mutant(mutants), tree, runner)["outcome"] == outcome
    assert [(stage, text) for stage, _, text in runner.calls] == [
        ("named", "x = 1\ny = 3\n"), ("tier-1", "x = 1\ny = 3\n")]
    assert (tree / "pkg" / "mod.py").read_text() == "x = 1\ny = 2\n"


@pytest.mark.parametrize("text", ["x = 1\n", "y = 2\ny = 2\n"], ids=["missing", "twice"])
def test_old_text_not_found_exactly_once_is_stale_and_runs_nothing(mutants, tmp_path, text):
    tree, runner = _tree(tmp_path, text), StubRunner("pkg/mod.py")
    result = mutants.check(_mutant(mutants), tree, runner)
    assert result["outcome"] == "stale" and runner.calls == []
    assert (tree / "pkg" / "mod.py").read_text() == text


def test_every_edit_of_an_entry_is_applied_at_once(mutants, tmp_path):
    tree, runner = _tree(tmp_path), StubRunner("pkg/mod.py", named=1)
    mutant = mutants.Mutant("both", "pkg/mod.py", [("x = 1", "x = 0"), ("y = 2", "y = 3")],
                            ("tests/test_y.py",))
    assert mutants.check(mutant, tree, runner)["outcome"] == "killed"
    assert [text for _, _, text in runner.calls] == ["x = 0\ny = 3\n"]
    assert (tree / "pkg" / "mod.py").read_text() == "x = 1\ny = 2\n"


@pytest.mark.parametrize("edits", [[("x = 1", "x = 0"), ("z = 3", "z = 4")],
                                   [("x = 1", "y = 2"), ("y = 2", "y = 3")]],
                         ids=["second-missing", "second-twice-after-the-first"])
def test_an_entry_with_any_old_text_not_found_once_is_stale(mutants, tmp_path, edits):
    tree, runner = _tree(tmp_path), StubRunner("pkg/mod.py")
    result = mutants.check(mutants.Mutant("pair", "pkg/mod.py", edits, ("t.py",)), tree, runner)
    assert result["outcome"] == "stale" and result["why"].startswith("old text 1 ")
    assert runner.calls == [] and (tree / "pkg" / "mod.py").read_text() == "x = 1\ny = 2\n"


@pytest.mark.parametrize("code", [2, 3, 4, 5])
def test_named_tests_pytest_cannot_run_are_an_error_not_a_kill(mutants, tmp_path, code):
    tree, runner = _tree(tmp_path), StubRunner("pkg/mod.py", named=code)
    assert mutants.check(_mutant(mutants), tree, runner)["outcome"] == "error"
    assert [stage for stage, _, _ in runner.calls] == ["named"]


def test_main_exits_1_unless_every_mutant_is_killed(mutants, monkeypatch):
    # A survivor is reported, not dropped.
    exported = []
    monkeypatch.setattr(mutants, "export", lambda rev, dest: exported.append(rev) or _tree(dest))
    monkeypatch.setattr(mutants, "MUTANTS", [_mutant(mutants), mutants.Mutant(
        "x-zero", "pkg/mod.py", [("x = 1", "x = 0")], ("tests/test_x.py",))])
    lines = []
    codes = iter([1, 0, 0])  # y-plus-one killed; x-zero passes both stages
    assert mutants.main(["--rev", "WORKTREE"], run=lambda c, a: next(codes), log=lines.append) == 1
    assert exported == ["WORKTREE"]
    assert [line.split()[:2] for line in lines[:2]] == [["y-plus-one", "killed"],
                                                        ["x-zero", "survived"]]
    assert lines[-1] == "1/2 killed"
    codes = iter([1, 0, 1])  # both killed, x-zero by tier-1
    assert mutants.main([], run=lambda c, a: next(codes), log=lines.append) == 0
    assert exported == ["WORKTREE", "HEAD"] and lines[-1] == "2/2 killed"


def test_run_pytest_runs_in_the_checkout_over_its_sources(mutants, tmp_path):
    # One process: the test passes only where `src` of the checkout is on the path.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text("VALUE = 2\n")
    (tmp_path / "test_probe.py").write_text(
        "from probe import VALUE\n\ndef test_value():\n    assert VALUE == 1\n")
    assert mutants.run_pytest(tmp_path, ["test_probe.py"]) == 1

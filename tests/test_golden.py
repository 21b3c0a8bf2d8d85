##
## Golden reports: every command of tools/report_diff.py, run in process
## through cli.main, prints byte for byte the record stored in
## tests/golden/ (rewritten by `report_diff.py --write-golden SRC`)
##

import builtins
import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from sl2factor import cli

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "report_diff", ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)
COMMANDS = report_diff.COMMANDS

# a few commands that are also run in a subprocess: a report, a seeded
# run, an input file, an exact non-generic solve on 10-digit entries, a
# refusal, help text and an argparse error
SUBPROCESS_CHECKED = [
    ["expand", "--n", "7"],
    ["lemma-check", "--n", "4", "--samples", "200", "--seed", "1"],
    ["winding", "--input", "{loop}"],
    ["fiber-solve", "--n", "8", "--input", "{a_zero_big}", "--seed", "9",
     "--z1", "2718281828/3141592653-1 i"],
    ["cohn", "--z", "1/0", "--w", "1"],
    ["cohn", "--help"],
    ["factor-const"],
]


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    """The directory of report_diff's input files."""
    tmp = str(tmp_path_factory.mktemp("inputs"))
    report_diff.write_inputs(tmp)
    return tmp


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # as report_diff.run sets it


def _in_process(command: list[str], tmp: str) -> str:
    """The record of command run through cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(report_diff.argv_of(command, tmp))
        except SystemExit as exc:  # --help
            code = exc.code
    return report_diff.record(command, code, out.getvalue(), err.getvalue(),
                              tmp)


def _check_golden(command: list[str], tmp: str) -> None:
    got = _in_process(command, tmp).encode("utf-8")
    assert got == report_diff.golden_path(command).read_bytes()


@pytest.mark.parametrize("command", COMMANDS,
                         ids=lambda c: report_diff.golden_path(c).stem)
def test_report_matches_its_golden_file(command, tmp):
    _check_golden(command, tmp)


def test_golden_files_are_the_commands():
    names = [report_diff.golden_path(c).name for c in COMMANDS]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in report_diff.GOLDEN.iterdir()) == \
        sorted(names)


def test_in_process_runs_match_a_subprocess(tmp):
    # module state (the KINDS memo, lazy exports) is shared in process;
    # when the whole file runs, every command above has run in this one
    for command in SUBPROCESS_CHECKED:
        assert command in COMMANDS
        assert _in_process(command, tmp) == \
            report_diff.run(ROOT / "src", command, tmp)


@pytest.mark.parametrize("old,new", [('"command"', '"commanD"'),
                                     ('"n": 4', '"n": 5')],
                         ids=["key", "value"])
def test_golden_check_fails_on_a_one_byte_change(old, new, tmp,
                                                 monkeypatch):
    def print_changed(line):
        builtins.print(line.replace(old, new, 1))

    monkeypatch.setattr(cli, "print", print_changed, raising=False)
    command = ["expand", "--n", "4"]
    golden = report_diff.golden_path(command).read_bytes()
    got = _in_process(command, tmp).encode("utf-8")
    assert len(got) == len(golden)
    assert sum(a != b for a, b in zip(got, golden)) == 1
    with pytest.raises(AssertionError):
        _check_golden(command, tmp)

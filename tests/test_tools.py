"""The determinism check ``tools/cmpcanned.py`` on small hand-made trees, the
seed runner ``tools/fuzzmarch.py``, and the command lines of ``tools/canned.sh``
and of the README."""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cmpcanned = _load("cmpcanned")
ROOT = Path(__file__).resolve().parents[1]
CANNED = ROOT / "tools" / "canned.sh"
COMMANDS = {"simulate", "characteristics", "sweep", "mechanism", "bounds", "verify"}

TREE = {
    "simulate/u.csv": "x,u\n-0.5,0.25\n0.5,0.75\n",
    "simulate/manifest.txt": "scheme=upwind\nwall_time_s=0.125\n"
                             "u.csv  sha256=00ff  bytes=24\n",
    "verify.txt": "PASS max_principle\n",
}


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _compare(tmp_path, capsys, changes=None):
    """Exit status and output of comparing TREE with TREE updated by ``changes``.

    ``changes`` maps file names to their new text, or to None to drop the file.
    """
    other = dict(TREE)
    for name, text in (changes or {}).items():
        if text is None:
            other.pop(name)
        else:
            other[name] = text
    a = _write(tmp_path / "a", TREE)
    b = _write(tmp_path / "b", other)
    code = cmpcanned.main([str(a), str(b)])
    return code, capsys.readouterr().out


def test_identical_trees_exit_0(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys)
    assert code == 0
    assert "simulate/u.csv: identical" in out
    assert out.endswith("1 CSVs compared, 0 structural differences\n")


def test_a_moved_cell_is_reported_not_refused(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, {"simulate/u.csv": "x,u\n-0.5,0.25\n0.5,0.875\n"})
    assert code == 0
    assert "simulate/u.csv: max abs 0.125 (row 2, u), max rel 0.143 (row 2, u)" in out


def test_a_differing_wall_time_is_ignored(tmp_path, capsys):
    manifest = TREE["simulate/manifest.txt"].replace("0.125", "9.5")
    code, out = _compare(tmp_path, capsys, {"simulate/manifest.txt": manifest})
    assert code == 0
    assert "STRUCTURE" not in out


@pytest.mark.parametrize("changes, problem", [
    ({"verify.txt": None}, "verify.txt: only in A"),
    ({"extra.txt": "x\n"}, "extra.txt: only in B"),
    ({"simulate/u.csv": "x,rho\n-0.5,0.25\n0.5,0.75\n"}, "simulate/u.csv: header"),
])
def test_a_structural_difference_exits_1(tmp_path, capsys, changes, problem):
    code, out = _compare(tmp_path, capsys, changes)
    assert code == 1
    assert f"STRUCTURE {problem}" in out


def test_the_seed_runner_counts_seeds_and_differences(capsys):
    fuzzmarch = _load("fuzzmarch")
    assert fuzzmarch.main(["3", "5"]) == 0
    assert capsys.readouterr().out.startswith("3 seeds from 5, 0 differences, ")
    assert fuzzmarch.main([]) == 2


def _canned_commands(out: str) -> list:
    """The argument lists of the script's ``nl`` lines, with its variables filled in."""
    text = CANNED.read_text().replace("\\\n", " ")
    values = {"out": out}
    commands = []
    for line in text.splitlines():
        assigned = re.fullmatch(r"(\w+)=([^$()]+)", line)
        if assigned:
            values[assigned.group(1)] = assigned.group(2)
        elif line.startswith("nl "):
            line = re.sub(r"\$(\w+)", lambda m: values[m.group(1)], line)
            words = shlex.split(line)[1:]
            redirect = next(i for i, w in enumerate(words) if w.startswith(">"))
            commands.append(words[:redirect])
    return commands


def _assert_every_command_parses(commands):
    from nltraffic.cli import build_parser

    assert {argv[0] for argv in commands} == COMMANDS
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a flag the command lacks exits 2


def test_every_canned_command_parses(tmp_path):
    _assert_every_command_parses(_canned_commands(str(tmp_path)))


def _readme_commands() -> list:
    """The argument lists of the ``nltraffic`` lines in the README's shell blocks."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("nltraffic "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_every_readme_command_parses():
    _assert_every_command_parses(_readme_commands())

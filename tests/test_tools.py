"""The determinism check ``tools/cmpcanned.py`` on small hand-made trees."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cmpcanned", Path(__file__).resolve().parents[1] / "tools" / "cmpcanned.py"
)
cmpcanned = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cmpcanned)

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

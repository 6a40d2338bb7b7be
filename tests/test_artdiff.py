"""tools/artdiff.py on three tiny artifact trees: an identical copy, a
perturbed number and a missing file."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artdiff.py"


def write_tree(root, bound=0.25, verdict="PASS", with_csv=True):
    adir = root / "verify-0123456789ab"
    adir.mkdir(parents=True)
    doc = {"verdict": verdict, "tolerance": 1e-6,
           "frame_lower": [3.0e8, bound, 2.0], "at_floor": [1, 2]}
    (adir / "verdict.json").write_text(json.dumps(doc, indent=2) + "\n")
    if with_csv:
        (adir / "kernel.csv").write_text(
            "# config_hash=0123456789ab\n# t,N\n0,1\n0.5,0.75\n")
    return root


def artdiff(parent, change):
    done = subprocess.run([sys.executable, str(TOOL), str(parent),
                           str(change)], capture_output=True, text=True,
                          timeout=60)
    return done.returncode, done.stdout


def test_identical_trees(tmp_path):
    parent = write_tree(tmp_path / "parent")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    code, out = artdiff(parent, change)
    assert code == 0
    assert out.strip() == "2 of 2 files byte-identical"


def test_perturbed_number(tmp_path):
    parent = write_tree(tmp_path / "parent")
    change = write_tree(tmp_path / "change", bound=0.25 + 2 ** -30)
    code, out = artdiff(parent, change)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "1 of 2 files byte-identical"
    assert lines[0].startswith("~ verify-0123456789ab/verdict.json: "
                               "frame_lower  max|d| 9.313e-10  max rel "
                               "9.313e-10")
    assert len(lines) == 2
    # a verdict that differs is structural
    verdict = write_tree(tmp_path / "verdict", verdict="FAIL")
    code, out = artdiff(parent, verdict)
    assert code == 1 and "verdict is 'PASS' against 'FAIL'" in out


def test_missing_file(tmp_path):
    parent = write_tree(tmp_path / "parent")
    change = write_tree(tmp_path / "change", with_csv=False)
    code, out = artdiff(parent, change)
    assert code == 1
    assert "! verify-0123456789ab/kernel.csv: only in PARENT" in out
    assert artdiff(change, parent)[0] == 1

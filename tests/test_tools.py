"""tools/compare_outputs.py reports identical files, numeric movement per
field and every other difference."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _compare(a, b):
    run = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                         capture_output=True, text=True)
    return run.returncode, run.stdout.splitlines()


def test_compare_outputs_reports_per_field_movement(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.csv").write_text("x,y\n1,2\n")
    (a / "sub" / "scan.csv").write_text("tau,abs_D\n0.5,1.0\n0.25,2.0\n0.125,3.0\n")
    (b / "sub" / "scan.csv").write_text("tau,abs_D\n0.5,1.0\n0.25,2.002\n0.125,2.997\n")
    (a / "scan.json").write_text(json.dumps(
        {"rows": [{"m": 1.0, "s": "x"}, {"m": 4.0, "s": "x"}], "n": 3, "gone": 1}))
    (b / "scan.json").write_text(json.dumps(
        {"rows": [{"m": 1.0, "s": "x"}, {"m": 4.0004, "s": "y"}], "n": 3}))
    (a / "only_a.csv").write_text("x\n1\n")

    code, lines = _compare(a, b)
    assert code == 1
    assert lines == [
        "only_a.csv: only in A",
        "same.csv: byte-identical",
        "scan.json: differs",
        "  rows[].m: max rel 0.0001 (1 of 2 changed)",
        "  rows[].s: 'x' -> 'y'",
        "  gone: only in A",
        "sub/scan.csv: differs",
        "  abs_D: max rel 0.001 (2 of 3 changed)",
    ]
    (a / "only_a.csv").unlink()
    (b / "scan.json").write_bytes((a / "scan.json").read_bytes())
    (b / "sub" / "scan.csv").write_bytes((a / "sub" / "scan.csv").read_bytes())
    assert _compare(a, b)[0] == 0
    assert _compare(a, a / "same.csv")[0] == 2

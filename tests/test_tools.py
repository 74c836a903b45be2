"""Smoke test of the per-call K table in tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "k_table.py"


def test_k_table_runs_and_diffs_a_table_with_itself(tmp_path):
    """One circle call (seed 1, draw 0) makes a one-record table with
    its dimension bound, and the diff of that table with itself lists no
    moved call and the call's slack on both sides."""
    out = tmp_path / "k.json"
    label = "circle d=1 order=1 rho=1"
    subprocess.run([sys.executable, str(TOOL), "--workloads", "circle", "--seeds", "1",
                    "--draws", "0", "--label", label, "--out", str(out)], check=True)
    (rec,) = json.loads(out.read_text())
    assert (rec["workload"], rec["seed"], rec["draw"], rec["label"]) == ("circle", 1, 0, label)
    assert rec["K"] == 2 and rec["bound"] == 2 and rec["passed"] and rec["bytes"] > 0
    diff = subprocess.run([sys.executable, str(TOOL), "--diff", str(out), str(out)],
                          check=True, capture_output=True, text=True).stdout
    lines = diff.splitlines()
    assert lines[0] == "circle: sum K 2 -> 2, passed 1/1 -> 1/1"
    assert not [line for line in lines if "seed" in line]
    assert lines[1] == "  smallest slack 0 -> 0"
    assert "  largest residual move 0.000e+00" in lines
    assert f"  dilation bytes differ on 0 of 1 calls, sum {rec['bytes']} -> {rec['bytes']} B" in lines

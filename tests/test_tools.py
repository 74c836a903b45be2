"""Smoke test of the per-call K table in tools/."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "k_table.py"


def _diff(a, b):
    return subprocess.run([sys.executable, str(TOOL), "--diff", str(a), str(b)],
                          check=True, capture_output=True, text=True).stdout.splitlines()


def test_k_table_runs_and_diffs_a_table_with_itself(tmp_path):
    """One circle call (seed 1, draw 0) makes a one-record table with
    its dimension bound and its matrix and report digests, and the diff
    of that table with itself lists no moved call, no differing matrix
    or report and the call's slack on both sides.  Against a table
    without the digests, as written before they were recorded, the
    counts read None; a changed generator digest counts as a differing
    call."""
    out = tmp_path / "k.json"
    label = "circle d=1 order=1 rho=1"
    subprocess.run([sys.executable, str(TOOL), "--workloads", "circle", "--seeds", "1",
                    "--draws", "0", "--label", label, "--out", str(out)], check=True)
    (rec,) = json.loads(out.read_text())
    assert (rec["workload"], rec["seed"], rec["draw"], rec["label"]) == ("circle", 1, 0, label)
    assert rec["K"] == 2 and rec["bound"] == 2 and rec["passed"] and rec["bytes"] > 0
    digests = [rec["v_sha256"], rec["report_sha256"], *rec["generators_sha256"]]
    assert len(digests) == 3 and all(len(h) == 64 for h in digests)
    lines = _diff(out, out)
    assert lines[0] == "circle: sum K 2 -> 2, passed 1/1 -> 1/1"
    assert not [line for line in lines if "seed" in line]
    assert lines[1] == "  smallest slack 0 -> 0"
    assert "  largest residual move 0.000e+00" in lines
    assert f"  dilation bytes differ on 0 of 1 calls, sum {rec['bytes']} -> {rec['bytes']} B" in lines
    assert "  dilation matrices differ on 0 of 1 calls" in lines
    assert "  report bytes differ on 0 of 1 calls" in lines
    older = tmp_path / "older.json"
    older.write_text(json.dumps([{k: v for k, v in rec.items() if k not in
                                  ("v_sha256", "generators_sha256", "report_sha256")}]))
    lines = _diff(older, out)
    assert "  dilation matrices differ on None of 1 calls" in lines
    assert "  report bytes differ on None of 1 calls" in lines
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps([dict(rec, generators_sha256=["0" * 64])]))
    lines = _diff(out, moved)
    assert "  dilation matrices differ on 1 of 1 calls" in lines
    assert "  report bytes differ on 0 of 1 calls" in lines

"""K per benchmark call, and the difference between two such tables.

    python tools/k_table.py --out k.json [--workloads boundary,fitted]
                            [--seeds 1-6] [--draws 0-2] [--label SUBSTR]
    python tools/k_table.py --diff parent.json change.json [--label SUBSTR]

The first form runs every case of ``bench/workloads.make_cases`` once per
workload, seed and draw, with one BLAS thread as the benchmark uses, and
writes one record per call: its label, K (the dilation's space
dimension), whether it passed verification, the verification's
``max_moment_residual``, the number of reduced terms, and the sha256 of
its ``dump_json(encode_dilation(...))`` bytes.  A refused call records
the error's class in place of K and the digest.  ``--label`` runs only the
cases whose label contains SUBSTR (``--label qcommute``, say), keeping
their case numbers.  Run it on two checkouts to compare them; the tool
only reads ``bench/``.

The second form prints, for each workload, the sum of K and the passed
count on either side, every call whose K or verdict moved, every call
whose residual moved by more than 1e-12, and the count of calls whose
dilation bytes differ; with ``--label`` it compares only the calls whose
label contains SUBSTR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# a residual that moves by more than this is listed by --diff
RESIDUAL_MOVE = 1e-12


def _span(text: str) -> range:
    """'1-6' or '3' as a range of integers, both ends included."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(workloads, seeds, draws, label="") -> list:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import dilatekit as dk
    from dilatekit.io import dump_json, encode_dilation
    from workloads import make_cases

    records = []
    for workload in workloads:
        for seed in seeds:
            for draw in draws:
                for index, case in enumerate(make_cases(workload, seed, draw)):
                    if label not in case.label:
                        continue
                    rec = {"workload": workload, "seed": seed, "draw": draw,
                           "case": index, "label": case.label}
                    try:
                        result = case.call()
                    except dk.DilatekitError as exc:
                        rec.update(K=None, passed=False, residual=None, terms=None,
                                   sha256=None, error=type(exc).__name__)
                    else:
                        text = dump_json(encode_dilation(result.dilation))
                        rec.update(K=result.dilation.space_dim, passed=result.passed,
                                   residual=result.verification.max_moment_residual,
                                   terms=result.reduced_terms,
                                   sha256=hashlib.sha256(text.encode()).hexdigest())
                    records.append(rec)
    return records


def diff(old: list, new: list) -> str:
    def key(rec):
        return rec["workload"], rec["seed"], rec["draw"], rec["case"]

    before = {key(rec): rec for rec in old}
    after = {key(rec): rec for rec in new}
    lines = []
    for workload in dict.fromkeys(rec["workload"] for rec in old + new):
        keys = [k for k in dict.fromkeys(list(before) + list(after)) if k[0] == workload]
        sides = [[table[k] for k in keys if k in table] for table in (before, after)]
        sums = [sum(rec["K"] or 0 for rec in side) for side in sides]
        passed = [sum(rec["passed"] for rec in side) for side in sides]
        lines.append(f"{workload}: sum K {sums[0]} -> {sums[1]}, passed "
                     f"{passed[0]}/{len(sides[0])} -> {passed[1]}/{len(sides[1])}")
        bytes_differ = 0
        for k in keys:
            a, b = before.get(k), after.get(k)
            if a is None or b is None:
                lines.append(f"  seed {k[1]} draw {k[2]} case {k[3]}: only in "
                             f"{'the second' if a is None else 'the first'} table")
                continue
            if a["sha256"] != b["sha256"]:
                bytes_differ += 1
            if (a["K"], a["passed"]) != (b["K"], b["passed"]):
                lines.append(f"  seed {k[1]} draw {k[2]} {a['label']}: "
                             f"K {a['K'] or a.get('error')} -> {b['K'] or b.get('error')}, "
                             f"passed {a['passed']} -> {b['passed']}")
            ra, rb = a.get("residual"), b.get("residual")
            if (ra is None) != (rb is None) or (
                    ra is not None and abs(rb - ra) > RESIDUAL_MOVE):
                lines.append(f"  seed {k[1]} draw {k[2]} {a['label']}: "
                             f"residual {ra} -> {rb}")
        lines.append(f"  dilation bytes differ on {bytes_differ} of {len(keys)} calls")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="boundary,fitted")
    parser.add_argument("--seeds", default="1-6", help="e.g. 1-6 or 7")
    parser.add_argument("--draws", default="0-2", help="e.g. 0-2 or 0")
    parser.add_argument("--label", default="", metavar="SUBSTR",
                        help="only the cases whose label contains SUBSTR")
    parser.add_argument("--out", help="write the table here (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two tables instead of running")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = ([rec for rec in json.loads(Path(p).read_text())
                     if args.label in rec["label"]] for p in args.diff)
        print(diff(old, new))
        return 0
    records = run(args.workloads.split(","), _span(args.seeds), _span(args.draws),
                  args.label)
    text = json.dumps(records, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

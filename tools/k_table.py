"""K per benchmark call, and the difference between two such tables.

    python tools/k_table.py --out k.json [--workloads boundary,fitted]
                            [--seeds 1-6] [--draws 0-2] [--label SUBSTR]
                            [--sampled]
    python tools/k_table.py --diff parent.json change.json [--label SUBSTR]

The first form runs every case of ``bench/workloads.make_cases`` once per
workload, seed and draw, with one BLAS thread as the benchmark uses, and
writes one record per call: its label, K (the dilation's space
dimension), whether it passed verification, the verification's
``max_moment_residual``, the number of reduced terms, and the sha256 of
its ``dump_json(encode_dilation(...))`` bytes; for a call that runs the
fit, also the iteration of its last ADMM residual check and the number
of face polishes it attempted (both None when the call does not fit;
they are read by wrapping ``measures._admm`` and ``measures._polish``).
A refused call records the error's class in place of K and the digest.
``--label`` runs only the cases whose label contains SUBSTR (``--label
qcommute``, say), keeping their case numbers.  ``--sampled`` gives each
``boundary`` case its curve as ``BoundaryCurve.sampled`` at the case's
node count, with the same points and derivatives, so the call takes the
trapezoid path that the closed-form disc and ellipse no longer take: its
table, diffed against a plain table of a checkout from before the Szego
route, should show every call byte-identical.  Run it on two checkouts
to compare them; the tool only reads ``bench/``.

The second form prints, for each workload, the sum of K and the passed
count on either side, every call whose K or verdict moved, every call
whose residual moved by more than 1e-12, the largest residual move over
the calls with a residual on both sides, the count of calls whose
dilation bytes differ, the sum of fit iterations per case label on either
side, and every call whose iteration or polish count moved; with
``--label`` it compares only the calls whose label contains SUBSTR.
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


def run(workloads, seeds, draws, label="", sampled=False) -> list:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import dilatekit as dk
    from dilatekit import measures
    from dilatekit.io import dump_json, encode_dilation
    from workloads import make_cases

    fit = {}
    admm, polish = measures._admm, measures._polish

    def counted_admm(*args):
        fit["polishes"] = fit["polishes"] or 0
        for it, z in admm(*args):
            fit["iterations"] = it
            yield it, z

    def counted_polish(*args):
        fit["polishes"] += 1
        return polish(*args)

    measures._admm, measures._polish = counted_admm, counted_polish
    records = []
    for workload in workloads:
        for seed in seeds:
            for draw in draws:
                for index, case in enumerate(make_cases(workload, seed, draw)):
                    if label not in case.label:
                        continue
                    if sampled and case.kind == "boundary":
                        t, curve = case.args
                        samples = curve.sample(case.kwargs["nodes"])
                        case.args = (t, dk.BoundaryCurve.sampled(*samples, convex=True))
                    rec = {"workload": workload, "seed": seed, "draw": draw,
                           "case": index, "label": case.label}
                    fit.update(iterations=None, polishes=None)
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
                    rec.update(fit)
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
        bytes_differ, largest_move = 0, 0.0
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
            if ra is not None and rb is not None:
                largest_move = max(largest_move, abs(rb - ra))
            if (ra is None) != (rb is None) or (
                    ra is not None and abs(rb - ra) > RESIDUAL_MOVE):
                lines.append(f"  seed {k[1]} draw {k[2]} {a['label']}: "
                             f"residual {ra} -> {rb}")
        lines.append(f"  largest residual move {largest_move:.3e}")
        lines.append(f"  dilation bytes differ on {bytes_differ} of {len(keys)} calls")
        lines.extend(_iteration_lines(keys, before, after))
    return "\n".join(lines)


def _iteration_lines(keys, before, after) -> list:
    """Fit iteration sums per case label, then every call whose last
    ADMM check or polish count moved; tables without the counts read as
    not fitting."""
    sums = {}
    moved = []
    for k in keys:
        a, b = before.get(k), after.get(k)
        if a is None or b is None:
            continue
        counts = [(rec.get("iterations"), rec.get("polishes")) for rec in (a, b)]
        if counts[0] == counts[1] == (None, None):
            continue
        total = sums.setdefault(a["label"], [0, 0])
        total[0] += counts[0][0] or 0
        total[1] += counts[1][0] or 0
        if counts[0] != counts[1]:
            moved.append(f"    seed {k[1]} draw {k[2]} {a['label']}: iterations "
                         f"{counts[0][0]} -> {counts[1][0]}, polishes "
                         f"{counts[0][1]} -> {counts[1][1]}")
    lines = [f"  fit iterations {label}: {old} -> {new}"
             for label, (old, new) in sums.items()]
    if moved:
        lines.append(f"  fit counts moved on {len(moved)} calls:")
    return lines + moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="boundary,fitted")
    parser.add_argument("--seeds", default="1-6", help="e.g. 1-6 or 7")
    parser.add_argument("--draws", default="0-2", help="e.g. 0-2 or 0")
    parser.add_argument("--label", default="", metavar="SUBSTR",
                        help="only the cases whose label contains SUBSTR")
    parser.add_argument("--sampled", action="store_true",
                        help="give boundary cases their curve by its samples")
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
                  args.label, args.sampled)
    text = json.dumps(records, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark of the dilatekit pipelines.

    python3 bench/run.py --workload {boundary,fitted,circle} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else.  One caller runs one operation at a time:

    inputs -> dk.dilate_*  (including its own verification)
           -> io.encode_dilation + io.dump_json for <prefix>.dilation.json
              and <prefix>.report.json, kept in memory

Whole cycles of the workload's cases run while the next one is expected
to end within ``--seconds`` of wall time, and at least as many as leave
ten calls beyond the tail percentile.  Output checks run after each
operation, outside its time: ``result.passed``, ``result.dimensions.ok``,
re-verification after a JSON round trip, and a digest of the output
bytes that must repeat on every call of the same case and in a fresh
process with the same seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with spans around every pipeline stage, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment,
the case sizes and the tail level.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# BLAS threads are pinned before numpy is first imported, here and in
# every set-up probe (which inherits the environment).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    """Import dilatekit from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dilatekit", "__init__.py")):
        raise BenchError(f"no dilatekit sources under {SRC}")
    sys.path.insert(0, SRC)
    import dilatekit
    if not os.path.abspath(dilatekit.__file__).startswith(SRC + os.sep):
        raise BenchError(f"dilatekit imported from {dilatekit.__file__}, not {SRC}")
    return dilatekit


def _io_calls(encode, dump):
    def emit(result):
        dil = dump(encode(result.dilation)).encode()
        report = dump({
            "verification": result.verification.to_dict(),
            "dimensions": result.dimensions.to_dict(),
            "reduced_terms": result.reduced_terms,
        }).encode()
        return dil, report
    return emit


class Runner:
    """Runs and checks operations; keeps the output digest of each case.

    ``make(draw)`` returns the cycle's cases with the matrices of draw
    number ``draw``; a case is keyed by (draw, position in the cycle).
    """

    def __init__(self, make):
        from dilatekit import io
        self.make = make
        self.tracer = None
        self.digests = {}
        self.emit = _io_calls(io.encode_dilation, io.dump_json)

    def run_one(self, key, case, emit=None):
        """One timed operation and its checks; never raises for a bad output."""
        tracer = self.tracer
        emit = emit or self.emit
        if tracer:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            result = case.call()
            dil, report = emit(result)
            error = None
        except Exception as exc:  # an operation that raises is a failure, counted
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_op(seconds)
        rec = {"key": key, "label": case.label, "seconds": seconds,
               "problems": [], "space_dim": None}
        if error:
            rec["problems"].append(error)
            return rec
        if tracer:
            tracer.io_bytes += len(dil) + len(report)
        rec["space_dim"] = result.dilation.space_dim
        rec["problems"] = self.check(key, case, result, dil, report)
        return rec

    def check(self, key, case, result, dil, report):
        from dilatekit import io
        from dilatekit.verify import verify_dilation
        problems = []
        if not result.passed:
            problems.append("result.passed is false")
        if not result.dimensions.ok:
            problems.append("result.dimensions.ok is false")
        try:
            again = verify_dilation(io.decode_dilation(json.loads(dil)), result.targets,
                                    case.relations(),
                                    moment_tol=result.verification.moment_tol)
            if again.passed != result.verification.passed:
                problems.append("verdict changed after the JSON round trip")
        except Exception as exc:  # a decode failure is a failed operation
            problems.append(f"JSON round trip: {type(exc).__name__}: {exc}")
        digest = hashlib.sha256(dil + b"\0" + report).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            problems.append("output bytes differ from an earlier call of this case")
        return problems

    def cycles(self, seconds, emit=None, probes=None, at_least=1):
        """Run whole cycles, a new draw each, while one more cycle of the
        mean length so far still ends within ``seconds`` of wall time.

        At least ``at_least`` cycles run.  Stopping before a cycle that
        would overrun keeps each run within its time and every case at its
        share of the calls.  Set-up ``probes`` that fall due run between
        cycles; their time is not counted.
        """
        records = []
        start = time.perf_counter()
        paused = 0.0
        for draw in itertools.count():
            if probes:
                t0 = time.perf_counter()
                probes.run_due(t0 - start - paused, seconds)
                paused += time.perf_counter() - t0
            for i, case in enumerate(self.make(draw)):
                records.append(self.run_one((draw, i), case, emit))
            elapsed = time.perf_counter() - start - paused
            if draw + 1 >= at_least and elapsed * (draw + 2) / (draw + 1) > seconds:
                return records


def setup_probe(args):
    """Child process: time import, input generation and one warm-up call."""
    t0 = time.perf_counter()
    import_library()
    runner, cases, key = prepare(args)
    ready = time.perf_counter() - t0
    rec = runner.run_one(key, cases[key[1]])
    seconds = ready + rec["seconds"]  # the output checks are not set-up
    print(json.dumps({"setup_s": seconds, "digest": runner.digests.get(key),
                      "problems": rec["problems"]}))


def prepare(args):
    """Runner, the first draw's cases, and the key of the warm-up case."""
    from workloads import make_cases, warmup_index
    tiny = args.size == "tiny"
    runner = Runner(lambda draw: make_cases(args.workload, args.seed, draw, tiny))
    cases = runner.make(0)
    return runner, cases, (0, warmup_index(cases))


class SetupProbes:
    """Fresh-process set-up timings, one at a time, spread evenly over the
    run: the host's speed shifts within seconds, and a median of probes
    taken at several moments follows it less than a burst at the start."""

    def __init__(self, args, count):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--size", args.size]
        self.count = count
        self.results = []

    def run_one(self):
        proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr.strip())
        self.results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def run_due(self, elapsed, seconds):
        """Run the probes due ``elapsed`` seconds into a run of ``seconds``."""
        while (len(self.results) < self.count
               and len(self.results) * seconds <= elapsed * self.count):
            self.run_one()

    def finish(self):
        self.run_due(1.0, 1.0)
        return self.results


def nearest_rank(values, level):
    ordered = sorted(values)
    rank = max(1, math.ceil(level * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_cycles(level, cycle_len, beyond=10):
    """Fewest whole cycles that leave ``beyond`` calls past the tail level."""
    for cycles in itertools.count(1):
        calls = cycles * cycle_len
        if calls - max(1, math.ceil(level * calls)) >= beyond:
            return cycles


def environment(args, cases, dk):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        blas_name = blas_version = "unknown"
    from workloads import inputs_digest
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dilatekit": dk.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed, one caller",
        "inputs_digest": inputs_digest(cases),
        "cases": [dict(c.sizes, pipeline=c.kind) for c in cases],
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(records, workload, probes):
    from workloads import TAIL_LEVEL
    ok = [r for r in records if not r["problems"]]
    times = [r["seconds"] for r in ok] or [r["seconds"] for r in records]
    level = TAIL_LEVEL[workload]
    tail, beyond = nearest_rank(times, level)
    note = "" if beyond >= 10 else " (fewer than ten beyond)"
    print(f"tail: p{level * 100:g} over {len(times)} calls, {beyond} beyond{note}")
    print("setup probes (s): " + json.dumps([round(p["setup_s"], 4) for p in probes]))
    dims = [r["space_dim"] for r in ok]
    return {
        "ops_per_s": (ops_per_s(records), "1/s"),
        "call_s_p50": (statistics.median(times), "s"),
        "call_s_tail": (tail, "s"),
        "verified_ratio": (len(ok) / len(records), "ratio"),
        "space_dim_mean": (statistics.fmean(dims) if dims else 0.0, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
    }


def ops_per_s(records):
    return sum(1 for r in records if not r["problems"]) / sum(r["seconds"] for r in records)


def traced(runner, seconds, probes):
    """Half the time untraced, half traced; per-layer metrics."""
    from spans import IO_LAYER, CoverageError, Tracer
    from dilatekit import io
    plain = runner.cycles(seconds / 2.0, probes=probes)
    probes.finish()
    tracer = Tracer()
    runner.tracer = tracer
    emit = _io_calls(tracer.wrap(IO_LAYER, "encode_dilation", io.encode_dilation),
                     tracer.wrap(IO_LAYER, "dump_json", io.dump_json))
    try:
        with tracer.installed():
            spanned = runner.cycles(seconds / 2.0, emit)
        tracer.check_accounted()
    except CoverageError as exc:
        raise BenchError(f"trace coverage: {exc}") from exc
    runner.tracer = None
    calls = [[n, round(s, 6), float(f"{d:.3g}")] for n, s, d in tracer.reduce_calls]
    print("reduce calls (terms_in, seconds, barycenter drift): " + json.dumps(calls))
    metrics = tracer.metrics()
    traced_rate, plain_rate = ops_per_s(spanned), ops_per_s(plain)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")
    return plain + spanned, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("boundary", "fitted", "circle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small cases for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        probes = SetupProbes(args, 2 if args.size == "tiny" else SETUP_PROBES)
        dk = import_library()
        runner, cases, warm = prepare(args)
        runner.run_one(warm, cases[warm[1]])
        print("env: " + json.dumps(environment(args, cases, dk)))
        if args.trace:
            records, metrics = traced(runner, args.seconds, probes)
        else:
            from workloads import TAIL_LEVEL
            # the smoke test's tiny runs take one cycle
            at_least = (1 if args.size == "tiny"
                        else tail_cycles(TAIL_LEVEL[args.workload], len(cases)))
            records = runner.cycles(args.seconds, probes=probes, at_least=at_least)
            metrics = end_to_end(records, args.workload, probes.finish())
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    # bytes must match a fresh process with the same seed
    for probe in probes.results:
        if probe["problems"] or probe["digest"] != runner.digests.get(warm):
            first = next(r for r in records if r["key"] == warm)
            first["problems"].append("output bytes differ from a fresh process")
    failed = [r for r in records if r["problems"]]
    for r in failed[:10]:
        print(f"failed: draw {r['key'][0]} {r['label']}: {'; '.join(r['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

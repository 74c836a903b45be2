"""Command line front end: one subcommand per pipeline, files in, files out.

Exit codes: 0 success; 2 the data admits no dilation as posed (not PSD,
infeasible fit, numerical range not contained, and similar mathematical
refusals); 3 malformed input or usage; 4 the construction finished but
verification failed.

``--output`` is a path prefix for the dilation subcommands (they write
<prefix>.dilation.json and <prefix>.report.json) and a plain file path
for ``reduce`` and ``numrange``.  The environment variable
DILATEKIT_TOL_OVERRIDE may hold a JSON object of Tolerances fields; it
overrides defaults and is itself overridden by explicit flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .boundary import BoundaryCurve, numerical_range
from .convex import caratheodory_reduce
from .errors import DilatekitError, MalformedInputError, ResolventSingularError
from .io import (
    decode_combination,
    decode_curve,
    decode_dilation,
    decode_operators,
    decode_relations,
    decode_table,
    dump_json,
    encode_combination,
    encode_dilation,
    range_report_csv,
    read_json,
    write_json,
)
from .linalg import DEFAULT_TOL, Tolerances
from .pipelines import (
    dilate_annulus,
    dilate_boundary,
    dilate_circle,
    dilate_qcommute,
    dilate_regular,
)
from .verify import verify_dilation

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; we need that code for
    infeasibility, so usage errors raise and exit 3 instead."""

    def error(self, message):
        raise MalformedInputError(message)


def _above(low, kind=int):
    """An argparse type: a ``kind`` strictly greater than ``low``."""
    def parse(text):
        value = kind(text)
        if not value > low:
            raise argparse.ArgumentTypeError(f"{text!r} is not above {low}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="dilatekit",
                     description="explicit finite-dimensional dilations "
                                 "from finite moment data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output_required=True, residual=True, seed=False):
        p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", required=output_required,
                       help="output path (prefix for dilation commands)")
        if residual:
            p.add_argument("--tol-residual", type=float, default=None,
                           dest="tol_residual", help="override residual_tol")
        if seed:
            p.add_argument("--seed", type=_above(-1), default=0,
                           help="seed for fit initialization")

    p = sub.add_parser("dilate-circle", help="unitary rho-dilation via GNS")
    common(p)
    p.add_argument("--order", type=_above(0), required=True,
                   help="moment order N")
    p.add_argument("--rho", type=_above(0.0, float), default=1.0)

    p = sub.add_parser("dilate-regular",
                       help="commuting unitaries from regular moments")
    common(p, seed=True)
    p.add_argument("--order", type=_above(0), required=True)
    p.add_argument("--nodes", type=_above(0), default=12,
                   help="torus lattice nodes per axis")

    p = sub.add_parser("dilate-boundary",
                       help="normal dilation on a convex boundary curve")
    common(p)
    p.add_argument("--order", type=_above(0), default=4)
    p.add_argument("--nodes", type=_above(0), default=256)
    p.add_argument("--curve", required=True,
                   help="disc | ellipse:a,b | annulus:r | @file.json")

    p = sub.add_parser("dilate-annulus",
                       help="normal dilation on both annulus circles")
    common(p, seed=True)
    p.add_argument("--order", type=_above(0), default=3)
    p.add_argument("--nodes", type=_above(0), default=64)
    p.add_argument("--curve", required=True, help="annulus:r")

    p = sub.add_parser("dilate-qcommute",
                       help="q-commuting unitary pair, q = exp(2 pi i a/b)")
    common(p, seed=True)
    p.add_argument("--order", type=_above(0), default=1)
    p.add_argument("--nodes", type=_above(0), default=8,
                   help="phase lattice nodes per axis")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=_above(0), required=True)

    p = sub.add_parser("reduce",
                       help="Caratheodory-reduce a matrix convex combination")
    common(p, residual=False)

    p = sub.add_parser("numrange", help="numerical range sweep to CSV")
    common(p, output_required=False, residual=False)
    p.add_argument("--nodes", type=_above(2), default=256, help="sweep angles")

    p = sub.add_parser("verify",
                       help="re-verify a dilation against a moment table")
    common(p, output_required=False)

    return parser


def _resolve_tol(args) -> Tolerances:
    values = {}
    env = os.environ.get("DILATEKIT_TOL_OVERRIDE")
    if env:
        try:
            overrides = json.loads(env)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(
                f"DILATEKIT_TOL_OVERRIDE is not valid JSON: {exc}"
            ) from exc
        if not isinstance(overrides, dict):
            raise MalformedInputError("DILATEKIT_TOL_OVERRIDE must be an object")
        for name, v in overrides.items():
            try:
                values[name] = float(v)
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedInputError(
                    f"DILATEKIT_TOL_OVERRIDE field {name!r}: {exc}"
                ) from exc
    if getattr(args, "tol_residual", None) is not None:
        values["residual_tol"] = args.tol_residual
    # unknown fields raise TypeError, out-of-range values ValueError
    try:
        return DEFAULT_TOL.replace(**values)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad tolerance: {exc}") from exc


def _parse_curve(spec: str) -> BoundaryCurve:
    if spec.startswith("@"):
        return decode_curve(read_json(spec[1:]))
    name, _, rest = spec.partition(":")
    try:
        if name == "disc":
            return BoundaryCurve.disc(float(rest) if rest else 1.0)
        if name == "ellipse":
            a, b = (float(x) for x in rest.split(","))
            return BoundaryCurve.ellipse(a, b)
        if name == "annulus":
            return BoundaryCurve.annulus(float(rest))
    except MalformedInputError:
        raise
    except Exception as exc:
        raise MalformedInputError(f"bad curve spec {spec!r}: {exc}") from exc
    raise MalformedInputError(f"unknown curve spec {spec!r}")


def _one_operator(args):
    ops = decode_operators(read_json(args.input))
    if len(ops) != 1:
        raise MalformedInputError("this command takes exactly one input matrix")
    return ops[0]


def _emit_dilation(args, result) -> int:
    report = {
        "verification": result.verification.to_dict(),
        "dimensions": result.dimensions.to_dict(),
        "reduced_terms": result.reduced_terms,
    }
    write_json(args.output + ".dilation.json", encode_dilation(result.dilation))
    write_json(args.output + ".report.json", report)
    print(f"K={result.dilation.space_dim} "
          f"bound={result.dimensions.bound} "
          f"max_residual={result.verification.max_moment_residual:.17g} "
          f"passed={result.passed}")
    return 0 if result.passed else 4


def _run(args) -> int:
    tol = _resolve_tol(args)
    cmd = args.command
    if cmd == "dilate-circle":
        result = dilate_circle(_one_operator(args), order=args.order,
                               rho=args.rho, tol=tol)
        return _emit_dilation(args, result)
    if cmd == "dilate-regular":
        ops = decode_operators(read_json(args.input))
        result = dilate_regular(ops, order=args.order, nodes=args.nodes,
                                tol=tol, seed=args.seed)
        return _emit_dilation(args, result)
    if cmd == "dilate-boundary":
        curve = _parse_curve(args.curve)
        result = dilate_boundary(_one_operator(args), curve, order=args.order,
                                 nodes=args.nodes, tol=tol)
        return _emit_dilation(args, result)
    if cmd == "dilate-annulus":
        curve = _parse_curve(args.curve)
        if curve.kind != "annulus":
            raise MalformedInputError("dilate-annulus needs --curve annulus:r")
        result = dilate_annulus(_one_operator(args), curve.params["r"],
                                order=args.order, nodes=args.nodes, tol=tol,
                                seed=args.seed)
        return _emit_dilation(args, result)
    if cmd == "dilate-qcommute":
        ops = decode_operators(read_json(args.input))
        if len(ops) != 2:
            raise MalformedInputError("dilate-qcommute takes two input matrices")
        result = dilate_qcommute(ops[0], ops[1], a=args.a, b=args.b,
                                 order=args.order, nodes=args.nodes, tol=tol,
                                 seed=args.seed)
        return _emit_dilation(args, result)
    if cmd == "reduce":
        comb = decode_combination(read_json(args.input))
        reduced = caratheodory_reduce(comb, tol)
        write_json(args.output, encode_combination(reduced))
        print(f"terms={len(reduced.terms)}")
        return 0
    if cmd == "numrange":
        report = numerical_range(_one_operator(args), angles=args.nodes)
        csv = range_report_csv(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(csv)
        else:
            sys.stdout.write(csv)
        return 0
    if cmd == "verify":
        bundle = read_json(args.input)
        if not isinstance(bundle, dict):
            raise MalformedInputError("verify input must be a JSON object")
        if "dilation" not in bundle or "targets" not in bundle:
            raise MalformedInputError(
                "verify input needs 'dilation' and 'targets' fields"
            )
        dil = decode_dilation(bundle["dilation"])
        targets = decode_table(bundle["targets"])
        relations = decode_relations(bundle.get("relations"))
        if dil.v.shape[1] != targets.dim:
            raise MalformedInputError(
                f"dilation v has {dil.v.shape[1]} columns but the table "
                f"has dim {targets.dim}")
        if len(dil.generators) != targets.nu:
            raise MalformedInputError(
                f"dilation has {len(dil.generators)} generators but the "
                f"table has nu {targets.nu}")
        if any(max(i, j) >= len(dil.generators)
               for i, j, _ in relations.scale_pairs):
            raise MalformedInputError(
                "relations: scale pair index beyond the dilation's "
                f"{len(dil.generators)} generators")
        if relations.rule != targets.index_rule:
            raise MalformedInputError(f"relations: rule {relations.rule!r} is not "
                                      f"the table's index_rule {targets.index_rule!r}")
        try:
            report = verify_dilation(dil, targets, relations, tol)
        except ResolventSingularError as exc:
            raise MalformedInputError(f"relations: {exc}") from exc
        out = dump_json(report.to_dict())
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return 0 if report.passed else 4
    raise MalformedInputError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DilatekitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""JSON and CSV serialization for every public artifact.

All floating point output is written with 17 significant digits so that
parsing it back reproduces the exact double; identical inputs therefore
produce byte-identical files.  Decoders raise MalformedInput on anything
structurally wrong, which the CLI maps to its own exit code.

Wire formats:

    complex   [re, im]
    CMatrix   {"rows": r, "cols": c, "data": [[re, im], ...]}  (row-major)
    table     {"dim", "nu", "symmetric", "index_rule", "entries":
               [{"index": [n...], "value": CMatrix}, ...]}
    measure   {"dim", "kind", "index_rule", "defect", "fit_residual",
               "atoms": [...]}
    dilation  {"v": CMatrix, "generators": [CMatrix...], "space_dim",
               "provenance"}; a "residuals" key, which files written by
               earlier versions carry, is ignored on decoding
    curve     {"kind", "params"} or {"kind": "sampled", "params",
               "samples": [[theta, [re, im], [re, im]], ...]}
    combination
              {"n", "terms": [{"beta": CMatrix k x n, "point": {"coords":
               [CMatrix k x k, ...], "selfadjoint", "label"}}, ...]}
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .boundary import BoundaryCurve, RangeReport
from .convex import MatrixConvexCombination, MatrixPoint
from .errors import MalformedInputError
from .measures import AtomicMeasure, Atoms
from .moments import Dilation, MomentTable
from .verify import Relations

__all__ = [
    "dump_json",
    "write_json",
    "read_json",
    "encode_matrix",
    "decode_matrix",
    "encode_table",
    "decode_table",
    "encode_measure",
    "decode_measure",
    "encode_dilation",
    "decode_dilation",
    "encode_curve",
    "decode_curve",
    "encode_combination",
    "decode_combination",
    "decode_relations",
    "decode_operators",
    "range_report_csv",
]


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise MalformedInputError(f"non-finite number {x!r} cannot be serialized")
    return f"{float(x):.17g}"


def dump_json(obj) -> str:
    """Serialize with 17-significant-digit floats, dicts in insertion order."""
    return _dump(obj) + "\n"


def _dump(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if (isinstance(obj, np.ndarray) and obj.dtype == np.float64
            and obj.ndim == 2 and obj.shape[1] == 2):
        return _format_pairs(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise MalformedInputError(f"JSON object keys must be strings, got {k!r}")
            items.append(json.dumps(k) + ": " + _dump(v))
        return "{" + ", ".join(items) + "}"
    raise MalformedInputError(f"cannot serialize object of type {type(obj).__name__}")


def _format_pairs(a: np.ndarray) -> str:
    """An (n, 2) float64 array of [re, im] pairs, byte for byte as _dump
    writes the pairs number by number.  A pair whose two bit patterns are
    zero is written "[0, 0]" unformatted; every other pair goes through one
    formatting call, so -0.0 is still written "-0"."""
    finite = np.isfinite(a)
    if not finite.all():  # raise at the first non-finite entry
        _fmt(float(a.reshape(-1)[np.argmin(finite)]))
    bits = a.view(np.uint64)
    nonzero = np.flatnonzero(bits[:, 0] | bits[:, 1])
    edges = [-1, *nonzero.tolist(), len(a)]
    # the runs of zero pairs before, between and after the nonzero pairs
    zeros = ["[0, 0], " * (j - i - 1) for i, j in zip(edges, edges[1:])]
    template = "[%.17g, %.17g], ".join(zeros)
    return "[" + template[:-2] % tuple(a[nonzero].ravel().tolist()) + "]"


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj))


def _parse_int(text: str):
    """JSON integers as int, except "-0", which dump_json writes for the
    float -0.0 and which reads back as -0.0, sign bit and all."""
    return -0.0 if text == "-0" else int(text)


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def _want(obj, key, kinds, where):
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInputError(f"{where}: missing field {key!r}")
    v = obj[key]
    # JSON true and false are never a count: bool is an int subclass
    if kinds is not None and (not isinstance(v, kinds) or isinstance(v, bool)):
        raise MalformedInputError(
            f"{where}: field {key!r} has type {type(v).__name__}"
        )
    return v


def _decode_complex(v, where) -> complex:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in v)):
        raise MalformedInputError(f"{where}: complex values are [re, im] pairs")
    try:
        z = complex(float(v[0]), float(v[1]))
    except OverflowError:  # an integer beyond the double range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MalformedInputError(f"{where}: non-finite complex entry")
    return z


def encode_matrix(m) -> dict:
    """``data`` is the (rows*cols, 2) float64 [re, im] view of a row-major
    copy of ``m``, so that it cannot alias the matrix."""
    m = np.array(m, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise MalformedInputError("only 2-d matrices are serialized")
    data = m.view(np.float64).reshape(-1, 2)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    rows = _want(obj, "rows", int, where)
    cols = _want(obj, "cols", int, where)
    data = _want(obj, "data", (list, np.ndarray), where)
    if isinstance(data, np.ndarray):  # encode_matrix's array, not yet written
        data = np.atleast_1d(data).tolist()
    if rows < 1 or cols < 1 or len(data) != rows * cols:
        raise MalformedInputError(
            f"{where}: data length {len(data)} does not match {rows}x{cols}"
        )
    pairs = _float_pairs(data)
    if pairs is None:  # name the first bad entry, as one entry at a time
        pairs = np.array([_decode_complex(v, where) for v in data], dtype=np.complex128)
    elif not np.isfinite(pairs).all():
        raise MalformedInputError(f"{where}: non-finite complex entry")
    return pairs.reshape(rows, cols)


def _float_pairs(data):
    """The [re, im] pairs of data as one complex128 array when every entry
    is a pair of Python ints and floats, else None.  The conversion is
    float() of each number, as in _decode_complex; an integer beyond the
    double range gives None."""
    try:
        if set(map(len, data)) != {2}:
            return None
        flat = list(itertools.chain.from_iterable(data))
        if not set(map(type, flat)) <= {int, float}:
            return None
        return np.array(flat, dtype=np.float64).view(np.complex128)
    except (TypeError, OverflowError):  # an unsized entry; an integer too large
        return None


def encode_table(table: MomentTable) -> dict:
    return {
        "dim": table.dim,
        "nu": table.nu,
        "symmetric": table.symmetric,
        "index_rule": table.index_rule,
        "entries": [
            {"index": list(idx), "value": encode_matrix(table.value(idx))}
            for idx in table.indices()
        ],
    }


def decode_table(obj) -> MomentTable:
    dim = _want(obj, "dim", int, "table")
    nu = _want(obj, "nu", int, "table")
    symmetric = bool(obj.get("symmetric", True))
    rule = obj.get("index_rule", "laurent")
    if rule not in ("laurent", "ordered"):
        raise MalformedInputError(f"table: unknown index_rule {rule!r}")
    entries = _want(obj, "entries", list, "table")
    values = {}
    for e in entries:
        idx = _want(e, "index", list, "table entry")
        if len(idx) != nu or not all(type(i) is int for i in idx):
            raise MalformedInputError(f"table entry: bad index {idx!r}")
        values[tuple(idx)] = decode_matrix(_want(e, "value", dict, "table entry"))
    try:
        return MomentTable(dim=dim, nu=nu, values=values, symmetric=symmetric,
                           index_rule=rule)
    except Exception as exc:
        raise MalformedInputError(f"inconsistent moment table: {exc}") from exc


def encode_measure(mu: AtomicMeasure) -> dict:
    """Atoms with 1 x 1 images and no relation are written as points, the
    others as irreps, each irrep weight transposed into the Choi block on
    C^b (x) C^d that the format holds."""
    atoms = mu.atoms
    point = atoms.rep_dim == 1 and not atoms.scale_pairs
    out = []
    for images, weight in zip(atoms.images, mu._weights()):
        if point:
            out.append({
                "kind": "point",
                "point": [[float(np.real(z)), float(np.imag(z))] for z in images[:, 0, 0]],
                "weight": encode_matrix(weight),
            })
        else:
            out.append({
                "kind": "irrep",
                "generators": [encode_matrix(g) for g in images],
                "weight": encode_matrix(weight.T),
                "scale_pairs": [
                    [int(i), int(j), [float(np.real(q)), float(np.imag(q))]]
                    for (i, j, q) in atoms.scale_pairs
                ],
            })
    return {
        "dim": mu.dim,
        "kind": "point" if point else "irrep",
        "index_rule": mu.index_rule,
        "defect": float(mu.defect),
        "fit_residual": None if mu.fit_residual is None else float(mu.fit_residual),
        "atoms": out,
    }


def decode_measure(obj) -> AtomicMeasure:
    """The measure's atoms as one stack: they must share a kind, a
    generator count, an image size and a relation, and each weight must be
    (b dim) x (b dim)."""
    dim = _want(obj, "dim", int, "measure")
    atoms_obj = _want(obj, "atoms", list, "measure")
    if not atoms_obj:
        raise MalformedInputError("measure: no atoms")
    kinds, images, weights, relations = set(), [], [], []
    for a in atoms_obj:
        kind = _want(a, "kind", str, "atom")
        weight = decode_matrix(_want(a, "weight", dict, "atom"), "atom weight")
        if kind == "point":
            pt = [_decode_complex(z, "atom point")
                  for z in _want(a, "point", list, "atom")]
            gens, pairs = np.reshape(np.array(pt, dtype=np.complex128), (-1, 1, 1)), []
        elif kind == "irrep":
            gens = [decode_matrix(g, "irrep generator")
                    for g in _want(a, "generators", list, "atom")]
            pairs = _decode_scale_pairs(a.get("scale_pairs", []), "atom")
            if any(max(i, j) >= len(gens) for i, j, _ in pairs):
                raise MalformedInputError(
                    f"atom: scale pair index beyond its {len(gens)} generators")
            weight = weight.T
        else:
            raise MalformedInputError(f"unknown atom kind {kind!r}")
        kinds.add(kind)
        images.append(gens)
        weights.append(weight)
        relations.append(pairs)
    if len(kinds) > 1:
        raise MalformedInputError("measure: atoms of more than one kind")
    if len({len(gens) for gens in images}) > 1:
        raise MalformedInputError("measure: atoms with different generator counts")
    sizes = {g.shape for gens in images for g in gens}
    if len(sizes) > 1 or any(r != c for r, c in sizes):
        raise MalformedInputError("measure: generator images of more than one size")
    if any(pairs != relations[0] for pairs in relations):
        raise MalformedInputError("measure: atoms with different relations")
    m = dim * next(iter(sizes), (1,))[0]
    for j, w in enumerate(weights):
        if w.shape != (m, m):
            raise MalformedInputError(
                f"measure: atom {j} weight is {w.shape[0]}x{w.shape[1]}, not {m}x{m}")
    fit_residual = obj.get("fit_residual")
    try:
        return AtomicMeasure(
            dim=dim, atoms=Atoms(images, weights, relations[0]),
            defect=float(obj.get("defect", 0.0)),
            fit_residual=None if fit_residual is None else float(fit_residual),
            index_rule=obj.get("index_rule", "laurent"),
        )
    except Exception as exc:
        raise MalformedInputError(f"inconsistent measure: {exc}") from exc


def encode_dilation(dil: Dilation) -> dict:
    return {
        "v": encode_matrix(dil.v),
        "generators": [encode_matrix(g) for g in dil.generators],
        "space_dim": dil.space_dim,
        "provenance": dil.provenance,
    }


def decode_dilation(obj) -> Dilation:
    v = decode_matrix(_want(obj, "v", dict, "dilation"), "dilation v")
    gens = [decode_matrix(g, "dilation generator")
            for g in _want(obj, "generators", list, "dilation")]
    space = _want(obj, "space_dim", int, "dilation")
    if not gens or any(g.shape != (space, space) for g in gens):
        raise MalformedInputError("dilation generators must be space_dim square")
    if v.shape[0] != space:
        raise MalformedInputError("dilation embedding height must equal space_dim")
    return Dilation(v=v, generators=gens, space_dim=space,
                    provenance=str(obj.get("provenance", "unknown")))


def encode_curve(curve: BoundaryCurve) -> dict:
    out = {"kind": curve.kind, "params": dict(curve.params)}
    if curve.kind == "sampled":
        thetas, points, derivs = curve.samples
        out["samples"] = [
            [float(th), [float(p.real), float(p.imag)],
             [float(dp.real), float(dp.imag)]]
            for th, p, dp in zip(thetas, points, derivs)
        ]
    return out


def decode_curve(obj) -> BoundaryCurve:
    kind = _want(obj, "kind", str, "curve")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise MalformedInputError("curve params must be an object")
    try:
        if kind == "disc":
            return BoundaryCurve.disc(float(params.get("radius", 1.0)))
        if kind == "ellipse":
            return BoundaryCurve.ellipse(float(params["a"]), float(params["b"]))
        if kind == "annulus":
            return BoundaryCurve.annulus(float(params["r"]))
        if kind == "sampled":
            samples = _want(obj, "samples", list, "curve")
            thetas, points, derivs = [], [], []
            for s in samples:
                if not isinstance(s, list) or len(s) != 3:
                    raise MalformedInputError(
                        "curve samples are [theta, point, derivative] triples"
                    )
                thetas.append(float(s[0]))
                points.append(_decode_complex(s[1], "curve sample"))
                derivs.append(_decode_complex(s[2], "curve sample"))
            return BoundaryCurve.sampled(thetas, points, derivs,
                                         convex=bool(params.get("convex", False)))
    except MalformedInputError:
        raise
    except Exception as exc:
        raise MalformedInputError(f"bad curve: {exc}") from exc
    raise MalformedInputError(f"unknown curve kind {kind!r}")


def encode_combination(comb: MatrixConvexCombination) -> dict:
    terms = []
    for beta, point in comb.terms:
        terms.append({
            "beta": encode_matrix(beta),
            "point": {
                "coords": [encode_matrix(c) for c in point.coords],
                "selfadjoint": point.selfadjoint,
                "label": point.label,
            },
        })
    return {"n": comb.n, "terms": terms}


def decode_combination(obj) -> MatrixConvexCombination:
    n = _want(obj, "n", int, "combination")
    terms_obj = _want(obj, "terms", list, "combination")
    terms = []
    for t in terms_obj:
        beta = decode_matrix(_want(t, "beta", dict, "term"), "term beta")
        p = _want(t, "point", dict, "term")
        coords = [decode_matrix(c, "point coordinate")
                  for c in _want(p, "coords", list, "point")]
        try:
            point = MatrixPoint(coords=coords,
                                selfadjoint=bool(p.get("selfadjoint", False)),
                                label=p.get("label"))
        except Exception as exc:
            raise MalformedInputError(f"bad matrix point: {exc}") from exc
        terms.append((beta, point))
    try:
        return MatrixConvexCombination(n=n, terms=terms)
    except Exception as exc:
        raise MalformedInputError(f"inconsistent combination: {exc}") from exc


def _decode_scale_pairs(obj, where) -> list:
    """Exchange relations [i, j, q]: generator positions i, j and complex q."""
    if not isinstance(obj, list):
        raise MalformedInputError(f"{where}: scale_pairs must be a list")
    pairs = []
    for p in obj:
        if (not isinstance(p, list) or len(p) != 3
                or not all(type(i) is int and i >= 0 for i in p[:2])):
            raise MalformedInputError(
                f"{where}: scale pairs are [i, j, q] with generator "
                f"positions i, j >= 0, got {p!r}")
        pairs.append((p[0], p[1], _decode_complex(p[2], f"{where} scale pair")))
    return pairs


def decode_relations(obj) -> Relations:
    """Relations declaration from JSON; all fields optional."""
    if obj is None:
        return Relations()
    if not isinstance(obj, dict):
        raise MalformedInputError("relations must be an object")
    pairs = _decode_scale_pairs(obj.get("scale_pairs", []), "relations")
    rule = obj.get("rule", "laurent")
    negatives = obj.get("negatives", "adjoint")
    if rule not in ("laurent", "ordered") or negatives not in ("adjoint", "inverse"):
        raise MalformedInputError("relations: unknown rule or negatives mode")
    return Relations(rule=rule, unitary=bool(obj.get("unitary", True)),
                     negatives=negatives, scale_pairs=pairs)


def decode_operators(obj) -> list:
    """Operator input: {"matrices": [CMatrix...]} or {"matrix": CMatrix}.

    Operators are square and share one size.
    """
    if isinstance(obj, dict) and "matrix" in obj:
        mats = [decode_matrix(obj["matrix"], "input matrix")]
    else:
        items = _want(obj, "matrices", list, "input")
        if not items:
            raise MalformedInputError("input: empty matrix list")
        mats = [decode_matrix(m, "input matrix") for m in items]
    rows = mats[0].shape[0]
    if any(m.shape != (rows, rows) for m in mats):
        shapes = ", ".join(f"{m.shape[0]}x{m.shape[1]}" for m in mats)
        raise MalformedInputError(
            f"input: operators must be square and of one size, got {shapes}")
    return mats


def range_report_csv(report: RangeReport) -> str:
    lines = ["theta,h,re,im"]
    for th, h, z in zip(report.thetas, report.support, report.points):
        lines.append(",".join([_fmt(float(th)), _fmt(float(h)),
                               _fmt(float(z.real)), _fmt(float(z.imag))]))
    return "\n".join(lines) + "\n"

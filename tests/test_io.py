import json
import math

import numpy as np
import pytest

import dilatekit as dk
from dilatekit import MalformedInputError
from dilatekit.io import (
    decode_combination,
    decode_curve,
    decode_dilation,
    decode_matrix,
    decode_measure,
    decode_operators,
    decode_relations,
    decode_table,
    dump_json,
    encode_combination,
    encode_curve,
    encode_dilation,
    encode_matrix,
    encode_measure,
    encode_table,
    range_report_csv,
    read_json,
    write_json,
)

from conftest import complex_gaussian, random_combination, random_contraction, random_psd


def test_dump_json_17_digits_roundtrip():
    s = dump_json({"x": 1.0 / 3.0, "n": 7, "t": "hi", "b": True, "z": None})
    assert "0.33333333333333331" in s
    assert json.loads(s)["x"] == 1.0 / 3.0


def test_dump_json_deterministic_and_ordered():
    obj = {"b": [1.5, 2.5], "a": {"y": 1e-17, "x": -0.0}}
    assert dump_json(obj) == dump_json(obj)
    # insertion order is preserved, not sorted away
    assert dump_json(obj).index('"b"') < dump_json(obj).index('"a"')


def test_dump_json_rejects_non_finite():
    with pytest.raises(MalformedInputError):
        dump_json({"x": float("nan")})
    with pytest.raises(MalformedInputError):
        dump_json([float("inf")])


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(127)
    m = complex_gaussian(rng, (3, 4))
    back = decode_matrix(json.loads(dump_json(encode_matrix(m))))
    assert back.shape == m.shape
    assert np.array_equal(back, m)  # 17 digits roundtrip doubles exactly


def test_table_roundtrip():
    rng = np.random.default_rng(131)
    t = complex_gaussian(rng, (2, 2)) * 0.3
    for table in (dk.circle_moments(t, 2.0, 2),
                  dk.laurent_moments(t + np.eye(2), 1),
                  dk.qcommuting_moments(np.diag([1.0, -1.0]),
                                        np.array([[0.0, 1.0], [0.0, 0.0]]),
                                        1)):
        back = decode_table(json.loads(dump_json(encode_table(table))))
        assert back.dim == table.dim and back.nu == table.nu
        assert back.symmetric == table.symmetric
        assert back.index_rule == table.index_rule
        assert back.indices() == table.indices()
        for idx in table.indices():
            assert np.array_equal(back.value(idx), table.value(idx))


def test_measure_roundtrip_both_kinds():
    rng = np.random.default_rng(137)
    point_mu = dk.AtomicMeasure(dim=2, atoms=dk.Atoms.from_points(
        [[1j], [-1.0]], [random_psd(rng, 2), random_psd(rng, 2)]),
        defect=1e-4, fit_residual=1e-9)
    irrep = dk.clock_shift_irrep(1, 2).with_weights([random_psd(rng, 4)])
    irrep_mu = dk.AtomicMeasure(dim=2, atoms=irrep, index_rule="ordered")
    for mu in (point_mu, irrep_mu):
        back = decode_measure(json.loads(dump_json(encode_measure(mu))))
        assert back.dim == mu.dim and back.index_rule == mu.index_rule
        assert np.array_equal(back.atoms.images, mu.atoms.images)
        assert len(back.atoms) == len(mu.atoms)
        for a, b in zip(mu.atoms.weights, back.atoms.weights):
            assert np.array_equal(a, b)
        assert back.atoms.scale_pairs == mu.atoms.scale_pairs
        assert back.defect == mu.defect
        assert back.fit_residual == mu.fit_residual


def _wire_measures():
    """A point measure and a clock-shift measure with exact weights; the
    clock-shift weights are not symmetric, so their orientation shows."""
    w1 = np.array([[0.5, 0.25j], [-0.25j, 0.375]])
    w2 = np.array([[0.5, -0.25j], [0.25j, 0.625]])
    point_mu = dk.AtomicMeasure(dim=2, atoms=dk.Atoms.from_points([[1j], [-1.0]], [w1, w2]),
                                defect=1e-4, fit_residual=1e-9)
    g = np.eye(4, dtype=complex) / 4.0
    g[0, 3], g[3, 0] = 0.125j, -0.125j
    g[1, 2], g[2, 1] = 0.0625 + 0.125j, 0.0625 - 0.125j
    first, second = dk.clock_shift_irrep(1, 2), dk.clock_shift_irrep(1, 2, (0.5 * np.pi, 0.0))
    # the format holds the Choi block on C^b (x) C^d: the transpose of G
    atoms = dk.Atoms(np.concatenate([first.images, second.images]),
                     [(s * g).T for s in (1.0, 0.5)], first.scale_pairs)
    return point_mu, dk.AtomicMeasure(dim=2, atoms=atoms, index_rule="ordered")


def test_measure_wire_format_is_pinned():
    """encode_measure writes the bytes it wrote when points and irreps were
    two atom classes: per-atom kinds, points, generators, relations and
    the Choi orientation of irrep weights."""
    import hashlib

    digests = ["6b5351dd620de4b703592c527c82adea0ad743d1a8704533e56bf6240bbed161",
               "844d9a6c7e6d22356a0eca15f45294db66623183f5a5d25e26840ea314735558"]
    for mu, digest in zip(_wire_measures(), digests):
        text = dump_json(encode_measure(mu))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        back = decode_measure(json.loads(text))
        assert np.array_equal(back.atoms.images, mu.atoms.images)
        assert np.array_equal(back.atoms.weights, mu.atoms.weights)
        assert back.atoms.scale_pairs == mu.atoms.scale_pairs


def test_decode_measure_refuses_atoms_that_do_not_stack():
    """A measure is read as one stack of atoms: atoms of two kinds, image
    sizes, generator counts or relations, or a weight of the wrong size,
    are refused as malformed when read."""
    point_mu, clock_mu = _wire_measures()
    points, clocks = encode_measure(point_mu), encode_measure(clock_mu)

    def refused(obj, match):
        with pytest.raises(MalformedInputError, match=match):
            decode_measure(obj)

    mixed = json.loads(dump_json(points))
    mixed["atoms"][1] = clocks["atoms"][1]
    refused(mixed, "more than one kind")
    wide = json.loads(dump_json(points))
    wide["atoms"][1]["point"].append([0.5, 0.0])
    refused(wide, "different generator counts")
    three = json.loads(dump_json(clocks))
    three["atoms"][1]["generators"].append(encode_matrix(np.eye(2)))
    three["atoms"][1]["scale_pairs"] = three["atoms"][0]["scale_pairs"]
    refused(json.loads(dump_json(three)), "different generator counts")
    big = json.loads(dump_json(encode_measure(dk.AtomicMeasure(
        dim=2, atoms=dk.clock_shift_irrep(1, 3).with_weights([np.eye(6) / 3.0]),
        index_rule="ordered"))))
    sizes = json.loads(dump_json(clocks))
    sizes["atoms"][1] = big["atoms"][0]
    refused(sizes, "more than one size")
    square = json.loads(dump_json(clocks))
    square["atoms"][1]["generators"][1] = encode_matrix(np.ones((2, 3)))
    refused(json.loads(dump_json(square)), "more than one size")
    relation = json.loads(dump_json(clocks))
    relation["atoms"][1]["scale_pairs"] = []
    refused(relation, "different relations")
    for obj, size in ((points, 3), (clocks, 2)):
        bad = json.loads(dump_json(obj))
        bad["atoms"][1]["weight"] = json.loads(dump_json(encode_matrix(np.eye(size))))
        refused(bad, f"atom 1 weight is {size}x{size}, not")
    refused({"dim": 2, "atoms": []}, "no atoms")


def test_dilation_roundtrip():
    res = dk.dilate_circle(np.array([[0.4]]), order=2)
    dil = res.dilation
    for back in (decode_dilation(json.loads(dump_json(encode_dilation(dil)))),
                 decode_dilation(encode_dilation(dil))):
        assert back.space_dim == dil.space_dim
        assert back.provenance == dil.provenance
        assert np.array_equal(back.v, dil.v)
        for a, b in zip(dil.generators, back.generators):
            assert np.array_equal(a, b)


def test_curve_roundtrip():
    for curve in (dk.BoundaryCurve.disc(2.0),
                  dk.BoundaryCurve.ellipse(1.0, 0.6)):
        back = decode_curve(json.loads(dump_json(encode_curve(curve))))
        assert back.kind == curve.kind
        th, p, d = curve.sample(16)
        th2, p2, d2 = back.sample(16)
        assert np.array_equal(p, p2) and np.array_equal(d, d2)
    ann = decode_curve(json.loads(dump_json(
        encode_curve(dk.BoundaryCurve.annulus(0.5)))))
    assert ann.kind == "annulus" and ann.params["r"] == 0.5
    base = dk.BoundaryCurve.ellipse(0.8, 0.4)
    sampled = dk.BoundaryCurve.sampled(*base.sample(32), convex=True)
    back = decode_curve(json.loads(dump_json(encode_curve(sampled))))
    assert back.kind == "sampled" and back.convex


def test_combination_roundtrip():
    rng = np.random.default_rng(139)
    c = random_combination(rng, 2, 2, 5, False)
    back = decode_combination(json.loads(dump_json(encode_combination(c))))
    assert back.n == c.n and len(back.terms) == len(c.terms)
    for (b1, p1), (b2, p2) in zip(c.terms, back.terms):
        assert np.array_equal(b1, b2)
        assert p1.selfadjoint == p2.selfadjoint
        for x1, x2 in zip(p1.coords, p2.coords):
            assert np.array_equal(x1, x2)
    assert back.defect() <= 1e-10


def test_decode_relations_and_operators():
    r = decode_relations({"rule": "ordered", "unitary": False,
                          "negatives": "inverse",
                          "scale_pairs": [[0, 1, [0.0, 1.0]]]})
    assert r.rule == "ordered" and not r.unitary
    assert r.scale_pairs == [(0, 1, 1j)]
    ops = decode_operators({"matrices": [encode_matrix(np.eye(2)),
                                         encode_matrix(np.zeros((2, 2)))]})
    assert len(ops) == 2
    single = decode_operators({"matrix": encode_matrix(np.eye(3))})
    assert len(single) == 1 and single[0].shape == (3, 3)


def test_decode_errors_are_malformed():
    with pytest.raises(MalformedInputError):
        decode_matrix({"rows": 2, "cols": 2})  # data missing
    with pytest.raises(MalformedInputError):
        decode_matrix({"rows": 2, "cols": 2, "data": [[[0.0, 0.0]]]})
    for arr in (np.array(0.5), np.zeros((1, 3)), np.zeros((2, 2), np.complex128)):
        with pytest.raises(MalformedInputError):
            decode_matrix({"rows": 1, "cols": 1, "data": arr})
    with pytest.raises(MalformedInputError):
        decode_table({"dim": 1, "nu": 1})
    with pytest.raises(MalformedInputError):
        decode_operators({})
    with pytest.raises(MalformedInputError, match="2x3"):
        decode_operators({"matrix": encode_matrix(np.ones((2, 3)))})
    with pytest.raises(MalformedInputError, match="2x2, 3x3"):
        decode_operators({"matrices": [encode_matrix(np.eye(2)),
                                       encode_matrix(np.eye(3))]})
    with pytest.raises(MalformedInputError, match="index_rule"):
        decode_table({"dim": 1, "nu": 1, "index_rule": "sideways",
                      "entries": []})
    irrep = dk.clock_shift_irrep(1, 2).with_weights([np.eye(4) / 2.0])
    obj = encode_measure(dk.AtomicMeasure(dim=2, atoms=irrep,
                                          index_rule="ordered"))
    for pair in ([0, 2, [1.0, 0.0]], [-1, 0, [1.0, 0.0]], ["0", 1, [1.0, 0.0]],
                 [0, 1]):
        obj["atoms"][0]["scale_pairs"] = [pair]
        with pytest.raises(MalformedInputError):
            decode_measure(obj)
    with pytest.raises(MalformedInputError):
        decode_relations({"scale_pairs": [[True, 1, [1.0, 0.0]]]})
    with pytest.raises(MalformedInputError):
        decode_relations({"scale_pairs": {"i": 0}})
    # JSON true and false are not numbers: bool is an int subclass in Python
    for text in ('{"rows": true, "cols": true, "data": [[true, false]]}',
                 '{"rows": true, "cols": 1, "data": [[1.0, 0.0]]}',
                 '{"rows": 1, "cols": 1, "data": [[true, false]]}',
                 '{"rows": 1, "cols": 1, "data": [[0.5, false]]}'):
        with pytest.raises(MalformedInputError):
            decode_matrix(json.loads(text))
    one = '{"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}'
    for dim, index in (("1", "[true]"), ("true", "[1]")):
        with pytest.raises(MalformedInputError):
            decode_table(json.loads(f'{{"dim": {dim}, "nu": 1, "entries": '
                                    f'[{{"index": {index}, "value": {one}}}]}}'))


def test_read_json_errors(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    with pytest.raises(MalformedInputError):
        read_json(p)
    with pytest.raises(MalformedInputError):
        read_json(tmp_path / "missing.json")


def test_read_json_keeps_signed_zero(tmp_path):
    """dump_json writes -0.0 as "-0"; read_json reads it back as -0.0, so a
    file round trip is byte-identical, and every other integer stays int."""
    m = np.array([[complex(-0.0, -0.25)]])
    p = tmp_path / "m.json"
    write_json(p, encode_matrix(m))
    back = decode_matrix(read_json(p))
    assert back.tobytes() == m.tobytes()
    assert dump_json(encode_matrix(back)) == p.read_text()
    p.write_text('[0, -0, 7, -7, 0.0, -0.0]')
    got = read_json(p)
    assert [type(x) for x in got] == [int, float, int, int, float, float]
    assert [math.copysign(1.0, x) for x in got] == [1, -1, 1, -1, 1, -1]


def test_write_json_bytes_stable(tmp_path):
    obj = encode_matrix(np.array([[1.0 / 3.0, 2.0]]))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, obj)
    write_json(p2, obj)
    assert p1.read_bytes() == p2.read_bytes()


def test_range_report_csv_zeros():
    rep = dk.numerical_range(np.zeros((2, 2)), angles=8)
    csv = range_report_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "theta,h,re,im"
    assert len(lines) == 9
    for row in lines[1:]:
        _, h, re, im = row.split(",")
        assert float(h) == 0.0 and float(re) == 0.0 and float(im) == 0.0


# The number-by-number serializer that io replaced with one formatting call
# per [re, im] pair list; its bytes are the contract.
def _ref_fmt(x: float) -> str:
    if not math.isfinite(x):
        raise MalformedInputError(f"non-finite number {x!r} cannot be serialized")
    return f"{float(x):.17g}"


def _ref_dump(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _ref_fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_ref_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise MalformedInputError(f"JSON object keys must be strings, got {k!r}")
            items.append(json.dumps(k) + ": " + _ref_dump(v))
        return "{" + ", ".join(items) + "}"
    raise MalformedInputError(f"cannot serialize object of type {type(obj).__name__}")


def _ref_encode_matrix(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise MalformedInputError("only 2-d matrices are serialized")
    data = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _outcome(dump, obj):
    """The text written, or the message of the MalformedInputError raised."""
    try:
        return dump(obj)
    except MalformedInputError as exc:
        return ("MalformedInputError", str(exc))


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
               float(2**53 + 1), 1e-17, 123456789.0]
NAN, INF = float("nan"), float("inf")

DUMP_CASES = [
    [[x, y] for x in EDGE_FLOATS for y in EDGE_FLOATS[:3]],
    [(0.1, -0.0), (5e-324, 1.7976931348623157e308)],
    ((0.1, 0.2), [0.3, 0.4]),
    [[2**53 + 1, 0.5]],
    [[0.5, 2**53 + 1]],
    [[1, 2], [3, 4]],
    [[True, 0.5], [0.25, False]],
    [[np.float64(0.1), 0.2], [0.3, np.float64(-0.0)]],
    [[np.float32(0.1), 0.2]],
    [[np.int64(3), 0.2]],
    [],
    [[]],
    [[], []],
    [[0.1]],
    [[0.1, 0.2, 0.3]],
    [[0.1, 0.2], [0.3]],
    [[0.1, 0.2], "x"],
    [[0.1, 0.2], None],
    [[0.1, None], [0.3, 0.4]],
    [[0.1, [0.2, 0.3]]],
    [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]],
    {"rows": 1, "cols": 2, "data": [[0.1, -0.0], [5e-324, 0.1]]},
    {"a": {"b": [[0.1, 0.2]], "c": [1, 2.5, "s", None, True]}, "": ()},
    [0.1, 0.2],
    [[0.1, NAN], [0.3, 0.4]],
    [[0.1, 0.2], [INF, 0.4]],
    [[-INF, NAN]],
    [[np.float64(NAN), 0.2]],
    [(0.1, 0.2), (-INF, 0.0)],
    {"ok": [[0.1, 0.2]], "bad": [[0.3, NAN]]},
]


@pytest.mark.parametrize("obj", DUMP_CASES, ids=range(len(DUMP_CASES)))
def test_dump_json_matches_number_by_number_reference(obj):
    """Same bytes as the per-number serializer on pair lists and on every
    near miss of one; a non-finite entry raises the same message."""
    assert _outcome(dump_json, obj) == _outcome(lambda o: _ref_dump(o) + "\n", obj)


def test_dump_json_pair_list_non_finite_message():
    with pytest.raises(MalformedInputError,
                       match=r"^non-finite number nan cannot be serialized$"):
        dump_json({"data": [[0.1, 0.2], [0.3, NAN]]})
    with pytest.raises(MalformedInputError,
                       match=r"^non-finite number -inf cannot be serialized$"):
        dump_json([[0.1, 0.2], [-INF, NAN]])


def test_dump_json_property_matches_reference():
    """Nested dicts and lists of pairs, pair lists with ints, bools and
    numpy floats, tuples and empty lists: bytes equal the reference's."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    number = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    leaf = (number | st.integers() | st.just(2**53 + 1) | st.booleans()
            | number.map(np.float64) | st.none() | st.text(max_size=3)
            | st.sampled_from([NAN, INF, -INF]))
    pair = st.tuples(number, number) | st.tuples(leaf, leaf)
    pairs = st.lists(pair.map(list) | pair, max_size=6)
    tree = st.recursive(
        pairs | leaf,
        lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                      | st.dictionaries(st.text(max_size=3), kids, max_size=4)),
        max_leaves=20)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(tree)
    def check(obj):
        assert _outcome(dump_json, obj) == _outcome(lambda o: _ref_dump(o) + "\n", obj)

    check()


@pytest.mark.parametrize("make", [
    lambda rng: complex_gaussian(rng, (3, 4)),
    lambda rng: complex_gaussian(rng, (4, 3)).T,
    lambda rng: complex_gaussian(rng, (5, 6))[::2, 1::2],
    lambda rng: np.asfortranarray(complex_gaussian(rng, (3, 3))),
    lambda rng: rng.normal(size=(2, 5)),
    lambda rng: np.arange(6).reshape(2, 3),
    lambda rng: np.array([[-0.0, 5e-324 - 0.0j], [1.7976931348623157e308j, -5e-324j]]),
    lambda rng: np.array([[complex(-0.0, -0.0), 0.1 + 0.2j]]),
    lambda rng: np.zeros((0, 2), dtype=np.complex128),
])
def test_encode_matrix_matches_reference_and_roundtrips(make):
    """The data array holds the reference's doubles bit for bit, signed
    zeros and subnormals included; it dumps to the reference's bytes, and
    decodes back bit for bit in memory and from its JSON.  The one
    exception is the sign of a zero in JSON: -0.0 is written "-0", which
    JSON readers parse as the integer 0."""
    m = make(np.random.default_rng(149))
    ours, ref = encode_matrix(m), _ref_encode_matrix(m)
    want_data = np.asarray(ref["data"], np.float64).reshape(-1, 2)
    assert ours["data"].dtype == np.float64 and ours["data"].shape == want_data.shape
    assert ours["data"].tobytes() == want_data.tobytes()
    assert dump_json(ours) == _ref_dump(ref) + "\n"
    if m.size:
        want = np.asarray(m, dtype=np.complex128)
        here = decode_matrix(ours)
        assert here.shape == want.shape
        assert here.tobytes() == np.ascontiguousarray(want).tobytes()
        back = decode_matrix(json.loads(dump_json(ours)))
        assert back.shape == want.shape
        assert back.tobytes() == np.ascontiguousarray(want + 0.0).tobytes()


def _one_entry(shape, at, z):
    m = np.zeros(shape, dtype=np.complex128)
    m[at] = z
    return m


ARRAY_CASES = [
    np.zeros((4, 5)),
    np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 0.0]]),
    np.array([[complex(-0.0, 0.5), complex(0.5, -0.0)]]),
    np.array([[5e-324, complex(0.0, -5e-324)], [complex(2.2250738585072009e-308, 1e-310), 0.0]]),
    np.array([[1.7976931348623157e308, complex(0.0, -1.7976931348623157e308)]]),
    _one_entry((300, 300), (137, 211), 0.1 - 0.0j),
    _one_entry((300, 300), (299, 299), complex(0.0, 1.0 / 3.0)),
    _one_entry((1, 7), (0, 0), 2.0 ** 53 + 1),
]


@pytest.mark.parametrize("m", ARRAY_CASES, ids=range(len(ARRAY_CASES)))
def test_dump_matrix_array_matches_reference(m):
    """All-zero matrices, signed zeros in either part, subnormals, the
    largest double, one nonzero entry among 90,000 zeros: the array is
    written as the number-by-number reference writes its list."""
    assert dump_json(encode_matrix(m)) == _ref_dump(_ref_encode_matrix(m)) + "\n"


@pytest.mark.parametrize("bad", [NAN, INF, -INF, complex(0.0, NAN), complex(0.5, -INF)])
def test_dump_matrix_array_non_finite_message(bad):
    """The array path raises the list path's message, naming the first
    non-finite number in [re, im] order."""
    m = np.array([[0.1, 0.0], [bad, complex(INF, NAN)]])
    ref = _ref_encode_matrix(m)
    want = _outcome(lambda o: _ref_dump(o) + "\n", ref)
    assert want[0] == "MalformedInputError"
    assert _outcome(dump_json, encode_matrix(m)) == want
    assert _outcome(dump_json, {"rows": 2, "cols": 2, "data": ref["data"]}) == want


def test_dump_matrix_array_property_matches_reference():
    """Sparse complex matrices of any finite doubles: the array is written
    as the number-by-number reference writes its list."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    number = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    entry = (st.just(0j) | st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0)])
             | st.builds(complex, number | st.just(0.0), number | st.just(0.0)))

    @st.composite
    def sparse(draw):
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        m = np.zeros(rows * cols, dtype=np.complex128)
        at = draw(st.lists(st.integers(0, max(rows * cols - 1, 0)), max_size=rows * cols))
        for i in at:
            m[i] = draw(entry)
        return m.reshape(rows, cols)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(sparse())
    def check(m):
        assert dump_json(encode_matrix(m)) == _ref_dump(_ref_encode_matrix(m)) + "\n"

    check()


def test_encode_matrix_copies_the_matrix():
    """Changing the matrix after encode_matrix does not change the text."""
    m = complex_gaussian(np.random.default_rng(157), (3, 4))
    obj = encode_matrix(m)
    text = dump_json(obj)
    assert not np.shares_memory(obj["data"], m)
    m[1, 2] = 7.0
    m[0] = 0.0
    assert dump_json(obj) == text


@pytest.mark.parametrize("arr", [
    np.zeros((3, 2), dtype=np.float32),
    np.zeros((3, 2), dtype=np.int64),
    np.zeros((3, 2), dtype=np.complex128),
    np.zeros((3, 3)),
    np.zeros((3, 1)),
    np.zeros(6),
    np.zeros((3, 2, 2)),
    np.array(0.5),
])
def test_dump_json_refuses_other_arrays(arr):
    """Only an (n, 2) float64 array is written as [re, im] pairs."""
    with pytest.raises(MalformedInputError,
                       match="^cannot serialize object of type ndarray$"):
        dump_json({"rows": 1, "cols": 1, "data": arr})


def _ref_encode_dilation(dil):
    return {
        "v": _ref_encode_matrix(dil.v),
        "generators": [_ref_encode_matrix(g) for g in dil.generators],
        "space_dim": dil.space_dim,
        "provenance": dil.provenance,
        "residuals": {k: float(v) for k, v in sorted(dil.residuals.items())},
    }


def test_dilation_json_formats_matrices_in_one_call(monkeypatch):
    """A K=264 GNS dilation (d=8, order 32) is written without one _fmt call
    per number: only its residual scalars go through it."""
    from dilatekit import io

    rng = np.random.default_rng(151)
    dil = dk.toeplitz_gns_unitary(dk.circle_moments(random_contraction(rng, 8, 0.9), 1.0, 32))
    assert dil.space_dim == 264
    calls = []
    fmt = io._fmt
    monkeypatch.setattr(io, "_fmt", lambda x: calls.append(x) or fmt(x))
    text = dump_json(encode_dilation(dil))
    assert len(calls) == len(dil.residuals)
    assert text == _ref_dump(_ref_encode_dilation(dil)) + "\n"



def _decoded(data):
    """Shape and bits of the decoded 1 x len(data) matrix, or the message raised."""
    try:
        m = decode_matrix({"rows": 1, "cols": len(data), "data": data}, "m")
    except MalformedInputError as exc:
        return str(exc)
    return m.shape, m.dtype, m.tobytes()


PAIRS, NONFINITE = "m: complex values are [re, im] pairs", "m: non-finite complex entry"

# (data, its entries as decoded, or the message naming the first bad entry)
DECODE_CASES = [
    ([[0.1, -0.0], [5e-324, 1.7976931348623157e308]],
     [complex(0.1, -0.0), complex(5e-324, 1.7976931348623157e308)]),
    ([[1, 2], (3, 4.5)], [1 + 2j, 3 + 4.5j]),
    ([[True, 0.5], [0.25, False]], PAIRS),  # JSON true is not a number
    ([[2**53 + 1, -(2**64) - 1]], [complex(2.0**53, -(2.0**64))]),
    ([[np.float64(0.1), 0.2]], [0.1 + 0.2j]),
    # integers either side of the point where rounding passes the largest double
    ([[2**1024 - 2**970 - 1, 0]], [complex(1.7976931348623157e308, 0.0)]),
    ([[2**1024 - 2**970, 0]], NONFINITE),
    ([[10**400, 0.0]], NONFINITE),
    ([[0.0, -(10**400)]], NONFINITE),
    ([[0.1, NAN]], NONFINITE),
    ([[INF, 0.0], "x"], NONFINITE),
    ([[10**400, 0.0], [0.1]], NONFINITE),
    ([[np.int64(3), 0.2]], PAIRS),
    (["x", [INF, 0.0]], PAIRS),
    ([[0.1], [10**400, 0.0]], PAIRS),
    ([[0.1, 0.2, 0.3]], PAIRS),
    ([[0.1, None]], PAIRS),
    ([[0.1, "0.2"]], PAIRS),
    ([[[0.1, 0.2], [0.3, 0.4]]], PAIRS),
    ([None], PAIRS),
]


@pytest.mark.parametrize("data, want", DECODE_CASES, ids=range(len(DECODE_CASES)))
def test_decode_matrix_entries(data, want):
    """Each entry decodes bit for bit, or the first bad entry is named; an
    integer beyond the double range is a non-finite entry, not a crash."""
    if not isinstance(want, str):
        w = np.array(want, dtype=np.complex128).reshape(1, -1)
        want = (w.shape, w.dtype, w.tobytes())
    assert _decoded(data) == want


def test_decode_matrix_matches_per_entry_reference():
    """A large pair list decodes as one array, bit for bit as the per-entry
    decoder gives each entry: floats, the edge doubles, integers (large and
    small, and -0 which JSON reads as the integer 0) and -0.0."""
    from dilatekit import io
    rng = np.random.default_rng(163)
    numbers = (rng.normal(size=600) * 10.0 ** rng.integers(-300, 300, size=600)).tolist()
    numbers += EDGE_FLOATS + [0, -0, 7, -(2**63), 2**64 + 1, 2**1000 + 1, -(10**300)]
    data = [[numbers[i], numbers[j]] for i, j in rng.integers(0, len(numbers), (4000, 2))]
    text = dump_json({"rows": 40, "cols": 100, "data": data})
    for obj in ({"rows": 40, "cols": 100, "data": data}, json.loads(text)):
        got = decode_matrix(obj, "m")
        want = np.array([io._decode_complex(v, "m") for v in obj["data"]]).reshape(40, 100)
        assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    assert decode_matrix(json.loads('{"rows": 1, "cols": 1, "data": [[-0, -0.0]]}'))[
        0, 0].real.hex() == "0x0.0p+0"


def test_decode_matrix_huge_integer_is_malformed():
    with pytest.raises(MalformedInputError, match=r"^m: non-finite complex entry$"):
        decode_matrix({"rows": 1, "cols": 1, "data": [[10**400, 0]]}, "m")
    with pytest.raises(MalformedInputError, match="^dilation residuals: int too large"):
        decode_dilation(dict(encode_dilation(dk.Dilation(
            v=np.eye(1), generators=[np.eye(1)], space_dim=1, provenance="test")),
            residuals={"unit_defect": 10**400}))


def test_decode_matrix_property_only_malformed_errors():
    """Pair lists of floats, huge and ordinary ints, bools and numpy
    scalars, and their near misses: decoding gives each entry's
    complex(re, im) (always, for pairs of finite doubles) or raises
    MalformedInputError, never another exception."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # integers about the largest double: 2**1024 - 2**970 rounds up past it
    huge = st.sampled_from([10**400, -(10**400), 2**1024 - 2**970, 2**1024 - 2**970 - 1])
    number = (st.floats() | st.integers() | huge | st.booleans()
              | st.sampled_from(EDGE_FLOATS + [NAN, INF, -INF]))
    leaf = (number | st.floats().map(np.float64) | st.integers(-3, 3).map(np.int64)
            | st.none() | st.text(max_size=2))
    pair = st.tuples(number, number) | st.tuples(leaf, leaf)
    entry = (pair.map(list) | pair | st.lists(leaf, max_size=3) | leaf)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    doubles = st.lists(st.lists(finite, min_size=2, max_size=2), min_size=1, max_size=8)
    data = doubles | st.lists(pair.map(list), min_size=1, max_size=8) | st.lists(
        entry, min_size=1, max_size=8)

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(data)
    def check(data):
        got = _decoded(data)
        if all(type(v) is list and len(v) == 2  # pairs of finite doubles always decode
               and all(type(x) is float and math.isfinite(x) for x in v) for v in data):
            assert got not in (PAIRS, NONFINITE)
        if got not in (PAIRS, NONFINITE):
            w = np.array([complex(float(re), float(im)) for re, im in data])
            assert np.isfinite(w).all() and got == (w.reshape(1, -1).shape, w.dtype,
                                                    w.tobytes())

    check()

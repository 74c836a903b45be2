import json

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

from conftest import complex_gaussian, random_combination, random_psd


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
    point_mu = dk.AtomicMeasure(dim=2, atoms=[
        dk.PointAtom(point=[1j], weight=random_psd(rng, 2)),
        dk.PointAtom(point=[-1.0], weight=random_psd(rng, 2)),
    ], defect=1e-4, fit_residual=1e-9)
    irrep = dk.clock_shift_irrep(1, 2)
    irrep.weight = random_psd(rng, 4)
    irrep_mu = dk.AtomicMeasure(dim=2, atoms=[irrep], index_rule="ordered")
    for mu in (point_mu, irrep_mu):
        back = decode_measure(json.loads(dump_json(encode_measure(mu))))
        assert back.dim == mu.dim and back.index_rule == mu.index_rule
        assert back.kind() == mu.kind()
        assert len(back.atoms) == len(mu.atoms)
        for a, b in zip(mu.atoms, back.atoms):
            assert np.array_equal(a.weight, b.weight)
        if mu.kind() == "irrep":
            assert back.atoms[0].scale_pairs == mu.atoms[0].scale_pairs
        assert back.defect == mu.defect
        assert back.fit_residual == mu.fit_residual


def test_dilation_roundtrip():
    res = dk.dilate_circle(np.array([[0.4]]), order=2)
    dil = res.dilation
    back = decode_dilation(json.loads(dump_json(encode_dilation(dil))))
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
    irrep = dk.clock_shift_irrep(1, 2)
    irrep.weight = np.eye(4) / 2.0
    obj = encode_measure(dk.AtomicMeasure(dim=2, atoms=[irrep],
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


def test_read_json_errors(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    with pytest.raises(MalformedInputError):
        read_json(p)
    with pytest.raises(MalformedInputError):
        read_json(tmp_path / "missing.json")


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

"""CLI behavior: exit codes, file outputs, determinism, env overrides."""

import json
import subprocess
import sys

import numpy as np
import pytest

import dilatekit as dk
from dilatekit.cli import main
from dilatekit.io import (
    decode_combination,
    decode_dilation,
    dump_json,
    encode_combination,
    encode_curve,
    encode_dilation,
    encode_matrix,
    encode_table,
    read_json,
)


def write_operator(path, *mats):
    if len(mats) == 1:
        obj = {"matrix": encode_matrix(mats[0])}
    else:
        obj = {"matrices": [encode_matrix(m) for m in mats]}
    path.write_text(dump_json(obj), encoding="utf-8")
    return str(path)


def test_dilate_circle_success(tmp_path, capsys):
    t = np.array([[0.0, 0.8], [0.0, 0.0]])
    inp = write_operator(tmp_path / "t.json", t)
    out = str(tmp_path / "run")
    code = main(["dilate-circle", "--input", inp, "--output", out,
                 "--order", "3"])
    assert code == 0
    line = capsys.readouterr().out
    assert "passed=True" in line and "K=" in line
    dil = decode_dilation(json.loads(
        (tmp_path / "run.dilation.json").read_text()))
    assert dil.space_dim <= 4 * 2
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["verification"]["passed"] is True
    assert report["dimensions"]["slack"] >= 0


def test_outputs_byte_deterministic(tmp_path):
    t = np.array([[0.3 + 0.1j, 0.2], [0.0, -0.4]])
    inp = write_operator(tmp_path / "t.json", t)
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["dilate-circle", "--input", inp, "--output", out,
                     "--order", "2"]) == 0
        blobs.append((tmp_path / f"{name}.dilation.json").read_bytes()
                     + (tmp_path / f"{name}.report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_not_psd_exit_2(tmp_path, capsys):
    inp = write_operator(tmp_path / "t.json", np.array([[1.2]]))
    code = main(["dilate-circle", "--input", inp,
                 "--output", str(tmp_path / "x"), "--order", "1"])
    assert code == 2
    assert "refused:" in capsys.readouterr().err


@pytest.mark.parametrize("t", [[[0.5, 1.0], [0.0, 0.0]], [[0.7, 0.0], [0.0, 1e-300]]],
                         ids=["singular", "nearly_singular"])
def test_singular_annulus_operator_exit_2(tmp_path, capsys, t):
    """0 in the spectrum is a refusal of the data: one line, exit 2."""
    inp = write_operator(tmp_path / "t.json", np.array(t))
    code = main(["dilate-annulus", "--input", inp, "--output", str(tmp_path / "x"),
                 "--curve", "annulus:0.5", "--order", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "0 lies in its spectrum" in err


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_overflowing_annulus_moments_exit_2(tmp_path, capsys, scale):
    """Order-2 moments beyond the double range are a refusal of the data:
    one line naming the overflow and the order, exit 2, no warning."""
    inp = write_operator(tmp_path / "t.json", scale * np.eye(2))
    code = main(["dilate-annulus", "--input", inp, "--output", str(tmp_path / "x"),
                 "--curve", "annulus:0.5", "--order", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "(order 2) overflows the double range" in err


def test_missing_input_exit_3(tmp_path, capsys):
    code = main(["dilate-circle", "--input", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "x"), "--order", "1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_bad_json_exit_3(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["dilate-circle", "--input", str(p),
                 "--output", str(tmp_path / "x"), "--order", "1"]) == 3


def test_usage_errors_exit_3(tmp_path):
    inp = write_operator(tmp_path / "t.json", np.array([[0.5]]))
    # missing required --order
    assert main(["dilate-circle", "--input", inp,
                 "--output", str(tmp_path / "x")]) == 3
    # unknown subcommand
    assert main(["dilate-nothing", "--input", inp]) == 3
    # missing --input entirely
    assert main(["dilate-circle", "--order", "1",
                 "--output", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("argv", [
    ["dilate-circle", "--order", "0"],
    ["dilate-circle", "--order", "2", "--rho", "-1"],
    ["dilate-circle", "--order", "2", "--rho", "inf"],
    ["dilate-circle", "--order", "2", "--rho", "nan"],
    ["dilate-circle", "--order", "2", "--seed", "1"],
    ["dilate-regular", "--order", "-1"],
    ["dilate-regular", "--order", "1", "--nodes", "0"],
    ["dilate-annulus", "--curve", "annulus:0.5", "--nodes", "0"],
    ["dilate-boundary", "--curve", "disc", "--nodes", "0"],
    ["dilate-boundary", "--curve", "disc", "--nodes", "-4"],
    ["dilate-boundary", "--curve", "disc", "--order", "0"],
    ["dilate-qcommute", "--a", "1", "--b", "0"],
    ["numrange", "--nodes", "2"],
    ["numrange", "--threads", "2"],
    ["reduce", "--tol-residual", "1e-6"],
    # the fit starts at zero: no fitted subcommand takes a seed
    ["dilate-regular", "--order", "1", "--seed", "0"],
    ["dilate-annulus", "--curve", "annulus:0.5", "--seed", "0"],
    ["dilate-qcommute", "--a", "1", "--b", "2", "--seed", "0"],
])
def test_bad_size_flags_exit_3(tmp_path, capsys, argv):
    inp = write_operator(tmp_path / "t.json", 0.3 * np.eye(2))
    code = main([argv[0], "--input", inp, "--output", str(tmp_path / "x")]
                + argv[1:])
    assert code == 3
    # the usage error names the offending flag (argv ends in flag, value)
    assert argv[-2] in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("argv", [
    ["numrange"],
    ["dilate-circle", "--order", "2"],
    ["dilate-boundary", "--curve", "disc"],
    ["dilate-annulus", "--curve", "annulus:0.5"],
    ["dilate-regular", "--order", "1"],
    ["dilate-qcommute", "--a", "1", "--b", "2"],
])
def test_non_square_input_exit_3(tmp_path, capsys, argv):
    m = 0.1 * np.arange(6).reshape(2, 3)
    mats = (m, m) if argv[0] == "dilate-qcommute" else (m,)
    inp = write_operator(tmp_path / "t.json", *mats)
    code = main([argv[0], "--input", inp, "--output", str(tmp_path / "x")]
                + argv[1:])
    assert code == 3
    assert "2x3" in capsys.readouterr().err


def test_huge_integer_entry_exit_3(tmp_path, capsys):
    # a JSON integer beyond the double range is malformed input, not a crash
    inp = tmp_path / "t.json"
    inp.write_text('{"matrix": {"rows": 1, "cols": 1, "data": [[1%s, 0]]}}'
                   % ("0" * 400), encoding="utf-8")
    code = main(["dilate-circle", "--input", str(inp),
                 "--output", str(tmp_path / "x"), "--order", "1"])
    assert code == 3
    assert "non-finite complex entry" in capsys.readouterr().err


def test_boolean_json_entries_exit_3(tmp_path, capsys):
    # JSON true is not a count or a number, though Python's bool is an int
    inp = tmp_path / "t.json"
    inp.write_text('{"matrix": {"rows": true, "cols": true, "data": [[true, false]]}}',
                   encoding="utf-8")
    code = main(["dilate-circle", "--input", str(inp),
                 "--output", str(tmp_path / "x"), "--order", "1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_library_size_guards():
    with pytest.raises(dk.ShapeMismatchError):
        dk.quadrature_measure(0.3 * np.eye(2), dk.BoundaryCurve.disc(), 0)
    with pytest.raises(dk.ShapeMismatchError):
        dk.regular_moments([0.3 * np.eye(2)], -1)
    with pytest.raises(dk.ShapeMismatchError):
        dk.regular_moments([0.3 * np.eye(2)], 0)


def test_qcommute_rejects_non_integer_ab(tmp_path):
    q = np.exp(2j * np.pi * 0.5)
    t1 = np.diag([1.0, q])
    t2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    inp = write_operator(tmp_path / "pair.json", 0.5 * t1, 0.5 * t2)
    code = main(["dilate-qcommute", "--input", inp,
                 "--output", str(tmp_path / "x"),
                 "--a", "0.5", "--b", "2"])
    assert code == 3


def test_tol_override_env(tmp_path, monkeypatch):
    # numerical-radius data: its dilation meets the moments to roundoff,
    # not exactly as the Egervary shift of rho = 1 data (coefficients
    # (T, 0, 0), the last two exact zeros) does
    t = np.array([[0.3 + 0.1j, 0.2], [0.0, -0.4]])
    inp = write_operator(tmp_path / "t.json", t)
    # an absurd residual tolerance flips verification to failed: exit 4
    monkeypatch.setenv("DILATEKIT_TOL_OVERRIDE",
                       json.dumps({"residual_tol": 1e-300}))
    code = main(["dilate-circle", "--input", inp, "--rho", "2",
                 "--output", str(tmp_path / "x"), "--order", "3"])
    assert code == 4
    report = json.loads((tmp_path / "x.report.json").read_text())
    assert report["verification"]["passed"] is False
    # explicit flag wins over the environment
    code = main(["dilate-circle", "--input", inp, "--rho", "2",
                 "--output", str(tmp_path / "y"), "--order", "3",
                 "--tol-residual", "1e-8"])
    assert code == 0


def test_tol_override_rejects_garbage(tmp_path, monkeypatch):
    inp = write_operator(tmp_path / "t.json", np.array([[0.5]]))
    monkeypatch.setenv("DILATEKIT_TOL_OVERRIDE", "not json")
    assert main(["dilate-circle", "--input", inp,
                 "--output", str(tmp_path / "x"), "--order", "1"]) == 3
    monkeypatch.setenv("DILATEKIT_TOL_OVERRIDE",
                       json.dumps({"no_such_field": 1.0}))
    assert main(["dilate-circle", "--input", inp,
                 "--output", str(tmp_path / "x"), "--order", "1"]) == 3


@pytest.mark.parametrize("env, flags, field", [
    ('{"rank_tol": 0}', [], "rank_tol"),
    ('{"rank_tol": "abc"}', [], "rank_tol"),
    ('{"psd_tol": 1e-12}', [], "psd_tol"),
    ('{"fit_tol": 1e400}', [], "fit_tol"),
    ('{"fit_tol": NaN}', [], "fit_tol"),
    (None, ["--tol-residual", "-1"], "residual_tol"),
], ids=["zero", "string", "psd-below-rank", "inf", "nan", "negative-flag"])
def test_bad_tolerance_is_malformed(tmp_path, monkeypatch, capsys, env, flags, field):
    # a tolerance out of range is a usage error (exit 3) naming the field,
    # never a traceback or a run under an infinite tolerance
    inp = write_operator(tmp_path / "t.json", np.array([[0.5]]))
    if env is not None:
        monkeypatch.setenv("DILATEKIT_TOL_OVERRIDE", env)
    assert main(["dilate-circle", "--input", inp, "--output",
                 str(tmp_path / "x"), "--order", "1", *flags]) == 3
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x.report.json").exists()


def test_numrange_csv(tmp_path, capsys):
    inp = write_operator(tmp_path / "z.json", np.zeros((2, 2)))
    out = tmp_path / "range.csv"
    assert main(["numrange", "--input", inp, "--output", str(out),
                 "--nodes", "16"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,h,re,im"
    assert len(lines) == 17
    for row in lines[1:]:
        th, h, re, im = (float(x) for x in row.split(","))
        assert h == 0.0 and re == 0.0 and im == 0.0
    # without --output the CSV goes to stdout
    assert main(["numrange", "--input", inp, "--nodes", "4"]) == 0
    assert capsys.readouterr().out.startswith("theta,h,re,im")


def test_reduce_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(5)
    points = [dk.MatrixPoint(coords=(np.array([[float(k)]]),),
                             selfadjoint=True) for k in range(6)]
    betas = rng.standard_normal(6)
    betas /= np.linalg.norm(betas)
    comb = dk.MatrixConvexCombination(
        n=1, terms=[(np.array([[b]]), p) for b, p in zip(betas, points)])
    inp = tmp_path / "comb.json"
    inp.write_text(dump_json(encode_combination(comb)), encoding="utf-8")
    out = tmp_path / "reduced.json"
    assert main(["reduce", "--input", str(inp), "--output", str(out)]) == 0
    assert "terms=" in capsys.readouterr().out
    red = decode_combination(json.loads(out.read_text()))
    assert len(red.terms) <= 2
    want = comb.barycenter()
    got = red.barycenter()
    assert np.linalg.norm(got[0] - want[0]) <= 1e-9


def test_verify_subcommand(tmp_path, capsys):
    t = np.array([[0.0, 0.7], [0.0, 0.0]])
    result = dk.dilate_circle(t, order=2)
    table = dk.circle_moments(t, 1.0, 2)
    bundle = {
        "dilation": encode_dilation(result.dilation),
        "targets": encode_table(table),
        "relations": {"rule": "laurent", "unitary": True,
                      "negatives": "adjoint"},
    }
    inp = tmp_path / "bundle.json"
    inp.write_text(dump_json(bundle), encoding="utf-8")
    assert main(["verify", "--input", str(inp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    # a wrong target table must fail verification: exit 4
    bad = dk.MomentTable(
        dim=2, nu=1, symmetric=True,
        values={(k,): np.full((2, 2), 0.33) for k in range(1, 3)})
    bundle["targets"] = encode_table(bad)
    inp.write_text(dump_json(bundle), encoding="utf-8")
    assert main(["verify", "--input", str(inp)]) == 4
    # structurally broken bundle: exit 3
    inp.write_text(dump_json({"dilation": bundle["dilation"]}),
                   encoding="utf-8")
    assert main(["verify", "--input", str(inp)]) == 3


def _break_pair_index(bundle):
    bundle["relations"]["scale_pairs"] = [[0.5, 0, [1.0, 0.0]]]


def _break_pair_range(bundle):
    bundle["relations"]["scale_pairs"] = [[0, 1, [1.0, 0.0]]]


def _break_v_width(bundle):
    bundle["targets"] = encode_table(dk.circle_moments(0.5 * np.eye(3), 1.0, 2))


def _break_index_rule(bundle):
    bundle["targets"]["index_rule"] = "sideways"


def _break_generator_count(bundle):
    # a one-generator dilation against a table of pairs
    pairs = dk.regular_moments([0.3 * np.eye(2), 0.2 * np.eye(2)], 1)
    bundle["targets"] = encode_table(pairs)


def _pair_dilation():
    """A two-generator dilation for tables of pairs."""
    return encode_dilation(dk.Dilation(v=np.eye(2), generators=[np.eye(2)] * 2,
                                       space_dim=2, provenance="test"))


def _break_ordered_mixed_sign(bundle):
    # the ordered operator system has no word for a mixed-sign index
    table = encode_table(dk.qcommuting_moments(0.3 * np.eye(2), 0.2 * np.eye(2), 1))
    table["entries"].append({"index": [1, -1],
                             "value": encode_matrix(0.06 * np.eye(2))})
    bundle["dilation"] = _pair_dilation()
    bundle["targets"] = table
    bundle["relations"]["rule"] = "ordered"


def _break_rule_mismatch(bundle):
    # a laurent table of pairs read under the ordered rule
    bundle["dilation"] = _pair_dilation()
    bundle["targets"] = encode_table(
        dk.regular_moments([0.3 * np.eye(2), 0.2 * np.eye(2)], 1))
    bundle["relations"]["rule"] = "ordered"


def _break_singular_generator(bundle):
    # negative indices read as inverses of a generator with a zero column
    dil = decode_dilation(bundle["dilation"])
    dil.generators[0][:, 0] = 0.0
    bundle["dilation"] = encode_dilation(dil)
    bundle["relations"]["negatives"] = "inverse"


@pytest.mark.parametrize("breaks", [_break_pair_index, _break_pair_range,
                                    _break_v_width, _break_index_rule, _break_generator_count,
                                    _break_ordered_mixed_sign, _break_rule_mismatch,
                                    _break_singular_generator])
def test_malformed_verify_bundle_exit_3(tmp_path, capsys, breaks):
    t = np.array([[0.0, 0.7], [0.0, 0.0]])
    bundle = {
        "dilation": encode_dilation(dk.dilate_circle(t, order=2).dilation),
        "targets": encode_table(dk.circle_moments(t, 1.0, 2)),
        "relations": {"rule": "laurent", "scale_pairs": []},
    }
    breaks(bundle)
    inp = tmp_path / "bundle.json"
    inp.write_text(dump_json(bundle), encoding="utf-8")
    assert main(["verify", "--input", str(inp)]) == 3
    assert "error:" in capsys.readouterr().err


# the dilation.json of dilate_circle([[0, 0.5], [0, 0]], order=1) as it was
# written while a dilation still carried residuals, with a hand-edited
# non-number entry and an integer beyond the double range among them
LEGACY_DILATION = (
    '{"v": {"rows": 4, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0], [0, 0], '
    '[0, 0], [0, 0], [0, 0]]}, "generators": [{"rows": 4, "cols": 4, "data": [[0, 0], '
    '[0.5, 0], [0.8660254037844386, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], '
    '[0.8660254037844386, 0], [-0.5, 0], [0, 0], [-1, 0], [0, 0], [0, 0], [0, 0]]}], '
    '"space_dim": 4, "provenance": "gns", "residuals": {"moment_max": 0, '
    '"shift_isometry": 1.5700924586837752e-16, "unit_defect": "small", '
    '"overflow": 1' + "0" * 400 + '}}\n')


def test_legacy_dilation_with_residuals_still_verifies(tmp_path, capsys):
    """A dilation.json that still holds a residuals object decodes, its
    residuals ignored, to today's dilation of the same data bit for bit,
    and dilatekit verify passes it (exit 0)."""
    t = np.array([[0.0, 0.5], [0.0, 0.0]])
    (tmp_path / "dilation.json").write_text(LEGACY_DILATION, encoding="utf-8")
    legacy = decode_dilation(read_json(tmp_path / "dilation.json"))
    assert not hasattr(legacy, "residuals")
    today = dk.dilate_circle(t, order=1).dilation
    assert legacy.v.tobytes() == today.v.tobytes()
    assert legacy.generators[0].tobytes() == today.generators[0].tobytes()
    assert "residuals" not in encode_dilation(today)
    bundle = {"dilation": json.loads(LEGACY_DILATION),
              "targets": encode_table(dk.circle_moments(t, 1.0, 1)),
              "relations": {"rule": "laurent", "unitary": True, "negatives": "adjoint"}}
    inp = tmp_path / "bundle.json"
    inp.write_text(dump_json(bundle), encoding="utf-8")
    assert main(["verify", "--input", str(inp)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_curve_specs(tmp_path):
    t = 0.3 * np.eye(2)
    inp = write_operator(tmp_path / "t.json", t)

    def run(curve):
        return main(["dilate-boundary", "--input", inp,
                     "--output", str(tmp_path / "c"), "--order", "2",
                     "--nodes", "48", "--curve", curve])

    assert run("ellipse:1.0,0.6") == 0
    assert run("disc:1.0") == 0
    assert run("junk:1") == 3
    assert run("ellipse:1.0") == 3
    spec = tmp_path / "curve.json"
    spec.write_text(dump_json(encode_curve(dk.BoundaryCurve.ellipse(1.0, 0.7))),
                    encoding="utf-8")
    assert run("@" + str(spec)) == 0
    # an empty or non-finite sampled curve is malformed input
    samples = encode_curve(dk.BoundaryCurve.sampled(
        *dk.BoundaryCurve.disc(1.0).sample(48), convex=True))
    samples["samples"][7][0] = float("nan")
    spec.write_text(json.dumps(samples), encoding="utf-8")
    assert run("@" + str(spec)) == 3
    samples["samples"] = []
    spec.write_text(json.dumps(samples), encoding="utf-8")
    assert run("@" + str(spec)) == 3
    # dilate-annulus insists on an annulus curve
    u = np.diag(np.exp(2j * np.pi * np.arange(2) / 7))
    inp2 = write_operator(tmp_path / "u.json", u)
    assert main(["dilate-annulus", "--input", inp2,
                 "--output", str(tmp_path / "a"), "--curve", "disc:1.0"]) == 3


@pytest.mark.parametrize("curve", ["disc:nan", "disc:inf", "ellipse:nan,1",
                                   "ellipse:1,inf"])
def test_non_finite_curve_parameters_exit_3(tmp_path, capsys, curve):
    """A non-finite radius or semi-axis is malformed input (exit 3), not a
    numerical range that fails to fit (exit 2)."""
    inp = write_operator(tmp_path / "t.json", 0.3 * np.eye(2))
    code = main(["dilate-boundary", "--input", inp, "--output", str(tmp_path / "c"),
                 "--curve", curve])
    assert code == 3
    err = capsys.readouterr().err
    assert "must be finite and positive" in err and "refused" not in err
    assert not list(tmp_path.glob("c*"))


def test_console_entry_point(tmp_path):
    inp = write_operator(tmp_path / "t.json", np.array([[0.5]]))
    out = str(tmp_path / "run")
    proc = subprocess.run(
        [sys.executable, "-m", "dilatekit.cli", "dilate-circle",
         "--input", inp, "--output", out, "--order", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "passed=True" in proc.stdout

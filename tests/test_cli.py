"""End-to-end tests of the command-line interface and the JSON schemas."""
import dataclasses
import json
import os
import stat

import numpy as np
import pytest
from fractions import Fraction

from ncspaces import checks, spectra, symplectic
from ncspaces.cli import EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_OK, main
from ncspaces.gridfn import GridFunction, read_gridfn, write_gridfn
from ncspaces.serialize import (
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    theta_from_json,
    theta_to_json,
)
from ncspaces.skew import SkewMatrix
from ncspaces.twisted_algebra import NCPolynomial, poly_mul

SMOKE_SIZES = {
    "algebra_triples": 5, "tensor_max_d": 3, "symplectic_cases": 5,
    "metric_pairs": 5, "hermitian_pairs": 5, "moyal_points": 16,
    "holder_max_k": 4,
}


def run_all_checks_smoke(tmp_path, capsys):
    """`ncspaces all-checks` at the smoke sizes: (exit code, output lines)."""
    cfg = tmp_path / "smoke.json"
    cfg.write_text(json.dumps(SMOKE_SIZES))
    code = main(["all-checks", "--config", str(cfg)])
    return code, capsys.readouterr().out.splitlines()


class TestSerialization:
    def test_theta_rational_roundtrip(self):
        theta = SkewMatrix.from_upper(3, {(0, 1): Fraction(1, 3), (1, 2): Fraction(-2, 7)})
        back = theta_from_json(theta_to_json(theta))
        assert back == theta
        assert back.is_rational

    def test_poly_roundtrip(self):
        theta = SkewMatrix.from_upper(2, {(0, 1): Fraction(1, 4)})
        a = NCPolynomial(theta, {(1, 0): 1.5 - 2j, (0, -2): 0.25j})
        back = poly_from_json(poly_to_json(a))
        assert back.allclose(a, 1e-15)

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(matrix_to_json(m))
        assert np.abs(back - m).max() <= 1e-15


class TestCliBasics:
    def test_audit_reference_point(self, capsys):
        assert main(["audit", "--k", "8100", "--target", "2500"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "slack: 26.0" in out

    def test_audit_integral_target_as_string(self, tmp_path, capsys):
        assert main(["audit", "--target", "2500"]) == EXIT_OK
        expected = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "2500.0"}))
        assert main(["audit", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_audit_failing_k(self, capsys):
        assert main(["audit", "--k", "100", "--target", "2500"]) == EXIT_CHECK_FAILED

    def test_butterfly_rejects_qmax_zero(self):
        assert main(["butterfly", "--qmax", "0"]) == EXIT_INVALID

    @pytest.mark.parametrize("seed", [1, 2])
    def test_relations_random_d5(self, tmp_path, seed):
        # random pairs come from the d-capped draw of the checks suite, so the
        # largest tuple stays at 2^10 dimensions
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out1, out2):
            assert main(["relations", "--theta", "random", "--d", "5", "--seed", str(seed),
                         "--out", str(out)]) == EXIT_OK
        assert out1.read_text().splitlines()[0] == "generators: 5 on C^1024"
        assert out1.read_bytes() == out2.read_bytes()

    def test_relations_identity_pairs(self, capsys):
        assert main(["relations", "--theta", "identity-pairs", "--d", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        residual = float(out.split("commutation residual: ")[1].splitlines()[0])
        assert residual <= 1e-13

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for command, key in [("audit", "bogus"), ("butterfly", "resolution"),
                             ("holder", "jobs"), ("all-checks", "holder_resolution")]:
            cfg.write_text(json.dumps({key: 1}))
            assert main([command, "--config", str(cfg)]) == EXIT_INVALID
            assert "unknown config key" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        for argv in (["butterfly", "--qmax", "3", "--resolution", "64"],
                     ["holder", "--jobs", "2"],
                     ["butterfly", "--qmax", "3", "--theta", "1/3"],
                     ["weyl", "--grid", "64,8"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_INVALID

    @pytest.mark.parametrize("command, params", [
        ("audit", {"k": 0}),
        ("relations", {"d": 0}),
        ("weyl", {"L": 0, "grids": [32]}),
        ("holder", {"qmax": 0}),
    ])
    def test_explicit_zero_is_not_replaced_by_default(self, tmp_path, command, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        assert main([command, "--config", str(cfg)]) == EXIT_INVALID

    def test_weyl_explicit_zero_theta(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 0, "grids": [32]}))
        assert main(["weyl", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "0.0"

    def test_weyl_rational_theta(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [32]}))
        assert main(["weyl", "--config", str(cfg), "--theta", "1/3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == repr(1 / 3)

    def test_weyl_unparsable_theta_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [32]}))
        for theta in ("1/0", "abc"):
            assert main(["weyl", "--config", str(cfg), "--theta", theta]) == EXIT_INVALID
            assert "cannot parse theta spec" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, key", [
        pytest.param(["symplectic", "--theta", "{csv}"], None, "theta", id="symplectic-csv-cell"),
        pytest.param(["relations", "--theta", "1/0"], None, "theta", id="relations-zero-den"),
        pytest.param(["relations", "--theta", "a/b"], None, "theta", id="relations-non-numeric"),
        pytest.param(["holder", "--base", "x"], None, "base", id="holder-base"),
        pytest.param(["audit"], {"target": "abc"}, "target", id="audit-target"),
        pytest.param(["weyl"], {"s": ["a"]}, "s", id="weyl-s"),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, argv, config, key):
        csv = tmp_path / "bad.csv"
        csv.write_text("0,x\n-1,0\n")
        argv = [arg.format(csv=csv) for arg in argv]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_INVALID
        assert f"cannot parse {key} spec" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        pytest.param(["symplectic", "--theta", "nan", "--d", "2"], None, id="symplectic-theta"),
        pytest.param(["weyl", "--theta", "nan"], None, id="weyl-theta"),
        pytest.param(["weyl"], {"grids": [32], "L": float("inf")}, id="weyl-L"),
        pytest.param(["weyl"], {"grids": [32], "t": [float("nan")]}, id="weyl-t"),
        pytest.param(["moyal", "--theta", "nan", "--grid", "16,6.0"], None, id="moyal-theta-nan"),
        pytest.param(["moyal", "--theta", "inf", "--grid", "16,6.0"], None, id="moyal-theta-inf"),
        pytest.param(["moyal", "--grid", "16,nan"], None, id="moyal-grid-L"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))  # NaN and Infinity, as Python's json reads them
            argv = argv + ["--config", str(cfg)]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")

    def test_symplectic_missing_theta(self, capsys):
        assert main(["symplectic"]) == EXIT_INVALID
        assert "missing --theta" in capsys.readouterr().err

    def test_out_file_gets_plain_open_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            out = tmp_path / "a.txt"
            assert main(["audit", "--k", "8100", "--target", "2500", "--out", str(out)]) == EXIT_OK
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(out).st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode) == 0o644

    def test_malformed_config_line_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "k": 8100,\n  bad\n}')
        assert main(["audit", "--config", str(cfg)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert ":3:" in err  # line number of the defect

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 100, "target": 2500}))
        assert main(["audit", "--config", str(cfg), "--k", "8100"]) == EXIT_OK


class TestCliPipelines:
    def test_butterfly_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["butterfly", "--qmax", "3", "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "p,q,band_index,a,b"

    def test_holder_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "base": "0", "offsets": ["1/4", "1/8", "1/16"],
        }))
        code = main(["holder", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,distance"
        assert any(line.startswith("# fitted_exponent") for line in lines)

    def test_symplectic_json(self, capsys):
        assert main(["symplectic", "--theta", "canonical", "--d", "4"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["residual"] <= 1e-10

    def test_symplectic_csv_input(self, tmp_path, capsys):
        path = tmp_path / "theta.csv"
        path.write_text("0,2.0\n-2.0,0\n")
        assert main(["symplectic", "--theta", str(path)]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["residual"] <= 1e-12

    def test_algebra_roundtrip(self, tmp_path):
        theta = SkewMatrix.from_upper(2, {(0, 1): Fraction(1, 4)})
        a = NCPolynomial.monomial(theta, (0, 1))
        b = NCPolynomial.monomial(theta, (1, 0))
        src = tmp_path / "input.json"
        src.write_text(json.dumps({
            "a": poly_to_json(a), "b": poly_to_json(b), "axis": 0,
        }))
        out = tmp_path / "result.json"
        assert main(["algebra", "--input", str(src), "--out", str(out)]) == EXIT_OK
        res = json.loads(out.read_text())
        prod = poly_from_json(res["product_ab"])
        assert prod.allclose(poly_mul(a, b), 1e-14)
        # a b = v u carries the phase exp(-2 pi i / 4) = -i; b a = u v does not
        assert prod.coefficient((1, 1)) == pytest.approx(-1j, abs=1e-14)
        prod_ba = poly_from_json(res["product_ba"])
        assert prod_ba.coefficient((1, 1)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # products spread past the demo box
    def test_moyal_demo_writes_gridfn(self, tmp_path):
        out = tmp_path / "star.gridfn"
        assert main(["moyal", "--grid", "16,6.0", "--theta", "1", "--method",
                     "fourier", "--out", str(out)]) == EXIT_OK
        g = read_gridfn(out)
        assert g.dim == 2 and g.points == 16

    @pytest.mark.filterwarnings("ignore::UserWarning")  # products spread past the demo box
    def test_moyal_file_inputs(self, tmp_path):
        f = GridFunction.gaussian(2, 6.0, 16, sigma=1.0)
        g = GridFunction.gaussian(2, 6.0, 16, sigma=1.2)
        fp, gp = tmp_path / "f.gridfn", tmp_path / "g.gridfn"
        write_gridfn(f, fp)
        write_gridfn(g, gp)
        out = tmp_path / "prod.gridfn"
        assert main(["moyal", "--f", str(fp), "--g", str(gp), "--theta", "1",
                     "--method", "direct", "--out", str(out)]) == EXIT_OK
        prod = read_gridfn(out)
        assert np.isfinite(prod.values).all()

    def test_moyal_direct_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "32,6.0", "theta": "1"}))
        out1, out2 = tmp_path / "a.gridfn", tmp_path / "b.gridfn"
        for out in (out1, out2):
            assert main(["moyal", "--config", str(cfg), "--method", "direct",
                         "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_weyl_scan_csv(self, tmp_path):
        out = tmp_path / "weyl.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [32, 64], "s": [0.37], "t": [0.37]}))
        assert main(["weyl", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("M,L,theta,s,t,residual")
        assert len(lines) == 3

    def test_weyl_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [64, 512], "s": [0.37], "t": [0.37, 0.51]}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["weyl", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 5

    def test_all_checks_smoke(self, tmp_path, capsys):
        code, lines = run_all_checks_smoke(tmp_path, capsys)
        assert code == EXIT_OK, lines
        assert "PASS" in lines[0] and not any("FAIL" in line for line in lines)
        assert lines[-1] == "14/14 checks passed"

    def test_all_checks_lines_print_every_record(self, tmp_path, capsys):
        _, lines = run_all_checks_smoke(tmp_path, capsys)
        results = checks.run_all_checks(checks.CheckConfig(**SMOKE_SIZES))
        assert len(lines) == len(results) + 1
        for line, result in zip(lines, results):
            assert line.startswith(f"PASS {result.name}: {result.context}; ")
            for r in result.records:
                assert f"{r.label} {r.value:.4g} (tol {r.tol:g})" in line
        fock = next(line for line in lines if "fock/single-mode-identities" in line)
        assert "number action residual" in fock

    def test_normal_form_tolerance_gates_both_commands(self, tmp_path, capsys, monkeypatch):
        real = symplectic.symplectic_normalize
        monkeypatch.setattr(symplectic, "symplectic_normalize",
                            lambda theta: dataclasses.replace(real(theta), residual=1.0))
        code, lines = run_all_checks_smoke(tmp_path, capsys)
        assert code == EXIT_CHECK_FAILED
        fail = [line for line in lines if line.startswith("FAIL ")]
        assert len(fail) == 1 and fail[0].startswith("FAIL symplectic/normal-form: ")
        assert f"worst residual 1 (tol {checks.NORMAL_FORM_TOL:g})" in fail[0]
        assert main(["symplectic", "--theta", "canonical", "--d", "4"]) == EXIT_CHECK_FAILED
        assert f"> {checks.NORMAL_FORM_TOL:g}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")  # short offset spans
    def test_lip_half_bound_gates_holder_and_all_checks(self, tmp_path, capsys, monkeypatch):
        # D = 5 is 14.1 sqrt(delta) already at the largest offset 1/8, past the
        # Hoelder-1/2 bound 12 sqrt(delta)
        monkeypatch.setattr(spectra, "hausdorff_distance", lambda a, b: 5.0)
        res = spectra.holder_scan(Fraction(0), [Fraction(1, 8), Fraction(1, 16)])
        assert res.c_fit > spectra.LIP_HALF_BOUND and not res.lip_half_ok
        assert main(["holder"]) == EXIT_CHECK_FAILED
        assert "# lip_half_pointwise,0" in capsys.readouterr().out.splitlines()
        code, lines = run_all_checks_smoke(tmp_path, capsys)
        assert code == EXIT_CHECK_FAILED
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL ")] == [
            "FAIL spectra/lip-half-pointwise"]
        assert lines[-1] == "13/14 checks passed"

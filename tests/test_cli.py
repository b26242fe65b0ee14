"""End-to-end tests of the command-line interface and the JSON schemas, and of
its contract: exit codes, atomic writes, byte-identical output for the same
config and seed, and exit 2 on invalid input with no stderr line over 200
characters."""
import dataclasses
import json
import os
import stat
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from fractions import Fraction

from ncspaces import checks, cli, spectra, symplectic, weyl_dynamics as wd
from ncspaces.cli import EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_OK, build_parser, main
from ncspaces.errors import ValidationError, clip
from ncspaces.gridfn import GridFunction, read_gridfn, write_gridfn
from ncspaces.serialize import (
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    theta_from_json,
    theta_to_json,
)
from ncspaces.skew import SkewMatrix
from ncspaces.twisted_algebra import NCPolynomial, poly_mul

THETA_PAST_FLOAT_RANGE = "1" + "0" * 400 + "/3"

SMOKE_SIZES = {
    "algebra_triples": 5, "tensor_max_d": 3, "symplectic_cases": 5,
    "metric_pairs": 5, "hermitian_pairs": 5, "moyal_points": 16,
    "holder_max_k": 4,
}


def assert_close(a, b, tol):
    """Every coefficient of a - b, taken in floats, is at most tol in magnitude."""
    gap = (a.to_float() - b.to_float()).coeffs.values()
    assert max(map(abs, gap), default=0.0) <= tol


def config_file(tmp_path, params) -> str:
    """The path of a config file in tmp_path holding params as JSON."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(params))
    return str(path)


def run_all_checks_smoke(tmp_path, capsys):
    """`ncspaces all-checks` at the smoke sizes: (exit code, output lines)."""
    code = main(["all-checks", "--config", config_file(tmp_path, SMOKE_SIZES)])
    return code, capsys.readouterr().out.splitlines()


def failing_names(lines):
    """The result names of the FAIL lines among all-checks output lines."""
    return [line[5:line.index(":")] for line in lines if line.startswith("FAIL ")]


def invalid_input_stderr(capsys, argv) -> str:
    """The stderr of main(argv), which must exit 2 (argparse's own errors exit
    by SystemExit) with no stderr line over 200 characters."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_INVALID, err
    assert max(map(len, err.splitlines()), default=0) <= 200, err
    return err


def deep_path(tmp_path, name):
    """tmp_path / <a 120-character folder> / name, the folder made: an error
    message can show such a path whole in no line of 200 characters."""
    folder = tmp_path / ("d" * 120)
    folder.mkdir(exist_ok=True)
    return folder / name


# Output name -> arguments of one run whose output must be the same bytes in
# two processes under different hash seeds, so that no output follows set or
# dict iteration order.  all-checks runs every criterion at its sizes; the
# relations runs assemble a 1024-dimensional tuple from identity pairs and
# from drawn pairs, a 729-dimensional one from legs of size 3 and the
# single-leg tuple that shares its pair's read-only arrays; symplectic at d = 6
# reads its transform from an eigendecomposition, whose eigenvector phases and
# plane order must not vary; algebra sums float products, adjoints and
# transferred coefficients through argsort and reduceat; weyl runs on grids
# that only GridSpec admits (48, 100) and on its FFT route at a power of two
# and past DENSE_CAP (1024, 8192).
BYTE_IDENTICAL_RUNS = {
    "algebra.json": "algebra --input algebra-in.json",
    "all-checks.txt": "all-checks",
    "relations-d5.txt": "relations --theta identity-pairs --d 5",
    "relations-random-d5.txt": "relations --theta random --d 5",
    "relations-third-d4.txt": "relations --theta 1/3 --d 4",
    "relations-half-d2.txt": "relations --theta 1/2 --d 2",
    "moyal-direct.gridfn": "moyal --method direct",
    "moyal-fourier.gridfn": "moyal --method fourier",
    "symplectic-d6.txt": "symplectic --theta random --d 6",
    "holder.csv": "holder",
    "audit.txt": "audit",
    "weyl.csv": "weyl",
    "weyl-any-m.csv": "weyl --config weyl-any-m.json",
    "weyl-fft.csv": "weyl --config weyl-fft.json",
    "butterfly.csv": "butterfly --qmax 10",
}
UPPER = [0.1414213562373095, -0.4487989505128276, 0.31]
RUN_INPUTS = {
    "algebra-in.json": {
        "a": {"dim": 3, "upper": UPPER, "terms": [
            {"m": [1, 0, -2], "re": 0.5, "im": -1.25}, {"m": [0, 2, 1], "re": -0.75, "im": 0.3},
            {"m": [-1, 1, 0], "re": 1.1, "im": 0.0}, {"m": [0, 0, 0], "re": 0.2, "im": 0.9}]},
        "b": {"dim": 3, "upper": UPPER, "terms": [
            {"m": [0, -2, 1], "re": -1.5, "im": 0.4}, {"m": [1, 1, 1], "re": 0.6, "im": 0.6},
            {"m": [-1, 1, 0], "re": -0.3, "im": 1.7}]},
        "axis": 1,
        "z": [[0.6, 0.8], [0.0, 1.0], [-0.8, 0.6]],
    },
    "weyl-any-m.json": {"grids": [48, 100], "L": 6.0},
    "weyl-fft.json": {"grids": [1024, 8192]},
}
# one child process: every run, each to --out in the directory named by argv[1]
# (run from the directory of the input files); prints the exit codes as JSON
CHILD = """import json, sys
from ncspaces.cli import main
out, runs = sys.argv[1], json.loads(sys.argv[2])
print(json.dumps({name: main([*args.split(), "--out", f"{out}/{name}"])
                  for name, args in runs.items()}))
"""


@pytest.fixture(scope="module")
def hash_seed_runs(tmp_path_factory):
    """Every run of BYTE_IDENTICAL_RUNS in two child processes at once, one
    under PYTHONHASHSEED=1 and one under 2: {seed: (output directory, exit
    codes by output name)}.  The children import the ncspaces under test."""
    root = tmp_path_factory.mktemp("runs")
    for name, content in RUN_INPUTS.items():
        (root / name).write_text(json.dumps(content))
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                                         os.environ.get("PYTHONPATH")]))

    def run(seed):
        (root / seed).mkdir()
        child = subprocess.run(
            [sys.executable, "-c", CHILD, seed, json.dumps(BYTE_IDENTICAL_RUNS)], cwd=root,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        return seed, (root / seed, json.loads(child.stdout))

    with ThreadPoolExecutor(2) as pool:
        return dict(pool.map(run, ["1", "2"]))


class TestCliContract:
    @pytest.mark.parametrize("name", BYTE_IDENTICAL_RUNS)
    def test_output_is_byte_identical_across_hash_seeds(self, hash_seed_runs, name):
        (one, codes_one), (two, codes_two) = hash_seed_runs.values()
        assert codes_one[name] == codes_two[name] == EXIT_OK
        assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_moyal_demo_direct_and_fourier_agree(self, hash_seed_runs):
        # the two routes share only to_frequency; 1e-6 is criterion 07's cross
        # tolerance (their difference is at round-off, about 6e-14)
        out, _ = hash_seed_runs["1"]
        direct = read_gridfn(out / "moyal-direct.gridfn").values
        fourier = read_gridfn(out / "moyal-fourier.gridfn").values
        assert float(np.abs(direct - fourier).max()) <= 1e-6

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_every_subcommand_help_exits_0(self, capsys, command):
        # every flag is built from the one command table, which also names the subcommands
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: ncspaces {command} ")


class TestSerialization:
    def test_theta_rational_roundtrip(self):
        theta = SkewMatrix.from_upper(3, {(0, 1): Fraction(1, 3), (1, 2): Fraction(-2, 7)})
        back = theta_from_json(theta_to_json(theta))
        assert back == theta
        assert back.is_rational

    def test_poly_roundtrip(self):
        theta = SkewMatrix.from_upper(2, {(0, 1): Fraction(1, 4)})
        a = NCPolynomial(theta, {(1, 0): 1.5 - 2j, (0, -2): 0.25j})
        assert_close(poly_from_json(poly_to_json(a)), a, 1e-15)

    def test_matrix_layout(self):
        # rows and cols, then every entry as an [re, im] pair in row-major order
        m = np.array([[1 + 2j, 3, -0.5j], [4j, -5, 6.25]])
        assert matrix_to_json(m) == {"rows": 2, "cols": 3, "data": [
            [1.0, 2.0], [3.0, 0.0], [0.0, -0.5], [0.0, 4.0], [-5.0, 0.0], [6.25, 0.0]]}


class TestCliBasics:
    def test_audit_reference_point(self, capsys):
        assert main(["audit", "--k", "8100", "--target", "2500"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "slack: 26.0" in out

    def test_audit_integral_target_as_string(self, tmp_path, capsys):
        assert main(["audit", "--target", "2500"]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["audit", "--config", config_file(tmp_path, {"target": "2500.0"})]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_audit_failing_k(self, capsys):
        assert main(["audit", "--k", "100", "--target", "2500"]) == EXIT_CHECK_FAILED

    def test_butterfly_rejects_qmax_zero(self, capsys):
        invalid_input_stderr(capsys, ["butterfly", "--qmax", "0"])

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
        for command, key in [("audit", "bogus"), ("butterfly", "resolution"),
                             ("holder", "jobs"), ("all-checks", "holder_resolution")]:
            argv = [command, "--config", config_file(tmp_path, {key: 1})]
            assert "unknown config key" in invalid_input_stderr(capsys, argv)

    def test_unknown_flag_exits_2(self, capsys):
        for argv in (["butterfly", "--qmax", "3", "--resolution", "64"],
                     ["holder", "--jobs", "2"],
                     ["butterfly", "--qmax", "3", "--theta", "1/3"],
                     ["weyl", "--grid", "64,8"]):
            assert "unrecognized arguments: " in invalid_input_stderr(capsys, argv)

    def test_calls_in_a_row_keep_no_state(self, tmp_path, capsys):
        # every call in a process parses with the one parser built by the first
        assert build_parser() is build_parser()
        assert invalid_input_stderr(capsys, ["butterfly"]) == "error: missing --qmax\n"
        argv = ["butterfly", "--qmax", "3", "--theta", "1/3"]
        assert "unrecognized arguments: --theta 1/3" in invalid_input_stderr(capsys, argv)
        assert main(["butterfly", "--qmax", "3"]) == EXIT_OK
        printed = capsys.readouterr()
        assert printed.out.startswith("p,q,band_index,a,b\n") and printed.err == ""
        out = tmp_path / "b.csv"
        assert main(["butterfly", "--qmax", "3", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(["butterfly", "--qmax", "3"]) == EXIT_OK
        assert capsys.readouterr().out == printed.out == out.read_text()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["butterfly", "--help"])
            assert exc.value.code == EXIT_OK
            assert "--qmax" in capsys.readouterr().out

    @pytest.mark.parametrize("command, params", [
        ("audit", {"k": 0}),
        ("relations", {"d": 0}),
        ("weyl", {"L": 0, "grids": [32]}),
        ("holder", {"qmax": 0}),
    ])
    def test_explicit_zero_is_not_replaced_by_default(self, tmp_path, capsys, command, params):
        invalid_input_stderr(capsys, [command, "--config", config_file(tmp_path, params)])

    def test_weyl_explicit_zero_theta(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"theta": 0, "grids": [32]})
        assert main(["weyl", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "0.0"

    def test_weyl_rational_theta(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"grids": [32]})
        assert main(["weyl", "--config", cfg, "--theta", "1/3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == repr(1 / 3)

    def test_weyl_unparsable_theta_exits_2(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"grids": [32]})
        for theta in ("1/0", "abc"):
            argv = ["weyl", "--config", cfg, "--theta", theta]
            assert "cannot parse theta spec" in invalid_input_stderr(capsys, argv)

    @pytest.mark.parametrize("key, value", [("L", True), ("s", [False]), ("t", [True])])
    def test_weyl_real_key_rejects_bool_and_takes_numeric_string(self, tmp_path, capsys, key, value):
        # read by float(), a boolean was 1.0 or 0.0; the integer keys reject it
        cfg = config_file(tmp_path, {"L": "6.0", "grids": [16], "s": ["0.5"], "t": [0.37]})
        assert main(["weyl", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("16,6.0,1.0,0.5,0.37,")
        cfg = config_file(tmp_path, {"grids": [16], key: value})
        assert f"cannot parse {key} spec" in invalid_input_stderr(capsys, ["weyl", "--config", cfg])

    @pytest.mark.parametrize("argv, config, key", [
        pytest.param(["symplectic", "--theta", "{csv}"], None, "theta", id="symplectic-csv-cell"),
        pytest.param(["relations", "--theta", "1/0"], None, "theta", id="relations-zero-den"),
        pytest.param(["relations", "--theta", "a/b"], None, "theta", id="relations-non-numeric"),
        pytest.param(["holder", "--base", "x"], None, "base", id="holder-base"),
        pytest.param(["audit"], {"target": "abc"}, "target", id="audit-target"),
        pytest.param(["weyl"], {"s": ["a"]}, "s", id="weyl-s"),
        pytest.param(["relations", "--d", "x"], None, "d", id="relations-d-flag"),
        pytest.param(["butterfly", "--qmax", "x"], None, "qmax", id="butterfly-qmax-flag"),
        pytest.param(["audit", "--k", "1.5"], None, "k", id="audit-k-flag"),
        pytest.param(["audit", "--target", "abc"], None, "target", id="audit-target-flag"),
        pytest.param(["audit", "--seed", "x"], None, "seed", id="audit-seed-flag"),
        pytest.param(["audit"], {"k": 8100.5}, "k", id="audit-k-non-integral"),
        pytest.param(["audit"], {"k": "8100.5"}, "k", id="audit-k-non-integral-string"),
        pytest.param(["relations"], {"d": 2.5}, "d", id="relations-d-non-integral"),
        pytest.param(["all-checks"], {"algebra_triples": 5.5}, "algebra_triples",
                     id="all-checks-size-non-integral"),
        pytest.param(["weyl"], {"grids": [32.5]}, "grids", id="weyl-grids-non-integral"),
        pytest.param(["moyal", "--grid", "16.5,6.0"], None, "grid", id="moyal-grid-M-non-integral"),
        # a list key given a string was iterated: "grids": "64" ran M = 6 and M = 4
        pytest.param(["weyl"], {"grids": "64"}, "grids", id="weyl-grids-string"),
        pytest.param(["weyl"], {"s": "37"}, "s", id="weyl-s-string"),
        pytest.param(["weyl"], {"t": "5"}, "t", id="weyl-t-string"),
        pytest.param(["holder"], {"offsets": "12"}, "offsets", id="holder-offsets-string"),
        # a negative seed ended in a ValueError traceback from the RNG
        pytest.param(["moyal", "--seed", "-1"], None, "seed", id="moyal-seed-negative"),
        pytest.param(["relations", "--theta", "random", "--seed", "-1"], None, "seed",
                     id="relations-seed-negative"),
        pytest.param(["all-checks", "--seed", "-1"], None, "seed", id="all-checks-seed-negative"),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, argv, config, key):
        csv = tmp_path / "bad.csv"
        csv.write_text("0,x\n-1,0\n")
        argv = [arg.format(csv=csv) for arg in argv]
        if config is not None:
            argv += ["--config", config_file(tmp_path, config)]
        assert f"cannot parse {key} spec" in invalid_input_stderr(capsys, argv)

    @pytest.mark.parametrize("key, value", [
        ("algebra_triples", 0), ("tensor_max_d", 1), ("symplectic_cases", -3),
        ("metric_pairs", 0), ("hermitian_pairs", 0), ("moyal_points", 0), ("holder_max_k", 3),
    ])
    def test_all_checks_size_below_minimum_exits_2(self, tmp_path, capsys, key, value):
        # each once ran, most to a vacuous PASS line ("0 rational triples", "d=2..1")
        cfg = config_file(tmp_path, {**SMOKE_SIZES, key: value})
        assert f"{key} must be >= " in invalid_input_stderr(capsys, ["all-checks", "--config", cfg])

    @pytest.mark.parametrize("key, value", [
        ("seed", -1), ("algebra_triples", 0), ("tensor_max_d", 1), ("holder_max_k", 3),
        ("metric_pairs", 2.0), ("hermitian_pairs", True),
        ("algebra_triples", checks.COUNT_CAP + 1), ("symplectic_cases", checks.COUNT_CAP + 1),
        ("metric_pairs", checks.COUNT_CAP + 1), ("hermitian_pairs", checks.COUNT_CAP + 1),
        # past the caps of the code they size: the d = 6 tensor side 2^15,
        # the Hoelder q = 2^8, a grid that is no power of two, M^2 = 128^2
        ("tensor_max_d", 6), ("holder_max_k", 8), ("moyal_points", 48), ("moyal_points", 128),
    ])
    def test_check_config_rejects_bad_sizes(self, key, value):
        with pytest.raises(ValidationError, match=key):
            checks.CheckConfig(**{key: value})

    def test_check_config_accepts_sizes_at_caps(self):
        cfg = checks.CheckConfig(tensor_max_d=5, holder_max_k=7, moyal_points=64)
        assert (cfg.tensor_max_d, cfg.holder_max_k, cfg.moyal_points) == (5, 7, 64)
        checks.CheckConfig(moyal_points=31)  # below the floor it runs at 32

    @pytest.mark.parametrize("argv, content, message", [
        # levels 0 and -1 applied no refinement step and printed "holds: True"
        pytest.param(["audit", "--config"], {"levels": 0}, "levels must be >= 1",
                     id="audit-levels-0"),
        pytest.param(["audit", "--config"], {"levels": -1}, "levels must be >= 1",
                     id="audit-levels-negative"),
        # a boolean z entry was taken as 1; a z entry is exactly two reals
        pytest.param(["algebra", "--input"],
                     {"a": {"dim": 2, "upper": [0.5], "terms": [{"m": [1, 0], "re": 1.0}]},
                      "z": [[True, False], [0, 1]]}, "cannot parse z spec", id="algebra-z-bool"),
        pytest.param(["algebra", "--input"],
                     {"a": {"dim": 2, "upper": [0.5], "terms": [{"m": [1, 0], "re": 1.0}]},
                      "z": [[1, 0, 0], [0, 1]]}, "cannot parse z spec", id="algebra-z-triple"),
        # a boolean re was taken as 1.0 and a number of terms iterated (TypeError,
        # exit 1); re past the float range was an OverflowError
        pytest.param(["algebra", "--input"],
                     {"a": {"dim": 2, "upper": [0.5], "terms": [{"m": [1, 0], "re": True}]}},
                     "bad polynomial term", id="algebra-re-bool"),
        pytest.param(["algebra", "--input"], {"a": {"dim": 2, "upper": [0.5], "terms": 5}},
                     "bad polynomial terms: expected a JSON array", id="algebra-terms-int"),
        pytest.param(["algebra", "--input"],
                     {"a": {"dim": 2, "upper": [0.5], "terms": [{"m": [1, 0], "re": 10**400}]}},
                     "not finite", id="algebra-re-past-float-range"),
        # at float theta an exponent past the float range was an OverflowError
        pytest.param(["algebra", "--input"],
                     {"a": {"dim": 2, "upper": [0.5], "terms": [{"m": [10**400, 0], "re": 1.0}]}},
                     "float structure exponent", id="algebra-exponent-past-float-range"),
        # reported as "q = 1 exceeds cap -5"
        pytest.param(["holder", "--config"], {"qmax": -5}, "q_cap must be >= 1",
                     id="holder-qmax-negative"),
    ])
    def test_value_out_of_range_exits_2(self, tmp_path, capsys, argv, content, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        assert message in invalid_input_stderr(capsys, argv + [str(path)])

    @pytest.mark.parametrize("size, message", [
        # accepted before, a run of about a week at criterion 01's pace
        ({"algebra_triples": 10**9}, "algebra_triples 1000000000 exceeds cap 10000"),
        # these met their caps inside the checks, after about 1 s of earlier
        # criteria; moyal_points 128 first built two M x M Gaussians
        ({"tensor_max_d": 6}, "tensor_max_d 6 exceeds cap 5"),
        ({"holder_max_k": 8}, "holder_max_k 8 exceeds cap 7"),
        ({"moyal_points": 48}, "moyal_points past 32 must be a power of two, got 48"),
        ({"moyal_points": 128}, "moyal_points 128 exceeds cap 64"),
    ], ids=["triples", "tensor", "holder", "moyal-48", "moyal-128"])
    def test_all_checks_size_past_cap_exits_2_before_any_check(self, tmp_path, capsys, monkeypatch,
                                                               size, message):
        monkeypatch.setattr(checks, "run_all_checks", lambda cfg: pytest.fail("a check ran"))
        cfg = config_file(tmp_path, size)
        assert message in invalid_input_stderr(capsys, ["all-checks", "--config", cfg])

    @pytest.mark.parametrize("argv, config", [
        pytest.param(["symplectic", "--theta", "nan", "--d", "2"], None, id="symplectic-theta"),
        pytest.param(["weyl", "--theta", "nan"], None, id="weyl-theta"),
        pytest.param(["weyl"], {"grids": [32], "L": float("inf")}, id="weyl-L"),
        pytest.param(["weyl"], {"grids": [32], "t": [float("nan")]}, id="weyl-t"),
        pytest.param(["moyal", "--theta", "nan", "--grid", "16,6.0"], None, id="moyal-theta-nan"),
        pytest.param(["moyal", "--theta", "inf", "--grid", "16,6.0"], None, id="moyal-theta-inf"),
        pytest.param(["moyal", "--grid", "16,nan"], None, id="moyal-grid-L"),
        pytest.param(["moyal", "--grid", "64,inf"], None, id="moyal-grid-L-inf"),
        # an exact theta past the float range ended in an OverflowError traceback
        pytest.param(["symplectic", "--theta", THETA_PAST_FLOAT_RANGE, "--d", "2"], None,
                     id="symplectic-theta-past-float-range"),
        pytest.param(["moyal", "--theta", THETA_PAST_FLOAT_RANGE, "--grid", "16,6.0"], None,
                     id="moyal-theta-past-float-range"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = config_file(tmp_path, config)  # NaN and Infinity, as Python's json reads them
            argv = argv + ["--config", cfg]
        assert invalid_input_stderr(capsys, argv).startswith("error: ")

    def test_algebra_non_finite_coefficient_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        term = {"m": [1, 0], "re": float("nan"), "im": 0.0}  # written as NaN
        path.write_text(json.dumps({"a": {"dim": 2, "upper": [0.5], "terms": [term]}}))
        assert "not finite" in invalid_input_stderr(capsys, ["algebra", "--input", str(path)])

    def test_algebra_product_past_float_range_exits_2(self, tmp_path, capsys):
        # 1e200 u^(1,0) squared wrote "re": Infinity, "im": NaN (no JSON) and exited 0
        poly = {"dim": 2, "upper": ["1/2"], "terms": [{"m": [1, 0], "re": 1e200, "im": 0.0}]}
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps({"a": poly, "b": poly}))
        argv = ["algebra", "--input", str(path), "--out", str(out)]
        assert "not finite" in invalid_input_stderr(capsys, argv)
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        pytest.param(["symplectic", "--theta", THETA_PAST_FLOAT_RANGE, "--d", "2"],
                     "skew matrix entry", id="symplectic-theta"),
        pytest.param(["moyal", "--seed", "-1" + "0" * 400], "seed", id="moyal-seed"),
        pytest.param(["butterfly", "--qmax", "1" + "0" * 400], "flux denominator q",
                     id="butterfly-qmax"),
        # checked against DENSE_CAP before the clock and shift matrices are
        # built: this ended in numpy's "Maximum allowed size exceeded" (exit 1)
        pytest.param(["relations", "--theta", "1/1" + "0" * 400, "--d", "2"],
                     "clock and shift side q = 1000", id="relations-theta"),
    ])
    def test_rejected_value_clipped_in_message(self, capsys, argv, name):
        # the whole value was printed: lines of 473, over 850 and over 450 characters
        err = invalid_input_stderr(capsys, argv)
        assert name in err and "..." in err
        assert max(map(len, err.splitlines())) < 200

    def test_rejected_algebra_term_clipped_in_message(self, tmp_path, capsys):
        # the term and its multi-index were each printed whole: a line of 899 characters
        term = {"m": [1.5, 10**400], "re": 1.0}
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"a": {"dim": 2, "upper": [0.5], "terms": [term]}}))
        err = invalid_input_stderr(capsys, ["algebra", "--input", str(path)])
        assert "bad polynomial term" in err and "non-integer entries" in err
        assert max(map(len, err.splitlines())) < 200

    @pytest.mark.parametrize("command", ["relations", "weyl"])
    def test_theta_help_lists_only_accepted_forms(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        assert "canonical" not in capsys.readouterr().out

    def test_symplectic_missing_theta(self, capsys):
        assert "missing --theta" in invalid_input_stderr(capsys, ["symplectic"])

    @pytest.mark.parametrize("command, key", [("algebra", "input"), ("butterfly", "qmax"),
                                              ("symplectic", "theta")])
    def test_required_parameter_absent_or_null_exits_2(self, tmp_path, capsys, command, key):
        # a JSON null counts as absent
        for argv in ([command], [command, "--config", config_file(tmp_path, {key: None})]):
            assert invalid_input_stderr(capsys, argv) == f"error: missing --{key}\n"

    def test_butterfly_qmax_past_cap_exits_2_before_listing_fluxes(self, capsys, monkeypatch):
        # listing every flux up to q = 6000 took two minutes before the first one was rejected
        monkeypatch.setattr(spectra, "coprime_fluxes", lambda qmax: pytest.fail("fluxes listed"))
        err = invalid_input_stderr(capsys, ["butterfly", "--qmax", "1000000"])
        assert "reduced flux denominator q = 1000000 exceeds cap 200" in err

    def test_holder_flux_past_dense_cap_exits_2(self, tmp_path, capsys):
        # under a qmax of 10^7 the Bloch matrix of q = 9999991 was allocated:
        # numpy's MemoryError, exit 1
        cfg = config_file(tmp_path, {"qmax": 10**7, "offsets": ["1/9999991", "1/9999989"]})
        err = invalid_input_stderr(capsys, ["holder", "--config", cfg])
        assert "Bloch matrix side q = 9999991 exceeds cap 4096" in err

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
        err = invalid_input_stderr(capsys, ["audit", "--config", str(cfg)])
        assert ":3:" in err  # line number of the defect

    @pytest.mark.parametrize("k", [8100, 8100.0, "8100"])
    def test_integral_int_values_accepted(self, tmp_path, capsys, k):
        assert main(["audit", "--config", config_file(tmp_path, {"k": k})]) == EXIT_OK
        assert capsys.readouterr().out.startswith("k: 8100 (sqrt exact)\n")

    @pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not-utf8"])
    def test_algebra_unreadable_input_exits_2(self, tmp_path, capsys, content):
        path = deep_path(tmp_path, "in.json")
        if content is not None:
            path.write_bytes(content)
        err = invalid_input_stderr(capsys, ["algebra", "--input", str(path)])
        assert f"cannot read input {clip(str(path))}: " in err
        assert "malformed" not in err  # an unreadable file is not malformed JSON

    def test_config_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        cfg = deep_path(tmp_path, "cfg.json")
        cfg.write_text('{"k": ' + "1" * 5000 + "}")
        err = invalid_input_stderr(capsys, ["audit", "--config", str(cfg)])
        assert f"{clip(str(cfg))}: malformed JSON config" in err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe")
        err = invalid_input_stderr(capsys, ["audit", "--config", str(cfg)])
        assert f"cannot read config {clip(str(cfg))}: " in err

    def test_moyal_missing_input_exits_2(self, tmp_path, capsys):
        f, g = deep_path(tmp_path, "a.gridfn"), deep_path(tmp_path, "b.gridfn")
        err = invalid_input_stderr(capsys, ["moyal", "--f", str(f), "--g", str(g)])
        assert f"cannot read grid file {clip(str(f))}: " in err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["moyal", "--method", "bogus", "--grid", "16,6.0"], "unknown method 'bogus'",
                     id="moyal-method"),
        pytest.param(["relations", "--theta", "bogus"], "unknown pair spec 'bogus'",
                     id="relations-theta"),
        pytest.param(["moyal", "--f", "{tmp}/f.gridfn"], "moyal needs both 'f' and 'g' grid files",
                     id="moyal-f-only"),
        pytest.param(["algebra", "--input", "{tmp}/b-only.json"], "missing polynomial 'a'",
                     id="algebra-no-a"),
        pytest.param(["audit", "--config", "{tmp}/array.json"], "config must be a JSON object",
                     id="config-array"),
    ])
    def test_invalid_input_exits_2(self, tmp_path, capsys, argv, message):
        (tmp_path / "b-only.json").write_text(json.dumps({"b": {"dim": 2, "upper": [0.5]}}))
        (tmp_path / "array.json").write_text("[1, 2]")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert message in invalid_input_stderr(capsys, argv)

    def test_moyal_fourier_past_convolve_cap_exits_2(self, tmp_path, capsys):
        # three axes at M = 32: M^5 = 2^25 is past the cap of 2^24
        f = GridFunction.gaussian(3, 8.0, 32, sigma=1.0)
        fp = tmp_path / "f.gridfn"
        write_gridfn(f, fp)
        argv = ["moyal", "--f", str(fp), "--g", str(fp), "--method", "fourier"]
        err = invalid_input_stderr(capsys, argv)
        assert "twisted convolution M^(2d-1) = 33554432 exceeds cap 16777216" in err

    def test_symplectic_unreadable_theta_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "theta.csv"
        path.write_bytes(b"\xff\xfe0,1\n")
        err = invalid_input_stderr(capsys, ["symplectic", "--theta", str(path)])
        assert f"cannot read theta {clip(str(path))}: " in err

    # each payload has the length the truncated header would ask for
    @pytest.mark.parametrize("header, samples, message", [
        pytest.param(b"5", [], "JSON object", id="header-not-object"),
        pytest.param(b'{"d": 1, "L": 6.0, "M": 1.5}', [0j], "M must be an integer",
                     id="M-fractional"),
        pytest.param(b'{"d": 2.5, "L": 6.0, "M": 8}', [0j] * 64, "d must be an integer",
                     id="d-fractional"),
        pytest.param(b'{"d": 1, "L": 6.0, "M": 8}', [complex(np.nan, 0)] * 8, "non-finite",
                     id="nan-sample"),
        pytest.param(b'{"d": 1, "L": "x", "M": 8}', [0j] * 8, "not a number", id="L-not-number"),
        pytest.param(b'{"d": 1, "L": true, "M": 8}', [0j] * 8, "not a number", id="L-bool"),
        pytest.param(b'{"d": true, "L": 6.0, "M": 8}', [0j] * 8, "d must be an integer",
                     id="d-bool"),
        pytest.param(b'{"d": 3000000, "L": 6.0, "M": 3}', [], "payload has 0 bytes", id="d-huge"),
        pytest.param(b'{"d": 1, "L": 6.0, "M": ' + b"1" * 5000 + b"}", [], "bad grid file header",
                     id="M-past-digit-limit"),
    ])
    def test_moyal_malformed_grid_file_exits_2(self, tmp_path, capsys, header, samples, message):
        path = tmp_path / "f.gridfn"
        path.write_bytes(header + b"\n" + np.array(samples, dtype="<c8").tobytes())
        with pytest.raises(ValidationError, match=message):
            read_gridfn(path)
        argv = ["moyal", "--f", str(path), "--g", str(path)]
        assert message in invalid_input_stderr(capsys, argv)

    @pytest.mark.parametrize("poly", [
        pytest.param({"dim": 2, "upper": [0.5], "terms": [{"m": [1.5, 0], "re": 1.0}]},
                     id="exponent"),
        pytest.param({"dim": 2.5, "upper": [0.5], "terms": []}, id="dim"),
        pytest.param({"dim": 2, "upper": [0.5], "terms": [{"m": [True, False], "re": 1.0}]},
                     id="exponent-bool"),
    ])
    def test_algebra_non_integral_input_exits_2(self, tmp_path, capsys, poly):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"a": poly}))
        assert "integer" in invalid_input_stderr(capsys, ["algebra", "--input", str(path)])

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"k": 100, "target": 2500})
        assert main(["audit", "--config", cfg, "--k", "8100"]) == EXIT_OK


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
        cfg = config_file(tmp_path, {"base": "0", "offsets": ["1/4", "1/8", "1/16"]})
        code = main(["holder", "--config", cfg, "--out", str(out)])
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
        assert_close(prod, poly_mul(a, b), 1e-14)
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

    @pytest.mark.filterwarnings("ignore::UserWarning")  # products spread past the demo box
    @pytest.mark.parametrize("theta", ["zero", "random"])
    def test_moyal_demo_without_out_prints_summary(self, capsys, theta):
        assert main(["moyal", "--grid", "16,6.0", "--theta", theta, "--method", "direct"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("star product computed: max |value| = ")
        if theta == "zero":  # the pointwise product of the demo's two Gaussians
            f = GridFunction.gaussian(2, 6.0, 16, sigma=1.0)
            g = GridFunction.gaussian(2, 6.0, 16, sigma=1.3, center=(0.4, -0.3))
            assert float(out.split("= ")[1]) == pytest.approx(np.abs(f.values * g.values).max())

    def test_moyal_direct_deterministic_bytes(self, tmp_path):
        cfg = config_file(tmp_path, {"grid": "32,6.0", "theta": "1"})
        out1, out2 = tmp_path / "a.gridfn", tmp_path / "b.gridfn"
        for out in (out1, out2):
            assert main(["moyal", "--config", cfg, "--method", "direct",
                         "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_weyl_scan_csv(self, tmp_path):
        out = tmp_path / "weyl.csv"
        cfg = config_file(tmp_path, {"grids": [32, 64], "s": [0.37], "t": [0.37]})
        assert main(["weyl", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("M,L,theta,s,t,residual")
        assert len(lines) == 3

    def test_weyl_deterministic_bytes(self, tmp_path):
        cfg = config_file(tmp_path, {"grids": [64, 512], "s": [0.37], "t": [0.37, 0.51]})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["weyl", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 5

    def test_all_checks_smoke(self, tmp_path, capsys):
        code, lines = run_all_checks_smoke(tmp_path, capsys)
        assert code == EXIT_OK, lines
        assert failing_names(lines) == list(checks.DOCUMENTED)
        assert lines[-1] == ("16/18 checks passed; expected (documented): 2; unexpected: 0; "
                             "documented, not failed: 0")

    def test_all_checks_lines_print_every_record(self, hash_seed_runs, criterion_results):
        # a default run prints the lines of every criterion's run, less the time lines
        out, codes = hash_seed_runs["1"]
        assert codes["all-checks.txt"] == EXIT_OK
        lines = (out / "all-checks.txt").read_text().splitlines()
        results = [result for criterion in checks.CRITERIA
                   for result in criterion_results(criterion) if result.name != "time"]
        assert lines[:-1] == [result.line() for result in results]
        assert failing_names(lines) == list(checks.DOCUMENTED)
        for line, result in zip(lines, results):
            status = "PASS" if result.passed else "FAIL"
            assert line.startswith(f"{status} {result.name}: {result.context}; ")
            for r in result.records:
                assert f"{r.label} {r.value:.4g} (tol {r.tol:g})" in line
        fock = next(line for line in lines if "fock/single-mode-identities" in line)
        assert "number action residual" in fock

    def test_all_checks_exits_3_when_a_documented_result_passes(self, tmp_path, capsys, monkeypatch):
        real = spectra.holder_scan
        monkeypatch.setattr(spectra, "holder_scan", lambda base, offsets: dataclasses.replace(
            real(base, offsets), slope=0.5))
        cfg = config_file(tmp_path, SMOKE_SIZES)
        assert main(["all-checks", "--config", cfg]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert failing_names(captured.out.splitlines()) == ["fock/two-mode-identities"]
        assert "unexpected: none; documented, not failed: spectra/exponent-window" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_checks_fails_on_a_division_by_zero_in_a_check(self, tmp_path, capsys, monkeypatch):
        # no warning filter of all-checks may hide a nan or a division by zero
        audit = wd.audit_interpolation_constants

        def audit_dividing_by_zero(*args, **kwargs):
            np.float64(1.0) / np.float64(0.0)
            return audit(*args, **kwargs)

        monkeypatch.setattr(wd, "audit_interpolation_constants", audit_dividing_by_zero)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            run_all_checks_smoke(tmp_path, capsys)

    def test_normal_form_tolerance_gates_both_commands(self, tmp_path, capsys, monkeypatch):
        real = symplectic.symplectic_normalize
        monkeypatch.setattr(symplectic, "symplectic_normalize",
                            lambda theta: dataclasses.replace(real(theta), residual=1.0))
        code, lines = run_all_checks_smoke(tmp_path, capsys)
        assert code == EXIT_CHECK_FAILED
        assert failing_names(lines) == ["symplectic/normal-form", *checks.DOCUMENTED]
        assert f"worst residual 1 (tol {checks.NORMAL_FORM_TOL:g})" in lines[6]
        assert main(["symplectic", "--theta", "canonical", "--d", "4"]) == EXIT_CHECK_FAILED
        assert f"> {checks.NORMAL_FORM_TOL:g}" in capsys.readouterr().err

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
        assert failing_names(lines) == ["spectra/lip-half-pointwise", *checks.DOCUMENTED]
        assert lines[-1] == ("15/18 checks passed; expected (documented): 2; unexpected: 1; "
                             "documented, not failed: 0")

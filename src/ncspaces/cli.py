"""Command-line front end.

Subcommands: algebra, relations, symplectic, moyal, weyl, butterfly, holder,
audit, all-checks.  Parameters come from flags or from a JSON file passed as
--config (flags override the file; unknown config keys are rejected).  Exit
codes: 0 success, 2 invalid input, 3 a check failed.

Outputs are written atomically (temp file + rename) and are byte-identical
for identical configs and seeds.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

from . import checks as checks_mod
from . import finite_reps as fr
from . import moyal as moyal_mod
from . import spectra, symplectic
from . import weyl_dynamics as wd
from .checks import DEFAULT_SEED
from .errors import ValidationError
from .gridfn import GridFunction, atomic_open, read_gridfn, write_gridfn
from .serialize import matrix_to_json, poly_from_json, poly_to_json
from .skew import Entry, SkewMatrix, upper_pairs
from . import twisted_algebra as ta

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3


class CheckFailure(Exception):
    """A verification ran fine but did not hold."""


@dataclass
class ExperimentConfig:
    command: str
    params: Dict[str, object] = field(default_factory=dict)
    out: Optional[str] = None
    seed: int = DEFAULT_SEED


_KNOWN_KEYS = {
    "algebra": {"input"},
    "relations": {"theta", "d"},
    "symplectic": {"theta", "d"},
    "moyal": {"f", "g", "theta", "method", "grid"},
    "weyl": {"theta", "s", "t", "grids", "L"},
    "butterfly": {"qmax"},
    "holder": {"base", "offsets", "qmax"},
    "audit": {"k", "target", "levels"},
    "all-checks": {f.name for f in dataclasses.fields(checks_mod.CheckConfig)} - {"seed"},
}
_SHARED_KEYS = {"out", "seed"}
# the flags a subcommand accepts: --config, --out, --seed and these for its own keys
_FLAGS = {
    "theta": dict(help="theta spec: zero|canonical|random|p/q|float|file.csv"),
    "d": dict(type=int, help="number of generators / dimension"),
    "grid": dict(help="grid spec 'M,L'"),
    "qmax": dict(type=int, help="largest flux denominator"),
    "k": dict(type=int, help="refinement division count"),
    "target": dict(type=float, help="constant budget for the audit"),
    "input": dict(help="input file (algebra polynomials)"),
    "f": dict(help="first grid-function file (moyal)"),
    "g": dict(help="second grid-function file (moyal)"),
    "method": dict(help="moyal method: direct|fourier"),
    "base": dict(help="base flux p/q (holder)"),
}


def load_config(command: str, path: Optional[str], flag_params: Dict) -> ExperimentConfig:
    params: Dict[str, object] = {}
    shared: Dict[str, object] = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ValidationError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ValidationError(
                f"{path}:{e.lineno}:{e.colno}: malformed JSON config: {e.msg}"
            ) from e
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}:1: config must be a JSON object")
        for key, value in raw.items():
            if key in _SHARED_KEYS:
                shared[key] = value
            elif key in _KNOWN_KEYS[command]:
                params[key] = value
            else:
                raise ValidationError(
                    f"{path}: unknown config key {key!r} for command {command!r}"
                )
    # flags override file values
    for key, value in flag_params.items():
        if value is not None:
            params[key] = value
    cfg = ExperimentConfig(command, params)
    if "seed" in shared:
        cfg.seed = parse_value("seed", shared["seed"], int)
    if "out" in shared:
        cfg.out = str(shared["out"])
    return cfg


# -- output helpers ------------------------------------------------------------


def emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out:
        with atomic_open(cfg.out) as fh:
            fh.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def fmt(x: float) -> str:
    return repr(float(x))


# -- parameter values -------------------------------------------------------------


def parse_value(key: str, value, kind: Callable):
    """kind(value) for the config or flag value of key; a value kind rejects is
    invalid input (exit 2), reported with its key."""
    try:
        return kind(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise ValidationError(f"cannot parse {key} spec {value!r}: {e}") from e


def _floats(values) -> List[float]:
    return [float(x) for x in values]


def parse_theta_value(spec) -> Entry:
    """A scalar theta: a rational 'p/q' or a float."""
    return parse_value("theta", str(spec), lambda s: Fraction(s) if "/" in s else float(s))


def parse_theta_spec(spec, d: Optional[int], rng) -> SkewMatrix:
    """Accepted forms: 'zero', 'canonical', 'random', a rational 'p/q', a float,
    or a path to a CSV file holding the full matrix."""
    if spec is None:
        raise ValidationError("missing --theta")
    spec = str(spec)
    if os.path.exists(spec) and spec.endswith(".csv"):
        rows = []
        with open(spec, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(parse_value("theta", line, lambda row: _floats(row.split(","))))
        return SkewMatrix.from_matrix(rows)
    dd = 2 if d is None else parse_value("d", d, int)
    if spec == "zero":
        return SkewMatrix.zero(dd)
    if spec == "canonical":
        return SkewMatrix.canonical(dd)
    if spec == "random":
        return SkewMatrix.random(dd, rng)
    value = parse_theta_value(spec)
    return SkewMatrix.from_upper(dd, {jk: value for jk in upper_pairs(dd)})


def parse_grid(spec) -> symplectic.GridSpec:
    """A grid 'M,L': M points on [-L, L)."""

    def grid(text: str) -> symplectic.GridSpec:
        m_str, l_str = text.split(",")
        return symplectic.GridSpec(int(m_str), float(l_str))

    return parse_value("grid", str(spec), grid)


# -- subcommands ------------------------------------------------------------------


def cmd_algebra(cfg: ExperimentConfig) -> int:
    path = cfg.params.get("input")
    if not path:
        raise ValidationError("algebra needs an input polynomial file (config key 'input')")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:{e.lineno}:{e.colno}: malformed JSON: {e.msg}") from e
    if "a" not in obj:
        raise ValidationError(f"{path}: missing polynomial 'a'")
    a = poly_from_json(obj["a"])
    result = {"trace_a": [ta.trace(a).real, ta.trace(a).imag],
              "adjoint_a": poly_to_json(ta.poly_adjoint(a))}
    if "b" in obj:
        b = poly_from_json(obj["b"])
        result["product_ab"] = poly_to_json(ta.poly_mul(a, b))
        result["product_ba"] = poly_to_json(ta.poly_mul(b, a))
    if "axis" in obj:
        axis = parse_value("axis", obj["axis"], int)
        result["expectation"] = poly_to_json(ta.cond_expectation(a, axis))
    if "z" in obj:
        z = parse_value("z", obj["z"], lambda pairs: [complex(re, im) for re, im in pairs])
        result["transferred"] = poly_to_json(ta.transference(a, z))
    emit(cfg, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _pair_table_from_spec(spec: str, d: int, rng) -> dict:
    if spec == "random":
        return checks_mod.random_pair_table(rng, d)
    table = {}
    for jk in upper_pairs(d):
        if spec == "identity-pairs":
            table[jk] = fr.clock_shift(1, 2)
        elif "/" in spec:
            frac = parse_value("theta", spec, Fraction)
            table[jk] = fr.clock_shift(frac.numerator, frac.denominator)
        else:
            raise ValidationError(f"unknown pair spec {spec!r}")
    return table


def cmd_relations(cfg: ExperimentConfig) -> int:
    d = parse_value("d", cfg.params.get("d", 3), int)
    spec = str(cfg.params.get("theta", "identity-pairs"))
    rng = np.random.default_rng(cfg.seed)
    table = _pair_table_from_spec(spec, d, rng)
    t = fr.tensor_construct(table)
    rep = fr.verify_relations(t)
    lines = [
        f"generators: {t.d} on C^{t.dim_hilbert}",
        f"commutation residual: {fmt(rep.max_commutation)}",
        f"unitarity residual: {fmt(rep.max_unitarity)}",
    ]
    emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_symplectic(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    theta = parse_theta_spec(cfg.params.get("theta"), cfg.params.get("d"), rng)
    sf = symplectic.symplectic_normalize(theta)
    out = {
        "residual": sf.residual,
        "transform": matrix_to_json(sf.transform.astype(complex)),
    }
    emit(cfg, json.dumps(out, indent=2, sort_keys=True) + "\n")
    tol = checks_mod.NORMAL_FORM_TOL
    if sf.residual > tol:
        raise CheckFailure(f"normal-form residual {sf.residual:.2e} > {tol:g}")
    return EXIT_OK


def cmd_moyal(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    method = str(cfg.params.get("method", "fourier"))
    if "f" in cfg.params or "g" in cfg.params:
        if not ("f" in cfg.params and "g" in cfg.params):
            raise ValidationError("moyal needs both 'f' and 'g' grid files")
        f = read_gridfn(str(cfg.params["f"]))
        g = read_gridfn(str(cfg.params["g"]))
    else:
        grid = parse_grid(cfg.params.get("grid", "64,8.0"))
        f = GridFunction.gaussian(2, grid.half_length, grid.points, sigma=1.0)
        g = GridFunction.gaussian(2, grid.half_length, grid.points, sigma=1.3,
                                  center=(0.4, -0.3))
    theta = parse_theta_spec(cfg.params.get("theta", "1"), f.dim, rng)
    if method == "direct":
        prod = moyal_mod.moyal_direct(f, g, theta)
    elif method == "fourier":
        prod = moyal_mod.star_product_fourier(f, g, theta)
    else:
        raise ValidationError(f"unknown method {method!r}")
    if cfg.out:
        write_gridfn(prod, cfg.out)
    else:
        sys.stdout.write(f"star product computed: max |value| = {fmt(np.abs(prod.values).max())}\n")
    return EXIT_OK


def cmd_weyl(cfg: ExperimentConfig) -> int:
    theta = float(parse_theta_value(cfg.params.get("theta", 1.0)))
    svals = parse_value("s", cfg.params.get("s", [0.37]), _floats)
    tvals = parse_value("t", cfg.params.get("t", [0.37]), _floats)
    grids = parse_value("grids", cfg.params.get("grids", [64, 128, 256]),
                        lambda ms: [int(m) for m in ms])
    L = cfg.params.get("L")
    L = None if L is None else parse_value("L", L, float)
    rows = ["M,L,theta,s,t,residual,commensurate_shift,commensurate_modulation"]
    for m in grids:
        grid = symplectic.GridSpec.self_dual(m) if L is None else symplectic.GridSpec(m, L)
        for s in svals:
            for t in tvals:
                rep = wd.weyl_residual(theta, s, t, grid)
                rows.append(
                    ",".join(
                        [
                            str(m),
                            fmt(grid.half_length),
                            fmt(theta),
                            fmt(s),
                            fmt(t),
                            fmt(rep.residual),
                            str(int(rep.commensurate_shift)),
                            str(int(rep.commensurate_modulation)),
                        ]
                    )
                )
    emit(cfg, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_butterfly(cfg: ExperimentConfig) -> int:
    qmax = cfg.params.get("qmax")
    if qmax is None:
        raise ValidationError("butterfly needs --qmax")
    qmax = parse_value("qmax", qmax, int)
    if qmax < 1:
        raise ValidationError(f"--qmax must be >= 1, got {qmax}")
    rows = ["p,q,band_index,a,b"]
    for fl in spectra.coprime_fluxes(qmax):
        sp = spectra.amo_spectrum(fl.numerator, fl.denominator)
        for i, (a, b) in enumerate(sp.bands):
            rows.append(f"{fl.numerator},{fl.denominator},{i},{fmt(a)},{fmt(b)}")
    emit(cfg, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_holder(cfg: ExperimentConfig) -> int:
    import warnings

    base = parse_value("base", str(cfg.params.get("base", "0")), Fraction)
    offsets = parse_value("offsets",
                          cfg.params.get("offsets", ["1/8", "1/16", "1/32", "1/64", "1/128"]),
                          lambda xs: [Fraction(str(x)) for x in xs])
    qcap = parse_value("qmax", cfg.params.get("qmax", spectra.DEFAULT_Q_CAP), int)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # decade span is reported in the CSV
        res = spectra.holder_scan(base, offsets, q_cap=qcap)
    rows = ["delta,distance"]
    for x, dist in zip(res.offsets, res.distances):
        rows.append(f"{float(x)!r},{fmt(dist)}")
    rows.append(f"# fitted_exponent,{fmt(res.slope)}")
    rows.append(f"# c_fit,{fmt(res.c_fit)}")
    rows.append(f"# lip_half_pointwise,{int(res.lip_half_ok)}")
    rows.append(f"# decade_span,{fmt(res.decade_span)}")
    emit(cfg, "\n".join(rows) + "\n")
    if not res.lip_half_ok:
        raise CheckFailure("pointwise Lip-1/2 bound failed")
    return EXIT_OK


def _audit_target(x):
    """An integral target (2500, 2500.0, "2500.0") as an int, so a square k
    keeps the audit exact; any other value as a float."""
    value = Fraction(str(x))
    return int(value) if value.denominator == 1 else float(x)


def cmd_audit(cfg: ExperimentConfig) -> int:
    k = parse_value("k", cfg.params.get("k", 8100), int)
    target = parse_value("target", cfg.params.get("target", 2500), _audit_target)
    levels = parse_value("levels", cfg.params.get("levels", 6), int)
    rep = wd.audit_interpolation_constants(k, target, levels)
    lines = [
        f"k: {k} (sqrt {'exact' if rep.exact else 'inexact'})",
        f"one-step value: {fmt(rep.one_step_value)}",
        f"slack: {fmt(rep.slack)}",
        "level bounds: " + ", ".join(fmt(b) for b in rep.level_bounds),
        f"holds: {rep.holds}",
    ]
    emit(cfg, "\n".join(lines) + "\n")
    if not rep.holds:
        raise CheckFailure(f"bound map exceeds target {target} at k={k}")
    return EXIT_OK


def cmd_all_checks(cfg: ExperimentConfig) -> int:
    kwargs = {k: parse_value(k, v, int) for k, v in cfg.params.items()}
    ccfg = checks_mod.CheckConfig(seed=cfg.seed, **kwargs)
    results = checks_mod.run_all_checks(ccfg)
    failed = sum(not result.passed for result in results)
    lines = [result.line() for result in results]
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    emit(cfg, "\n".join(lines) + "\n")
    if failed:
        raise CheckFailure(f"{failed} checks failed")
    return EXIT_OK


_COMMANDS = {
    "algebra": cmd_algebra,
    "relations": cmd_relations,
    "symplectic": cmd_symplectic,
    "moyal": cmd_moyal,
    "weyl": cmd_weyl,
    "butterfly": cmd_butterfly,
    "holder": cmd_holder,
    "audit": cmd_audit,
    "all-checks": cmd_all_checks,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncspaces",
        description="Noncommutative tori and Moyal planes: experiments and checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON parameter file (flags override it)")
        sp.add_argument("--out", help="output path (atomic write); stdout if omitted")
        sp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED:#x})")
        for key, spec in _FLAGS.items():
            if key in _KNOWN_KEYS[name]:
                sp.add_argument(f"--{key}", **spec)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    flag_params = {k: v for k, v in vars(args).items() if k in _KNOWN_KEYS[command]}
    try:
        cfg = load_config(command, args.config, flag_params)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        return _COMMANDS[command](cfg)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

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
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import checks as checks_mod
from . import finite_reps as fr
from . import moyal as moyal_mod
from . import spectra, symplectic
from . import weyl_dynamics as wd
from .checks import DEFAULT_SEED
from .errors import ValidationError
from .gridfn import GridFunction, read_gridfn, write_gridfn
from .serialize import matrix_to_json, poly_from_json, poly_to_json
from .skew import SkewMatrix, upper_pairs
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
    "moyal": {"f", "g", "theta", "method", "grid", "d"},
    "weyl": {"theta", "s", "t", "grids", "L"},
    "butterfly": {"qmax"},
    "holder": {"base", "offsets", "qmax"},
    "audit": {"k", "target", "levels"},
    "all-checks": {
        "algebra_triples",
        "tensor_max_d",
        "symplectic_cases",
        "metric_pairs",
        "hermitian_pairs",
        "moyal_points",
        "holder_max_k",
    },
}
_SHARED_KEYS = {"out", "seed"}


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
        cfg.seed = int(shared["seed"])
    if "out" in shared:
        cfg.out = str(shared["out"])
    return cfg


# -- output helpers ------------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out:
        atomic_write_text(cfg.out, text)
    else:
        sys.stdout.write(text)


def fmt(x: float) -> str:
    return repr(float(x))


# -- theta specification --------------------------------------------------------


def parse_theta_spec(spec: str, d: Optional[int], rng) -> SkewMatrix:
    """Accepted forms: 'zero', 'canonical', 'random', a rational 'p/q', a float,
    or a path to a CSV file holding the full matrix."""
    if spec is None:
        raise ValidationError("missing --theta")
    if os.path.exists(spec) and spec.endswith(".csv"):
        rows = []
        with open(spec, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(x) for x in line.split(",")])
        return SkewMatrix.from_matrix(rows)
    dd = d or 2
    if spec == "zero":
        return SkewMatrix.zero(dd)
    if spec == "canonical":
        return SkewMatrix.canonical(dd)
    if spec == "random":
        return SkewMatrix.random(dd, rng)
    try:
        value = Fraction(spec) if "/" in spec else float(spec)
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"cannot parse theta spec {spec!r}: {e}") from e
    return SkewMatrix.from_upper(dd, {jk: value for jk in upper_pairs(dd)})


def parse_grid(spec: str) -> symplectic.GridSpec:
    try:
        m_str, l_str = spec.split(",")
        return symplectic.GridSpec(int(m_str), float(l_str))
    except (ValueError, TypeError) as e:
        raise ValidationError(f"bad grid spec {spec!r}, expected 'M,L': {e}") from e


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
        result["expectation"] = poly_to_json(ta.cond_expectation(a, int(obj["axis"])))
    if "z" in obj:
        z = [complex(re, im) for re, im in obj["z"]]
        result["transferred"] = poly_to_json(ta.transference(a, z))
    emit(cfg, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _pair_table_from_spec(spec: str, d: int, rng) -> dict:
    table = {}
    for jk in upper_pairs(d):
        if spec == "identity-pairs":
            table[jk] = fr.clock_shift(1, 2)
        elif "/" in spec:
            frac = Fraction(spec)
            table[jk] = fr.clock_shift(frac.numerator, frac.denominator)
        elif spec == "random":
            q = int(rng.integers(2, 5))
            table[jk] = fr.clock_shift(int(rng.integers(0, q)), q)
        else:
            raise ValidationError(f"unknown pair spec {spec!r}")
    return table


def cmd_relations(cfg: ExperimentConfig) -> int:
    d = int(cfg.params.get("d") or 3)
    spec = str(cfg.params.get("theta") or "identity-pairs")
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
    if max(rep.max_commutation, rep.max_unitarity) > t.tol:
        raise CheckFailure("tensor relations exceed the declared tolerance")
    return EXIT_OK


def cmd_symplectic(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    theta = parse_theta_spec(str(cfg.params.get("theta")), cfg.params.get("d"), rng)
    sf = symplectic.symplectic_normalize(theta)
    out = {
        "residual": sf.residual,
        "transform": matrix_to_json(sf.transform.astype(complex)),
    }
    emit(cfg, json.dumps(out, indent=2, sort_keys=True) + "\n")
    if sf.residual > 1e-10:
        raise CheckFailure(f"normal-form residual {sf.residual:.2e} > 1e-10")
    return EXIT_OK


def cmd_moyal(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    method = str(cfg.params.get("method") or "fourier")
    if "f" in cfg.params or "g" in cfg.params:
        if not ("f" in cfg.params and "g" in cfg.params):
            raise ValidationError("moyal needs both 'f' and 'g' grid files")
        f = read_gridfn(str(cfg.params["f"]))
        g = read_gridfn(str(cfg.params["g"]))
    else:
        grid = parse_grid(str(cfg.params.get("grid") or "64,8.0"))
        f = GridFunction.gaussian(2, grid.half_length, grid.points, sigma=1.0)
        g = GridFunction.gaussian(2, grid.half_length, grid.points, sigma=1.3,
                                  center=(0.4, -0.3))
    theta = parse_theta_spec(str(cfg.params.get("theta") or "1"), f.dim, rng)
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
    theta = float(cfg.params.get("theta") or 1.0)
    svals = [float(x) for x in (cfg.params.get("s") or [0.37])]
    tvals = [float(x) for x in (cfg.params.get("t") or [0.37])]
    grids = [int(x) for x in (cfg.params.get("grids") or [64, 128, 256])]
    L = cfg.params.get("L")
    rows = ["M,L,theta,s,t,residual,commensurate_shift,commensurate_modulation"]
    for m in grids:
        grid = symplectic.GridSpec(m, float(L)) if L else symplectic.GridSpec.self_dual(m)
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
    qmax = int(qmax)
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

    base = Fraction(str(cfg.params.get("base") or "0"))
    offsets = [Fraction(str(x)) for x in (cfg.params.get("offsets")
               or ["1/8", "1/16", "1/32", "1/64", "1/128"])]
    qcap = int(cfg.params.get("qmax") or spectra.DEFAULT_Q_CAP)
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


def cmd_audit(cfg: ExperimentConfig) -> int:
    k = int(cfg.params.get("k") or 8100)
    target = cfg.params.get("target") or 2500
    target = int(target) if float(target) == int(float(target)) else float(target)
    levels = int(cfg.params.get("levels") or 6)
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
    kwargs = {k: int(v) for k, v in cfg.params.items()}
    ccfg = checks_mod.CheckConfig(seed=cfg.seed, **kwargs)
    results = checks_mod.run_all_checks(ccfg)
    lines = []
    failed = 0
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
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
        sp.add_argument("--theta", help="theta spec: zero|canonical|random|p/q|float|file.csv")
        sp.add_argument("--d", type=int, help="number of generators / dimension")
        sp.add_argument("--grid", help="grid spec 'M,L'")
        sp.add_argument("--qmax", type=int, help="largest flux denominator")
        sp.add_argument("--k", type=int, help="refinement division count")
        sp.add_argument("--target", type=float, help="constant budget for the audit")
        sp.add_argument("--input", help="input file (algebra polynomials)")
        sp.add_argument("--f", help="first grid-function file (moyal)")
        sp.add_argument("--g", help="second grid-function file (moyal)")
        sp.add_argument("--method", help="moyal method: direct|fourier")
        sp.add_argument("--base", help="base flux p/q (holder)")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    flag_params = {
        k: getattr(args, k, None)
        for k in _KNOWN_KEYS[command]
        if getattr(args, k, None) is not None
    }
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

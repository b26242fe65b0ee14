"""Command-line front end.

Each subcommand is one entry of _COMMANDS: its handler and its parameters.
Parameters come from a JSON file passed as --config and from flags, which
override the file; unknown config keys are rejected.  Every given value, flag
or config, is converted by its kind on one path (load_config); a default
fills an absent key, and an absent REQUIRED key is invalid input; a key with
help text gets a flag.

A handler maps its checked parameters to (output, failure): the output is
text, or a grid file's bytes, and the failure is the reason its gate failed,
or None.  main writes the output, atomically (temp file + rename) to --out or
else to stdout, and picks the exit code: 0 success, 2 invalid input, 3 a
check failed.  Outputs are byte-identical for identical configs and seeds.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import checks as checks_mod
from . import finite_reps as fr
from . import moyal as moyal_mod
from . import spectra, symplectic
from . import weyl_dynamics as wd
from .checks import DEFAULT_SEED
from .errors import ValidationError, as_index, clip, guard, unreadable
from .gridfn import GridFunction, GridSpec, atomic_open, encode_gridfn, read_gridfn
from .serialize import list_of, matrix_to_json, poly_from_json, poly_to_json, real
from .skew import SkewMatrix, upper_pairs
from . import twisted_algebra as ta

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3

REQUIRED = object()  # the default of a parameter that must be given
Result = Tuple[Union[str, bytes], Optional[str]]  # a handler's (output, failure)


# -- parameter values -------------------------------------------------------------


def parse_value(key: str, value, kind: Callable):
    """kind(value) for the config or flag value of key; a value kind rejects is
    invalid input (exit 2), reported with its key."""
    try:
        return kind(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise ValidationError(f"cannot parse {key} spec {clip(repr(value))}: {e}") from e


def _rational(x) -> Fraction:
    """A number or a numeric string ("8100", "0.5", "1/3") as an exact Fraction;
    a boolean is rejected, since str(True) is no number."""
    return Fraction(str(x))


def _integer(x) -> int:
    """An integral value (8100, "8100", 8100.0) as an int; 8100.5 is rejected,
    not truncated."""
    value = _rational(x)
    if value.denominator != 1:
        raise ValueError("not an integer")
    return int(value)


def _seed(x) -> int:
    """A non-negative integer, as np.random.default_rng takes."""
    return as_index("seed", _integer(x), 0)


def _complex(x) -> complex:
    """A pair [re, im] of reals (see serialize.real) as a complex number."""
    re, im = list_of(real)(x)
    return complex(re, im)


def _scalar_theta(text: str):
    """A scalar theta: a rational 'p/q' or a float."""
    return Fraction(text) if "/" in text else float(text)


def _audit_target(x):
    """An integral target (2500, 2500.0, "2500.0") as an int, so a square k
    keeps the audit exact; any other value as a float."""
    value = _rational(x)
    return int(value) if value.denominator == 1 else float(x)


def load_config(command: str, path: Optional[str], flags: Dict[str, object]) -> Dict[str, object]:
    """Every parameter of command, typed: the config file's values, overridden
    by the flags given (not None), each converted by its kind once; a default
    fills each absent key, and an absent REQUIRED key is invalid input."""
    table = {**_SHARED, **_COMMANDS[command][1]}
    given: Dict[str, object] = {}
    if path:
        given = read_json_object(path, "config")
        for key in given:
            if key not in table:
                raise ValidationError(
                    f"{clip(path)}: unknown config key {key!r} for command {command!r}"
                )
    given.update((key, value) for key, value in flags.items() if value is not None)
    params = {}
    for key, (kind, default, _) in table.items():
        if key in given and not (given[key] is None and default in (None, REQUIRED)):
            params[key] = parse_value(key, given[key], kind)
        elif default is REQUIRED:
            raise ValidationError(f"missing --{key}")
        else:
            params[key] = default
    return params


# -- input and output helpers ---------------------------------------------------


def read_text(path: str, what: str) -> str:
    """The text of the UTF-8 file at path; a file that cannot be opened or
    decoded is invalid input, reported with what and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise unreadable(what, path, e) from e


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path (see read_text); malformed JSON is
    reported with its line and column, and any other JSON value is rejected."""
    text = read_text(path, what)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        where = f"{clip(path)}:{e.lineno}:{e.colno}"
        raise ValidationError(f"{where}: malformed JSON {what}: {e.msg}") from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise ValidationError(f"{clip(path)}: malformed JSON {what}: {clip(str(e))}") from e
    if not isinstance(obj, dict):
        raise ValidationError(f"{clip(path)}:1: {what} must be a JSON object")
    return obj


def emit(out: Optional[str], output: Union[str, bytes]) -> None:
    """output, text (as UTF-8) or bytes, written atomically to out, else to stdout."""
    if out:
        with atomic_open(out) as fh:
            fh.write(output.encode("utf-8") if isinstance(output, str) else output)
    else:
        sys.stdout.write(output)


def fmt(x: float) -> str:
    return repr(float(x))


def parse_theta_spec(spec: str, d: int, rng) -> SkewMatrix:
    """Accepted forms: 'zero', 'canonical', 'random', a rational 'p/q', a float,
    or a path to a CSV file holding the full matrix."""
    if os.path.exists(spec) and spec.endswith(".csv"):
        rows = [parse_value("theta", line.split(","), list_of(real))
                for line in map(str.strip, read_text(spec, "theta").splitlines()) if line]
        return SkewMatrix.from_matrix(rows)
    if spec == "zero":
        return SkewMatrix.zero(d)
    if spec == "canonical":
        return SkewMatrix.canonical(d)
    if spec == "random":
        return SkewMatrix.random(d, rng)
    value = parse_value("theta", spec, _scalar_theta)
    return SkewMatrix.from_upper(d, {jk: value for jk in upper_pairs(d)})


def _grid(text: str) -> GridSpec:
    """A grid 'M,L': M points on [-L, L)."""
    m_str, l_str = text.split(",")
    return GridSpec(_integer(m_str), float(l_str))


# -- subcommands ------------------------------------------------------------------


def cmd_algebra(p: dict) -> Result:
    path = p["input"]
    obj = read_json_object(path, "input")
    if "a" not in obj:
        raise ValidationError(f"{clip(path)}: missing polynomial 'a'")
    a = poly_from_json(obj["a"])
    # a float product past the float range leaves inf or nan in a coefficient:
    # no warning here, and invalid input when the output refuses it below
    with np.errstate(over="ignore", invalid="ignore"):
        result = {"trace_a": [ta.trace(a).real, ta.trace(a).imag],
                  "adjoint_a": poly_to_json(ta.poly_adjoint(a))}
        if "b" in obj:
            b = poly_from_json(obj["b"])
            result["product_ab"] = poly_to_json(ta.poly_mul(a, b))
            result["product_ba"] = poly_to_json(ta.poly_mul(b, a))
        if "axis" in obj:
            axis = parse_value("axis", obj["axis"], _integer)
            result["expectation"] = poly_to_json(ta.cond_expectation(a, axis))
        if "z" in obj:
            z = parse_value("z", obj["z"], list_of(_complex))
            result["transferred"] = poly_to_json(ta.transference(a, z))
    try:
        return json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n", None
    except ValueError as e:
        raise ValidationError(f"{clip(path)}: a result coefficient is not finite: {e}") from e


def _pair_table_from_spec(spec: str, d: int, rng) -> dict:
    if spec == "random":
        return checks_mod.random_pair_table(rng, d)
    if spec == "identity-pairs":
        pair = fr.clock_shift(1, 2)
    elif "/" in spec:
        frac = parse_value("theta", spec, Fraction)
        pair = fr.clock_shift(frac.numerator, frac.denominator)
    else:
        raise ValidationError(f"unknown pair spec {spec!r}")
    return {jk: pair for jk in upper_pairs(d)}


def cmd_relations(p: dict) -> Result:
    table = _pair_table_from_spec(p["theta"], p["d"], np.random.default_rng(p["seed"]))
    t = fr.tensor_construct(table)
    rep = fr.verify_relations(t)
    lines = [
        f"generators: {t.d} on C^{t.dim_hilbert}",
        f"commutation residual: {fmt(rep.max_commutation)}",
        f"unitarity residual: {fmt(rep.max_unitarity)}",
    ]
    return "\n".join(lines) + "\n", None


def cmd_symplectic(p: dict) -> Result:
    theta = parse_theta_spec(p["theta"], p["d"], np.random.default_rng(p["seed"]))
    sf = symplectic.symplectic_normalize(theta)
    out = {
        "residual": sf.residual,
        "transform": matrix_to_json(sf.transform.astype(complex)),
    }
    tol = checks_mod.NORMAL_FORM_TOL
    failure = f"normal-form residual {sf.residual:.2e} > {tol:g}" if sf.residual > tol else None
    return json.dumps(out, indent=2, sort_keys=True) + "\n", failure


def cmd_moyal(p: dict) -> Result:
    if p["f"] is not None or p["g"] is not None:
        if p["f"] is None or p["g"] is None:
            raise ValidationError("moyal needs both 'f' and 'g' grid files")
        f, g = read_gridfn(p["f"]), read_gridfn(p["g"])
    else:
        grid = parse_value("grid", p["grid"], _grid)
        f = GridFunction.gaussian(2, grid.half_length, grid.points, sigma=1.0)
        g = GridFunction.gaussian(2, grid.half_length, grid.points, sigma=1.3,
                                  center=(0.4, -0.3))
    theta = parse_theta_spec(p["theta"], f.dim, np.random.default_rng(p["seed"]))
    if p["method"] == "direct":
        prod = moyal_mod.moyal_direct(f, g, theta)
    elif p["method"] == "fourier":
        prod = moyal_mod.star_product_fourier(f, g, theta)
    else:
        raise ValidationError(f"unknown method {p['method']!r}")
    if p["out"]:
        return encode_gridfn(prod), None
    return f"star product computed: max |value| = {fmt(np.abs(prod.values).max())}\n", None


def cmd_weyl(p: dict) -> Result:
    theta, L = p["theta"], p["L"]
    rows = ["M,L,theta,s,t,residual,commensurate_shift,commensurate_modulation"]
    for m in p["grids"]:
        grid = GridSpec.self_dual(m) if L is None else GridSpec(m, L)
        for s in p["s"]:
            for t in p["t"]:
                rep = wd.weyl_residual(theta, s, t, grid)
                rows.append(f"{m},{fmt(grid.half_length)},{fmt(theta)},{fmt(s)},{fmt(t)},"
                            f"{fmt(rep.residual)},{int(rep.commensurate_shift)},"
                            f"{int(rep.commensurate_modulation)}")
    return "\n".join(rows) + "\n", None


def cmd_butterfly(p: dict) -> Result:
    # checked before the O(qmax^2) listing of fluxes, as amo_spectrum checks each q
    qmax = guard("reduced flux denominator q =", p["qmax"], spectra.DEFAULT_Q_CAP)
    rows = ["p,q,band_index,a,b"]
    for fl in spectra.coprime_fluxes(qmax):
        sp = spectra.amo_spectrum(fl.numerator, fl.denominator)
        for i, (a, b) in enumerate(sp.bands):
            rows.append(f"{fl.numerator},{fl.denominator},{i},{fmt(a)},{fmt(b)}")
    return "\n".join(rows) + "\n", None


def cmd_holder(p: dict) -> Result:
    res = spectra.holder_scan(p["base"], p["offsets"], q_cap=p["qmax"])
    rows = ["delta,distance"]
    for x, dist in zip(res.offsets, res.distances):
        rows.append(f"{float(x)!r},{fmt(dist)}")
    rows.append(f"# fitted_exponent,{fmt(res.slope)}")
    rows.append(f"# c_fit,{fmt(res.c_fit)}")
    rows.append(f"# lip_half_pointwise,{int(res.lip_half_ok)}")
    rows.append(f"# decade_span,{fmt(res.decade_span)}")
    failure = None if res.lip_half_ok else "pointwise Lip-1/2 bound failed"
    return "\n".join(rows) + "\n", failure


def cmd_audit(p: dict) -> Result:
    k, target = p["k"], p["target"]
    rep = wd.audit_interpolation_constants(k, target, p["levels"])
    lines = [
        f"k: {k} (sqrt {'exact' if rep.exact else 'inexact'})",
        f"one-step value: {fmt(rep.one_step_value)}",
        f"slack: {fmt(rep.slack)}",
        "level bounds: " + ", ".join(fmt(b) for b in rep.level_bounds),
        f"holds: {rep.holds}",
    ]
    failure = None if rep.holds else f"bound map exceeds target {target} at k={k}"
    return "\n".join(lines) + "\n", failure


def cmd_all_checks(p: dict) -> Result:
    ccfg = checks_mod.CheckConfig(**{key: value for key, value in p.items() if key != "out"})
    results = checks_mod.run_all_checks(ccfg)
    failed = [("all-checks", result.name) for result in results if not result.passed]
    documented, unexpected, not_failed = checks_mod.sort_failures(failed)
    lines = [result.line() for result in results]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed; "
                 f"expected (documented): {len(documented)}; unexpected: {len(unexpected)}; "
                 f"documented, not failed: {len(not_failed)}")
    failure = (f"unexpected: {', '.join(name for _, name in unexpected) or 'none'}; "
               f"documented, not failed: {', '.join(not_failed) or 'none'}"
               if unexpected or not_failed else None)
    return "\n".join(lines) + "\n", failure


_DIM_HELP = "number of generators / dimension"
_THETA_HELP = "theta spec: zero|canonical|random|p/q|float|file.csv"

# name -> (handler, parameters); a parameter is key -> (kind, default, help).
# Defaults are typed values; None marks an optional key with no default and
# REQUIRED a key that must be given; for both, a JSON null counts as absent.
# Theta specs and moyal's grid stay strings: they parse in the command, from
# d, the seed or the grid functions.
_SHARED = {
    "out": (str, None, "output path (atomic write); stdout if omitted"),
    "seed": (_seed, DEFAULT_SEED, f"RNG seed (default {DEFAULT_SEED:#x})"),
}
_COMMANDS = {
    "algebra": (cmd_algebra, {"input": (str, REQUIRED, "input file (algebra polynomials)")}),
    "relations": (cmd_relations, {
        "theta": (str, "identity-pairs", "pair spec: identity-pairs|random|p/q"),
        "d": (_integer, 3, _DIM_HELP),
    }),
    "symplectic": (cmd_symplectic, {"theta": (str, REQUIRED, _THETA_HELP),
                                    "d": (_integer, 2, _DIM_HELP)}),
    "moyal": (cmd_moyal, {
        "theta": (str, "1", _THETA_HELP),
        "grid": (str, "64,8.0", "grid spec 'M,L'"),
        "f": (str, None, "first grid-function file (moyal)"),
        "g": (str, None, "second grid-function file (moyal)"),
        "method": (str, "fourier", "moyal method: direct|fourier"),
    }),
    "weyl": (cmd_weyl, {
        "theta": (lambda x: float(_scalar_theta(str(x))), 1.0, "theta value: p/q|float"),
        "s": (list_of(real), (0.37,), None),
        "t": (list_of(real), (0.37,), None),
        "grids": (list_of(_integer), (64, 128, 256), None),
        "L": (real, None, None),
    }),
    "butterfly": (cmd_butterfly, {"qmax": (_integer, REQUIRED, "largest flux denominator")}),
    "holder": (cmd_holder, {
        "qmax": (_integer, spectra.DEFAULT_Q_CAP, "largest flux denominator"),
        "base": (_rational, Fraction(0), "base flux p/q (holder)"),
        "offsets": (list_of(_rational), tuple(Fraction(1, 2**n) for n in range(3, 8)), None),
    }),
    "audit": (cmd_audit, {
        "k": (_integer, 8100, "refinement division count"),
        "target": (_audit_target, 2500, "constant budget for the audit"),
        "levels": (_integer, 6, None),
    }),
    "all-checks": (cmd_all_checks, {
        f.name: (_integer, f.default, None)
        for f in dataclasses.fields(checks_mod.CheckConfig) if f.name != "seed"
    }),
}


@functools.cache  # built once per process; parse_args keeps no state on it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncspaces",
        description="Noncommutative tori and Moyal planes: experiments and checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, params) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON parameter file (flags override it)")
        for key, (_, _, help_text) in {**_SHARED, **params}.items():
            if help_text:
                sp.add_argument(f"--{key}", help=help_text)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    try:
        params = load_config(command, flags.pop("config"), flags)
        output, failure = _COMMANDS[command][0](params)
        emit(params["out"], output)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    if failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

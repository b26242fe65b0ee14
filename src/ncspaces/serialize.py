"""JSON schemas for skew matrices, polynomials and matrices.

Polynomial: {"dim": d, "upper": [entry, ...], "terms": [{"m": [...],
"re": float, "im": float}, ...]} with upper, theta's strict upper triangle, in
lexicographic (j, k) order; rational entries are strings "p/q" to survive the
round trip exactly.  terms is read as a JSON array and re and im as reals, by
list_of and real, the converters of the CLI's config values.

Matrix (written only): {"rows": r, "cols": c, "data": [[re, im], ...]} row-major.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ValidationError, clip
from .skew import SkewMatrix
from .twisted_algebra import NCPolynomial, as_multi_index


def real(x) -> float:
    """A number or a numeric string ("0.5") as a float; a boolean is rejected,
    as by the integer config keys, since str(True) is no float literal."""
    return float(str(x))


def list_of(kind: Callable) -> Callable:
    """A JSON array, each entry converted by kind; a string is not iterated."""
    def convert(values) -> list:
        if not isinstance(values, list):
            raise TypeError(f"expected a JSON array, got {type(values).__name__}")
        return [kind(x) for x in values]
    return convert


def theta_to_json(theta: SkewMatrix) -> dict:
    upper = [
        str(x) if isinstance(x, Fraction) else float(x) for x in theta.upper
    ]
    return {"dim": theta.dim, "upper": upper}


def theta_from_json(obj: dict) -> SkewMatrix:
    try:
        dim = obj["dim"]
        upper = obj["upper"]
    except (KeyError, TypeError) as e:
        raise ValidationError(f"bad theta object: {e}") from e
    if not isinstance(upper, list):
        raise ValidationError(f"bad theta upper {upper!r}")
    return SkewMatrix.from_upper(dim, upper)  # dim and entries are checked by SkewMatrix


def poly_to_json(a: NCPolynomial) -> dict:
    af = a.to_float()
    terms = [
        {"m": list(m), "re": float(c.real), "im": float(c.imag)}
        for m, c in sorted(af.coeffs.items())
    ]
    out = theta_to_json(a.theta)
    out["terms"] = terms
    return out


def _term(term) -> tuple:
    """A term {"m": [...], "re": real, "im": real} as (multi-index, coefficient)."""
    try:
        m = as_multi_index(term["m"])
        return m, complex(real(term.get("re", 0.0)), real(term.get("im", 0.0)))
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"bad polynomial term {clip(repr(term))}: {e}") from e


def poly_from_json(obj: dict) -> NCPolynomial:
    theta = theta_from_json(obj)
    try:
        terms = list_of(_term)(obj.get("terms", []))
    except TypeError as e:
        raise ValidationError(f"bad polynomial terms: {e}") from e
    coeffs = {}
    for m, c in terms:
        coeffs[m] = coeffs.get(m, 0j) + c
    return NCPolynomial(theta, coeffs)


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError("matrix_to_json expects a 2-d array")
    data = [[float(x.real), float(x.imag)] for x in mat.reshape(-1)]
    return {"rows": mat.shape[0], "cols": mat.shape[1], "data": data}


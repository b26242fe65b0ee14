"""JSON schemas for skew matrices, polynomials and matrices.

Polynomial: {"dim": d, "upper": [entry, ...], "terms": [{"m": [...],
"re": float, "im": float}, ...]} with upper, theta's strict upper triangle, in
lexicographic (j, k) order; rational entries are strings "p/q" to survive the
round trip exactly.

Matrix: {"rows": r, "cols": c, "data": [[re, im], ...]} row-major.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .skew import SkewMatrix
from .twisted_algebra import NCPolynomial


def theta_to_json(theta: SkewMatrix) -> dict:
    upper = [
        str(x) if isinstance(x, Fraction) else float(x) for x in theta.upper
    ]
    return {"dim": theta.dim, "upper": upper}


def theta_from_json(obj: dict) -> SkewMatrix:
    try:
        dim = int(obj["dim"])
        upper = obj["upper"]
    except (KeyError, TypeError) as e:
        raise ValidationError(f"bad theta object: {e}") from e
    if not isinstance(upper, list):
        raise ValidationError(f"bad theta upper {upper!r}")
    return SkewMatrix.from_upper(dim, upper)  # entries are checked by SkewMatrix


def poly_to_json(a: NCPolynomial) -> dict:
    af = a.to_float()
    terms = [
        {"m": list(m), "re": float(c.real), "im": float(c.imag)}
        for m, c in sorted(af.coeffs.items())
    ]
    out = theta_to_json(a.theta)
    out["terms"] = terms
    return out


def poly_from_json(obj: dict) -> NCPolynomial:
    theta = theta_from_json(obj)
    coeffs = {}
    for term in obj.get("terms", []):
        try:
            m = tuple(int(x) for x in term["m"])
            c = complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"bad polynomial term {term!r}: {e}") from e
        coeffs[m] = coeffs.get(m, 0j) + c
    return NCPolynomial(theta, coeffs)


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError("matrix_to_json expects a 2-d array")
    data = [[float(x.real), float(x.imag)] for x in mat.reshape(-1)]
    return {"rows": mat.shape[0], "cols": mat.shape[1], "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        r, c = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError) as e:
        raise ValidationError(f"bad matrix object: {e}") from e
    if len(data) != r * c:
        raise ValidationError(f"matrix data has {len(data)} entries, expected {r * c}")
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(r, c)


"""Oracles the benchmark checks library results against.

Each oracle returns ``Verdict``s.  The oracles take definitions from the
library (the Bloch matrix, the grid and transform conventions) but never the
computation under test, so a rewrite of that computation is still checked by
them: band edges come from Chambers' two-point relation, not from a phase
sweep; star products are cross-checked between two routes and against exact
identities; tuple relations are measured exactly on the monomial structure of
clock/shift tensors; norms come from full SVDs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

# bound before the tracer wraps numpy.linalg.eigvalsh, so oracle eigensolves
# are never counted as library work
_eigvalsh = np.linalg.eigvalsh

MERGE_TOL = 1e-9     # bands closer than this form one interval, as in BandSpectrum
EDGE_TOL = 1e-10     # band edge against the Chambers edge
DIST_TOL = 1e-9      # Hausdorff distance against the one computed from Chambers bands
CROSS_TOL = 1e-6     # moyal_direct against star_product_fourier (criterion 07)
ASSOC_TOL = 1e-8     # star-product associativity (criterion 07)
TRACIAL_TOL = 1e-8   # integral of f*g against integral of f g (criterion 07)


@dataclass(frozen=True)
class Verdict:
    module: str
    check: str
    ok: bool
    ratio: Optional[float] = None  # residual / tolerance, for numeric checks


def within(module: str, check: str, residual: float, tol: float) -> Verdict:
    residual = float(residual)
    if not math.isfinite(residual):
        return Verdict(module, check, False)
    return Verdict(module, check, residual <= tol, residual / tol)


def holds(module: str, check: str, cond) -> Verdict:
    return Verdict(module, check, bool(cond))


# -- twisted algebra --------------------------------------------------------------


def twisted_product(a: dict, b: dict, theta: np.ndarray) -> dict:
    """Coefficients of a b in complex floats, from the algebra's definition
    u^m u^m' = exp(2 pi i c(m, m')) u^(m+m') with c(m, m') = -sum_{j<k}
    theta_jk m_k m'_j; independent of the library's exponent and rotation code."""
    upper = np.triu(theta, 1)
    out: dict = {}
    for m, ca in a.items():
        for m2, cb in b.items():
            c = -float(np.asarray(m2) @ upper @ np.asarray(m))
            n = tuple(x + y for x, y in zip(m, m2))
            out[n] = out.get(n, 0j) + complex(ca) * complex(cb) * complex(np.exp(2j * np.pi * c))
    return out


def coeff_gap(p: dict, q: dict) -> float:
    """Largest coefficient difference of two {multi-index: complex} maps."""
    keys = set(p) | set(q)
    return max((abs(complex(p.get(m, 0j)) - complex(q.get(m, 0j))) for m in keys), default=0.0)


# -- spectra --------------------------------------------------------------------

Bands = List[Tuple[float, float]]


def merge(intervals) -> Bands:
    out: List[List[float]] = []
    for a, b in sorted((float(a), float(b)) for a, b in intervals):
        if out and a <= out[-1][1] + MERGE_TOL:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def chambers_bands(p: int, q: int, bloch_matrix) -> Bands:
    """Bands at flux p/q from Chambers' relation: band j is the hull of the
    j-th eigenvalue of the Bloch matrix at phases (0, 0) and (pi/q, pi/q)."""
    e0 = _eigvalsh(bloch_matrix(p, q, 0.0, 0.0))
    e1 = _eigvalsh(bloch_matrix(p, q, np.pi / q, np.pi / q))
    return merge(zip(np.minimum(e0, e1), np.maximum(e0, e1)))


def bands_match(module: str, bands: Sequence, ref: Bands) -> Verdict:
    if len(bands) != len(ref):
        return Verdict(module, "band-count", False)
    dev = max(max(abs(a - ra), abs(b - rb)) for (a, b), (ra, rb) in zip(bands, ref))
    return within(module, "band-edges", dev, EDGE_TOL)


def _point_distance(x: float, bands: Bands) -> float:
    return min(0.0 if a <= x <= b else min(abs(x - a), abs(x - b)) for a, b in bands)


def _directed(a: Bands, b: Bands) -> float:
    points = [e for iv in a for e in iv]
    for (_, b1), (a2, _) in zip(b, b[1:]):
        mid = 0.5 * (b1 + a2)
        if any(lo <= mid <= hi for lo, hi in a):
            points.append(mid)
    return max(_point_distance(x, b) for x in points)


def hausdorff(a: Bands, b: Bands) -> float:
    """Hausdorff distance of two interval unions: the supremum is attained at
    an endpoint or at the midpoint of a gap of the other union."""
    return max(_directed(a, b), _directed(b, a))


def parse_butterfly_csv(text: str) -> dict:
    lines = text.strip().split("\n")
    if lines[0] != "p,q,band_index,a,b":
        raise ValueError(f"unexpected butterfly header {lines[0]!r}")
    out: dict = {}
    for line in lines[1:]:
        p, q, _, a, b = line.split(",")
        out.setdefault((int(p), int(q)), []).append((float(a), float(b)))
    return out


# -- moyal ------------------------------------------------------------------------


def max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def grid_integral(values: np.ndarray, step: float) -> complex:
    return complex(values.sum() * step ** values.ndim)


def read_gridfn_file(path) -> Tuple[dict, np.ndarray]:
    """The documented container: a JSON header line, then M^d little-endian
    complex64 values in row-major order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    shape = (int(header["M"]),) * int(header["d"])
    return header, np.frombuffer(payload, dtype="<c8").astype(complex).reshape(shape)


def twisted_action(fhat: np.ndarray, ghat: np.ndarray, freqs: np.ndarray,
                   theta: float, ds: float) -> np.ndarray:
    """(L_f g)(t) = sum_{t'} fhat(t - t') exp((i/2) theta(t, t')) ghat(t') ds
    for d = 2 and theta(s, t) = theta (s1 t2 - s2 t1), fhat zero off its box."""
    m = len(freqs)
    idx = np.arange(m)
    t1, t2 = np.meshgrid(idx, idx, indexing="ij")
    t1, t2 = t1.ravel(), t2.ravel()
    d1 = t1[:, None] - t1[None, :] + m // 2
    d2 = t2[:, None] - t2[None, :] + m // 2
    ok = (d1 >= 0) & (d1 < m) & (d2 >= 0) & (d2 < m)
    kernel = np.where(ok, fhat[np.clip(d1, 0, m - 1), np.clip(d2, 0, m - 1)], 0.0)
    s1, s2 = freqs[t1], freqs[t2]
    phase = np.exp(0.5j * theta * (s1[:, None] * s2[None, :] - s2[:, None] * s1[None, :]))
    return (kernel * phase) @ ghat.ravel() * ds


# -- operator tuples ------------------------------------------------------------


def monomial_parts(u: np.ndarray):
    """(rows, values) with u[rows[c], c] = values[c] the only nonzero of column
    c, or None if u is not a monomial matrix."""
    nz = u != 0
    if not ((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()):
        return None
    rows = nz.argmax(axis=0)
    return rows, u[rows, np.arange(u.shape[1])]


def monomial_relations(matrices, sigma: np.ndarray) -> Tuple[float, float]:
    """Exact spectral norms of u_j u_k - sigma_jk u_k u_j and u_j* u_j - I for
    monomial unitaries: a monomial matrix's norm is its largest entry."""
    parts = [monomial_parts(u) for u in matrices]
    if any(p is None for p in parts):
        return math.inf, math.inf
    unit = max(float(np.abs(np.abs(v) ** 2 - 1.0).max()) for _, v in parts)
    comm = 0.0
    for j in range(len(parts)):
        for k in range(j + 1, len(parts)):
            (rj, vj), (rk, vk) = parts[j], parts[k]
            rows_jk, vals_jk = rj[rk], vj[rk] * vk
            rows_kj, vals_kj = rk[rj], vk[rj] * vj
            if not np.array_equal(rows_jk, rows_kj):
                return math.inf, unit
            comm = max(comm, float(np.abs(vals_jk - sigma[j, k] * vals_kj).max()))
    return comm, unit


def two_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def weyl_residual_fft(theta: float, s: float, t: float, x: np.ndarray,
                      freqs: np.ndarray, width_fraction: float, half_length: float) -> float:
    """|| (u(theta s) v(t) - exp(i s t theta) v(t) u(theta s)) psi || with u
    applied by FFT and psi the reference Gaussian of width L / width_fraction."""
    sigma = half_length / width_fraction
    psi = np.exp(-(x ** 2) / (2.0 * sigma ** 2)).astype(complex)
    psi /= np.linalg.norm(psi)
    shift = np.exp(1j * freqs * theta * s)
    mod = np.exp(1j * x * t)

    def u(vec):
        return np.fft.ifft(shift * np.fft.fft(vec))

    defect = u(mod * psi) - np.exp(1j * s * t * theta) * mod * u(psi)
    return float(np.linalg.norm(defect))

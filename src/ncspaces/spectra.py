"""Band spectra of the discrete magnetic Laplacian h = u + u* + v + v* at
rational flux, Hausdorff distances between band unions, and continuity scans.

At flux p/q the operator reduces over two Bloch phases to the q x q family

    H(k1, k2) = diag(2 cos(k2 + 2 pi p j / q))
                + raising/lowering on the cyclic superdiagonals,
                  with corner entries e^{+-i q k1};

its spectrum is the union over (k1, k2) of the q eigenvalue curves, and each
sorted eigenvalue branch sweeps out one closed band.  By Chambers' relation
(W. G. Chambers, Phys. Rev. 140, A135, 1965) the characteristic polynomial
of H(k1, k2) depends on the phases only through cos(q k1) + cos(q k2), whose
range [-2, 2] is attained at (0, 0) and (pi/q, pi/q).  Each branch is
monotone in that sum, so band j is the hull of the j-th eigenvalue at those
two points and no phase grid is needed.  At both points H is real symmetric
(its corner phase is +1 or -1), and amo_spectrum solves the two matrices as
one real (2, q, q) stack; bloch_matrix, the general-phase matrix, is kept as
the tests' and the benchmark's oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DENSE_CAP, DegenerateFitError, ValidationError, as_index, as_real, guard

MERGE_TOL = 1e-9
DEFAULT_Q_CAP = 200
# Avron, van Mouche and Simon (Commun. Math. Phys. 132, 1990): the spectra of
# u(n+1) + u(n-1) + lambda cos(2 pi alpha n + theta) at fluxes alpha, alpha'
# lie within Hausdorff distance 6 (2 lambda |alpha - alpha'|)^(1/2); h is
# lambda = 2, so D(delta) <= 12 sqrt(delta)
LIP_HALF_BOUND = 12.0


def bloch_matrix(p: int, q: int, k1: float, k2: float) -> np.ndarray:
    """The q x q Hermitian Bloch matrix at flux p/q and any phases (k1, k2);
    guarded to q <= DENSE_CAP.  amo_spectrum does not call it: it is the
    general-phase oracle of the tests and of the benchmark."""
    p, q = as_index("p", p), guard("Bloch matrix side q =", as_index("q", q, 1), DENSE_CAP)
    k1, k2 = as_real("Bloch phase k1", k1), as_real("Bloch phase k2", k2)
    j = np.arange(q)
    h = np.diag(2.0 * np.cos(k2 + 2.0 * np.pi * p * j / q)).astype(complex)
    if q == 1:
        h[0, 0] += 2.0 * np.cos(k1)
        return h
    for i in range(q - 1):
        h[i + 1, i] += 1.0
        h[i, i + 1] += 1.0
    h[0, q - 1] += np.exp(1j * q * k1)
    h[q - 1, 0] += np.exp(-1j * q * k1)
    return h


@dataclass(frozen=True)
class BandSpectrum:
    """Sorted disjoint closed intervals: a band spectrum at rational flux."""

    bands: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        for a, b in self.bands:
            if b < a:
                raise ValidationError(f"band [{a}, {b}] is inverted")
        for (_, b1), (a2, _) in zip(self.bands, self.bands[1:]):
            if a2 <= b1:
                raise ValidationError("bands must be sorted and disjoint")

    @property
    def min(self) -> float:
        return self.bands[0][0]

    @property
    def max(self) -> float:
        return self.bands[-1][1]


def merge_intervals(intervals: Sequence[Tuple[float, float]]) -> Tuple[Tuple[float, float], ...]:
    """Sort and merge intervals that overlap or touch within MERGE_TOL."""
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    out: List[List[float]] = []
    for a, b in ivs:
        if out and a <= out[-1][1] + MERGE_TOL:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


def amo_spectrum(p: int, q: int, *, q_cap: int = DEFAULT_Q_CAP) -> BandSpectrum:
    """Bands of h at flux p/q from the Bloch eigenvalues at (0, 0) and
    (pi/q, pi/q), where q is the reduced denominator (Chambers' relation); the
    cost guard q_cap applies to that reduced q, and DENSE_CAP bounds it too.

    The two real symmetric matrices (diagonal 2 cos(pi (2 p j + s) / q),
    corners e^(i pi s) = +-1, for s = 0, 1) are solved as one (2, q, q) stack.
    The corners are added, not assigned: at q = 1 they land on the diagonal
    and at q = 2 on the off-diagonal."""
    p, q = as_index("p", p), as_index("q", q, minimum=1)
    q_cap = as_index("q_cap", q_cap, 1)
    g = gcd(p, q)
    pr, qr = p // g, q // g
    guard("reduced flux denominator q =", qr, q_cap)
    guard("Bloch matrix side q =", qr, DENSE_CAP)
    h = np.zeros((2, qr, qr))
    flat = h.reshape(2, qr * qr)  # a view: row i of matrix s starts at i qr
    s = np.arange(2)[:, None]
    # the angle's multiple of pi/q is reduced mod 2q exactly, in integers
    flat[:, :: qr + 1] = 2.0 * np.cos(np.pi / qr * ((2 * pr * np.arange(qr) + s) % (2 * qr)))
    flat[:, 1 :: qr + 1] = 1.0  # superdiagonal
    flat[:, qr :: qr + 1] = 1.0  # subdiagonal
    for corner in ((0, qr - 1), (qr - 1, 0)):
        h[(0, *corner)] += 1.0
        h[(1, *corner)] -= 1.0
    e0, e1 = np.linalg.eigvalsh(h)
    bands = merge_intervals(zip(np.minimum(e0, e1).tolist(), np.maximum(e0, e1).tolist()))
    return BandSpectrum(bands)


# -- Hausdorff distance ----------------------------------------------------------


def _point_to_bands(x: float, bands: Sequence[Tuple[float, float]]) -> float:
    return min(
        0.0 if a <= x <= b else min(abs(x - a), abs(x - b)) for a, b in bands
    )


def _directed(a_bands, b_bands) -> float:
    """sup over the first set of the distance to the second.

    The supremum over a union of intervals is attained at an interval endpoint
    or at a gap midpoint of the other set lying inside this one.
    """
    candidates = [e for ab in a_bands for e in ab]
    for (_, b1), (a2, _) in zip(b_bands, b_bands[1:]):
        mid = 0.5 * (b1 + a2)
        if any(a <= mid <= b for a, b in a_bands):
            candidates.append(mid)
    return max(_point_to_bands(x, b_bands) for x in candidates)


def hausdorff_distance(a: BandSpectrum, b: BandSpectrum) -> float:
    """Exact Hausdorff distance between two closed interval unions."""
    if not a.bands or not b.bands:
        raise ValidationError("cannot measure distance to an empty spectrum")
    return max(_directed(a.bands, b.bands), _directed(b.bands, a.bands))


# -- continuity scan ----------------------------------------------------------------


@dataclass(frozen=True)
class HolderScanResult:
    offsets: List[Fraction]
    distances: List[float]
    slope: float
    c_fit: float                   # max D / sqrt(delta) over the rows
    lip_half_ok: bool              # c_fit <= LIP_HALF_BOUND
    excluded_zero_offsets: int
    decade_span: float             # log10 of the largest over the smallest offset


def holder_scan(
    base: Fraction,
    offsets: Sequence[Fraction],
    *,
    q_cap: int = DEFAULT_Q_CAP,
) -> HolderScanResult:
    """Hausdorff distance D(delta) between the spectra at base and base+delta
    for each offset, with a least-squares fit of log D against log delta.

    `lip_half_ok` gates every row against the fixed Hoelder-1/2 bound
    D(delta) <= LIP_HALF_BOUND sqrt(delta), i.e. c_fit = max D/sqrt(delta)
    <= LIP_HALF_BOUND; rows with D = 0 hold trivially.  The exponent fit is
    reported, not gated.

    Zero offsets give D = 0 and are excluded from the fit (but counted).  The
    fit needs at least two distinct positive offsets.  The span of the positive
    offsets is returned as `decade_span`; under two decades the fitted exponent
    is poorly conditioned.
    """
    for x in (base, *offsets):  # checked as reals, then taken exactly
        as_real("flux", x)
    base = Fraction(base)
    offsets = [Fraction(x) for x in offsets]
    zero_count = sum(1 for x in offsets if x == 0)
    work = sorted(set(x for x in offsets if x != 0))
    if any(x < 0 for x in work):
        raise ValidationError("offsets must be nonnegative")
    if len(work) < 2:
        raise DegenerateFitError(
            "need at least two distinct positive offsets for a fit"
        )
    fluxes = [base] + [base + x for x in work]
    specs = [amo_spectrum(fl.numerator, fl.denominator, q_cap=q_cap) for fl in fluxes]
    base_spec, rest = specs[0], specs[1:]
    dists = [hausdorff_distance(base_spec, s) for s in rest]

    pos = [(float(x), d) for x, d in zip(work, dists) if d > 0]
    if len(pos) < 2:
        raise DegenerateFitError("fewer than two nonzero distances; cannot fit")
    ld = np.log([x for x, _ in pos])
    lD = np.log([d for _, d in pos])
    slope = np.polyfit(ld, lD, 1)[0]
    c_fit = max(d / float(x) ** 0.5 for x, d in pos)
    return HolderScanResult(
        work,
        dists,
        float(slope),
        float(c_fit),
        bool(c_fit <= LIP_HALF_BOUND),
        zero_count,
        float(np.log10(float(work[-1]) / float(work[0]))),
    )


def coprime_fluxes(q_max: int) -> List[Fraction]:
    """All reduced fluxes p/q in [0, 1) with q <= q_max."""
    q_max = as_index("q_max", q_max, 1)
    out = [Fraction(0, 1)]
    for q in range(1, q_max + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return sorted(set(out))

"""Star products on grid functions, the twisted regular representation, and
Sobolev bookkeeping.

The engine fixes the symmetric cocycle once and for all:

    sigma_theta(s, t) = exp((i/2) theta(s, t)),   theta(s, t) = s . Theta t,

so the frequency-side product is

    (f * g)^(t) = integral fhat(s) ghat(t - s) exp((i/2) theta(s, t - s)) ds
                = integral fhat(s) ghat(t - s) exp((i/2) theta(s, t)) ds,

and the position-side double integral consistent with it is

    (f * g)(x) = (2 pi)^-d  II  f(x + (1/2) Theta s) g(x + t) e^{-i s.t} ds dt.

The t-integral is a pure Fourier transform of g (it carries no twist), so the
double quadrature factorizes exactly on the extended lattice:

    (f * g)(x) = integral f(x + (1/2) Theta s) ghat(s) e^{i s.x} ds.

moyal_direct evaluates that s-quadrature with trigonometric interpolation for
the shifted f samples.  On the plane the shift x + (1/2) Theta s moves x_1 by
-theta s_0 / 2 and x_0 by theta s_1 / 2, so the sum factorizes one axis at a
time: rows of fhat and ghat interpolated along x_1 at sheared points, their
products summed over the pairs of first-axis modes with the same total, then
one transform over that total, O(M^3 log M) in all, run in blocks of about
FFT_ROWS rows.  It calls the raw inverse FFT itself: the sample-grid signs
(-1)^n sit in its (M, M) shear table, so no pass over the rows applies them.

twisted_convolve performs the frequency-side sum with zero padding (no
wraparound).  With u = t - s the twist is theta(s, u); since Theta_dd = 0 it
splits into a chirp on each row of fhat, a chirp on each row of ghat and a
phase on the output (see twisted_convolve).  So each row of either operand is
transformed once at length 3M/2, and each pair (s', t') of points of the first
d-1 axes costs one product of two stored row spectra and one inverse FFT:
2 M^(d-1) forward and about M^(2d-2) inverse rows, O(M^(2d-1) log M),
O(M^3 log M) on the plane, run in blocks of about FFT_ROWS pairs.  The two
routes share only to_frequency, so their agreement is a meaningful cross-check.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache, reduce
from math import gamma, isfinite, pi, sqrt
from typing import Callable, List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DENSE_CAP, ValidationError, as_index, as_real, guard
from .gridfn import (
    GridFunction, checked_power, freq_grid_vectors, l2_norm, to_frequency, to_position,
)
from .skew import SkewMatrix

DIRECT_CAP = 4096  # M^d cap for the position-side quadrature
# M^(2d-1) cap for twisted_convolve, whose cost is O(M^(2d-1) log M): the
# plane up to M = 256 and d = 3 up to M = 16
CONVOLVE_CAP = 2**24
# inverse FFT rows per batched call of both star products.  In
# twisted_convolve a block is a run of consecutive t' whose pairs (s', t')
# number about FFT_ROWS; at M = 64 on the plane that is 5 values of t_0, a
# working set of about 256 rows of 96 complex values, 0.4 MB.  In moyal_direct
# it is FFT_ROWS // M first-axis modes of M rows of M values each, 256 KB per
# block array at any M.  Larger blocks measured slower on the plane.
FFT_ROWS = 256


def _check_theta(f: GridFunction, theta: SkewMatrix, phase_weight: Callable[[np.ndarray], float]):
    """theta fits f's grid: the same dimension, and w s_max^2 finite for
    w = phase_weight(|Theta|) > 0, the largest twist phase the caller forms
    on the frequency box: past the float range it would be inf and its
    exponential NaN.  (For d >= 2 the cell checks keep s_max^2 finite; with
    w = 0, as on a line, no phase is formed.)"""
    if theta.dim != f.dim:
        raise ValidationError(f"theta dimension {theta.dim} != grid dimension {f.dim}")
    s_max = f.freq_step * (f.points // 2)
    weight = phase_weight(np.abs(theta.as_array()))
    bound = weight * (s_max * s_max)
    if weight and not isfinite(bound):
        raise ValidationError(
            f"twist phase bound {bound!r} for s_max = {s_max!r} leaves the float range"
        )


def _half_largest(theta_abs: np.ndarray) -> float:
    """(1/2) max |Theta_jk|: each phase table (i/2) Theta_jk s s'."""
    return 0.5 * float(theta_abs.max())


def _convolve_largest(theta_abs: np.ndarray) -> float:
    """The larger of sum_a |Theta_a,d-1| and sum_{a, b < d-1} |Theta_ab|: the
    chirp phases x c(v') and the pair phases s'.Theta' t' of twisted_convolve,
    before their 1/2."""
    return float(max(theta_abs[:-1, -1].sum(), theta_abs[:-1, :-1].sum()))


def _finite_product(fhat: GridFunction, ghat: GridFunction,
                    product: Callable[[], GridFunction]) -> GridFunction:
    """product(), a star product route run over fhat and ghat.  Either route
    forms values of at most max|fhat| max|ghat| 5 M^(2d+2) max(1, ds)^2, ds =
    (pi/L)^d (see moyal_direct and star_product_fourier): while that bound is
    finite nothing can overflow and product() runs as it is.  Past the float
    range the route runs with overflow ignored, and a ValidationError is
    raised only if its result holds inf or NaN."""
    ds = max(1.0, fhat.freq_step**fhat.dim)
    growth = 5.0 * fhat.points ** (2 * fhat.dim + 2) * ds * ds
    if isfinite(float(np.abs(fhat.values).max()) * float(np.abs(ghat.values).max()) * growth):
        return product()
    with np.errstate(over="ignore", invalid="ignore"):
        out = product()
    if not np.isfinite(out.values).all():
        raise ValidationError("star product values leave the float range")
    return out


# -- star product: position-side quadrature -----------------------------------


def moyal_direct(f: GridFunction, g: GridFunction, theta: SkewMatrix) -> GridFunction:
    """Star product by quadrature of the double oscillatory integral.

    The inner t-integral is done in closed form (it is the transform of g);
    the remaining s-quadrature reads f at the sheared points x + (1/2) Theta s
    by trigonometric interpolation.  Expanding f in its modes m, that sum is

        out(x) = ds^4 sum_{m,s} fhat(m) ghat(s) e^{i (m + s).x} e^{(i/2) theta (m_0 s_1 - m_1 s_0)}

    on the plane (theta = Theta_01, ds = pi / L the frequency step), and it
    factorizes one axis at a time: row m_0 of fhat is interpolated along x_1
    at x_1 - theta s_0 / 2, row s_0 of ghat at x_1 + theta m_0 / 2, and their
    product depends on (m_0, s_0)
    through e^{i (m_0 + s_0) x_0} only by k = m_0 + s_0 mod M (a shift of the
    total by M ds is a factor 1 on the sample grid).  So the products are
    summed over each wrapped diagonal m_0 + s_0 = k, read through strided
    views of doubled tables, and one inverse FFT over k gives out.

    With s_j = ds (j - M/2) and x_n = -L + n h, e^{i s_j x_n} is
    (-1)^(j + n + M/2) e^{2 pi i j n / M}: the signs in n cancel in the
    product of the two interpolants and vanish from e^{i (m_0 + s_0) x_0},
    and the signs (-1)^(m_0 + s_0 + m_1 + s_1) sit in the (M, M) shear table.
    The modes m_0 run in blocks of FFT_ROWS // M (at least one): per block the
    two sheared products, their two batched inverse FFTs and their product,
    folded into one (M, M) running total in the order of a sum over all m_0,
    so the result does not depend on the block size.  That is O(M^3 log M)
    time and O(M^2 + FFT_ROWS M) memory.  For d = 1, Theta = 0 and the sum is
    the product of the two interpolants, which at the sample points is the
    pointwise product.  Guarded to d <= 2 and M^d <= DIRECT_CAP; every value
    formed is at most 2 M^4 max|fhat| max|ghat| max(1, (pi/L)^4) (row
    transforms of M terms, a running total of M products, a last transform of
    M totals), within _finite_product's bound.
    """
    f.require_same_grid(g)
    _check_theta(f, theta, _half_largest)
    if f.side != "position":
        raise ValidationError("moyal_direct expects position-side functions")
    if f.dim > 2:
        raise ValidationError("direct quadrature is limited to d <= 2")
    m, d = f.points, f.dim
    guard("direct quadrature M^d =", m**d, DIRECT_CAP)

    if d == 1:
        return GridFunction(d, f.half_length, m, f.values * g.values)
    scale = checked_power("quadrature weight (pi/L)^4", f.freq_step, 4, 5e-324, sys.float_info.max)
    fhat, ghat = to_frequency(f), to_frequency(g)
    return _finite_product(fhat, ghat, lambda: _direct_plane(fhat, ghat.values, theta, scale))


def _direct_plane(fhat: GridFunction, ghat: np.ndarray, theta: SkewMatrix, scale: float):
    """moyal_direct's sum on the plane, from the spectra of f and g."""
    m = fhat.points

    def along_x(values):  # sum_j values_j e^{2 pi i j n / M} along the last axis
        return np.fft.ifft(values, axis=-1, norm="forward")

    def diagonals(table):  # [i, k] -> table[(k - (M - 1 - i)) mod M]: a view
        return sliding_window_view(np.concatenate((table[1:], table)), m, axis=0).swapaxes(1, 2)

    freqs = fhat.freq_axis()
    signs = (-1.0) ** np.arange(m)
    # shear[s_0, m_1] = (-1)^(s_0 + m_1) e^{-(i/2) theta s_0 m_1}; symmetric
    shear = np.exp(-0.5j * theta.as_array()[0, 1] * np.outer(freqs, freqs))
    shear *= np.multiply.outer(signs, signs)
    # row m_0 = M-1-i runs down the first axis, so that the row s_0 = k - m_0
    # paired with it on diagonal k is row i + k + 1 of the doubled table
    frows, fdiag = fhat.values[::-1, None, :], diagonals(shear)
    grows, gdiag = shear.conj()[::-1, None, :], diagonals(ghat)
    rows, total = max(1, FFT_ROWS // m), None
    for i in range(0, m, rows):  # blocks of i, folded into the sum in order
        block = slice(i, i + rows)
        sheared = along_x(frows[block] * fdiag[block])  # [i, k, x_1]
        sheared *= along_x(gdiag[block] * grows[block])
        if total is not None:
            sheared[0] += total
        total = sheared.sum(axis=0)
    out = np.fft.ifft(total, axis=0, norm="forward")  # [x_0, x_1]
    return GridFunction(2, fhat.half_length, m, out * scale)


# -- star product: frequency-side twisted convolution --------------------------


@cache
def _convolution_pairs(m: int, lead: int):
    """The pairs (t', s') of points of the (M,)*lead box whose row u' = t' - s'
    lies in the box, t'-major, for twisted_convolve: their indices idx per axis
    (t' axes, then s'), flat s' and u', the offset of each t''s first pair and
    the number of t' per block, which holds about FFT_ROWS pairs.  Cached per
    (M, lead), read-only."""
    half, rows = m // 2, m**lead
    # on each axis u_a sits at index t_a - s_a + M/2, so flat(u') = flat(t') -
    # flat(s') + (M/2)(1 + M + ... + M^(lead-1))
    step = np.subtract.outer(np.arange(m), np.arange(m)) + half
    inside = (step >= 0) & (step < m)
    idx = np.nonzero(reduce(np.logical_and, [
        inside.reshape([m if ax in (a, lead + a) else 1 for ax in range(2 * lead)])
        for a in range(lead)
    ]))
    t_flat = np.ravel_multi_index(idx[:lead], (m,) * lead)
    s_flat = np.ravel_multi_index(idx[lead:], (m,) * lead)
    u_flat = t_flat - s_flat + half * (rows - 1) // (m - 1)
    counts = reduce(np.multiply.outer, [inside.sum(axis=1)] * lead).ravel()
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for arr in (*idx, s_flat, u_flat, offsets):
        arr.flags.writeable = False
    return idx, s_flat, u_flat, offsets, max(1, round(FFT_ROWS * rows / offsets[-1]))


def twisted_convolve(
    fhat: GridFunction, ghat: GridFunction, theta: SkewMatrix
) -> GridFunction:
    """(f*g)^(t) = sum_s fhat(s) ghat(t-s) exp((i/2) theta(s,t)) ds.

    ghat is zero-padded outside its box (linear, not cyclic, convolution): the
    twist phase is not periodic in s, so wraparound would be wrong.  Output is
    reported on the input frequency box.

    With u = t - s the twist is theta(s, u), since theta(s, s) = 0.  Write
    s = (s', s_d), t = (t', t_d) and u = (u', u_d) with s', t', u' the first
    d-1 coordinates, and c(v') = sum_{a<d} v_a Theta_ad.  As Theta_dd = 0,
    Theta' = Theta[:d-1, :d-1] is skew and c is linear (c(u') = c(t') - c(s')),

        theta(s, u) = s'.Theta' t' + t_d (2 c(s') - c(t')) - s_d c(s') + u_d c(u').

    The last two terms are chirps on single rows: fhat(s', .) exp(-(i/2) s_d c(s'))
    and ghat(u', .) exp((i/2) u_d c(u')), each row transformed once at length
    3M/2, where a cyclic FFT convolution is exact on the M outputs kept.  For
    each pair (s', t') with t' - s' in the box, the product of the two stored
    row spectra and one inverse FFT give the linear convolution along the last
    axis; it is weighted by exp(i t_d c(s')) (and exp((i/2) s'.Theta' t') for
    d > 2) and summed over s', and exp(-(i/2) t_d c(t')) is applied once per t'.

    The pairs run t'-major in blocks of consecutive t' holding about FFT_ROWS
    pairs: one gather of each operand's rows, one batched inverse FFT and one
    sum over s' per block.  That is 2 M^(d-1) forward rows and about M^(2d-2)
    inverse rows of 3M/2 values, so the cost is O(M^(2d-1) log M): O(M^3 log M)
    on the plane, where the per-point sum costs O(M^4).  For d = 1 it is one
    FFT pair.  Guarded to M^(2d-1) <= CONVOLVE_CAP.
    """
    fhat.require_same_grid(ghat)
    _check_theta(fhat, theta, _convolve_largest)
    if fhat.side != "frequency":
        raise ValidationError("twisted_convolve expects frequency-side functions")
    m, d = fhat.points, fhat.dim
    guard("twisted convolution M^(2d-1) =", m ** (2 * d - 1), CONVOLVE_CAP)
    lead, half, n = d - 1, m // 2, 3 * m // 2
    theta_arr = theta.as_array()
    freqs = fhat.freq_axis()
    ds = fhat.freq_step**d

    def ifft_kept(spec):  # the M outputs of the convolution that lie in the box
        return np.fft.ifft(spec, axis=-1)[..., half : half + m]

    if d == 1:
        out = ifft_kept(np.fft.fft(fhat.values, n=n) * np.fft.fft(ghat.values, n=n))
        return GridFunction(d, fhat.half_length, m, out * ds, side="frequency")

    rows = m**lead  # the lead points v', row-major
    c = reduce(np.add.outer, [freqs * theta_arr[a, lead] for a in range(lead)]).ravel()
    chirp = np.exp(0.5j * np.outer(c, freqs))  # [v', x] = exp((i/2) x c(v'))
    fspec = np.fft.fft(fhat.values.reshape(rows, m) * chirp.conj(), n=n, axis=-1)
    gspec = np.fft.fft(ghat.values.reshape(rows, m) * chirp, n=n, axis=-1)
    weight = chirp * chirp  # exp(i x c(v'))
    idx, s_flat, u_flat, offsets, block = _convolution_pairs(m, lead)
    if lead > 1:  # exp((i/2) s'.Theta' t') per pair
        pair = np.exp(0.5j * sum(
            theta_arr[a, b] * freqs[idx[lead + a]] * freqs[idx[b]]
            for a in range(lead) for b in range(lead) if a != b
        ))
    out = np.empty((rows, m), dtype=complex)
    for t0 in range(0, rows, block):
        t1 = min(rows, t0 + block)
        p0, p1 = offsets[t0], offsets[t1]
        spec = fspec.take(s_flat[p0:p1], axis=0)
        spec *= gspec.take(u_flat[p0:p1], axis=0)
        conv = weight.take(s_flat[p0:p1], axis=0)
        conv *= ifft_kept(spec)
        if lead > 1:
            conv *= pair[p0:p1, None]
        out[t0:t1] = np.add.reduceat(conv, offsets[t0:t1] - p0, axis=0)
    out *= chirp.conj() * ds
    return GridFunction(d, fhat.half_length, m, out.reshape((m,) * d), side="frequency")


def star_product_fourier(
    f: GridFunction, g: GridFunction, theta: SkewMatrix
) -> GridFunction:
    """Position-side star product through the frequency route.  Over
    max|fhat| max|ghat|, twisted_convolve forms values up to max(3/2 M^3,
    M^(d+1)) max(1, ds) (row spectra of M terms, unscaled inverse transforms
    of 3M/2 products, sums of M^(d-1) rows) and outputs up to c = M^(d+1) ds,
    and to_position forms up to c max(M^d, (pi M/L)^d), ds = (pi/L)^d: all
    within _finite_product's bound."""
    fhat, ghat = to_frequency(f), to_frequency(g)
    return _finite_product(fhat, ghat, lambda: to_position(twisted_convolve(fhat, ghat, theta)))


# -- regular representation ----------------------------------------------------


def regular_rep_matrix(f: GridFunction, theta: SkewMatrix) -> np.ndarray:
    """Dense matrix of the twisted left multiplication by f on the frequency grid.

    With the engine's cocycle the action on a frequency vector g is

        (L_f g)(t) = sum_{t'} fhat(t - t') exp((i/2) theta(t - t', t')) g(t') ds,

    where fhat vanishes outside its box.  theta(t - t', t') = theta(t, t')
    because theta(t', t') = 0, and theta(t, t') is a sum over the pairs j < k
    of Theta_jk (t_j t'_k - t_k t'_j), so the phase is a product of the one
    symmetric (M, M) table E_jk = exp((i/2) Theta_jk s s^T) per pair, read as
    E_jk[t_j, t'_k] conj(E_jk[t_k, t'_j]) and broadcast over the 2d index axes
    of the matrix: two products over its n^2 entries per pair, and no exp.
    Guarded to M^d <= DENSE_CAP.
    """
    _check_theta(f, theta, _half_largest)
    fhat = to_frequency(f) if f.side == "position" else f
    m, d = fhat.points, fhat.dim
    n = guard("matrix dimension M^d =", m**d, DENSE_CAP)
    theta_arr = theta.as_array()
    products = np.outer(fhat.freq_axis(), fhat.freq_axis())

    # fhat at t - t', zero outside the box: index i - i' + M of the padded
    # array, broadcast over the open grids of t and t' (axes t_0.., t'_0..)
    index = tuple(np.subtract.outer(i, i) + m for i in np.indices((m,) * d, sparse=True))
    out = np.pad(fhat.values * fhat.freq_step**d, m // 2)[index]
    for j in range(d):
        for k in range(j + 1, d):
            table = np.exp(0.5j * theta_arr[j, k] * products)
            out *= table.reshape([m if ax in (j, d + k) else 1 for ax in range(2 * d)])
            out *= table.conj().reshape([m if ax in (k, d + j) else 1 for ax in range(2 * d)])
    return out.reshape(n, n)


def interior_frequency_mask(f: GridFunction, margin_fraction: float = 0.5) -> np.ndarray:
    """Boolean mask of frequency points with |s|_sup <= margin_fraction * s_max,
    for a margin_fraction in [0, 1]."""
    margin_fraction = as_real("margin fraction", margin_fraction, minimum=0, maximum=1)
    smax = np.abs(f.freq_axis()).max()
    return np.all(np.abs(freq_grid_vectors(f)) <= margin_fraction * smax + 1e-12, axis=1)


# -- Sobolev norms and the quantization constant -------------------------------


def sobolev_norm(f: GridFunction, alpha: float) -> float:
    """|| (1 + |s|^2)^{alpha/2} fhat ||_2 with Plancherel weights."""
    alpha = as_real("alpha", alpha, minimum=0)
    fhat = to_frequency(f) if f.side == "position" else f
    s2 = (freq_grid_vectors(fhat) ** 2).sum(axis=1).reshape(fhat.values.shape)
    weighted = (1.0 + s2) ** (alpha / 2.0) * fhat.values
    return l2_norm(
        GridFunction(fhat.dim, fhat.half_length, fhat.points, weighted, side="frequency")
    )


def sphere_surface(d: int) -> float:
    """Surface measure of the unit (d-1)-sphere in R^d."""
    return 2.0 * pi ** (d / 2.0) / gamma(d / 2.0)


def quantization_constant(alpha: float, d: int, path_constant: float) -> float:
    """(V_d / (2 alpha - d - 2))^{1/2} * C; finite exactly when alpha > d/2 + 1."""
    d = as_index("dimension", d, 1)
    alpha, path_constant = as_real("alpha", alpha), as_real("C", path_constant)
    if alpha <= d / 2.0 + 1.0:
        raise ValidationError(
            f"alpha must exceed d/2 + 1 = {d / 2 + 1}; the frequency integral diverges"
        )
    return sqrt(sphere_surface(d) / (2.0 * alpha - d - 2.0)) * path_constant


# -- dimension reduction --------------------------------------------------------


@dataclass(frozen=True)
class DimensionReductionReport:
    norms: List[float]
    reference_norm: float
    deviations: List[float]
    bounds: List[float]       # beta_n * ||f||_2 ||g||_2 (||phi_n||_2 = 1)
    observed_rate: float


def _bump(tgrid: np.ndarray, eps: float) -> np.ndarray:
    """Squared-cosine bump on [-eps, eps], unit L2 norm."""
    v = np.where(np.abs(tgrid) <= eps, np.cos(np.pi * tgrid / (2.0 * eps)) ** 2, 0.0)
    return v * np.sqrt(4.0 / (3.0 * eps))


def dimension_reduction_check(
    f: GridFunction, theta: SkewMatrix, n_steps: int, allow_singular: bool = False
) -> DimensionReductionReport:
    """Compare the twisted action of f restricted to the first d-1 frequency
    axes against the (d-1)-dimensional twisted multiplication, through states
    whose last-axis frequency profile is a unit bump phi_n on [-eps_n, eps_n],
    eps_n = 2^{-n}, sampled at 129 points.  f is truncated to the frequencies
    with |s|_sup <= s_max / 2; g is the normalized unit Gaussian on f's grid.

    The defect comes only from the phase exp((i/2) sum_j theta_jd s_j t_d) - 1,
    so it is bounded by beta_n ||phi_n||_2 ||f||_2 ||g||_2 and vanishes
    linearly in eps_n.
    """
    d = theta.dim
    if f.dim != d - 1:
        raise ValidationError(f"f must live on d-1 = {d - 1} axes, has {f.dim}")
    if not allow_singular:
        arr = theta.as_array()
        sv = np.linalg.svd(arr, compute_uv=False)
        if sv[-1] <= 1e-8 * max(sv[0], 1.0):
            raise ValidationError("theta is singular; pass allow_singular=True to probe anyway")
    n_steps = as_index("n_steps", n_steps, 1)
    g = GridFunction.gaussian(f.dim, f.half_length, f.points, sigma=1.0)

    fhat = to_frequency(f)
    # enforce a compactly supported frequency profile by hard truncation
    mask = interior_frequency_mask(fhat, 0.5).reshape(fhat.values.shape)
    fhat = GridFunction(
        fhat.dim, fhat.half_length, fhat.points, fhat.values * mask, side="frequency"
    )
    ghat = to_frequency(g)

    theta_hat = theta.principal_submatrix(d - 1)
    ref = twisted_convolve(fhat, ghat, theta_hat)  # (d-1)-dimensional product
    ds = fhat.freq_step ** (d - 1)
    two_pi_d = (2.0 * np.pi) ** d

    # coupling frequency: w(s) = sum_{j<d} theta_jd s_j for every s in the box
    coup = np.array([theta.entry(j, d - 1) for j in range(d - 1)], dtype=float)
    fvals = fhat.values
    w = (freq_grid_vectors(fhat) @ coup).reshape(fvals.shape)
    w_active = w[fvals != 0]
    if len(w_active) == 0:
        raise ValidationError("f has no frequency support left after truncation")

    norm_f = l2_norm(f)
    norm_g = l2_norm(g)
    ref_l2 = l2_norm(ref)

    epsilons, norms, devs, bounds = [], [], [], []
    for nstep in range(1, n_steps + 1):
        eps = 2.0 ** (-nstep)
        tgrid = np.linspace(-eps, eps, 129)
        dt = tgrid[1] - tgrid[0]
        # scaled so the synthesized d-dimensional state has the same L2 norm as g
        phi = _bump(tgrid, eps) / np.sqrt(2.0 * np.pi)
        beta = float(np.abs(np.exp(0.5j * np.outer(w_active, tgrid)) - 1).max())

        norm_sq = 0.0
        dev_sq = 0.0
        for td, ph_val in zip(tgrid, phi):
            # the slice at t_d is the (d-1)-dimensional product of the tilted fhat
            tilted = GridFunction(
                d - 1, fhat.half_length, fhat.points, fvals * np.exp(0.5j * w * td),
                side="frequency",
            )
            t_slice = twisted_convolve(tilted, ghat, theta_hat).values
            norm_sq += (np.abs(t_slice) ** 2).sum() * ds * ph_val**2 * dt
            dev_sq += (np.abs(t_slice - ref.values) ** 2).sum() * ds * ph_val**2 * dt
        norms.append(float(np.sqrt(norm_sq * two_pi_d)))
        devs.append(float(np.sqrt(dev_sq * two_pi_d)))
        bounds.append(beta * norm_f * norm_g)
        epsilons.append(eps)

    pos = [(e, dv) for e, dv in zip(epsilons, devs) if dv > 0]
    if len(pos) >= 2:
        le = np.log([p[0] for p in pos])
        ld = np.log([p[1] for p in pos])
        rate = float(np.polyfit(le, ld, 1)[0])
    else:
        rate = float("nan")
    return DimensionReductionReport(norms, ref_l2, devs, bounds, rate)

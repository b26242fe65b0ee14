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
one transform over that total, O(M^3 log M) in all.  It calls the raw inverse
FFT itself: the sample-grid signs (-1)^n sit in its (M, M) shear table, so no
pass over an (M, M, M) array applies them.

twisted_convolve performs the frequency-side sum with zero padding (no
wraparound).  Since Theta_dd = 0, the twist splits as

    theta(s, t) = (Theta^T s') . t + s_d sum_{k<d} Theta_dk t_k,   s = (s', s_d),

a phase in t times a chirp in s_d, so for each of the M^(d-1) values of s'
the sum over s_d is one FFT convolution along the last axis for each of the
M^(d-1) values of t': the frequency route transforms about M^(2d-2) rows of
3M/2 values, O(M^(2d-1) log M), O(M^3 log M) on the plane.  Consecutive values
of the last coordinate of s' share one batched FFT of at most about FFT_ROWS
rows.  The two routes share only to_frequency, so their agreement is a
meaningful cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gamma, pi, sqrt
from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DENSE_CAP, ValidationError, as_index, as_real, guard
from .gridfn import GridFunction, freq_grid_vectors, l2_norm, to_frequency, to_position
from .skew import SkewMatrix

DIRECT_CAP = 4096  # M^d cap for the position-side quadrature
# M^(2d-1) cap for twisted_convolve, whose cost is O(M^(2d-1) log M): the
# plane up to M = 256 and d = 3 up to M = 16
CONVOLVE_CAP = 2**24
# FFT rows per batched call of twisted_convolve: a block of B values of the
# last lead coordinate, B = max(1, FFT_ROWS // M^(d-1)), with their boxes of
# at most M^(d-1) values of t' each; at M = 64 on the plane that is a working
# set of 256 rows of 96 complex values, 0.4 MB.  Larger blocks measured slower.
FFT_ROWS = 256


def _check_theta(f: GridFunction, theta: SkewMatrix):
    if theta.dim != f.dim:
        raise ValidationError(f"theta dimension {theta.dim} != grid dimension {f.dim}")


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
    The passes over (M, M, M) arrays are the two sheared products, their two
    batched inverse FFTs and one product summed over the diagonals.  For
    d = 1, Theta = 0 and the sum is the product of the two interpolants, which
    at the sample points is the pointwise product.  Guarded to d <= 2 and
    M^d <= DIRECT_CAP.
    """
    f.require_same_grid(g)
    _check_theta(f, theta)
    if f.side != "position":
        raise ValidationError("moyal_direct expects position-side functions")
    if f.dim > 2:
        raise ValidationError("direct quadrature is limited to d <= 2")
    m, d = f.points, f.dim
    guard("direct quadrature M^d =", m**d, DIRECT_CAP)

    if d == 1:
        return GridFunction(d, f.half_length, m, f.values * g.values)

    def along_x(values):  # sum_j values_j e^{2 pi i j n / M} along the last axis
        return np.fft.ifft(values, axis=-1, norm="forward")

    def diagonals(table):  # [i, k] -> table[(k - (M - 1 - i)) mod M]: a view
        return sliding_window_view(np.concatenate((table[1:], table)), m, axis=0).swapaxes(1, 2)

    fhat = to_frequency(f)
    ghat = to_frequency(g).values
    freqs = fhat.freq_axis()
    signs = (-1.0) ** np.arange(m)
    # shear[s_0, m_1] = (-1)^(s_0 + m_1) e^{-(i/2) theta s_0 m_1}; symmetric
    shear = np.exp(-0.5j * theta.as_array()[0, 1] * np.outer(freqs, freqs))
    shear *= np.multiply.outer(signs, signs)
    # row m_0 = M-1-i runs down the first axis, so that the row s_0 = k - m_0
    # paired with it on diagonal k is row i + k + 1 of the doubled table
    fsheared = along_x(fhat.values[::-1, None, :] * diagonals(shear))  # [i, k, x_1]
    gsheared = along_x(diagonals(ghat) * shear.conj()[::-1, None, :])  # [i, k, x_1]
    fsheared *= gsheared
    out = np.fft.ifft(fsheared.sum(axis=0), axis=0, norm="forward")  # [x_0, x_1]
    return GridFunction(d, f.half_length, m, out * fhat.freq_step**4)


# -- star product: frequency-side twisted convolution --------------------------


def twisted_convolve(
    fhat: GridFunction, ghat: GridFunction, theta: SkewMatrix
) -> GridFunction:
    """(f*g)^(t) = sum_s fhat(s) ghat(t-s) exp((i/2) theta(s,t)) ds.

    ghat is zero-padded outside its box (linear, not cyclic, convolution): the
    twist phase is not periodic in s, so wraparound would be wrong.  Output is
    reported on the input frequency box.

    Write s = (s', s_d) and t = (t', t_d) with s', t' the first d-1
    coordinates.  Because Theta_dd = 0 the twist separates as

        theta(s, t) = (Theta^T s') . t + s_d c(t'),   c(t') = sum_{k<d} Theta_dk t_k,

    with (Theta^T s')_b = sum_{a<d} s_a Theta_ab.  For each s' the sum over s_d
    is then, for every t' at once, a linear convolution along the last axis of
    fhat(s', .) exp((i/2) s_d c(t')) with the row ghat(t' - s', .), followed by
    the phase exp((i/2) (Theta^T s') . t).  A cyclic FFT convolution of length
    3M/2 is exact on the M outputs kept, so the rows of ghat are transformed
    once per call at that length.  The chirp and the phase are products of the
    per-pair tables exp((i/2) Theta_ab s_a t_b), also built once per call.

    The s' run in blocks of B consecutive values of their last coordinate,
    B = max(1, FFT_ROWS // M^(d-1)): one batched FFT pair covers a block,
    with t' over the union of its boxes (at most (B + M - 1) M^(d-2) values),
    and the rows t' - s' that fall outside ghat's box read zeros from ghat's
    transform padded along that axis.  A block costs
    O(B M^(d-1) M log M) and holds about FFT_ROWS rows of 3M/2 values, so the
    working set stays cache-sized while the Python loop runs M^(d-1) / B
    times; about M^(2d-2) rows in all, so the cost is O(M^(2d-1) log M):
    O(M^3 log M) on the plane, where the per-point sum costs O(M^4).  For
    d = 1 it is one FFT pair.  Guarded to M^(2d-1) <= CONVOLVE_CAP.
    """
    fhat.require_same_grid(ghat)
    _check_theta(fhat, theta)
    if fhat.side != "frequency":
        raise ValidationError("twisted_convolve expects frequency-side functions")
    m, d = fhat.points, fhat.dim
    guard("twisted convolution M^(2d-1) =", m ** (2 * d - 1), CONVOLVE_CAP)
    lead, half, n = d - 1, m // 2, 3 * m // 2
    theta_arr = theta.as_array()
    freqs = fhat.freq_axis()
    ds = fhat.freq_step**d
    gspec = np.fft.fft(ghat.values, n=n, axis=-1)

    def ifft_kept(spec):  # the M outputs of the convolution that lie in the box
        return np.fft.ifft(spec, axis=-1)[..., half : half + m]

    if d == 1:
        out = ifft_kept(np.fft.fft(fhat.values, n=n) * gspec)
        return GridFunction(d, fhat.half_length, m, out * ds, side="frequency")

    # pair[a][b][s_a, t_b] = exp((i/2) Theta_ab s_a t_b) for a < d - 1, a != b
    products = np.outer(freqs, freqs)
    pair = [
        [np.exp(0.5j * theta_arr[a, b] * products) if a != b else None for b in range(d)]
        for a in range(lead)
    ]
    # chirp[t', s_d] = exp((i/2) s_d c(t')) = prod_k conj(pair[k][d-1])[t_k, s_d]
    chirp = reduce(np.multiply, [
        pair[k][lead].conj().reshape([m if ax in (k, lead) else 1 for ax in range(d)])
        for k in range(lead)
    ])
    # ghat rows t' - s' along the last lead axis, zero outside the box
    gpad = np.pad(gspec, [(half, half) if ax == lead - 1 else (0, 0) for ax in range(d)])
    block = max(1, FFT_ROWS // m**lead)
    order = (lead - 1, *range(lead - 1), lead, d)  # the block axis first

    out = np.zeros((m,) * d, dtype=complex)
    for idx in np.ndindex(*(m,) * (lead - 1)):
        # the leading t' whose row t' - s' lies inside the box, and those rows
        tbox = tuple(slice(max(0, i - half), min(m, i + half)) for i in idx)
        gbox = tuple(slice(max(0, half - i), min(m, m + half - i)) for i in idx)
        # phase exp((i/2) (Theta^T s') . t) = prod_b prod_{a<d-1} pair[a][b][s_a, t_b]
        # (Theta_bb = 0 drops a = b); fixed[b] holds the factors of the leading s'
        fixed = [
            reduce(np.multiply, [pair[a][b][idx[a]] for a in range(lead - 1) if a != b], np.ones(m))
            for b in range(d)
        ]
        for j0 in range(0, m, block):
            j1 = min(m, j0 + block)
            t0, t1 = max(0, j0 - half), min(m, j1 - 1 + half)
            tboxes = tbox + (slice(t0, t1), slice(None))
            rows = np.arange(t0, t1) - np.arange(j0, j1)[:, None] + m  # padded row of t' - s'
            fblock = fhat.values[idx + (slice(j0, j1),)]
            x = fblock.reshape((j1 - j0,) + (1,) * lead + (m,)) * chirp[tboxes]
            grows = gpad[gbox + (rows,)].transpose(order)
            conv = ifft_kept(np.fft.fft(x, n=n, axis=-1) * grows)  # [s'_last, t', t_d]
            if lead > 1:  # the factors of the leading t', where s'_last enters all but one
                phase = fixed[lead - 1][t0:t1, None]
                for b in range(lead - 1):
                    factor = pair[lead - 1][b][j0:j1, tbox[b]] * fixed[b][tbox[b]]
                    shape = (j1 - j0,) + (1,) * b + (-1,) + (1,) * (d - 1 - b)
                    phase = phase * factor.reshape(shape)
                conv = conv * phase
            last = pair[lead - 1][lead][j0:j1] * fixed[lead]
            out[tboxes] += np.einsum("b...n,bn->...n", conv, last)
    return GridFunction(d, fhat.half_length, m, out * ds, side="frequency")


def star_product_fourier(
    f: GridFunction, g: GridFunction, theta: SkewMatrix
) -> GridFunction:
    """Position-side star product through the frequency route."""
    return to_position(twisted_convolve(to_frequency(f), to_frequency(g), theta))


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
    _check_theta(f, theta)
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


def twisted_involution(fhat: GridFunction) -> GridFunction:
    """fstar^(s) = conj(fhat(-s)); the cocycle factor sigma(s,-s) is 1."""
    if fhat.side != "frequency":
        raise ValidationError("twisted_involution expects a frequency-side function")
    # ascending order holds -M/2 .. M/2-1 per axis: a flip maps j to -j only
    # after rolling the unpaired -M/2 entry back to the front
    flipped = np.roll(np.flip(fhat.values), 1, axis=tuple(range(fhat.dim)))
    return GridFunction(
        fhat.dim, fhat.half_length, fhat.points, np.conj(flipped), side="frequency"
    )


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

"""The entry checks of every module, one case per rejected input: each call
raises a ValidationError whose message names what is wrong."""
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from ncspaces.errors import ValidationError, clip
from ncspaces.finite_reps import clock_shift, distance_lower_bound_check, tensor_construct
from ncspaces.gridfn import (
    GridFunction, encode_gridfn, integral, read_gridfn, to_frequency, to_position,
)
from ncspaces.moyal import (
    dimension_reduction_check, moyal_direct, regular_rep_matrix, twisted_convolve,
)
from ncspaces.phases import Cyclotomic
from ncspaces.serialize import matrix_to_json, theta_from_json
from ncspaces.skew import SkewMatrix
from ncspaces.spectra import BandSpectrum, holder_scan
from ncspaces.twisted_algebra import NCPolynomial, cocycle_validate, poly_mul, transference
from ncspaces.symplectic import GridSpec, gaussian_state
from ncspaces.weyl_dynamics import (
    HermitianPair, UnitaryField, check_assembly_identities, weyl_residual,
)
from oracles import twisted_involution

HALF = SkewMatrix.rotation(Fraction(1, 2))  # phase order 4


def line(values=None, side="position"):
    """A function on the 1-D grid of 4 points on [-1, 1)."""
    return GridFunction(1, 1.0, 4, np.zeros(4) if values is None else values, side=side)


def header_without(key):
    """A call reading a grid file, written to the working directory, whose
    header lacks key."""
    def call():
        header = {"d": 1, "L": 1.0, "M": 4}
        del header[key]
        with open("f.gridfn", "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + bytes(32))
        return read_gridfn("f.gridfn")
    return call


def plane(half_length, points=4):
    """Zeros on the 2-D grid of points^2 points on [-half_length, half_length)."""
    return GridFunction(2, half_length, points, np.zeros((points, points)))


def identity_field():
    return UnitaryField(lambda x, y: np.eye(2))


def assemble(deltas, d, probes):
    return check_assembly_identities(identity_field(), np.asarray(deltas), d, probes, 1e-3)


ENTRY_CHECKS = {
    # skew
    "skew-not-square": (lambda: SkewMatrix.from_matrix([[0, 1]]), "matrix is not square"),
    "skew-diagonal": (lambda: SkewMatrix.from_matrix([[1, 0], [0, 0]]),
                      "diagonal entry (0,0) is nonzero"),
    "skew-not-skew": (lambda: SkewMatrix.from_matrix([[0, 1], [1, 0]]),
                      "entry (0,1) != -entry (1,0)"),
    "skew-unknown-keys": (lambda: SkewMatrix.from_upper(2, {(1, 0): 1}),
                          "invalid upper-triangle keys [(1, 0)]"),
    "skew-entry-count": (lambda: SkewMatrix.from_upper(3, [1]),
                         "expected 3 strict-upper entries for d=3, got 1"),
    "skew-canonical-odd": (lambda: SkewMatrix.canonical(3), "canonical form needs an even"),
    "skew-entry-range": (lambda: SkewMatrix.zero(2).entry(0, 2), "index (0,2) out of range"),
    "skew-lcm-float": (lambda: SkewMatrix.rotation(0.5).denominator_lcm(),
                       "defined for rational entries only"),
    "skew-submatrix": (lambda: SkewMatrix.zero(2).principal_submatrix(3),
                       "submatrix dimension out of range"),
    # gridfn
    "grid-side": (lambda: line(side="bogus"), "unknown side 'bogus'"),
    "grid-shape": (lambda: line(np.zeros(3)), "values shape (3,) != (4,)"),
    "grid-integral-side": (lambda: integral(line(side="frequency")),
                           "integral expects a position-side function"),
    "grid-to-frequency-side": (lambda: to_frequency(line(side="frequency")),
                               "to_frequency expects a position-side function"),
    "grid-to-position-side": (lambda: to_position(line()),
                              "to_position expects a frequency-side function"),
    "grid-file-no-d": (header_without("d"), "grid file header missing 'd'"),
    "grid-file-no-L": (header_without("L"), "grid file header missing 'L'"),
    "grid-file-no-M": (header_without("M"), "grid file header missing 'M'"),
    # the weights and scales (2L/M)^d, (pi/L)^d and (pi M/L)^d past the normal
    # float range: l2_norm and the transforms overflowed or kept no digit
    "grid-cell-volume": (lambda: plane(1e-300), "cell volume (2L/M)^d = 5e-301^2 = 0.0 is outside"),
    "grid-dual-cell-volume": (lambda: plane(1e155, 64), "dual cell volume (pi/L)^d"),
    "grid-transform-scale": (lambda: GridFunction(1, 1.5 * np.pi * 2.0**-1022, 2, np.zeros(2)),
                             "transform scale (pi M/L)^d"),
    "grid-gaussian-cells": (lambda: GridFunction.gaussian(2, 1e300, 64),
                            "cell volume (2L/M)^d = 3.125e+298^2 = inf is outside"),
    # a sample past the complex64 range was written as inf
    "grid-file-complex64": (lambda: encode_gridfn(line(np.full(4, 1e39))),
                            "a grid file sample leaves the complex64 range"),
    # moyal
    "moyal-theta-dim": (lambda: moyal_direct(line(), line(), SkewMatrix.zero(2)),
                        "theta dimension 2 != grid dimension 1"),
    # a phase past the float range left NaN samples; the weight past it, an
    # OverflowError, or all-zero samples
    "moyal-phase-bound": (lambda: moyal_direct(plane(1.0), plane(1.0), SkewMatrix.rotation(1e308)),
                          "twist phase bound inf for s_max = 6.283185307179586 leaves"),
    "moyal-convolve-phase-bound": (
        lambda: twisted_convolve(*[to_frequency(plane(6.0, 64))] * 2, SkewMatrix.rotation(1e306)),
        "twist phase bound inf for s_max = 16.755160819145562 leaves"),
    "moyal-regular-rep-phase-bound": (
        lambda: regular_rep_matrix(plane(1.0), SkewMatrix.rotation(1e308)),
        "twist phase bound inf for s_max = 6.283185307179586 leaves"),
    "moyal-quadrature-weight": (lambda: moyal_direct(plane(1e-100), plane(1e-100), HALF),
                                "quadrature weight (pi/L)^4 = 3.141592653589793e+100^4 = inf"),
    "moyal-quadrature-weight-zero": (lambda: moyal_direct(plane(1e100), plane(1e100), HALF),
                                     "quadrature weight (pi/L)^4 = 3.141592653589793e-100^4 = 0.0"),
    # O(1) samples at L = 1e78: the spectra's products overflowed to NaN samples
    "moyal-product-overflow": (
        lambda: moyal_direct(*[GridFunction.gaussian(2, 1e78, 64, normalized=False)] * 2, HALF),
        "star product values leave the float range"),
    "moyal-involution-side": (lambda: twisted_involution(line()),
                              "twisted_involution expects a frequency-side function"),
    "moyal-reduction-axes": (
        lambda: dimension_reduction_check(GridFunction.gaussian(2, 4.0, 8), HALF, 1),
        "f must live on d-1 = 1 axes, has 2"),
    "moyal-reduction-support": (lambda: dimension_reduction_check(line(), HALF, 1),
                                "f has no frequency support left after truncation"),
    # twisted_algebra
    "poly-mixed-coefficients": (
        lambda: NCPolynomial(HALF, {(1, 0): 1.0, (0, 1): Cyclotomic.one(4)}),
        "cannot mix exact and float coefficients"),
    "poly-exact-flag": (lambda: NCPolynomial(HALF, {(1, 0): 1.0}, exact=True),
                        "coefficient types contradict the exact flag"),
    "poly-exact-float-theta": (
        lambda: NCPolynomial(SkewMatrix.rotation(0.5), {(1, 0): Cyclotomic.one(4)}),
        "exact coefficients require rational theta"),
    "poly-coefficient-order": (lambda: NCPolynomial(HALF, {(1, 0): Cyclotomic.one(8)}),
                               "coefficient order 8 != phase order 4 of theta"),
    "poly-mixed-operands": (
        lambda: poly_mul(NCPolynomial.one(HALF, exact=True), NCPolynomial.one(HALF)),
        "cannot mix exact and float polynomials"),
    "poly-transference-z": (lambda: transference(NCPolynomial.one(HALF), [1]),
                            "z has length 1, expected 2"),
    "poly-cocycle-dim": (lambda: cocycle_validate(HALF, [((1, 0), (0, 1), (1,))]),
                         "a multi-index dimension != theta dimension 2"),
    # weyl_dynamics
    # NaN residuals: the reference width's square left the float range, every
    # sample of the reference state underflowed, or a phase overflowed
    "weyl-residual-L": (lambda: weyl_residual(1.0, 0.37, 0.37, GridSpec(4, 1e-300)),
                        "grid L = 1e-300: the reference width's 2 (L/32)^2 = 0.0 leaves"),
    "weyl-residual-L-large": (lambda: weyl_residual(1.0, 0.37, 0.37, GridSpec(4, 1e160)),
                              "grid L = 1e+160: the reference width's 2 (L/32)^2 = inf leaves"),
    # the reference state of weyl_residual: on GridSpec(5, 1e155) its samples
    # once read 0 because their squares overflowed, and now hold their values
    "weyl-residual-state": (lambda: gaussian_state(GridSpec(5, 1.0), 1, 1e-3),
                            "every sample of the Gaussian of width 0.001 on the grid is 0"),
    "weyl-residual-phase": (lambda: weyl_residual(1.0, 1e308, 1e308, GridSpec.self_dual(4)),
                            "Weyl phase theta s t = inf"),
    "weyl-residual-modulation": (lambda: weyl_residual(1.0, 0.37, 1e308, GridSpec(4, 1e10)),
                                 "Weyl phase t L = inf"),
    "weyl-residual-translation": (lambda: weyl_residual(1e290, 1e10, 1e-300, GridSpec(4, 1e-10)),
                                  "Weyl phase k_max theta s = inf"),
    "weyl-pair-sizes": (lambda: HermitianPair(np.eye(2), np.eye(3)),
                        "need two square matrices of equal size"),
    "weyl-pair-not-square": (lambda: HermitianPair(np.zeros((2, 3)), np.zeros((2, 3))),
                             "need two square matrices of equal size"),
    "weyl-field-not-unitary": (lambda: UnitaryField(lambda x, y: 2 * np.eye(2)).sample(0.0, 0.0),
                               "field sample at (0.0,0.0) is not unitary"),
    "weyl-deltas-shape": (lambda: assemble(np.zeros((2, 2)), 3, [[0.0] * 3]), "deltas must be 3x3"),
    "weyl-no-probes": (lambda: assemble(np.zeros((2, 2)), 2, []), "need at least one probe point"),
    "weyl-probe-length": (lambda: assemble(np.zeros((2, 2)), 2, [[0.0]]),
                          "probe dimension mismatch"),
    # spectra
    "spectra-inverted-band": (lambda: BandSpectrum(((1.0, 0.0),)), "band [1.0, 0.0] is inverted"),
    "spectra-negative-offset": (lambda: holder_scan(Fraction(0), [Fraction(-1, 8), Fraction(1, 16)]),
                                "offsets must be nonnegative"),
    # fluxes 1 and 2 have the spectrum of flux 0: both distances are 0
    "spectra-zero-distances": (lambda: holder_scan(Fraction(0), [1, 2]),
                               "fewer than two nonzero distances"),
    # finite_reps and serialize
    "tuples-different-d": (
        lambda: distance_lower_bound_check(
            clock_shift(1, 2), tensor_construct({jk: clock_shift(1, 2)
                                                 for jk in [(0, 1), (0, 2), (1, 2)]})),
        "tuples have different d: 2 vs 3"),
    "theta-json-no-dim": (lambda: theta_from_json({"upper": [0.5]}), "bad theta object: 'dim'"),
    "theta-json-no-upper": (lambda: theta_from_json({"dim": 2}), "bad theta object: 'upper'"),
    "theta-json-upper-not-list": (lambda: theta_from_json({"dim": 2, "upper": 0.5}),
                                  "bad theta upper 0.5"),
    "matrix-json-not-2d": (lambda: matrix_to_json(np.zeros(3)),
                           "matrix_to_json expects a 2-d array"),
}


@pytest.mark.parametrize("call, message", ENTRY_CHECKS.values(), ids=ENTRY_CHECKS.keys())
def test_entry_check_raises_validation_error(tmp_path, monkeypatch, call, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_read_gridfn_missing_file_is_validation_error(tmp_path):
    # an OSError once, reworded by the CLI alone
    path = tmp_path / ("d" * 120) / "x.gridfn"
    with pytest.raises(ValidationError) as info:
        read_gridfn(path)
    assert str(info.value) == f"cannot read grid file {clip(str(path))}: No such file or directory"

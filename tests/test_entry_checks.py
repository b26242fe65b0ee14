"""The entry checks of every module, one case per rejected input: each call
raises a ValidationError whose message names what is wrong."""
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from ncspaces.errors import ValidationError, clip
from ncspaces.finite_reps import clock_shift, distance_lower_bound_check, tensor_construct
from ncspaces.gridfn import GridFunction, integral, read_gridfn, to_frequency, to_position
from ncspaces.moyal import dimension_reduction_check, moyal_direct, twisted_involution
from ncspaces.phases import Cyclotomic
from ncspaces.serialize import matrix_to_json, theta_from_json
from ncspaces.skew import SkewMatrix
from ncspaces.spectra import BandSpectrum, holder_scan
from ncspaces.twisted_algebra import NCPolynomial, cocycle_validate, poly_mul, transference
from ncspaces.weyl_dynamics import HermitianPair, UnitaryField, check_assembly_identities

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
    # moyal
    "moyal-theta-dim": (lambda: moyal_direct(line(), line(), SkewMatrix.zero(2)),
                        "theta dimension 2 != grid dimension 1"),
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

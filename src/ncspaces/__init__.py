"""Computational noncommutative tori and Moyal planes.

Core objects: exact twisted polynomial algebras over Z^d (`twisted_algebra`),
finite unitary models and Clifford/ladder constructions (`finite_reps`),
symplectic normal forms and discretized canonical pairs (`symplectic`),
the uniform grid and the functions sampled on it (`gridfn`),
star products and the twisted regular representation on grids (`moyal`),
one-parameter unitary groups and assembly identities (`weyl_dynamics`),
and band spectra with continuity scans (`spectra`).
"""

from .skew import SkewMatrix
from .phases import Cyclotomic
from .twisted_algebra import (
    NCPolynomial,
    cocycle_validate,
    cond_expectation,
    gns_matrix,
    poly_adjoint,
    poly_mul,
    structure_phase,
    trace,
    transference,
)
from .finite_reps import (
    UnitaryTuple,
    clifford_generators,
    clock_shift,
    distance_lower_bound_check,
    fock_identities_check,
    tensor_construct,
    tensor_translate,
    verify_relations,
)
from .symplectic import (
    SkewDecomposition,
    SymplecticForm,
    schrodinger_generators,
    skew_rank_decompose,
    symplectic_normalize,
)
from .gridfn import GridFunction, GridSpec, read_gridfn, to_frequency, to_position, write_gridfn
from .moyal import (
    QuantizationConstant,
    dimension_reduction_check,
    moyal_direct,
    quantization_constant,
    regular_rep_matrix,
    sobolev_norm,
    star_product_fourier,
    twisted_convolve,
)
from .weyl_dynamics import (
    HermitianPair,
    UnitaryField,
    audit_interpolation_constants,
    generator_bound_check,
    modulation_unitary,
    translation_unitary,
    weyl_residual,
)
from .spectra import (
    BandSpectrum,
    amo_spectrum,
    bloch_matrix,
    hausdorff_distance,
    holder_scan,
)

__version__ = "0.1.0"

"""Exact and perturbative band spectra of interacting bosons on a ring.

The sector with n bosons on f sites is split into momentum blocks by
translation symmetry and diagonalized exactly; eigenstates are grouped
into occupation-pattern bands, and the bands with closed second-order
forms are checked against a numeric degenerate-perturbation reference.
"""

from .bands import (
    LabelledSpectrum,
    band_mass,
    classify_block,
    effective_mass,
    extract_band,
    ground_state,
    labelled_spectra,
    mass_ratio_report,
)
from .basis import (
    MomentumBasis,
    MomentumIndex,
    SectorOrbits,
    TranslationOrbit,
    momentum_basis,
    momentum_grid,
    pattern_of,
    sector_dimension,
)
from .eigensolve import Spectrum, eigh
from .errors import (
    BandOverlapError,
    CapacityError,
    NumericalError,
    PTValidityWarning,
    ResonanceError,
    ValidationError,
)
from .hamiltonian import ModelParams, assemble_block, diagonal_energy, full_matrix, momentum_spectra
from .perturbation import (
    Coeffs22,
    band22_asymptotic,
    bw_second_order_block,
    coeffs22,
    coeffs33,
    coeffs42,
    continuum42,
    continuum42_bounds,
    h22_matrix,
    h33_matrix,
    h42_matrix,
    onsite_energy,
    pattern_energy,
    pt_band,
)

__version__ = "0.1.0"

# the names that the README, the tests and the benchmark take from the package
__all__ = [
    "BandOverlapError", "CapacityError", "Coeffs22", "LabelledSpectrum", "ModelParams",
    "MomentumBasis", "MomentumIndex", "NumericalError", "PTValidityWarning",
    "ResonanceError", "SectorOrbits", "Spectrum", "TranslationOrbit",
    "ValidationError", "assemble_block", "band22_asymptotic", "band_mass",
    "bw_second_order_block", "classify_block", "coeffs22", "coeffs33", "coeffs42",
    "continuum42", "continuum42_bounds", "diagonal_energy", "effective_mass", "eigh",
    "extract_band", "full_matrix", "ground_state", "h22_matrix", "h33_matrix", "h42_matrix",
    "labelled_spectra", "mass_ratio_report", "momentum_basis", "momentum_grid",
    "momentum_spectra", "onsite_energy", "pattern_energy", "pattern_of", "pt_band",
    "sector_dimension",
]

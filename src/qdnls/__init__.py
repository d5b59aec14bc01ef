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
    extract_band,
    ground_state,
    labelled_spectra,
    mass_ratio_report,
)
from .basis import (
    MomentumBasis,
    MomentumIndex,
    SectorOrbits,
    momentum_grid,
    pattern_classes,
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
from .hamiltonian import ModelParams, assemble_block, full_matrix, momentum_spectra
from .perturbation import (
    bw_second_order_block,
    h22_matrix,
    h33_matrix,
    h42_matrix,
    pt_band,
)

__version__ = "0.1.0"

# the error classes and the names that the README and the benchmark take from the package
__all__ = [
    "BandOverlapError", "CapacityError", "LabelledSpectrum", "ModelParams",
    "MomentumBasis", "MomentumIndex", "NumericalError", "PTValidityWarning",
    "ResonanceError", "SectorOrbits", "Spectrum", "ValidationError", "assemble_block",
    "band_mass", "bw_second_order_block", "classify_block", "eigh", "extract_band",
    "full_matrix", "ground_state", "h22_matrix", "h33_matrix", "h42_matrix",
    "labelled_spectra", "mass_ratio_report", "momentum_grid", "momentum_spectra",
    "pattern_classes", "pattern_of", "pt_band", "sector_dimension",
]

"""Exact and perturbative band spectra of interacting bosons on a ring.

The sector with n bosons on f sites is split into momentum blocks by
translation symmetry and diagonalized exactly; eigenstates are grouped
into occupation-pattern bands, and the bands with closed second-order
forms are checked against a numeric degenerate-perturbation reference.
"""

from .bands import (
    BandPoint,
    BandReport,
    Classification,
    EffectiveMassReport,
    GroundState,
    LabelledSpectrum,
    MassFit,
    PatternClass,
    adjacency_of,
    band_mass,
    classify_block,
    effective_mass,
    extract_band,
    ground_state,
    labelled_spectra,
    mass_ratio_report,
    pattern_of,
)
from .basis import (
    MomentumBasis,
    MomentumIndex,
    SectorOrbits,
    TranslationOrbit,
    enumerate_sector,
    momentum_basis,
    momentum_grid,
    rank,
    sector_dimension,
    translate,
)
from .eigensolve import Spectrum, eigh
from .errors import (
    BandOverlapError,
    CapacityError,
    NumericalError,
    PTValidityWarning,
    QdnlsError,
    ResonanceError,
    ResonanceWarning,
    ValidationError,
)
from .hamiltonian import (
    KSpectrum,
    ModelParams,
    MomentumBlock,
    assemble_block,
    diagonal_energy,
    full_matrix,
    momentum_spectra,
)
from .perturbation import (
    AsymptoticBand22,
    Coeffs22,
    Coeffs33,
    Coeffs42,
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

__all__ = [name for name in dir() if not name.startswith("_")]

"""Quantum DNLS ring Hamiltonian: on-site energies, hopping, momentum blocks.

Model: bosons on a periodic f-site ring,

    H = -sum_s [ gamma1 a+_s a+_s a_s a_s + epsilon (a+_{s+1} a_s + a+_s a_{s+1}) ]
        + gamma2 sum_s a+_s a+_s a+_s a_s a_s a_s

so the zero-hopping energy of an occupation vector is
sum_s [-gamma1 n_s (n_s - 1) + gamma2 n_s (n_s - 1) (n_s - 2)].  The hermitian
conjugate applies to the hopping term only.  The site sum is read literally:
for f = 2 both bonds 1 -> 2 and 2 -> 1 appear, so the single physical bond
carries twice the coefficient.

Translation symmetry splits each number sector into momentum blocks.  The
block element between orbits r' and r at momentum k is

    sqrt(d_r / d_r') * sum_{u=0}^{d_r'-1} exp(i k u) <T^u rep_r'| H |rep_r>

with the Bloch convention of `basis` (phase exp(-i k t) on T^t |rep>).

Every block reads its orbits from the shared sector table
(`basis.sector_orbits`, built once per (f, n)) and, like the numeric
perturbation reference, takes its elements from one hop table,
`basis.class_fold`: the single-boson moves out of its orbit
representatives, each destination folded onto its orbit, memoized per
family of representatives.  `bloch_elements` turns that fold into the
per-hop block elements at one momentum.  The dense oracle enumerates every
state, takes their moves (`basis.hop_moves`) and ranks the destinations
itself, so it shares no orbit code with the blocks it checks.

The Bloch phase uses the label reduced to r = l - f round(l / f) (halves
rounded to even), which is congruent to l mod f and odd in l.  So
block(-l), and on an even ring block(f - l), is bitwise the complex
conjugate of block(l): its eigenvalues are the same and its eigenvectors are
the conjugates.  `momentum_spectra` solves exactly the momenta it is given,
as (basis, Spectrum) pairs, all eigenvectors or those of one pattern's
window, and is the one routine that solves blocks;
`bands.labelled_spectra` calls it for one member of each +-k pair and gives
the other the same eigenvalues and labels.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .basis import (
    ClassFold,
    MomentumBasis,
    MomentumIndex,
    _occupations,
    check_sector,
    class_fold,
    hop_moves,
    momentum_basis,
    momentum_grid,
    rank_rows,
    sector_dimension,
    sector_pattern,
)
from .eigensolve import Spectrum, eigh
from .errors import CapacityError, ValidationError

DEFAULT_DENSE_CAP = 4000
DENSE_CAP_ENV = "BREATHER_DENSE_CAP"

MODELS = ("h1", "h2")


def dense_cap() -> int:
    """Largest dense matrix dimension allowed; override with BREATHER_DENSE_CAP."""
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValidationError(f"{DENSE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True)
class ModelParams:
    """Ring model parameters; model h1 is the gamma2 = 0 restriction of h2."""

    f: int
    n: int
    gamma1: float
    gamma2: float = 0.0
    epsilon: float = 0.0
    model: str = "h2"

    def __post_init__(self):
        check_sector(self.f, self.n)
        for name in ("gamma1", "gamma2", "epsilon"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not math.isfinite(v) or v < 0):
                raise ValidationError(f"{name} must be a finite non-negative number, got {v!r}")
        if self.model not in MODELS:
            raise ValidationError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model == "h1" and self.gamma2 != 0.0:
            raise ValidationError("model h1 has no three-body term; set gamma2 = 0 or use model h2")


def diagonal_energy(state, params: ModelParams):
    """Zero-hopping energy of an occupation vector, or of each row of an array of them."""
    c = np.asarray(state, dtype=float)
    return (-params.gamma1 * c * (c - 1) + params.gamma2 * c * (c - 1) * (c - 2)).sum(axis=-1)


def full_matrix(params: ModelParams) -> np.ndarray:
    """Dense Hamiltonian over the states of `basis._occupations`, in rank
    order: the symmetry-free oracle.  Refuses sectors above the dense cap."""
    dim = sector_dimension(params.f, params.n)
    cap = dense_cap()
    if dim > cap:
        raise CapacityError(f"sector dimension {dim} exceeds the dense cap {cap}")
    occ = _occupations(params.f, params.n)
    h = np.diag(diagonal_energy(occ, params))
    src, moved, amp = hop_moves(occ)
    np.add.at(h, (rank_rows(moved), src), -params.epsilon * amp)
    return h


def reduced_label(l: int, f: int) -> int:
    """l - f * round(l / f), halves to even: congruent to l mod f and odd in
    l, so -l and, unless l = f/2, f - l reduce to minus the reduction of l."""
    return l - f * round(l / f)


def bloch_elements(fold: ClassFold, params: ModelParams, k: MomentumIndex) -> np.ndarray:
    """Per hop of `fold`, its Bloch element at momentum k between the class
    and destination orbits: -epsilon amp sqrt(d_class / d_dest) exp(i k u)."""
    theta = 2 * np.pi * reduced_label(k.l, params.f) * fold.shift / params.f
    return -params.epsilon * fold.amp * fold.ratio * np.exp(1j * theta)


def block_parts(params: ModelParams, k: MomentumIndex):
    """Momentum basis, zero-hopping energies per orbit, and the Bloch hopping matrix.

    The hopping matrix is exactly Hermitian by symmetrized construction.
    """
    basis = momentum_basis(params.f, params.n, k)
    dim = basis.dim
    cap = dense_cap()
    if dim > cap:
        raise CapacityError(f"momentum block dimension {dim} exceeds the dense cap {cap}")
    rows = basis.sector.rep_rows[basis.orbit_indices]
    fold = class_fold(params.f, rows.tobytes())
    # destination orbits without weight at this momentum are not in the basis
    col = fold.slot[fold.row]
    keep = col >= 0
    v = np.zeros((dim, dim), dtype=complex)
    np.add.at(v, (col[keep], fold.src[keep]), bloch_elements(fold, params, k)[keep])
    # in place, so only v and its conjugate transpose are alive at once
    v += v.conj().T
    v *= 0.5
    return basis, diagonal_energy(rows, params), v


def assemble_block(params: ModelParams, k: MomentumIndex) -> tuple[MomentumBasis, np.ndarray]:
    """The Bloch orbit basis at momentum k and the Hamiltonian block over it."""
    basis, diag, v = block_parts(params, k)
    v[np.diag_indices(basis.dim)] += diag
    return basis, v


def momentum_spectra(params: ModelParams, grid: list[MomentumIndex] | None = None,
                     pattern=None, threshold: float = 0.5
                     ) -> list[tuple[MomentumBasis, Spectrum]]:
    """The basis and certified eigenpairs of each momentum block, in grid order.

    By default every momentum on the canonical grid is solved; pass a
    subset of grid labels to restrict the work.  With a `pattern`, each
    block's solve is windowed on the orbits of that pattern: it returns the
    lowest eigenvector and those that may carry more than `threshold` of
    their weight there (see `eigensolve`).  A momentum that no orbit carries
    gets an empty basis and an empty spectrum.  The block matrix is dropped
    once solved; `assemble_block` rebuilds it.
    """
    if grid is None:
        grid = momentum_grid(params.f)
    pat = None if pattern is None else sector_pattern(params.f, params.n, pattern)
    out = []
    for kidx in grid:
        basis, matrix = assemble_block(params, kidx)
        sector = basis.sector
        rows = (None if pat is None else np.flatnonzero(
            sector.pattern_ids[basis.orbit_indices] == sector.patterns.index(pat)))
        spectrum = (eigh(matrix, want_vectors=True, rows=rows, threshold=threshold)
                    if basis.dim else
                    Spectrum(np.zeros(0), np.zeros((0, 0), complex), 0.0, np.zeros(0, np.intp)))
        out.append((basis, spectrum))
    return out

"""Quantum DNLS ring Hamiltonian: on-site energies, hopping, momentum blocks.

Model: bosons on a periodic f-site ring,

    H = -sum_s [ gamma1 a+_s a+_s a_s a_s + epsilon (a+_{s+1} a_s + a+_s a_{s+1}) ]
        + gamma2 sum_s a+_s a+_s a+_s a_s a_s a_s

so the zero-hopping energy of an occupation vector is
sum_s [-gamma1 n_s (n_s - 1) + gamma2 n_s (n_s - 1) (n_s - 2)], which
`diagonal_energy` computes for the blocks, the oracle and perturbation
theory alike (a pattern such as (4, 2) is a row of it).  The hermitian
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
family of representatives.  `bloch_couplings` is the one routine that
turns that fold into Bloch couplings at one momentum, class to class and
class to every other orbit that carries it.  The dense oracle enumerates
every state, takes their moves (`basis.hop_moves`) and ranks the
destinations itself, so it shares no orbit code with the blocks it checks,
only the dense cap check, `_check_dense`.

The Bloch phase uses the label reduced to r = l - f round(l / f) (halves
rounded to even), which is congruent to l mod f and odd in l.  So
block(-l), and on an even ring block(f - l), is the complex conjugate of
block(l) in value (a zero imaginary part may differ in sign, and the real
form clears -0.0): its eigenvalues are the same and its eigenvectors are
the conjugates.  `momentum_spectra` solves exactly the momenta it is given,
as (basis, Spectrum) pairs, all eigenvectors or those of one pattern's
window, and is the one routine that solves blocks;
`bands.labelled_spectra` calls it for one member of each +-k pair and gives
the other the same eigenvalues and labels.

A block solved whole is solved in its real symmetric form (Sandvik's
semi-momentum states, arXiv:1101.3281).  The mirror s -> f - 1 - s with complex
conjugation takes orbit g's Bloch state to exp(i k u) times that of the orbit
g' with reversed rep(g) = T^u rep(g'): U conj(H) U^H = H, U[g', g] = exp(i k u).
`_real_form` builds the Takagi factor W, U = W W^T (Horn & Johnson, Matrix
Analysis, sec. 4.4), in orbit order: exp(i k u / 2) on an orbit that is its own
mirror, that phase times (1, i t; 1, -i t) / sqrt 2 on a mirror pair, t = -1 if
k < 0 else 1.  M = W^H H W is real; `dsyevd` solves it, and V = W x comes back.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .basis import (
    ClassFold,
    MomentumBasis,
    MomentumIndex,
    _occupations,
    canonical_rows,
    check_sector,
    class_fold,
    hop_moves,
    momentum_basis,
    momentum_grid,
    rank_rows,
    sector_dimension,
    sector_pattern,
)
from .eigensolve import HERMITICITY_RTOL, Spectrum, _slices, _unit_scale, eigh
from .errors import CapacityError, NumericalError, ValidationError

DEFAULT_DENSE_CAP = 4000
DENSE_CAP_ENV = "BREATHER_DENSE_CAP"

MODELS = ("h1", "h2")


def dense_cap() -> int:
    """Largest dense matrix dimension allowed; override with BREATHER_DENSE_CAP."""
    raw = os.environ.get(DENSE_CAP_ENV, str(DEFAULT_DENSE_CAP))
    with contextlib.suppress(ValueError):
        if int(raw) > 0:
            return int(raw)
    raise ValidationError(f"{DENSE_CAP_ENV} must be a positive integer, got {raw!r}")


def _check_dense(dim: int, what: str) -> None:
    """Refuse a dense `what` (the oracle's sector or a momentum block) of
    dimension `dim` above `dense_cap()`, the one place that compares them."""
    cap = dense_cap()
    if dim > cap:
        raise CapacityError(f"{what} dimension {dim} exceeds the dense cap {cap}")


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
    _check_dense(sector_dimension(params.f, params.n), "sector")
    occ = _occupations(params.f, params.n)
    h = np.diag(diagonal_energy(occ, params))
    src, moved, amp = hop_moves(occ)
    np.add.at(h, (rank_rows(moved), src), -params.epsilon * amp)
    return h


def reduced_label(l: int, f: int) -> int:
    """l - f * round(l / f), halves to even: congruent to l mod f and odd in
    l, so -l and, unless l = f/2, f - l reduce to minus the reduction of l."""
    return l - f * round(l / f)


def bloch_couplings(fold: ClassFold, params: ModelParams, k: MomentumIndex):
    """The hopping couplings at momentum k out of the classes of `fold`, which
    must carry k, as arrays (p, q, q_rows): p (m, m) from class to class, q
    from class to each other destination orbit that carries k, and those
    orbits' representative rows.  A hop adds -epsilon amp sqrt(d_class /
    d_dest) exp(i k u) to its entry, in hop order."""
    theta = 2 * np.pi * reduced_label(k.l, params.f) * fold.shift / params.f
    element = -params.epsilon * fold.amp * fold.ratio * np.exp(1j * theta)
    m = len(fold.p_period)
    # destination orbits without weight at this momentum drop out; the
    # others outside the classes are numbered after them
    out = (fold.slot < 0) & (k.l * fold.period % params.f == 0)
    to = np.where(out, m - 1 + np.cumsum(out), fold.slot)[fold.row]
    hit = to >= 0
    v = np.zeros((m + int(out.sum()), m), dtype=complex)
    np.add.at(v, (to[hit], fold.src[hit]), element[hit])
    return v[:m], v[m:], fold.rep_rows[out]


def block_parts(params: ModelParams, k: MomentumIndex):
    """Momentum basis, zero-hopping energies per orbit, and the Bloch hopping matrix.

    The hopping matrix is exactly Hermitian by symmetrized construction.
    Every orbit that carries k is a basis class, so the couplings out of
    the classes have no q part.
    """
    basis = momentum_basis(params.f, params.n, k)
    _check_dense(basis.dim, "momentum block")
    rows = basis.sector.rep_rows[basis.orbit_indices]
    v = bloch_couplings(class_fold(params.f, rows.tobytes()), params, k)[0]
    # in place, so only v and its conjugate transpose are alive at once
    v += v.conj().T
    v *= 0.5
    return basis, diagonal_energy(rows, params), v


def assemble_block(params: ModelParams, k: MomentumIndex) -> tuple[MomentumBasis, np.ndarray]:
    """The Bloch orbit basis at momentum k and the Hamiltonian block over it."""
    basis, diag, v = block_parts(params, k)
    v[np.diag_indices(basis.dim)] += diag
    return basis, v


def _real_form(basis: MomentumBasis, h: np.ndarray):
    """(M, half, (mate, t, w)): M = W^H (half^2 H) W, half being the power of two of `_unit_scale`.
    Row g of W is w_g (e_g + i t_g e_mate(g)) and of W^H rho_g (e_g + sign_g e_mate(g)); on a
    mirror pair t is the label's sign and sign +1, -1, else both are 0."""
    rank, shift, _ = canonical_rows(basis.sector.rep_rows[basis.orbit_indices, ::-1])
    mate = np.searchsorted(basis.sector.reps[basis.orbit_indices], rank)
    f, at = basis.sector.f, np.arange(basis.dim)
    sign, r = np.sign(mate - at).astype(float), reduced_label(basis.k.l, f)
    t = np.abs(sign) * (-1.0 if r < 0 else 1.0)  # so W(-r) is conj W(r) and M(-r) is M(r)
    rho = (np.exp(-1j * np.pi * r * shift[np.minimum(at, mate)] / f)
           * np.where(sign < 0, 1j * t, 1.0) * np.where(sign, math.sqrt(0.5), 1.0))
    unit, half = _unit_scale(h)  # max |H| and the power of two that eigh would scale it by
    diag = h.diagonal().real.copy()
    h[at, at] = 0.0
    if half != 1.0:
        for a in (h, h, diag, diag):
            a *= half  # exact, in two factors that neither over- nor underflow
    m, dropped, w = np.empty(h.shape), 0.0, rho.conj()
    for s in _slices(basis.dim):  # rows s of W^H H, then of W^H H W
        y = h.take(mate[s], axis=0)  # in place from here: temporaries cost more than the sums
        y *= sign[s, None]
        y += h[s]
        y *= rho[s, None]
        z = y.take(mate, axis=1)
        z *= sign
        z += y
        z *= w
        np.add(z.real, 0.0, out=m[s])  # no -0.0, where the conjugate block has 0.0
        dropped = max(dropped, float(np.abs(z.imag).max()))
    slack = 4.0 * np.finfo(float).smallest_subnormal  # H's rounding if subnormal
    if dropped > HERMITICITY_RTOL * (unit * half * half) + slack * half * half:
        raise NumericalError(f"real form's imaginary part {dropped:.3e} > {HERMITICITY_RTOL:g} max|H|")
    m[at, at] += diag
    return m, half, (mate, t, w)


def momentum_spectra(params: ModelParams, grid: list[MomentumIndex] | None = None,
                     pattern=None, threshold: float = 0.5
                     ) -> list[tuple[MomentumBasis, Spectrum]]:
    """The basis and certified eigenpairs of each momentum block, in grid order.

    By default every momentum on the canonical grid is solved; pass a
    subset of grid labels to restrict the work.  With a `pattern`, each
    block's solve is windowed on the orbits of that pattern: it returns the
    lowest eigenvector and those that may carry more than `threshold` of
    their weight there (see `eigensolve`); without one, in its real form.  A
    momentum that no orbit carries gets an empty basis and an empty spectrum.
    The block matrix is dropped once solved; `assemble_block` rebuilds it.
    """
    if grid is None:
        grid = momentum_grid(params.f)
    pat = None if pattern is None else sector_pattern(params.f, params.n, pattern)
    out = []
    for kidx in grid:
        basis, matrix = assemble_block(params, kidx)
        if not basis.dim:
            spectrum = Spectrum(np.zeros(0), np.zeros((0, 0), complex), 0.0, np.zeros(0, np.intp))
        elif pat is None:
            matrix, half, (mate, t, w) = _real_form(basis, matrix)  # drops the complex block
            x, v = eigh(matrix, want_vectors=True), np.empty(matrix.shape, complex)
            for s in _slices(basis.dim):  # V = W x: row g is w_g (x[g] + i t_g x[mate(g)])
                v[s].real = x.eigenvectors[s]
                np.multiply(x.eigenvectors.take(mate[s], axis=0), t[s, None], out=v[s].imag)
                v[s] *= w[s, None]
            spectrum = Spectrum(x.eigenvalues / half / half, v, x.residual_bound / half / half, x.columns)
        else:
            ids = basis.sector.pattern_ids[basis.orbit_indices]
            rows = np.flatnonzero(ids == basis.sector.patterns.index(pat))
            spectrum = eigh(matrix, want_vectors=True, rows=rows, threshold=threshold)
        out.append((basis, spectrum))
    return out

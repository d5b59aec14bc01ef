"""Second-order degenerate perturbation theory for two-clump breather bands.

At zero hopping, every occupation pattern {m, l} (a clump of m bosons and a
clump of l at some separation) is exactly degenerate across separations and,
through Bloch symmetrization, each momentum k hosts one small degenerate space
per pattern.  Treating the hopping as the perturbation and working to second
order in epsilon yields a small effective matrix per (pattern, k) whose
eigenvalues approximate the exact band.

Closed forms implemented here, for odd f = 2 sigma + 1:

* {2, 2}: sigma x sigma tridiagonal.  Uniform shift 8 eps^2 / (E2 - 2 E1),
  bulk hop kappa = exp(i k / 2) cos(k / 2) times 4 eps^2 / (E2 - 2 E1), an
  impurity Gamma = (3 gamma2 - 4 gamma1) / (gamma1 - 3 gamma2) on the adjacent
  class, and cos(sigma k) on the maximal-separation class where the two clumps
  interact around the ring.
* {4, 2}: 2 sigma x 2 sigma tridiagonal of ones scaled by -eps^2 / gamma1 plus
  a uniform shift D eps^2.  The separation-1 ends carry the impurity Gamma,
  and ring-closure corners p = 6 gamma1 exp(i k) / (gamma1 - 6 gamma2) connect
  |42> to |24>: two sqrt(12) hops through the |33> intermediate lying
  2 (gamma1 - 6 gamma2) away give 12 eps^2 / (-2 (gamma1 - 6 gamma2)), i.e.
  p times the bulk scale, with one Bloch winding phase.
* {3, 3}: diagonal (flat bands).  Uniform value 6 eps^2 / (3 gamma2 - 2 gamma1)
  with the adjacent class scaled by 1 + Gamma,
  Gamma = (9/2) (2 gamma2 - gamma1) / (gamma1 - 6 gamma2).

All three return only the order-eps^2 correction; add `pattern_energy` for
absolute energies, or call `pt_band` for the absolute band energies at every
momentum.  `bw_second_order_block` builds the same object numerically
from single-boson hops for any degenerate family of classes and is the
independent check of the closed forms.  It takes only the hops out of the
class representatives, through the move kernel the sector table uses
(`basis.hop_moves`), and folds the classes and every destination onto their
orbits in one `basis.canonical_rows` call; it needs no sector table and no
dense block, so the dense cap does not apply and it reaches rings no exact
solve does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import (MomentumIndex, SectorOrbits, canonical_rows, hop_moves, momentum_grid,
                    normalize_pattern)
from .eigensolve import eigh
from .errors import PTValidityWarning, ResonanceError, ResonanceWarning, ValidationError
from .hamiltonian import ModelParams, diagonal_energy

RESONANCE_FLOOR_REL = 1e-6
WARN_EPS_FACTOR = 10.0


def resonance_floor(params: ModelParams) -> float:
    """Absolute floor below which a perturbative denominator counts as resonant."""
    return RESONANCE_FLOOR_REL * max(params.gamma1, params.gamma2, 1.0)


def _require(value: float, name: str, params: ModelParams) -> float:
    if abs(value) < resonance_floor(params):
        raise ResonanceError(name, value)
    if params.epsilon > 0 and abs(value) < WARN_EPS_FACTOR * params.epsilon:
        warnings.warn(
            f"denominator {name} = {value:.6g} is within {WARN_EPS_FACTOR:g} x epsilon; "
            "second-order results may be inaccurate",
            ResonanceWarning,
            stacklevel=2,  # the coefficient function's line: one warning whatever calls it
        )
    return value


def _sigma_for_pt(params: ModelParams) -> int:
    if params.f % 2 == 0 or params.f < 3:
        raise ValidationError(
            f"closed-form perturbation theory needs an odd ring size f = 2*sigma + 1, got f={params.f}"
        )
    sigma = (params.f - 1) // 2
    if sigma <= 2:
        warnings.warn(
            f"f = {params.f} leaves only sigma = {sigma} separation classes; "
            "second-order band structure is not reliable this small",
            PTValidityWarning,
            stacklevel=3,
        )
    return sigma


def _kval(k) -> float:
    return k.k if isinstance(k, MomentumIndex) else float(k)


def onsite_energy(s: int, gamma1: float, gamma2: float) -> float:
    """Zero-hopping energy of an isolated clump of s bosons."""
    if not isinstance(s, int) or s < 0:
        raise ValidationError(f"clump size must be a non-negative integer, got {s!r}")
    return -gamma1 * s * (s - 1) + gamma2 * s * (s - 1) * (s - 2)


def pattern_energy(pattern, params: ModelParams) -> float:
    """Zero-hopping energy of a multi-clump pattern, e.g. (2, 2) or (4, 2)."""
    return sum(onsite_energy(int(c), params.gamma1, params.gamma2) for c in pattern)


# ---------------------------------------------------------------- {2, 2} band


@dataclass(frozen=True)
class Coeffs22:
    """Coefficients of the {2, 2} effective matrix."""

    prefactor: float   # 4 eps^2 / (E2 - 2 E1), multiplies the structure matrix
    shift: float       # 8 eps^2 / (E2 - 2 E1), uniform diagonal shift
    impurity: float    # (3 gamma2 - 4 gamma1) / (gamma1 - 3 gamma2), adjacent class

    @staticmethod
    def kappa(k: float) -> complex:
        """Effective hop between neighboring separation classes."""
        return np.exp(0.5j * k) * math.cos(0.5 * k)

    @staticmethod
    def closure(k: float, sigma: int) -> float:
        """Ring-closure entry on the maximal-separation class."""
        return math.cos(sigma * k)


def coeffs22(params: ModelParams) -> Coeffs22:
    g1, g2, eps = params.gamma1, params.gamma2, params.epsilon
    pair_gap = _require(-2.0 * g1, "-2*gamma1", params)       # E2 - 2 E1
    imp_den = _require(g1 - 3.0 * g2, "gamma1 - 3*gamma2", params)
    pref = 4.0 * eps * eps / pair_gap
    return Coeffs22(prefactor=pref, shift=2.0 * pref, impurity=(3.0 * g2 - 4.0 * g1) / imp_den)


def h22_matrix(params: ModelParams, k) -> np.ndarray:
    """Order-eps^2 effective matrix of the {2, 2} band at momentum k.

    Basis index j = 1 .. sigma is the clump separation; j = 1 is the adjacent
    class |22>.  Add pattern_energy((2, 2), params) for absolute energies.
    """
    sigma = _sigma_for_pt(params)
    c = coeffs22(params)
    kv = _kval(k)
    if sigma == 1:
        # adjacent and maximal separation coincide; keep the impurity entry only
        return np.array([[c.shift + c.prefactor * c.impurity]], dtype=complex)
    m = np.zeros((sigma, sigma), dtype=complex)
    m[0, 0] = c.impurity
    m[sigma - 1, sigma - 1] = c.closure(kv, sigma)
    kap = c.kappa(kv)
    # with the rightward translation and exp(-i k t) Bloch phase used throughout,
    # kappa sits on the superdiagonal and its conjugate below
    for j in range(sigma - 1):
        m[j + 1, j] = np.conj(kap)
        m[j, j + 1] = kap
    h = c.prefactor * m
    h[np.diag_indices(sigma)] += c.shift
    return h


@dataclass(frozen=True)
class AsymptoticBand22:
    """Infinite-ring {2, 2} band at one momentum: bound-pair line and continuum."""

    k: float
    line: float | None     # present iff |impurity| > cos(k/2)
    continuum_lo: float    # open interval: theta -> 0 and theta -> pi edges
    continuum_hi: float
    exists_all_k: bool     # line present at every k iff |impurity| > 1
    center: float          # zero-hopping energy 2 E2
    shift: float
    half_cos: float
    impurity: float

    def continuum(self, theta: float) -> float:
        """Unbound-pair energy at relative phase theta in (0, pi)."""
        return self.center + self.shift * (1.0 + self.half_cos * math.cos(theta))


def band22_asymptotic(params: ModelParams, k) -> AsymptoticBand22:
    """Closed-form infinite-f {2, 2} band at momentum k (folded into [-pi, pi])."""
    c = coeffs22(params)
    g1, g2 = params.gamma1, params.gamma2
    if abs(3.0 * g2 - 4.0 * g1) < resonance_floor(params):
        # impurity strength vanishes and the line formula degenerates
        raise ResonanceError("3*gamma2 - 4*gamma1 (line coupling)", 3.0 * g2 - 4.0 * g1)
    kv = _kval(k)
    kn = math.remainder(kv, 2.0 * math.pi)
    hc = math.cos(0.5 * kn)
    center = 2.0 * onsite_energy(2, g1, g2)
    line = None
    if abs(c.impurity) > hc:
        line = center + c.prefactor * (2.0 + c.impurity + hc * hc / c.impurity)
    edges = (center + c.shift * (1.0 + hc), center + c.shift * (1.0 - hc))
    return AsymptoticBand22(
        k=kn,
        line=line,
        continuum_lo=min(edges),
        continuum_hi=max(edges),
        exists_all_k=abs(c.impurity) > 1.0,
        center=center,
        shift=c.shift,
        half_cos=hc,
        impurity=c.impurity,
    )


# ---------------------------------------------------------------- {4, 2} band


@dataclass(frozen=True)
class Coeffs42:
    """Coefficients of the {4, 2} effective matrix."""

    shift: float        # D eps^2, uniform diagonal shift
    prefactor: float    # -eps^2 / gamma1, multiplies the structure matrix
    impurity: float     # Gamma on both adjacent ends
    closure_mag: float  # 6 gamma1 / (gamma1 - 6 gamma2)

    def closure(self, k: float) -> complex:
        """Ring-closure corner connecting |42> to |24>."""
        return self.closure_mag * np.exp(1j * k)


def coeffs42(params: ModelParams) -> Coeffs42:
    g1, g2, eps = params.gamma1, params.gamma2, params.epsilon
    _require(g1, "gamma1", params)
    d3 = _require(g1 - 3.0 * g2, "gamma1 - 3*gamma2", params)
    d6 = _require(g1 - 6.0 * g2, "gamma1 - 6*gamma2", params)
    du = -(2.0 / 3.0) * (5.0 * g1 - 9.0 * g2) / (g1 * d3)
    gam = (2.0 / 3.0) * (4.0 * g1 * g1 - 27.0 * g2 * g2) / (d3 * d6)
    return Coeffs42(shift=du * eps * eps, prefactor=-eps * eps / g1,
                    impurity=gam, closure_mag=6.0 * g1 / d6)


def h42_matrix(params: ModelParams, k) -> np.ndarray:
    """Order-eps^2 effective matrix of the {4, 2} band at momentum k.

    Basis index j = 1 .. 2 sigma is the clockwise separation from the 4-clump
    to the 2-clump, so j = 1 is |42> and j = 2 sigma is |24>.  Add
    pattern_energy((4, 2), params) for absolute energies.
    """
    sigma = _sigma_for_pt(params)
    c = coeffs42(params)
    dim = 2 * sigma
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim - 1):
        m[j + 1, j] = 1.0
        m[j, j + 1] = 1.0
    m[0, 0] = c.impurity
    m[dim - 1, dim - 1] = c.impurity
    # With the rightward translation and exp(-i k t) Bloch phase used
    # throughout, the winding corner carries the conjugate phase in the
    # upper-right entry, mirroring the kappa orientation of the {2, 2} band.
    cl = c.closure(_kval(k))
    m[0, dim - 1] += np.conj(cl)
    m[dim - 1, 0] += cl
    h = c.prefactor * m
    h[np.diag_indices(dim)] += c.shift
    return h


def continuum42(params: ModelParams, theta: float) -> float:
    """Infinite-f {4, 2} continuum energy at relative phase theta; k independent."""
    g1, g2, eps = params.gamma1, params.gamma2, params.epsilon
    _require(g1, "gamma1", params)
    _require(g1 - 3.0 * g2, "gamma1 - 3*gamma2", params)
    zeroth = 24.0 * g2 - 14.0 * g1
    return zeroth + (2.0 * eps * eps / g1) * ((5.0 * g1 - 9.0 * g2) / (9.0 * g2 - 3.0 * g1)
                                              - math.cos(theta))


def continuum42_bounds(params: ModelParams) -> tuple[float, float]:
    """Open interval spanned by continuum42 over theta in (0, pi)."""
    edges = (continuum42(params, 0.0), continuum42(params, math.pi))
    return min(edges), max(edges)


# ---------------------------------------------------------------- {3, 3} band


@dataclass(frozen=True)
class Coeffs33:
    """Coefficients of the {3, 3} effective matrix."""

    prefactor: float   # 6 eps^2 / (3 gamma2 - 2 gamma1), uniform diagonal value
    impurity: float    # (9/2) (2 gamma2 - gamma1) / (gamma1 - 6 gamma2)


def coeffs33(params: ModelParams) -> Coeffs33:
    g1, g2, eps = params.gamma1, params.gamma2, params.epsilon
    den = _require(3.0 * g2 - 2.0 * g1, "3*gamma2 - 2*gamma1", params)
    d6 = _require(g1 - 6.0 * g2, "gamma1 - 6*gamma2", params)
    return Coeffs33(prefactor=6.0 * eps * eps / den,
                    impurity=4.5 * (2.0 * g2 - g1) / d6)


def h33_matrix(params: ModelParams, k=None) -> np.ndarray:
    """Order-eps^2 effective matrix of the {3, 3} band; diagonal and k independent.

    Basis index j = 1 .. sigma is the clump separation; the adjacent class
    |33> carries the impurity.  Add pattern_energy((3, 3), params) for
    absolute energies.
    """
    sigma = _sigma_for_pt(params)
    c = coeffs33(params)
    diag = np.full(sigma, c.prefactor, dtype=complex)
    diag[0] = c.prefactor * (1.0 + c.impurity)
    return np.diag(diag)


PT_BUILDERS = {(2, 2): h22_matrix, (4, 2): h42_matrix, (3, 3): h33_matrix}


def pt_band(params: ModelParams, pattern, grid: list[MomentumIndex] | None = None
            ) -> dict[int, np.ndarray]:
    """Absolute second-order band energies {l: ascending energies} of a pattern
    with a closed form, in any order, over the canonical momentum grid or the
    given one.

    Raises ValidationError for a pattern without a closed form, a boson count
    other than n or an even ring, and ResonanceError for resonant couplings.
    """
    pattern = normalize_pattern(pattern)
    build = PT_BUILDERS.get(pattern)
    if build is None:
        raise ValidationError(
            f"no closed perturbative form for pattern {pattern}; supported: 2,2 / 4,2 / 3,3")
    if sum(pattern) != params.n:
        raise ValidationError(
            f"pattern {pattern} holds {sum(pattern)} bosons, the sector has n = {params.n}")
    offset = pattern_energy(pattern, params)
    if grid is None:
        grid = momentum_grid(params.f)
    return {k.l: np.sort(eigh(build(params, k)).eigenvalues) + offset for k in grid}


# ------------------------------------------------- numeric second-order block


def _class_rows(params: ModelParams, classes: list) -> np.ndarray:
    """The representatives of `classes` as a (len, f) int array, each checked
    to be a row of f non-negative integers summing to n; whether a row is its
    own lowest-rank rotation is left to the caller's `canonical_rows`."""
    if not classes:
        raise ValidationError("need at least one degenerate class")
    f, n = params.f, params.n
    for orb in classes:
        rep = orb.rep
        if not (len(rep) == f and all(
                isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0
                for c in rep) and sum(rep) == n):
            raise ValidationError(f"{rep!r} is not an orbit representative of this sector")
    return np.array([orb.rep for orb in classes], dtype=np.int64)


def bw_second_order_block(params: ModelParams, k: MomentumIndex, classes,
                          sector: SectorOrbits | None = None) -> np.ndarray:
    """Second-order effective matrix over Bloch-symmetrized degenerate classes.

    Built numerically from single-boson hops: first-order couplings inside the
    class space plus sum_q V[:, q] V[q, :] / (E0 - E0_q) over every reachable
    state q outside it.  No closed forms enter; this is the reference the
    {2,2}, {4,2} and {3,3} matrices are validated against.

    Only the hops out of the class representatives are taken (`hop_moves`);
    one `canonical_rows` call on the class rows stacked over the destinations
    (one `rank_rows` call per `basis.ROW_CHUNK` rows, whatever f) checks each
    class row is its own representative and folds each destination onto its
    orbit, so no sector table, dense block or dense cap is involved and rings
    far beyond exact reach work.  `sector` is optional and unused beyond a
    check that it is the (f, n) sector of `params`.
    """
    classes = list(classes)
    f = params.f
    if k.f != f:
        raise ValidationError(f"momentum index on f={k.f} does not match the ring f={f}")
    if sector is not None and (sector.f, sector.n) != (f, params.n):
        raise ValidationError(
            f"sector (f={sector.f}, n={sector.n}) does not match the requested "
            f"(f={f}, n={params.n})")
    p_rows = _class_rows(params, classes)
    m = len(p_rows)
    src, moved, amp = hop_moves(p_rows)
    # the class rows and every hop destination, folded onto their orbits at once
    rank, shift, period = canonical_rows(np.concatenate([p_rows, moved]))
    p_rank, p_period = rank[:m], period[:m]
    d_rank, d_shift, d_period = rank[m:], shift[m:], period[m:]
    off = np.flatnonzero(shift[:m])  # a representative is its own shift-0 rotation
    if off.size:
        raise ValidationError(
            f"{classes[off[0]].rep!r} is not an orbit representative of this sector")
    # the first class without weight at k, or equal to an earlier one
    weightless = k.l * p_period % f != 0
    repeated = (p_rank[:, None] == p_rank).argmax(axis=1) < np.arange(m)
    bad = np.flatnonzero(weightless | repeated)
    if bad.size:
        rep = classes[bad[0]].rep
        raise ValidationError(f"class {rep} carries no weight at momentum l={k.l}"
                              if weightless[bad[0]] else f"duplicate class {rep}")
    e0 = diagonal_energy(p_rows, params)
    if float(e0.max() - e0.min()) > 1e-9 * max(1.0, float(np.abs(e0).max())):
        raise ValidationError("classes are not degenerate at zero hopping")
    e_deg = float(e0[0])

    # destination orbits without weight at this momentum drop out
    keep = k.l * d_period % f == 0
    src, moved, amp = src[keep], moved[keep], amp[keep]
    d_rank, d_shift, d_period = d_rank[keep], d_shift[keep], d_period[keep]
    theta = 2 * np.pi * k.l * d_shift / f
    value = -params.epsilon * amp * np.sqrt(p_period[src] / d_period) * np.exp(1j * theta)
    # one row per destination orbit, in representative rank order
    ranks, first, row = np.unique(d_rank, return_index=True, return_inverse=True)
    v = np.zeros((len(ranks), m), dtype=complex)
    np.add.at(v, (row, src), value)
    in_p = (ranks[:, None] == p_rank).any(axis=1)
    by_rank = np.argsort(p_rank)
    h = np.zeros((m, m), dtype=complex)
    h[by_rank[np.searchsorted(p_rank, ranks[in_p], sorter=by_rank)]] = v[in_p]

    v_qp = v[~in_p]
    coupled = np.abs(v_qp).max(axis=1, initial=0.0) > 1e-12 * max(params.epsilon, 1.0)
    if coupled.any():
        # representative rows of the coupled intermediates: rep[s] = dst[s + u]
        at = first[~in_p][coupled]
        q_rows = moved[at[:, None], (np.arange(f) + d_shift[at, None]) % f]
        den = e_deg - diagonal_energy(q_rows, params)
        worst_pos = int(np.argmin(np.abs(den)))
        worst = float(abs(den[worst_pos]))
        if worst < resonance_floor(params):
            rep = tuple(q_rows[worst_pos].tolist())
            raise ResonanceError(f"E0(classes) - E0({rep})", float(den[worst_pos]))
        if params.epsilon > 0 and worst < WARN_EPS_FACTOR * params.epsilon:
            warnings.warn(
                f"smallest intermediate gap {worst:.6g} is within "
                f"{WARN_EPS_FACTOR:g} x epsilon",
                ResonanceWarning,
                stacklevel=2,
            )
        v_pq = v_qp[coupled].conj().T
        h = h + (v_pq / den) @ v_pq.conj().T
    return 0.5 * (h + h.conj().T)

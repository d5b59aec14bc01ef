"""Second-order degenerate perturbation theory for two-clump breather bands.

At zero hopping, every occupation pattern {m, l} (a clump of m bosons and a
clump of l at some separation) is exactly degenerate across separations and,
through Bloch symmetrization, each momentum k hosts one small degenerate space
per pattern.  Treating the hopping as the perturbation and working to second
order in epsilon yields a small effective matrix per (pattern, k) whose
eigenvalues approximate the exact band.

Each closed form, for odd f = 2 sigma + 1, is one chain of clump-separation
classes, built by `_chain` from a `ChainCoeffs` record: a uniform shift plus
a prefactor times a tridiagonal structure matrix, with an impurity on the
adjacent class and a ring closure where the chain's ends meet around the
ring.  Where they meet in one entry, the entries add up:

* {2, 2}: sigma classes.  Shift 8 eps^2 / (E2 - 2 E1), prefactor
  4 eps^2 / (E2 - 2 E1) on the bulk hop kappa = exp(i k / 2) cos(k / 2), the
  impurity Gamma = (3 gamma2 - 4 gamma1) / (gamma1 - 3 gamma2) on the adjacent
  class, and the closure cos(sigma k) on the maximal-separation class, where
  the two clumps interact around the ring.  At f = 3 (sigma = 1) the one class
  is both, and holds shift + prefactor (Gamma + cos k).
* {4, 2}: 2 sigma classes, hops of one scaled by -eps^2 / gamma1 plus a
  uniform shift D eps^2.  The separation-1 ends carry the impurity Gamma,
  and ring-closure corners p = 6 gamma1 exp(i k) / (gamma1 - 6 gamma2) connect
  |42> to |24>: two sqrt(12) hops through the |33> intermediate lying
  2 (gamma1 - 6 gamma2) away give 12 eps^2 / (-2 (gamma1 - 6 gamma2)), i.e.
  p times the bulk scale, with one Bloch winding phase.
* {3, 3}: sigma classes, diagonal (flat bands) and without shift.  Uniform
  value 6 eps^2 / (3 gamma2 - 2 gamma1) with the adjacent class scaled by
  1 + Gamma, Gamma = (9/2) (2 gamma2 - gamma1) / (gamma1 - 6 gamma2).

All three return only the order-eps^2 correction; add the zero-hop energy
`hamiltonian.diagonal_energy(pattern, params)`, the one the exact blocks
use, for absolute energies, or call `pt_band` for the absolute band
energies at every momentum, ascending as `eigh` returns them, and
`pt_asymptotics` for their infinite-ring limits (`qdnls pt`'s `asym_*`),
the one place that writes those.  Both read a pattern through one lookup
of `PT_BUILDERS`, whose keys every message that lists the closed forms
prints.
`bw_second_order_block` builds the same object numerically from
single-boson hops for any degenerate family of classes and is the
independent check of the closed forms.  It takes its couplings from
the routine the exact Bloch blocks use, `hamiltonian.bloch_couplings` over
the `basis.class_fold` of the class representatives: the class-to-class
part is its first order and the rest its intermediates.  It needs no sector
table and no dense block, so the dense cap does not apply and it reaches
rings no exact solve does.

Every denominator, closed or numeric, passes one resonance policy,
`_require`: below the floor it raises `ResonanceError`, and within
WARN_EPS_FACTOR x epsilon it warns "denominator <name> = <value> is within
10 x epsilon; second-order results may be inaccurate", where the engine's
name is that of its nearest intermediate, "E0(classes) - E0(<row>)".
"""

from __future__ import annotations

import contextlib
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import (MomentumIndex, SectorOrbits, check_momentum, class_fold, momentum_grid,
                    normalize_pattern, sector_pattern)
from .eigensolve import eigh
from .errors import PTValidityWarning, ResonanceError, ResonanceWarning, ValidationError
from .hamiltonian import ModelParams, _check_dense, bloch_couplings, diagonal_energy

RESONANCE_FLOOR_REL = 1e-6
WARN_EPS_FACTOR = 10.0


def resonance_floor(params: ModelParams) -> float:
    """Absolute floor below which a perturbative denominator counts as resonant."""
    return RESONANCE_FLOOR_REL * max(params.gamma1, params.gamma2, 1.0)


def _require(value: float, name, params: ModelParams, _stacklevel: int = 2) -> float:
    """`value`, refused below the resonance floor and warned about within
    WARN_EPS_FACTOR x epsilon; `name`, or a function formatting it, is called
    only then.  The warning names the line `_stacklevel` frames up: by default
    the coefficient function's, shown once whatever calls that function."""
    resonant = abs(value) < resonance_floor(params)
    if resonant or params.epsilon > 0 and abs(value) < WARN_EPS_FACTOR * params.epsilon:
        name = name if isinstance(name, str) else name()
        if resonant:
            raise ResonanceError(name, value)
        warnings.warn(
            f"denominator {name} = {value:.6g} is within {WARN_EPS_FACTOR:g} x epsilon; "
            "second-order results may be inaccurate",
            ResonanceWarning,
            stacklevel=_stacklevel,
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


def _kval(params: ModelParams, k) -> float:
    """k as a float: a MomentumIndex of the ring of `params`, or a finite real
    number (int, float or numpy real, not bool)."""
    if isinstance(k, MomentumIndex):
        return check_momentum(params.f, k).k
    if isinstance(k, (int, float, np.integer, np.floating)) and not isinstance(k, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(float(k)):
                return float(k)
    raise ValidationError(f"a momentum needs a MomentumIndex or a finite real number, got {k!r}")


# ------------------------------------------------- the chain of separation classes


@dataclass(frozen=True)
class ChainCoeffs:
    """Coefficients of a closed form's chain of separation classes (`_chain`)."""

    prefactor: float     # multiplies the structure matrix
    shift: float         # uniform diagonal shift
    impurity: float      # on the adjacent class
    corner: float = 0.0  # magnitude of the {4, 2} winding corner, 0 for the others


def _chain(c: ChainCoeffs, dim: int, diag: float, hop: complex, last: float,
           k: float = 0.0) -> np.ndarray:
    """prefactor * m + shift on the diagonal, m being the chain of `dim` classes:
    `diag` on the diagonal, `hop` above it and its conjugate below, then the
    impurity added on the first class, `last` on the last, and the corner
    c.corner exp(i k) at the lower left, its conjugate at the upper right.  A
    `dim` above the dense cap raises CapacityError before anything is allocated."""
    _check_dense(dim, "closed-form matrix")
    m = np.zeros((dim, dim), dtype=complex)
    m.flat[::dim + 1] = diag
    # with the rightward translation and exp(-i k t) Bloch phase used throughout,
    # the hop and the corner's conjugate phase sit in the upper triangle
    m.flat[1::dim + 1] = hop
    m.flat[dim::dim + 1] = np.conj(hop)
    m[0, 0] += c.impurity
    m[-1, -1] += last
    corner = c.corner * np.exp(1j * k)
    m[0, -1] += np.conj(corner)
    m[-1, 0] += corner
    h = c.prefactor * m
    h.flat[::dim + 1] += c.shift
    return h


def coeffs22(params: ModelParams) -> ChainCoeffs:
    g1, g2, eps = params.gamma1, params.gamma2, params.epsilon
    pair_gap = _require(-2.0 * g1, "-2*gamma1", params)       # E2 - 2 E1
    imp_den = _require(g1 - 3.0 * g2, "gamma1 - 3*gamma2", params)
    pref = 4.0 * eps * eps / pair_gap
    return ChainCoeffs(prefactor=pref, shift=2.0 * pref, impurity=(3.0 * g2 - 4.0 * g1) / imp_den)


def h22_matrix(params: ModelParams, k) -> np.ndarray:
    """Order-eps^2 effective matrix of the {2, 2} band at momentum k.

    Basis index j = 1 .. sigma is the clump separation; j = 1 is the adjacent
    class |22>, and the closure cos(sigma k) sits on j = sigma.  Add
    diagonal_energy((2, 2), params) for absolute energies.
    """
    sigma = _sigma_for_pt(params)
    c = coeffs22(params)
    kv = _kval(params, k)
    return _chain(c, sigma, 0.0, np.exp(0.5j * kv) * math.cos(0.5 * kv), math.cos(sigma * kv))


def coeffs42(params: ModelParams) -> ChainCoeffs:
    g1, g2, eps = params.gamma1, params.gamma2, params.epsilon
    _require(g1, "gamma1", params)
    d3 = _require(g1 - 3.0 * g2, "gamma1 - 3*gamma2", params)
    d6 = _require(g1 - 6.0 * g2, "gamma1 - 6*gamma2", params)
    du = -(2.0 / 3.0) * (5.0 * g1 - 9.0 * g2) / (g1 * d3)
    gam = (2.0 / 3.0) * (4.0 * g1 * g1 - 27.0 * g2 * g2) / (d3 * d6)
    return ChainCoeffs(prefactor=-eps * eps / g1, shift=du * eps * eps,
                       impurity=gam, corner=6.0 * g1 / d6)


def h42_matrix(params: ModelParams, k) -> np.ndarray:
    """Order-eps^2 effective matrix of the {4, 2} band at momentum k.

    Basis index j = 1 .. 2 sigma is the clockwise separation from the 4-clump
    to the 2-clump, so j = 1 is |42> and j = 2 sigma is |24>; both carry the
    impurity, and the winding corner connects them.  Add
    diagonal_energy((4, 2), params) for absolute energies.
    """
    sigma = _sigma_for_pt(params)
    c = coeffs42(params)
    return _chain(c, 2 * sigma, 0.0, 1.0, c.impurity, _kval(params, k))


def coeffs33(params: ModelParams) -> ChainCoeffs:
    g1, g2, eps = params.gamma1, params.gamma2, params.epsilon
    den = _require(3.0 * g2 - 2.0 * g1, "3*gamma2 - 2*gamma1", params)
    d6 = _require(g1 - 6.0 * g2, "gamma1 - 6*gamma2", params)
    return ChainCoeffs(prefactor=6.0 * eps * eps / den, shift=0.0,
                       impurity=4.5 * (2.0 * g2 - g1) / d6)


def h33_matrix(params: ModelParams, k=None) -> np.ndarray:
    """Order-eps^2 effective matrix of the {3, 3} band; diagonal and k independent.

    Basis index j = 1 .. sigma is the clump separation; the adjacent class
    |33> carries the impurity.  Add diagonal_energy((3, 3), params) for
    absolute energies.  A momentum index from another ring is still rejected.
    """
    sigma = _sigma_for_pt(params)
    if k is not None:
        _kval(params, k)
    return _chain(coeffs33(params), sigma, 1.0, 0.0, 0.0)


PT_BUILDERS = {(2, 2): h22_matrix, (4, 2): h42_matrix, (3, 3): h33_matrix}


def _closed_forms() -> str:
    """The patterns of PT_BUILDERS, as '2,2 / 4,2 / 3,3'."""
    return " / ".join(",".join(map(str, pattern)) for pattern in PT_BUILDERS)


def _closed_form(pattern):
    """`pattern` largest first and its builder in PT_BUILDERS; ValidationError,
    listing the closed forms, for a pattern without one."""
    pattern = normalize_pattern(pattern)
    build = PT_BUILDERS.get(pattern)
    if build is None:
        raise ValidationError(
            f"no closed perturbative form for pattern {pattern}; supported: {_closed_forms()}")
    return pattern, build


def pt_asymptotics(params: ModelParams, pattern, k) -> dict:
    """The `asym_*` columns of `qdnls pt`: the absolute infinite-ring limits of
    a pattern of PT_BUILDERS, in any order, at momentum k, which is checked
    like the closed forms' and read by {2, 2} only.  {2, 2}: the bound-pair
    line, None unless |impurity| > cos(k/2) (at every k iff |impurity| > 1),
    and the edges of the continuum center + shift (1 + cos(k/2) cos(theta)).
    {4, 2}: the edges of its continuum.  {3, 3}: h33_matrix's two values."""
    pattern, _ = _closed_form(pattern)
    g1, g2 = params.gamma1, params.gamma2
    center = diagonal_energy(pattern, params)
    if pattern == (2, 2):
        c = coeffs22(params)
        if abs(3.0 * g2 - 4.0 * g1) < resonance_floor(params):
            # impurity strength vanishes and the line formula degenerates
            raise ResonanceError("3*gamma2 - 4*gamma1 (line coupling)", 3.0 * g2 - 4.0 * g1)
        hc = math.cos(0.5 * math.remainder(_kval(params, k), 2.0 * math.pi))  # k in [-pi, pi]
        line = (center + c.prefactor * (2.0 + c.impurity + hc * hc / c.impurity)
                if abs(c.impurity) > hc else None)
        edges = (center + c.shift * (1.0 + hc), center + c.shift * (1.0 - hc))
        return {"asym_line": line, "asym_cont_min": min(edges), "asym_cont_max": max(edges)}
    if pattern == (4, 2):
        c = coeffs42(params)
        _kval(params, k)
        # the bulk hop's band: center + shift + 2 prefactor cos(theta), theta in [0, pi]
        edges = [center + c.shift + 2.0 * c.prefactor, center + c.shift - 2.0 * c.prefactor]
        return {"asym_cont_min": min(edges), "asym_cont_max": max(edges)}
    c = coeffs33(params)
    _kval(params, k)
    return {"asym_line": center + c.prefactor * (1.0 + c.impurity),
            "asym_cont": center + c.prefactor}


def pt_band(params: ModelParams, pattern, grid: list[MomentumIndex] | None = None
            ) -> dict[int, np.ndarray]:
    """Absolute second-order band energies {l: ascending energies} of a pattern
    with a closed form, in any order, over the canonical momentum grid or the
    given one.

    Raises ValidationError for a pattern without a closed form, a boson count
    other than n, an even ring or a momentum of another ring, and
    ResonanceError for resonant couplings.
    """
    pattern, build = _closed_form(pattern)
    offset = diagonal_energy(sector_pattern(params.f, params.n, pattern), params)
    if grid is None:
        grid = momentum_grid(params.f)
    return {k.l: eigh(build(params, k)).eigenvalues + offset for k in grid}


# ------------------------------------------------- numeric second-order block


def _class_rows(params: ModelParams, classes: list) -> np.ndarray:
    """The representatives of `classes` as a (len, f) int array, checked as
    arrays to be rows of f integers (no bools or floats) in 0 .. n summing to
    n; whether a row is its own lowest-rank rotation is left to
    `basis.class_fold`.  A failed check names the first bad class."""
    if not classes:
        raise ValidationError("need at least one degenerate class")
    f, n = params.f, params.n
    reps = [orb.rep for orb in classes]
    if {len(rep) for rep in reps} == {f} and all(
            issubclass(t, (int, np.integer)) and not issubclass(t, bool)
            for t in set(map(type, itertools.chain.from_iterable(reps)))):
        with contextlib.suppress(OverflowError):  # an entry beyond int64 is no occupation
            rows = np.array(reps, dtype=np.int64)
            # entries in 0 .. n keep the row sums far from int64 overflow
            if ((rows >= 0) & (rows <= n)).all() and (rows.sum(axis=1) == n).all():
                return rows
    for orb in classes[:-1]:
        _class_rows(params, [orb])  # raises if this class is bad, else the last one is
    raise ValidationError(f"{reps[-1]!r} is not an orbit representative of this sector")


def bw_second_order_block(params: ModelParams, k: MomentumIndex, classes,
                          sector: SectorOrbits | None = None) -> np.ndarray:
    """Second-order effective matrix over Bloch-symmetrized degenerate classes.

    Built numerically from single-boson hops: first-order couplings inside the
    class space plus sum_q V[:, q] V[q, :] / (E0 - E0_q) over every reachable
    state q outside it.  No closed forms enter; this is the reference the
    {2,2}, {4,2} and {3,3} matrices are validated against.

    Only the hops out of the class representatives are taken: `class_fold`
    checks each class row is its own representative and folds each hop
    destination onto its orbit with one `canonical_rows` call (one
    `rank_rows` call per `basis.ROW_CHUNK` rows, whatever f), so no sector
    table, dense block or dense cap is involved.  The fold is memoized per
    class family; each call takes the couplings of the exact blocks
    (`bloch_couplings`) and adds the denominators.  `sector` is optional and
    unused beyond a check that it is the (f, n) sector of `params`.
    """
    classes = list(classes)
    f = params.f
    check_momentum(f, k)
    if sector is not None and (sector.f, sector.n) != (f, params.n):
        raise ValidationError(
            f"sector (f={sector.f}, n={sector.n}) does not match the requested "
            f"(f={f}, n={params.n})")
    p_rows = _class_rows(params, classes)
    fold = class_fold(f, p_rows.tobytes())
    if fold.not_rep >= 0:
        raise ValidationError(
            f"{classes[fold.not_rep].rep!r} is not an orbit representative of this sector")
    # the first class without weight at k, or equal to an earlier one
    weightless = k.l * fold.p_period % f != 0
    bad = np.flatnonzero(weightless | fold.repeated)
    if bad.size:
        rep = classes[bad[0]].rep
        raise ValidationError(f"class {rep} carries no weight at momentum l={k.l}"
                              if weightless[bad[0]] else f"duplicate class {rep}")
    e0 = diagonal_energy(p_rows, params)
    if float(e0.max() - e0.min()) > 1e-9 * max(1.0, float(np.abs(e0).max())):
        raise ValidationError("classes are not degenerate at zero hopping")
    e_deg = float(e0[0])

    h, v_qp, q_rows = bloch_couplings(fold, params, k)
    coupled = np.abs(v_qp).max(axis=1, initial=0.0) > 1e-12 * max(params.epsilon, 1.0)
    if coupled.any():
        q_rows = q_rows[coupled]
        den = e_deg - diagonal_energy(q_rows, params)
        worst = int(np.argmin(np.abs(den)))
        # on the caller's line, like the coefficient functions' warnings
        _require(float(den[worst]),
                 lambda: f"E0(classes) - E0({tuple(q_rows[worst].tolist())})",
                 params, _stacklevel=3)
        v_pq = v_qp[coupled].conj().T
        h = h + (v_pq / den) @ v_pq.conj().T
    return 0.5 * (h + h.conj().T)

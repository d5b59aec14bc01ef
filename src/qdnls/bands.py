"""Band extraction, line/continuum tagging, and effective masses.

Eigenstates are assigned to occupation patterns (the multiset of nonzero
site counts, e.g. (2, 2) or (4, 2)) by the squared-amplitude weight the
eigenvector carries on basis states of that pattern.  A state counts as
classified only when the best pattern's weight strictly exceeds the
threshold, so an even two-way split at threshold 0.5 stays unclassified.
The basis states are the orbit representatives, whose patterns and
adjacency the sector table keys once (`SectorOrbits.pattern_ids` and
`.adjacent`; every block of a sector shares one table, `sector_orbits`),
and the weights of a whole block of eigenvectors are summed
per pattern at once.  A label is three numbers per eigenvector: the index
of its pattern in `SectorOrbits.patterns` (-1 when unclassified), its
weight and the adjacency of its dominant basis state.  `labelled_spectra`
classifies each block right after it is solved and keeps these arrays in
place of the eigenvectors, which band extraction and the ground-state scan
then read.  A band's solve forms only the eigenvectors that may carry the
pattern (see `eigensolve`), and the arrays record which ones they label.

Two-clump bands split further: an eigenvalue whose dominant basis state
has the clumps on neighbouring sites is tagged "line", the rest
"continuum".  Within a numerically degenerate cluster the tags are
meaningful only if they agree; conflicting tags collapse to "merged",
which is what happens to the whole band at epsilon = 0.  Where a closed
second-order form exists, the selected states of each momentum that holds
as many as it does are paired, in ascending order, slot by slot with its
energies.

Effective masses come from the curvature of E(k) at k = 0, estimated two
ways (symmetric second difference and an exact quartic through the five
central grid points); the two must agree within 2 percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import MomentumBasis, MomentumIndex, momentum_basis, momentum_grid, sector_pattern
from .eigensolve import Spectrum
from .errors import BandOverlapError, NumericalError, ResonanceError, ValidationError
from .hamiltonian import ModelParams, momentum_spectra, reduced_label
from .perturbation import coeffs22, pt_band

# tolerance for grouping eigenvalues into degenerate clusters, relative
# to the block's energy scale
DEGENERACY_RTOL = 1e-9

# five-point mass fits must stay within |k| <= 0.3 pi, i.e. f >= 17
MAX_MASS_SPACING = 2.0 * math.pi / 17.0
CURVATURE_AGREE_RTOL = 0.02


def validate_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold!r}")


def classify_block(vectors, basis: MomentumBasis, threshold: float = 0.5):
    """Classify each column of `vectors`, one amplitude per orbit of `basis`,
    as arrays (pattern_ids, weights, adjacent) over the columns.

    The weight of a pattern is the squared amplitude summed over basis states
    with that pattern; `weights` holds the best one.  `pattern_ids` indexes
    `basis.sector.patterns`; it is -1 where the best weight does not exceed
    the threshold strictly, so an even split stays unclassified, and where
    the state holds no boson.  Equal best weights go to the largest pattern,
    and `adjacent` is that of the first of its states with the largest
    amplitude.
    """
    validate_threshold(threshold)
    mat = np.asarray(vectors, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != basis.dim:
        raise ValidationError("vector length does not match the basis")
    if not mat.shape[1]:
        return np.empty(0, dtype=np.intp), np.empty(0), np.empty(0, dtype=bool)
    amp2 = np.abs(mat) ** 2
    if float(np.abs(amp2.sum(axis=0) - 1.0).max()) > 1e-8:
        raise ValidationError("vector is not normalized")
    sector = basis.sector
    ids = sector.pattern_ids[basis.orbit_indices]
    groups = np.flatnonzero(np.bincount(ids))  # ids ascend as patterns descend
    # a running sum adds row by row in basis order, as np.add.at would
    totals = np.stack([amp2[ids == g].cumsum(axis=0)[-1] for g in groups])
    weights = totals.max(axis=0)
    # the first of the tied groups holds the largest pattern
    best = groups[np.argmax(totals == weights, axis=0)]
    dominant = np.argmax(np.where(ids[:, None] == best, amp2, -1.0), axis=0)
    # the n = 0 vacuum has no clump to name
    classified = (weights > threshold) & (sector.n > 0)
    return (np.where(classified, best, -1), weights,
            sector.adjacent[basis.orbit_indices[dominant]])


@dataclass
class LabelledSpectrum:
    """The certified eigenvalues of one momentum block and the `classify_block`
    arrays of the eigenvectors of the eigenvalues indexed by `columns`; the
    eigenvectors are not kept.  `columns` holds every index, or, when the
    solve was windowed on the pattern `window`, the lowest and each whose
    vector may be classified as that pattern.  Its momentum is `basis.k`."""

    basis: MomentumBasis
    eigenvalues: np.ndarray
    residual_bound: float
    window: tuple[int, ...] | None
    columns: np.ndarray
    pattern_ids: np.ndarray
    weights: np.ndarray
    adjacent: np.ndarray


def labelled_spectra(params: ModelParams, threshold: float = 0.5,
                     grid: list[MomentumIndex] | None = None,
                     pattern=None) -> list[LabelledSpectrum]:
    """Eigenvalues and eigenvector labels at `threshold` of every momentum of
    `grid` (the whole grid by default), in grid order, solving each +-k pair
    once; the threshold and the pattern are checked before the first solve.
    With a `pattern`, only the eigenvectors of its window are formed and
    labelled: every one that may be classified as it, and the lowest.

    A momentum whose reduced label r is >= 0 is solved through
    `momentum_spectra` and classified at once, so only one block's
    eigenvectors are alive at a time.  One with r < 0 whose partner -r is
    solved as well takes the partner's eigenvalues, residual bound and labels
    with its own momentum basis: block(-r) is the conjugate of block(r), and
    conjugate vectors carry the same weights on the same orbits.  A momentum
    whose partner is not requested (a single --k, say) is solved directly.
    """
    validate_threshold(threshold)
    if pattern is not None:
        pattern = sector_pattern(params.f, params.n, pattern)
    if grid is None:
        grid = momentum_grid(params.f)
    r_of = [reduced_label(kidx.l, params.f) for kidx in grid]
    solved = {r: _labelled(*momentum_spectra(params, [kidx], pattern, threshold)[0],
                           threshold, pattern)
              for kidx, r in zip(grid, r_of) if r >= 0 or -r not in r_of}
    return [solved[r] if r in solved else
            replace(solved[-r], basis=momentum_basis(params.f, params.n, kidx))
            for kidx, r in zip(grid, r_of)]


def _labelled(basis: MomentumBasis, spectrum: Spectrum, threshold: float,
              window: tuple[int, ...] | None) -> LabelledSpectrum:
    """A solved block with its eigenvectors replaced by their labels; a function
    of its own, so that the eigenvectors are freed before the next solve."""
    return LabelledSpectrum(basis, spectrum.eigenvalues, spectrum.residual_bound, window,
                            spectrum.columns,
                            *classify_block(spectrum.eigenvectors, basis, threshold))


# ------------------------------------------------------------ band extraction


@dataclass(frozen=True)
class BandPoint:
    """One selected eigenvalue of a band at one momentum."""

    l: int
    k: float
    index: int
    energy: float
    weight: float
    tag: str  # line | continuum | merged | n/a
    pt: float | None  # closed-form energy of the same ascending slot, if there is one


@dataclass
class BandReport:
    """All eigenvalues attributed to one pattern, tagged per momentum, in `extract_band`'s order."""

    pattern: tuple[int, ...]
    points: list[BandPoint]
    counts: dict[int, tuple[int, int]]  # l -> (selected, expected)
    pt_residuals: dict[int, float | None] | None  # None when no closed form applies
    overlap_notes: list[str] = field(default_factory=list)


def _merge_degenerate_tags(energies: list[float], tags: list[str], scale: float) -> list[str]:
    """Collapse conflicting tags inside numerically degenerate clusters."""
    out = list(tags)
    start = 0
    for stop in range(1, len(energies) + 1):
        boundary = stop == len(energies) or energies[stop] - energies[stop - 1] > DEGENERACY_RTOL * scale
        if not boundary:
            continue
        cluster = range(start, stop)
        if len(set(out[i] for i in cluster)) > 1:
            for i in cluster:
                out[i] = "merged"
        start = stop
    return out


def extract_band(params: ModelParams, pattern, spectra: list[LabelledSpectrum]) -> BandReport:
    """Collect, per momentum, the eigenpairs of `spectra` dominated by one pattern.

    The labels, and so the threshold, are those of `labelled_spectra`; spectra
    of another sector than that of `params`, or windowed on another pattern,
    are rejected.  Two-clump patterns
    are tagged line/continuum by the adjacency of the dominant basis state;
    degenerate clusters with conflicting tags become "merged".  When fewer
    states than pattern classes are found at some momentum another band has
    mixed in; the band is returned as found, with a note in `overlap_notes`.
    Where a closed perturbative form applies and a momentum holds as many
    selected states as it has energies, those states, in ascending order, take
    them slot by slot as `pt`, and `pt_residuals` holds their worst difference
    (None at a momentum whose counts differ).  Points come in the order of
    `spectra` and, within a momentum, ascend in energy as `columns` and `eigh`'s
    eigenvalues do: by (l, energy) on the default grid of `labelled_spectra`.
    """
    pat = sector_pattern(params.f, params.n, pattern)
    for ksp in spectra:
        sector = ksp.basis.sector
        if (sector.f, sector.n) != (params.f, params.n):
            raise ValidationError(
                f"spectra of the (f={sector.f}, n={sector.n}) sector do not match "
                f"the requested (f={params.f}, n={params.n})")
        if ksp.window not in (None, pat):
            raise ValidationError(f"spectra windowed on pattern {ksp.window} hold no "
                                  f"complete band of pattern {pat}")
    two_clump = len(pat) == 2

    points: list[BandPoint] = []
    counts: dict[int, tuple[int, int]] = {}
    notes: list[str] = []
    try:
        pt_eigs = pt_band(params, pat)
    except (ValidationError, ResonanceError):
        # no closed form, even f or resonant couplings: nothing to compare against
        pt_eigs = None
    pt_residuals: dict[int, float | None] | None = {} if pt_eigs is not None else None

    for ksp in spectra:
        basis, sector, l = ksp.basis, ksp.basis.sector, ksp.basis.k.l
        # a pattern that passes sector_pattern is that of some orbit
        pid = sector.patterns.index(pat)
        expected = int(np.count_nonzero(sector.pattern_ids[basis.orbit_indices] == pid))
        found = ksp.pattern_ids == pid
        selected = ksp.columns[found]
        counts[l] = (len(selected), expected)
        if len(selected) < expected:
            notes.append(f"pattern {pat} at l = {l}: found {len(selected)} of {expected} "
                         "states; another band overlaps or the threshold is too strict")
        energies = ksp.eigenvalues[selected].tolist()
        if two_clump:
            tags = np.where(ksp.adjacent[found], "line", "continuum").tolist()
        else:
            tags = ["n/a"] * len(selected)
        # a valid pattern has n >= 1, so every block of its sector holds a state
        scale = max(1.0, float(np.abs(ksp.eigenvalues).max()))
        tags = _merge_degenerate_tags(energies, tags, scale)
        reference = pt_eigs.get(l, np.empty(0)).tolist() if pt_eigs is not None else []
        complete = 0 < len(selected) == len(reference)
        paired = reference if complete else [None] * len(selected)
        band = [BandPoint(l, basis.k.k, *point) for point in zip(
            selected.tolist(), energies, ksp.weights[found].tolist(), tags, paired)]
        points += band
        if pt_residuals is not None:
            pt_residuals[l] = max(abs(p.energy - p.pt) for p in band) if complete else None
    return BandReport(pattern=pat, points=points, counts=counts,
                      pt_residuals=pt_residuals, overlap_notes=notes)


# ------------------------------------------------------------- ground state


@dataclass(frozen=True)
class GroundState:
    l: int
    k: float
    energy: float
    pattern: tuple[int, ...] | None  # None when unclassified
    weight: float


def ground_state(spectra: list[LabelledSpectrum]) -> GroundState:
    """Global minimum over all momentum blocks, with its pattern and weight:
    the label of column 0, which every solve, windowed or not, returns first.
    Of equal minima the first in grid order is kept."""
    best: tuple[LabelledSpectrum, float] | None = None
    for ksp in spectra:
        if ksp.eigenvalues.size == 0:
            continue
        energy = float(ksp.eigenvalues[0])
        if best is None or energy < best[1]:
            best = (ksp, energy)
    if best is None:
        raise ValidationError("no eigenvalues to scan")
    ksp, energy = best
    pid = int(ksp.pattern_ids[0])
    return GroundState(l=ksp.basis.k.l, k=ksp.basis.k.k, energy=energy,
                       pattern=ksp.basis.sector.patterns[pid] if pid >= 0 else None,
                       weight=float(ksp.weights[0]))


# ---------------------------------------------------------- effective masses


@dataclass(frozen=True)
class MassFit:
    """Effective mass 1 / E''(0) with both curvature estimates."""

    mass: float
    curvature_fd: float
    curvature_fit: float


def effective_mass(ks, energies) -> MassFit:
    """Effective mass from E(k) samples on an even grid through k = 0.

    The curvature at zero is taken from the symmetric second difference
    and from an exact quartic through the five central points; the two
    must agree within 2 percent.  A significant odd component means the
    band is not extremal at k = 0 and is reported as an error.
    """
    k = np.asarray(ks, dtype=float)
    e = np.asarray(energies, dtype=float)
    if k.ndim != 1 or k.shape != e.shape:
        raise ValidationError("need matching one-dimensional k and E arrays")
    if k.size < 5:
        raise ValidationError("need at least five (k, E) samples around k = 0")
    order = np.argsort(k)
    k, e = k[order], e[order]
    center = int(np.argmin(np.abs(k)))
    if abs(k[center]) > 1e-12:
        raise ValidationError("samples must include k = 0")
    if center < 2 or center > k.size - 3:
        raise ValidationError("need two samples on each side of k = 0")
    kc = k[center - 2:center + 3]
    ec = e[center - 2:center + 3]
    steps = np.diff(kc)
    delta = float(steps.mean())
    if float(np.abs(steps - delta).max()) > 1e-9 * delta:
        raise ValidationError("momentum samples must be evenly spaced")
    if delta > MAX_MASS_SPACING * (1.0 + 1e-12):
        raise ValidationError(
            f"grid spacing {delta:.6g} too coarse for a five-point mass fit; need f >= 17")
    scale = max(1.0, float(np.abs(ec).max()))
    if float(ec.max() - ec.min()) < 1e-12 * scale:
        raise NumericalError("band is flat within precision; the effective mass diverges")
    curv_fd = float((ec[3] - 2.0 * ec[2] + ec[1]) / delta ** 2)
    slope_fd = float((ec[3] - ec[1]) / (2.0 * delta))
    if abs(slope_fd) > 0.1 * abs(curv_fd) * delta:
        raise NumericalError("dispersion is not extremal at k = 0; odd derivative dominates")
    # exact quartic through the five points, on the integer grid x = k / delta
    x = np.arange(-2.0, 3.0)
    coeff = np.linalg.solve(np.vander(x, 5, increasing=True), ec)
    curv_fit = float(2.0 * coeff[2] / delta ** 2)
    if abs(curv_fd - curv_fit) > CURVATURE_AGREE_RTOL * max(abs(curv_fd), abs(curv_fit)):
        raise NumericalError(
            f"curvature estimates disagree beyond {CURVATURE_AGREE_RTOL:.0%}: "
            f"second difference {curv_fd:.6g} vs quartic {curv_fit:.6g}")
    return MassFit(mass=1.0 / curv_fit, curvature_fd=curv_fd, curvature_fit=curv_fit)


@dataclass(frozen=True)
class EffectiveMassReport:
    """Masses of the single 2-clump band and the bound-pair line band."""

    m2_star: float
    m22_star: float
    ratio: float              # m22_star / (2 m2_star)
    gamma_prediction: float   # the line-coupling ratio the fit should match


def _single_tag_dispersion(report: BandReport, tag: str) -> tuple[list[float], list[float]]:
    ks: dict[int, float] = {}
    es: dict[int, float] = {}
    for p in report.points:
        if p.tag != tag:
            continue
        if p.l in ks:
            raise NumericalError(
                f"expected a single '{tag}' state per momentum for pattern {report.pattern}, "
                f"found several at l = {p.l}")
        ks[p.l] = p.k
        es[p.l] = p.energy
    missing = [l for l in report.counts if l not in ks]
    if missing:
        raise NumericalError(
            f"no '{tag}' state for pattern {report.pattern} at l = {sorted(missing)}")
    order = sorted(ks)
    return [ks[l] for l in order], [es[l] for l in order]


def band_mass(params: ModelParams, pattern, tag: str, threshold: float = 0.5) -> MassFit:
    """Mass fit of the unique tagged member of a pattern band; a band that
    another overlaps raises BandOverlapError."""
    report = extract_band(params, pattern, labelled_spectra(params, threshold, pattern=pattern))
    if report.overlap_notes:
        raise BandOverlapError(report.overlap_notes[0])
    ks, es = _single_tag_dispersion(report, tag)
    return effective_mass(ks, es)


def mass_ratio_report(f: int, gamma1: float, gamma2: float = 0.0, epsilon: float = 0.0,
                      model: str = "h2", threshold: float = 0.5) -> EffectiveMassReport:
    """Compare the bound-pair line band mass with twice the single-pair mass.

    m2* comes from the one-state (2) band of the n = 2 sector, m22* from
    the line part of the (2, 2) band at n = 4.  For weak hopping the
    ratio m22* / (2 m2*) approaches the impurity coupling ratio of the
    pair-band closed form.
    """
    single = ModelParams(f=f, n=2, gamma1=gamma1, gamma2=gamma2, epsilon=epsilon, model=model)
    pair = ModelParams(f=f, n=4, gamma1=gamma1, gamma2=gamma2, epsilon=epsilon, model=model)
    m2 = band_mass(single, (2,), "n/a", threshold).mass
    m22 = band_mass(pair, (2, 2), "line", threshold).mass
    return EffectiveMassReport(m2_star=m2, m22_star=m22, ratio=m22 / (2.0 * m2),
                               gamma_prediction=coeffs22(pair).impurity)

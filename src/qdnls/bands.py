"""Band extraction, line/continuum tagging, and effective masses.

Eigenstates are assigned to occupation patterns (the multiset of nonzero
site counts, e.g. (2, 2) or (4, 2)) by the squared-amplitude weight the
eigenvector carries on basis states of that pattern.  A state counts as
classified only when the best pattern's weight strictly exceeds the
threshold, so an even two-way split at threshold 0.5 stays unclassified.
The basis states are the integer occupation rows of the orbit
representatives; the rank of each row sorted largest first keys its
pattern, so one `np.unique` groups the rows, and the weights of a whole
block of eigenvectors are summed per group at once.  `labelled_spectra`
classifies each block right after it is solved and keeps the labels in
place of the eigenvectors, which band extraction and the ground-state scan
then read.

Two-clump bands split further: an eigenvalue whose dominant basis state
has the clumps on neighbouring sites is tagged "line", the rest
"continuum".  Within a numerically degenerate cluster the tags are
meaningful only if they agree; conflicting tags collapse to "merged",
which is what happens to the whole band at epsilon = 0.

Effective masses come from the curvature of E(k) at k = 0, estimated two
ways (symmetric second difference and an exact quartic through the five
central grid points); the two must agree within 2 percent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import (
    MomentumBasis,
    MomentumIndex,
    Occ,
    SectorOrbits,
    momentum_basis,
    momentum_grid,
    rank_rows,
)
from .errors import BandOverlapError, NumericalError, ResonanceError, ValidationError
from .hamiltonian import KSpectrum, ModelParams, momentum_spectra, reduced_label
from .perturbation import coeffs22, pt_band

ADJACENCY_TAGS = ("adjacent", "separated", "n/a")

# tolerance for grouping eigenvalues into degenerate clusters, relative
# to the block's energy scale
DEGENERACY_RTOL = 1e-9

# five-point mass fits must stay within |k| <= 0.3 pi, i.e. f >= 17
MAX_MASS_SPACING = 2.0 * math.pi / 17.0
CURVATURE_AGREE_RTOL = 0.02


def pattern_of(state: Occ) -> tuple[int, ...]:
    """Multiset of nonzero site occupations, largest first."""
    return tuple(sorted((c for c in state if c), reverse=True))


def adjacency_of(state: Occ) -> str:
    """Clump adjacency on the ring; defined only for two-clump states."""
    sites = [s for s, c in enumerate(state) if c]
    if len(sites) != 2:
        return "n/a"
    gap = sites[1] - sites[0]
    return "adjacent" if gap == 1 or gap == len(state) - 1 else "separated"


def normalize_pattern(pattern) -> tuple[int, ...]:
    pat = tuple(sorted((int(c) for c in pattern), reverse=True))
    if not pat or any(c < 1 for c in pat):
        raise ValidationError(f"pattern entries must be positive integers, got {tuple(pattern)!r}")
    return pat


@dataclass(frozen=True)
class PatternClass:
    """An occupation pattern plus, for two clumps, their adjacency."""

    pattern: tuple[int, ...]
    adjacency: str = "n/a"

    def __post_init__(self):
        object.__setattr__(self, "pattern", normalize_pattern(self.pattern))
        if self.adjacency not in ADJACENCY_TAGS:
            raise ValidationError(f"unknown adjacency tag {self.adjacency!r}")
        two = len(self.pattern) == 2
        if two and self.adjacency == "n/a":
            raise ValidationError("two-clump patterns need an adjacent/separated tag")
        if not two and self.adjacency != "n/a":
            raise ValidationError("adjacency is defined only for two-clump patterns")

    @property
    def label(self) -> str:
        return "+".join(str(c) for c in self.pattern)


@dataclass(frozen=True)
class Classification:
    """Best pattern of an eigenvector; pattern is None when nothing clears
    the threshold or the state holds no boson."""

    pattern: PatternClass | None
    weight: float


def _pattern_groups(basis: MomentumBasis):
    """Basis rows, a pattern group id per row, and each group's pattern.

    The rows are the orbit representatives of the basis.  A row sorted largest
    first is itself a state of the sector, so its rank keys the pattern; ranks
    ascend as patterns descend, so the largest pattern has group id 0.
    """
    sector = basis.sector
    rows = sector.occ[sector.reps[basis.orbit_indices]]
    _, first, ids = np.unique(rank_rows(-np.sort(-rows, axis=1)),
                              return_index=True, return_inverse=True)
    return rows, ids, [pattern_of(rows[i].tolist()) for i in first]


def classify_block(vectors, basis: MomentumBasis, threshold: float = 0.5) -> list[Classification]:
    """Classify each column of `vectors`, one amplitude per orbit of `basis`.

    The weight of a pattern is the squared amplitude summed over basis states
    with that pattern; classification requires the best weight to exceed the
    threshold strictly, so an even split stays unclassified.  Equal best
    weights go to the largest pattern, and the adjacency tag comes from the
    first of its states with the largest amplitude.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold!r}")
    mat = np.asarray(vectors, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != basis.dim:
        raise ValidationError("vector length does not match the basis")
    if not mat.shape[1]:
        return []
    amp2 = np.abs(mat) ** 2
    if float(np.abs(amp2.sum(axis=0) - 1.0).max()) > 1e-8:
        raise ValidationError("vector is not normalized")
    rows, ids, patterns = _pattern_groups(basis)
    # a running sum adds row by row in basis order, as np.add.at would
    totals = np.stack([amp2[ids == g].cumsum(axis=0)[-1] for g in range(len(patterns))])
    weights = totals.max(axis=0)
    # the first of the tied groups holds the largest pattern
    best = np.argmax(totals == weights, axis=0)
    dominant = np.argmax(np.where(ids[:, None] == best, amp2, -1.0), axis=0)
    shared = {}  # one PatternClass per (pattern group, adjacency) of this call
    out = []
    for weight, pid, i in zip(weights.tolist(), best.tolist(), dominant.tolist()):
        if not weight > threshold or not patterns[pid]:
            # the n = 0 vacuum has no clump to name
            out.append(Classification(None, weight))
            continue
        key = (pid, adjacency_of(rows[i].tolist()))
        if key not in shared:
            shared[key] = PatternClass(patterns[pid], key[1])
        out.append(Classification(shared[key], weight))
    return out


@dataclass
class LabelledSpectrum:
    """The certified eigenvalues of one momentum block and the classification
    of each eigenvector at `threshold`; the eigenvectors are not kept."""

    k: MomentumIndex
    basis: MomentumBasis
    eigenvalues: np.ndarray
    residual_bound: float
    labels: list[Classification]
    threshold: float


def labelled_spectra(params: ModelParams, threshold: float = 0.5,
                     grid: list[MomentumIndex] | None = None,
                     sector: SectorOrbits | None = None) -> list[LabelledSpectrum]:
    """Eigenvalues and eigenvector labels of every momentum of `grid` (the
    whole grid by default), in grid order, solving each +-k pair once.

    A momentum whose reduced label r is >= 0 is solved through
    `momentum_spectra` and classified at once, so only one block's
    eigenvectors are alive at a time.  One with r < 0 whose partner -r is
    solved as well takes the partner's eigenvalues, residual bound and labels
    with its own momentum basis: block(-r) is the conjugate of block(r), and
    conjugate vectors carry the same weights on the same orbits.  A momentum
    whose partner is not requested (a single --k, say) is solved directly.
    """
    if sector is None:
        sector = SectorOrbits(params.f, params.n)
    if grid is None:
        grid = momentum_grid(params.f)
    r_of = [reduced_label(kidx.l, params.f) for kidx in grid]
    solved = {r: _labelled(momentum_spectra(params, True, sector, [kidx])[0], threshold)
              for kidx, r in zip(grid, r_of) if r >= 0 or -r not in r_of}
    return [solved[r] if r in solved else
            replace(solved[-r], k=kidx, basis=momentum_basis(params.f, params.n, kidx, sector))
            for kidx, r in zip(grid, r_of)]


def _labelled(ksp: KSpectrum, threshold: float) -> LabelledSpectrum:
    """`ksp` with its eigenvectors replaced by their labels; a function of its
    own, so that the eigenvectors are freed before the next block is solved."""
    spectrum = ksp.spectrum
    return LabelledSpectrum(
        ksp.k, ksp.basis, spectrum.eigenvalues, spectrum.residual_bound,
        classify_block(spectrum.eigenvectors, ksp.basis, threshold), threshold)


def _check_threshold(spectra: list[LabelledSpectrum], threshold: float) -> None:
    for ksp in spectra:
        if ksp.threshold != threshold:
            raise ValidationError(
                f"spectra were labelled at threshold {ksp.threshold!r}, not {threshold!r}")


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


@dataclass
class BandReport:
    """All eigenvalues attributed to one pattern, tagged per momentum."""

    pattern: tuple[int, ...]
    points: list[BandPoint]
    counts: dict[int, tuple[int, int]]  # l -> (selected, expected)
    pt_residuals: dict[int, float | None] | None  # None when no closed form applies
    overlap_notes: list[str] = field(default_factory=list)

    def points_at(self, l: int) -> list[BandPoint]:
        return [p for p in self.points if p.l == l]


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


def sector_pattern(params: ModelParams, pattern) -> tuple[int, ...]:
    """`pattern` largest first, checked to fit the sector of `params`."""
    pat = normalize_pattern(pattern)
    if sum(pat) != params.n:
        raise ValidationError(
            f"pattern {pat} holds {sum(pat)} bosons, the sector has n = {params.n}")
    if len(pat) > params.f:
        raise ValidationError(f"pattern {pat} needs more than f = {params.f} sites")
    return pat


def extract_band(params: ModelParams, pattern, threshold: float = 0.5,
                 on_overlap: str = "raise",
                 spectra: list[LabelledSpectrum] | None = None) -> BandReport:
    """Collect, per momentum, the eigenpairs dominated by one pattern.

    `spectra`, by default `labelled_spectra(params, threshold)`, must be
    labelled at `threshold`.  Two-clump patterns are tagged line/continuum by
    the adjacency of the dominant basis state; degenerate clusters with
    conflicting tags become "merged".  When fewer states than pattern classes
    are found at some momentum another band has mixed in; that raises
    BandOverlapError, or warns and reports the partial band when
    on_overlap="warn".  Closed perturbative band energies, when available,
    are compared against the selected exact ones in `pt_residuals`.
    """
    pat = sector_pattern(params, pattern)
    if on_overlap not in ("raise", "warn"):
        raise ValidationError(f"on_overlap must be 'raise' or 'warn', got {on_overlap!r}")
    two_clump = len(pat) == 2
    if spectra is None:
        spectra = labelled_spectra(params, threshold)
    _check_threshold(spectra, threshold)

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
        basis = ksp.basis
        _, ids, patterns = _pattern_groups(basis)
        expected = int(np.count_nonzero(ids == patterns.index(pat))) if pat in patterns else 0
        if basis.dim == 0:
            counts[ksp.k.l] = (0, expected)
            continue
        selected: list[tuple[int, float, Classification]] = []
        for idx, cls in enumerate(ksp.labels):
            if cls.pattern is not None and cls.pattern.pattern == pat:
                selected.append((idx, float(ksp.eigenvalues[idx]), cls))
        counts[ksp.k.l] = (len(selected), expected)
        if len(selected) < expected:
            note = (f"pattern {pat} at l = {ksp.k.l}: found {len(selected)} of "
                    f"{expected} states; another band overlaps or the threshold is too strict")
            if on_overlap == "raise":
                raise BandOverlapError(note)
            warnings.warn(note, stacklevel=2)
            notes.append(note)
        if two_clump:
            tags = ["line" if c.pattern.adjacency == "adjacent" else "continuum"
                    for _, _, c in selected]
        else:
            tags = ["n/a"] * len(selected)
        scale = max(1.0, float(np.abs(ksp.eigenvalues).max()))
        tags = _merge_degenerate_tags([e for _, e, _ in selected], tags, scale)
        for (idx, energy, cls), tag in zip(selected, tags):
            points.append(BandPoint(l=ksp.k.l, k=ksp.k.k, index=idx, energy=energy,
                                    weight=cls.weight, tag=tag))
        if pt_residuals is not None:
            reference = pt_eigs.get(ksp.k.l)
            if reference is not None and len(selected) == len(reference):
                exact = np.array([e for _, e, _ in selected])
                pt_residuals[ksp.k.l] = float(np.abs(exact - reference).max())
            else:
                pt_residuals[ksp.k.l] = None
    return BandReport(pattern=pat, points=points, counts=counts,
                      pt_residuals=pt_residuals, overlap_notes=notes)


# ------------------------------------------------------------- ground state


@dataclass(frozen=True)
class GroundState:
    l: int
    k: float
    energy: float
    classification: Classification


def ground_state(spectra: list[LabelledSpectrum], threshold: float = 0.5) -> GroundState:
    """Global minimum over all momentum blocks, with its classification;
    `spectra` must be labelled at `threshold`.  Of equal minima the first
    in grid order is kept."""
    _check_threshold(spectra, threshold)
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
    return GroundState(l=ksp.k.l, k=ksp.k.k, energy=energy, classification=ksp.labels[0])


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
    """Mass fit of the unique tagged member of a pattern band."""
    report = extract_band(params, pattern, threshold=threshold)
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

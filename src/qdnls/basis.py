"""Occupation basis for bosons on a periodic ring, translation orbits, momentum sectors.

The sector (f sites, n bosons) is enumerated in descending lexicographic
order, so the first state is |n 0 ... 0> and the last |0 ... 0 n>; a state's
index in that order is its rank, and `rank_rows` ranks a whole integer array.
`SectorOrbits` holds the sector as one integer table: occupation rows in rank
order, per-row orbit index and shift, orbit representatives, periods,
occupation patterns (`pattern_of`, ranked once per orbit), whether each
orbit is two adjacent clumps, and the single-boson `hops` out of any set of
rows.  An orbit is represented by its lexicographically maximal rotation
(the lowest rank), which puts the largest occupation first and matches the
usual class labels |22> or |202>.
The table ranks the sector once: the translation T, which moves the
occupation of site s to site s + 1 (mod f), maps the sector onto itself, so
the ranks of a row's f rotations are the powers of one permutation `step`
of the ranks.  Pointer doubling finds the lowest rank on each cycle of
`step`, which marks the representatives, and only their cycles are walked.
`canonical_rows` folds raw rows that need not form a sector, for the numeric
perturbation reference (with `hop_moves`, the single-boson moves out of each
row): it gathers all f rotations of a chunk of rows into one array and ranks
them in a single call.
A momentum basis is an index array into that table: the orbits, in sector
order, whose period admits the momentum.

The Bloch state attached to an orbit with representative |r> and period d at
crystal momentum k = 2 pi l / f is

    (1/sqrt(d)) * sum_{t=0}^{d-1} exp(-i k t) T^t |r>

and exists exactly when l * d = 0 (mod f).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

Occ = tuple[int, ...]

DEFAULT_STATE_CAP = 10**7
ROW_CHUNK = 256  # rows per chunk of canonical_rows' (rows * f, f) rotation temporaries


def check_sector(f, n):
    if isinstance(f, bool) or not isinstance(f, int) or f < 2:
        raise ValidationError(f"need an integer ring size f >= 2, got {f!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValidationError(f"need an integer boson count n >= 0, got {n!r}")


def sector_dimension(f: int, n: int) -> int:
    """Number of occupation vectors of length f summing to n."""
    check_sector(f, n)
    return math.comb(n + f - 1, n)


def _occupations(f: int, n: int) -> np.ndarray:
    """The (f, n) sector as a (dim, f) integer array in descending lexicographic order."""
    dim = sector_dimension(f, n)
    if dim > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"sector (f={f}, n={n}) has {dim} states, above the cap {DEFAULT_STATE_CAP}")
    occ = np.full((1, 1), n, dtype=np.int64)
    for _ in range(f - 1):
        # split the last column (bosons not yet placed) into the next site and
        # the rest, the next site taking the most bosons first
        rest = occ[:, -1]
        parent = np.repeat(np.arange(len(occ)), rest + 1)
        start = np.cumsum(rest + 1) - (rest + 1)
        head = rest[parent] - (np.arange(len(parent)) - start[parent])
        occ = np.column_stack([occ[parent, :-1], head, rest[parent] - head])
    return occ


@functools.lru_cache(maxsize=64)
def _rank_table(f: int, n: int) -> np.ndarray:
    """table[t, m] = comb(t - 1 + m, m) for t >= 1, and 0 for t = 0."""
    # row n + 1 bounds every rank, so a sector too large for int64 raises here
    table = np.array([[math.comb(t - 1 + m, m) if t else 0 for m in range(f)]
                      for t in range(n + 2)], dtype=np.int64)
    table.flags.writeable = False  # cached: every caller shares it
    return table


def pattern_of(state: Occ) -> tuple[int, ...]:
    """Multiset of nonzero site occupations, largest first."""
    return tuple(sorted(filter(None, state), reverse=True))


def normalize_pattern(pattern) -> tuple[int, ...]:
    """`pattern` largest first, checked to hold positive counts only."""
    pat = tuple(sorted((int(c) for c in pattern), reverse=True))
    if not pat or any(c < 1 for c in pat):
        raise ValidationError(f"pattern entries must be positive integers, got {tuple(pattern)!r}")
    return pat


def rank_rows(rows) -> np.ndarray:
    """Index of each occupation row in the descending-lex enumeration of its sector.

    A state is preceded by every state that shares its sites 0 .. j-1 and holds
    more bosons on site j.  With t bosons on the m = f - 1 - j sites after j
    there are comb(t - 1 + m, m) such states; the rank sums them over j.
    """
    rows = np.asarray(rows, dtype=np.int64)
    f = rows.shape[1]
    after = np.cumsum(rows[:, :0:-1], axis=1)[:, ::-1]  # bosons on the sites after j < f - 1
    table = _rank_table(f, int(after.max(initial=0)))
    return table[after, np.arange(f - 1, 0, -1)].sum(axis=1)


def _fold_rotations(rot):
    """(rep_rank, shift, period) from rot[i, t], the rank of T^t |row i>: the
    representative is the lowest-rank rotation, first reached at t0 so that
    |row> = T^(-t0) |rep>, and its rank recurs f / period times."""
    rep_rank = rot.min(axis=1)
    period = rot.shape[1] // (rot == rep_rank[:, None]).sum(axis=1)
    return rep_rank, -rot.argmin(axis=1) % period, period


def canonical_rows(rows):
    """Canonical form of each occupation row over its f rotations, as arrays
    (rep_rank, shift, period): the rank of its representative (its lowest-rank
    rotation), the shift u with row == T^u rep and 0 <= u < period,
    and the period of its orbit.  Rows may come from different sectors.

    The f rotations of ROW_CHUNK rows at a time are gathered into one
    (rows * f, f) array and ranked by one `rank_rows` call, so the number of
    calls does not grow with f and the temporaries stay bounded.
    """
    rows = np.asarray(rows, dtype=np.int64)
    f = rows.shape[1]
    # rows[:, turn[t]] is T^t of each row: site s holds site (s - t) mod f
    turn = (np.arange(f) - np.arange(f)[:, None]) % f
    rot = np.empty((len(rows), f), dtype=np.int64)
    for a in range(0, len(rows), ROW_CHUNK):
        turned = rows[a:a + ROW_CHUNK, turn].reshape(-1, f)  # (rows * f, f)
        rot[a:a + ROW_CHUNK] = rank_rows(turned).reshape(-1, f)
    return _fold_rotations(rot)


def hop_moves(occ):
    """Single-boson moves out of occupation rows, as arrays (src, moved, amp).

    One entry per boson moved from site s to s + 1 and to s - 1 (mod f), in
    (row, site, direction) order with +1 first: `src` indexes the input rows,
    `moved` is the destination row and `amp` the bosonic amplitude
    sqrt(n_s (n_t + 1)).  The hopping term puts -epsilon * amp at
    H[moved, row]; on f = 2 both directions reach the same state.
    """
    occ = np.asarray(occ, dtype=np.int64)
    f = occ.shape[1]
    # nonzero walks (row, site, direction) in C order; direction 0 is s + 1
    src, s, d = np.nonzero(np.broadcast_to(occ[:, :, None] > 0, (*occ.shape, 2)))
    t = (s + 1 - 2 * d) % f
    moved = occ[src]
    at = np.arange(len(src))
    moved[at, s] -= 1
    moved[at, t] += 1
    return src, moved, np.sqrt(occ[src, s] * (occ[src, t] + 1.0))


@dataclass(frozen=True)
class TranslationOrbit:
    """Equivalence class of a state under ring translations."""

    rep: Occ
    period: int


class SectorOrbits:
    """Integer table of one (f, n) sector and its translation orbits.

    `occ[i]` is the state of rank i.  Orbits are ordered by representative;
    orbit g has representative row `reps[g]` and period `periods[g]`, and
    `orbits[g]` carries both as a TranslationOrbit.  Every row i satisfies
    occ[i] == T^shift_of[i] orbits[orbit_of[i]].rep with
    0 <= shift_of[i] < period.  These equal `canonical_rows(occ)`, read off the
    translation permutation of the ranks instead of f rankings: ceil(log2 f)
    pointer-doubling rounds over the sector, then one (orbits, f) walk from
    the representatives.  Orbit g has
    occupation pattern `patterns[pattern_ids[g]]`; `patterns` runs largest first.
    `adjacent[g]` holds when orbit g is two clumps on neighbouring sites.
    """

    def __init__(self, f: int, n: int):
        occ = _occupations(f, n)
        self.f, self.n, self.dim, self.occ = f, n, len(occ), occ
        step = rank_rows(np.roll(occ, 1, axis=1))  # T maps the sector onto itself
        # lowest rank on each cycle of step by pointer doubling: after round r,
        # low[i] = min of step^t(i) over 0 <= t < 2^r, and a cycle has at most f ranks
        low, jump = np.arange(self.dim), step
        for _ in range((f - 1).bit_length()):
            low, jump = np.minimum(low, low[jump]), jump[jump]
        self.reps = np.flatnonzero(low == np.arange(self.dim))
        # walk[g, t] is the rank of T^t reps[g]; its first periods[g] steps cover orbit g once
        walk = np.empty((len(self.reps), f), dtype=np.int64)
        walk[:, 0] = self.reps
        for t in range(1, f):
            walk[:, t] = step[walk[:, t - 1]]
        self.periods = f // (walk == self.reps[:, None]).sum(axis=1)
        g, t = np.nonzero(np.arange(f) < self.periods[:, None])
        self.orbit_of = np.empty(self.dim, dtype=np.int64)
        self.shift_of = np.empty(self.dim, dtype=np.int64)
        members = walk[g, t]
        self.orbit_of[members] = g
        self.shift_of[members] = t
        rep_rows = occ[self.reps]
        self.orbits = [TranslationOrbit(rep=tuple(r), period=d)
                       for r, d in zip(rep_rows.tolist(), self.periods.tolist())]
        # a representative sorted largest first is a state of the sector whose
        # rank keys its pattern; ranks ascend as patterns descend
        _, first, self.pattern_ids = np.unique(rank_rows(-np.sort(-rep_rows, axis=1)),
                                               return_index=True, return_inverse=True)
        self.patterns = [pattern_of(self.orbits[g].rep) for g in first.tolist()]
        # a representative holds its largest clump on site 0, so a second clump
        # is adjacent on site 1 or, around the ring, on site f - 1
        occupied = rep_rows > 0
        self.adjacent = (occupied.sum(axis=1) == 2) & (occupied[:, 1] | occupied[:, -1])

    def hops(self, rows):
        """Single-boson hops out of the given rows, as arrays (src, dst, amp):
        the `hop_moves` of their occupations, each destination as its rank."""
        rows = np.asarray(rows, dtype=np.int64)
        src, moved, amp = hop_moves(self.occ[rows])
        return rows[src], rank_rows(moved), amp


@dataclass(frozen=True)
class MomentumIndex:
    """Crystal momentum label l on an f-site ring; k = 2 pi l / f."""

    l: int
    f: int

    def __post_init__(self):
        if not isinstance(self.f, int) or self.f < 2:
            raise ValidationError(f"ring size must be an integer >= 2, got {self.f!r}")
        if not isinstance(self.l, int):
            raise ValidationError(f"momentum label must be an integer, got {self.l!r}")

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.l / self.f


def momentum_grid(f: int) -> list[MomentumIndex]:
    """Conventional momentum labels: -sigma .. sigma for odd f = 2 sigma + 1, else 0 .. f-1."""
    check_sector(f, 0)
    if f % 2:
        sigma = (f - 1) // 2
        return [MomentumIndex(l, f) for l in range(-sigma, sigma + 1)]
    return [MomentumIndex(l, f) for l in range(f)]


@dataclass
class MomentumBasis:
    """Bloch-symmetrized orbit basis of one momentum sector: basis vector j is
    the Bloch state of orbit `orbit_indices[j]` of `sector`."""

    k: MomentumIndex
    sector: SectorOrbits
    orbit_indices: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.orbit_indices)


def momentum_basis(f: int, n: int, k: MomentumIndex, sector: SectorOrbits | None = None) -> MomentumBasis:
    """Orbits of the (f, n) sector that carry momentum k (l * period = 0 mod f),
    in sector order."""
    if sector is None:
        sector = SectorOrbits(f, n)
    if (sector.f, sector.n) != (f, n) or k.f != f:
        raise ValidationError("sector and momentum index do not match the requested (f, n)")
    return MomentumBasis(k=k, sector=sector,
                         orbit_indices=np.flatnonzero(k.l * sector.periods % f == 0))

"""Occupation basis for bosons on a periodic ring, translation orbits, momentum sectors.

A sector (f sites, n bosons) is ordered descending lexicographically, from
|n 0 ... 0> to |0 ... 0 n>; a state's index in that order is its rank, and
`rank_rows` ranks a whole integer array column by column.  An orbit of the
translation T, which moves the occupation of site s to site s + 1 (mod f),
is represented by its lexicographically maximal rotation (the lowest rank),
which puts the largest occupation first, as in the class labels |22> or |202>.
One generator, `_necklaces`, grows the representatives, each once and in rank
order, by the Fredricksen-Kessler-Maiorana prenecklace rule (Ruskey, Savage &
Wang, J. Algorithms 13, 414 (1992); Sawada, Theor. Comput. Sci. 301, 477
(2003)): a sector's in `SectorOrbits`, which holds orbits, not states, and one
pattern's in `pattern_classes`.  `canonical_rows` folds arbitrary rows, such as
hop destinations, onto their orbits.  Only the dense oracle enumerates the
states (`_occupations`, f - 1 passes over 1-D arrays).  The table depends on
f and n only, so the exact path builds each one once: `sector_orbits(f, n)` is
the memo it reads, and `sector_pattern` checks a pattern without a table.
`class_fold` is the one hop table every Bloch block, exact or perturbative, is
built from: the moves out of a family of orbit representatives (`hop_moves`)
folded onto their destination orbits, memoized.  A momentum basis is an index
array into the shared table's orbits: those, in sector order, whose period
admits the momentum.  `check_momentum` is the one check that a momentum
belongs to the ring, for every caller.

The Bloch state attached to an orbit with representative |r> and period d at
crystal momentum k = 2 pi l / f is

    (1/sqrt(d)) * sum_{t=0}^{d-1} exp(-i k t) T^t |r>

and exists exactly when l * d = 0 (mod f).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError

Occ = tuple[int, ...]

DEFAULT_STATE_CAP = 10**7
ROW_CHUNK = 256  # rows per chunk of canonical_rows' (at most rows * f, f) rotation temporaries


def check_sector(f, n):
    if isinstance(f, bool) or not isinstance(f, int) or f < 2:
        raise ValidationError(f"need an integer ring size f >= 2, got {f!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValidationError(f"need an integer boson count n >= 0, got {n!r}")


def sector_dimension(f: int, n: int) -> int:
    """Number of occupation vectors of length f summing to n."""
    check_sector(f, n)
    return math.comb(n + f - 1, n)


def _capped_dimension(f: int, n: int) -> int:
    """`sector_dimension`, refused above DEFAULT_STATE_CAP states."""
    dim = sector_dimension(f, n)
    if dim > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"sector (f={f}, n={n}) has {dim} states, above the cap {DEFAULT_STATE_CAP}")
    return dim


def _occupations(f: int, n: int) -> np.ndarray:
    """The (f, n) sector as a (dim, f) integer array in descending lexicographic order.

    Pass j splits each prefix's unplaced bosons between site j (`head`, most
    first) and the rest; the table is written once, walking `parent` back.
    """
    dim = _capped_dimension(f, n)
    rest, passes = np.full(1, n, dtype=np.int64), []
    for _ in range(f - 1):
        parent = np.repeat(np.arange(len(rest)), rest + 1)
        start = np.cumsum(rest + 1) - (rest + 1)
        rest = rest[parent]
        head = rest - (np.arange(len(parent)) - start[parent])
        rest -= head
        passes.append((head, parent))
    occ = np.empty((dim, f), dtype=np.int64)
    occ[:, -1] = rest
    at = np.arange(dim)
    for j, (head, parent) in reversed(list(enumerate(passes))):
        occ[:, j] = head[at]
        at = parent[at]
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
    """`pattern` largest first, checked to hold positive ints only (no bools, floats, strings)."""
    pattern = tuple(pattern)
    if not pattern or not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool)
                              and c >= 1 for c in pattern):
        raise ValidationError(f"pattern entries must be positive integers, got {pattern!r}")
    return tuple(sorted((int(c) for c in pattern), reverse=True))


def sector_pattern(f: int, n: int, pattern) -> tuple[int, ...]:
    """`pattern` largest first, checked to be that of some orbit of the (f, n)
    sector: n bosons in at most f clumps.  It builds no sector table."""
    pat = normalize_pattern(pattern)
    if sum(pat) != n:
        raise ValidationError(f"pattern {pat} holds {sum(pat)} bosons, the sector has n = {n}")
    if len(pat) > f:
        raise ValidationError(f"pattern {pat} needs more than f = {f} sites")
    return pat


def _occupation_rows(rows) -> np.ndarray:
    """`rows` as int64, checked to be a 2-D integer (not bool) array, not empty nor negative."""
    try:
        rows = np.asarray(rows)
    except ValueError:
        raise ValidationError("occupation rows must be a 2-D integer array, not ragged") from None
    if rows.ndim != 2 or rows.dtype.kind not in "iu" or not rows.shape[1]:
        raise ValidationError("occupation rows must be a 2-D integer array with a column, "
                              f"got {rows.dtype} of shape {rows.shape}")
    if (rows := rows.astype(np.int64, copy=False)).min(initial=0) < 0:
        raise ValidationError("occupation rows must not hold negative entries")
    return rows


def rank_rows(rows) -> np.ndarray:
    """Index of each occupation row in the descending-lex enumeration of its sector.

    A state is preceded by every state that shares its sites 0 .. j-1 and holds
    more bosons on site j.  With t bosons on the m = f - 1 - j sites after j
    there are comb(t - 1 + m, m) such states; the rank sums them over j, one
    column at a time with a running count `after` of the bosons after site j.
    """
    rows = _occupation_rows(rows)
    f = rows.shape[1]
    after = rows[:, 1:].sum(axis=1)  # bosons on the sites after site 0
    # one table per largest boson count, shared by every chunk of a sector
    table = _rank_table(f, int((after + rows[:, 0]).max(initial=0)))
    rank = table[:, f - 1].take(after)
    for j in range(1, f - 1):
        after -= rows[:, j]
        rank += table[:, f - 1 - j].take(after)
    return rank


def canonical_rows(rows):
    """Canonical form of each occupation row over its f rotations, as arrays
    (rep_rank, shift, period): the rank of its representative (its lowest-rank
    rotation), the shift u with row == T^u rep and 0 <= u < period,
    and the period of its orbit.  Rows may come from different sectors.

    A representative holds a largest entry on site 0, so only the rotations
    that bring one there are ranked, ROW_CHUNK rows at a time in one
    `rank_rows` call, whatever f.  f / period of them reach the
    representative, and each one's site h gives row == T^h rep.
    """
    rows = _occupation_rows(rows)
    f = rows.shape[1]
    rep_rank, shift, period = (np.empty(len(rows), dtype=np.int64) for _ in range(3))
    turn = (np.arange(f) + np.arange(f)[:, None]) % f  # row[turn[h]] is T^(-h) row
    for a in range(0, len(rows), ROW_CHUNK):
        chunk = rows[a:a + ROW_CHUNK]
        row, site = np.nonzero(chunk == chunk.max(axis=1, keepdims=True))
        # every row has a largest entry, so each row starts one run of `row`
        start = np.searchsorted(row, np.arange(len(chunk)))
        rank = rank_rows(chunk.ravel()[turn[site] + f * row[:, None]])
        low = np.minimum.reduceat(rank, start)
        hit = rank == low[row]
        at = slice(a, a + len(chunk))
        rep_rank[at] = low
        period[at] = f // np.bincount(row[hit], minlength=len(chunk))
        shift[at] = np.maximum.reduceat(np.where(hit, site, 0), start) % period[at]
    return rep_rank, shift, period


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


class ClassFold(NamedTuple):
    """The hops out of a family of class rows, folded onto their destination
    orbits; it depends on neither the momentum nor the couplings.
    Per hop: `src`, `amp`, `ratio` = sqrt(class period / destination period),
    `shift` (destination == T^shift of its representative) and `row`, its
    destination orbit.  Per destination orbit, in representative rank order:
    `period`, `slot` (the class it is, or -1) and `rep_rows`."""

    not_rep: int  # the first class row that is not its own representative, or -1
    p_period: np.ndarray
    repeated: np.ndarray  # whether each class equals an earlier one
    src: np.ndarray
    amp: np.ndarray
    ratio: np.ndarray
    shift: np.ndarray
    row: np.ndarray
    period: np.ndarray
    slot: np.ndarray
    rep_rows: np.ndarray


@functools.lru_cache(maxsize=64)
def class_fold(f: int, key: bytes) -> ClassFold:
    """The `ClassFold` of the int64 class rows whose bytes are `key`: one
    `hop_moves` and one `canonical_rows` call, memoized, so every Bloch block
    over the same classes shares them."""
    p_rows = np.frombuffer(key, dtype=np.int64).reshape(-1, f)
    m = len(p_rows)
    src, moved, amp = hop_moves(p_rows)
    # the class rows and every hop destination, folded onto their orbits at once
    rank, shift, period = canonical_rows(np.concatenate([p_rows, moved]))
    p_rank, p_period = rank[:m], period[:m]
    d_shift, d_period = shift[m:], period[m:]
    off = np.flatnonzero(shift[:m])  # a representative is its own shift-0 rotation
    # one row per destination orbit, in representative rank order
    ranks, first, row = np.unique(rank[m:], return_index=True, return_inverse=True)
    # the first class of each class rank, found for each class and destination orbit
    p_ranks, p_first = np.unique(p_rank, return_index=True)
    at = np.searchsorted(p_ranks, ranks).clip(max=len(p_ranks) - 1)
    fold = ClassFold(
        not_rep=int(off[0]) if off.size else -1,
        p_period=p_period,
        repeated=p_first[np.searchsorted(p_ranks, p_rank)] < np.arange(m),
        src=src, amp=amp, ratio=np.sqrt(p_period[src] / d_period), shift=d_shift, row=row,
        period=d_period[first],
        slot=np.where(p_ranks[at] == ranks, p_first[at], -1),
        # rep[s] = dst[s + u]
        rep_rows=moved[first[:, None], (np.arange(f) + d_shift[first, None]) % f])
    for a in fold[1:]:
        a.flags.writeable = False  # cached: every call with these classes shares it
    return fold


def _necklaces(f: int, n: int, counts=None):
    """The representatives (lex-max rotations) of the (f, n) sector's orbits
    and their periods, in rank order; given `counts`, only those with
    occupation v on counts[v] sites.  The prenecklace rule, largest digit
    first, grows all prefixes a site at a time: with its Lyndon-prefix length
    p, a prefix's digit at site t is at most a[t - p] (p stays on equality and
    becomes t + 1 below it) and the bosons left, and at least what the sites
    after t cannot hold at a[0].  Children come out in descending digit order,
    and the rows with f % p == 0 are kept, with period p."""
    rows, period = np.zeros((1, f), dtype=np.int64), np.ones(1, dtype=np.int64)
    left, have = np.full(1, n), None if counts is None else counts[None]
    for t in range(f):
        ref = rows[np.arange(len(rows)), t - period] if t else left
        top = np.minimum(ref, left)  # a[0] runs from n down to ceil(n / f)
        low = np.maximum(left - (f - 1 - t) * rows[:, 0], 0) if t else -(-n // f)
        width = (top - low + 1).clip(min=0)
        parent = np.repeat(np.arange(len(rows)), width)
        digit = top[parent] - (np.arange(len(parent)) - (np.cumsum(width) - width)[parent])
        if have is not None:
            keep = have[parent, digit] > 0
            parent, digit = parent[keep], digit[keep]
            have = have[parent]
            have[np.arange(len(parent)), digit] -= 1
        period = np.where(digit == ref[parent], period[parent], t + 1)
        rows = rows[parent]
        rows[:, t] = digit
        left = left[parent] - digit
    keep = f % period == 0
    return rows[keep], period[keep]


def pattern_classes(f: int, pattern):
    """The orbits of one occupation pattern (clump sizes in any order) on an
    f-site ring, as arrays (reps, periods) in sector order: `_necklaces`, the
    Fredricksen-Kessler-Maiorana prenecklace rule (Ruskey, Savage & Wang 1992;
    Sawada 2003), filtered by the pattern's clump counts left.  Their rotations
    with the first clump on site 0 are counted and refused above the cap."""
    check_sector(f, 0)
    pattern = tuple(pattern)
    pattern = normalize_pattern(pattern) if pattern else ()
    rest = pattern[1:]  # on sites 1 .. f - 1, in their distinct orders
    count = math.perm(f - 1, len(rest)) // math.prod(
        map(math.factorial, map(rest.count, set(rest))))
    if count > DEFAULT_STATE_CAP:
        raise CapacityError(f"the classes of {[pattern]} on f={f} take {count} rows to list, "
                            f"above the cap {DEFAULT_STATE_CAP}")
    counts = np.bincount(pattern + (0,) * (f - len(pattern)), minlength=sum(pattern) + 1)
    return _necklaces(f, sum(pattern), counts)


class TranslationOrbit(NamedTuple):
    """Equivalence class of a state under ring translations."""

    rep: Occ
    period: int


class SectorOrbits:
    """The translation orbits of one (f, n) sector, not its `dim` states, each
    generated once and in rank order by `_necklaces`, the Fredricksen-Kessler-
    Maiorana prenecklace rule (Ruskey, Savage & Wang 1992; Sawada 2003).
    Orbit g has the representative of rank `reps[g]` and row `rep_rows[g]`,
    period `periods[g]` (both in `orbits[g]`) and pattern
    `patterns[pattern_ids[g]]`, where `patterns` lists every pattern of n with
    at most f clumps, largest first; `adjacent[g]` holds when it is two clumps
    on neighbouring sites.  The arrays are read-only: the exact path shares one
    table per (f, n), `sector_orbits(f, n)`."""

    def __init__(self, f: int, n: int):
        self.f, self.n, self.dim = f, n, _capped_dimension(f, n)
        self.rep_rows, self.periods = _necklaces(f, n)
        self.reps = rank_rows(self.rep_rows)
        # each orbit's pattern, zero-padded: the ranks rise as the patterns fall
        sizes = -np.sort(-self.rep_rows, axis=1)
        _, first, self.pattern_ids = np.unique(rank_rows(sizes), return_index=True,
                                               return_inverse=True)
        self.patterns = [tuple(filter(None, row)) for row in sizes[first].tolist()]
        self.orbits = list(map(TranslationOrbit, map(tuple, self.rep_rows.tolist()),
                               self.periods.tolist()))
        # a representative holds its largest clump on site 0, so a second clump
        # is adjacent on site 1 or, around the ring, on site f - 1
        occupied = self.rep_rows > 0
        self.adjacent = (occupied.sum(axis=1) == 2) & (occupied[:, 1] | occupied[:, -1])
        for a in (self.reps, self.rep_rows, self.periods, self.pattern_ids, self.adjacent):
            a.flags.writeable = False


@functools.lru_cache(maxsize=8, typed=True)
def sector_orbits(f: int, n: int) -> SectorOrbits:
    """The `SectorOrbits` table of the (f, n) sector, built once and shared by
    every momentum basis of the sector.  The key is typed, so 2.0 or True
    never finds the table of 2 or 1: it misses and `SectorOrbits` rejects it."""
    return SectorOrbits(f, n)


@dataclass(frozen=True)
class MomentumIndex:
    """Crystal momentum label l on an f-site ring; k = 2 pi l / f."""

    l: int
    f: int

    def __post_init__(self):
        check_sector(self.f, 0)
        if isinstance(self.l, bool) or not isinstance(self.l, int):
            raise ValidationError(f"momentum label must be an integer, got {self.l!r}")

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.l / self.f


def check_momentum(f: int, k) -> MomentumIndex:
    """`k`, checked to be a `MomentumIndex` of the f-site ring."""
    if not isinstance(k, MomentumIndex):
        raise ValidationError(f"a ring momentum needs a MomentumIndex, got {k!r}")
    if k.f != f:
        raise ValidationError(f"momentum index on f={k.f} does not match the ring f={f}")
    return k


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
    the Bloch state of orbit `orbit_indices[j]` of `sector`, the shared
    `sector_orbits` table."""

    k: MomentumIndex
    sector: SectorOrbits
    orbit_indices: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.orbit_indices)


def momentum_basis(f: int, n: int, k: MomentumIndex) -> MomentumBasis:
    """Orbits of the (f, n) sector that carry momentum k (l * period = 0 mod f),
    in sector order."""
    check_momentum(f, k)
    sector = sector_orbits(f, n)
    return MomentumBasis(k=k, sector=sector,
                         orbit_indices=np.flatnonzero(k.l * sector.periods % f == 0))

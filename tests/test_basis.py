"""Enumeration, ranking, translation orbits, and momentum bases."""

import cmath
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdnls import (
    CapacityError,
    MomentumIndex,
    SectorOrbits,
    ValidationError,
    momentum_grid,
    pattern_classes,
    sector_dimension,
)
import qdnls.basis as basis_module
from qdnls.basis import (
    ROW_CHUNK,
    TranslationOrbit,
    _occupations,
    canonical_rows,
    momentum_basis,
    pattern_of,
    rank_rows,
    sector_orbits,
)

SMALL_SECTORS = [(2, 1), (3, 2), (4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (7, 5)]


def sectors(draw_f=st.integers(2, 7), draw_n=st.integers(0, 6)):
    return st.tuples(draw_f, draw_n)


def enumerate_sector(f, n):
    """The states of a sector as tuples, in the table's (rank) order."""
    return [tuple(row) for row in _occupations(f, n).tolist()]


def rank(state):
    return int(rank_rows([state])[0])


def locate(sector, state):
    """(orbit index g, shift u) with state == T^u orbits[g].rep."""
    rep_rank, shift, _ = canonical_rows([state])
    return int(np.searchsorted(sector.reps, rep_rank[0])), int(shift[0])


def translate(state, t):
    """T^t: site s of the output holds site (s - t) mod f of the input."""
    t %= len(state)
    return tuple(state[-t:] + state[:-t]) if t else tuple(state)


def rotations(state):
    """The distinct rotations of a state."""
    return {translate(state, t) for t in range(len(state))}


def orbit_of(state):
    """(lex-maximal representative, period) of a state's translation orbit."""
    members = rotations(state)
    return max(members), len(members)


# ----------------------------------------------------------------- enumeration


def test_dimension_matches_combinatorics():
    assert sector_dimension(19, 4) == math.comb(22, 4) == 7315
    assert sector_dimension(11, 6) == math.comb(16, 6) == 8008
    assert sector_dimension(2, 1) == 2


def test_enumeration_order_and_extremes():
    states = enumerate_sector(4, 3)
    assert len(states) == sector_dimension(4, 3)
    assert states[0] == (3, 0, 0, 0)
    assert states[-1] == (0, 0, 0, 3)
    # strictly descending lexicographic order
    assert all(a > b for a, b in zip(states, states[1:]))
    assert all(sum(s) == 3 and len(s) == 4 for s in states)


def occupations_by_product(f, n):
    """Every row of f counts in 0 .. n summing to n, sorted descending."""
    rows = sorted((row for row in itertools.product(range(n + 1), repeat=f) if sum(row) == n),
                  reverse=True)
    return np.array(rows, dtype=np.int64).reshape(len(rows), f)


@pytest.mark.parametrize("f,n", [(f, n) for f in range(2, 8) for n in range(5)]
                         + [(2, 6), (3, 6), (5, 6)])
def test_occupations_equal_an_independent_enumeration(f, n):
    got, want = _occupations(f, n), occupations_by_product(f, n)
    assert got.dtype == want.dtype and got.shape == want.shape == (sector_dimension(f, n), f)
    assert np.array_equal(got, want)


def test_occupations_check_the_cap_before_allocating():
    # 3.5e16 states: an allocation before the check could not succeed
    with pytest.raises(CapacityError, match="above the cap"):
        _occupations(200, 10)


def test_high_filling_sectors_build_in_memory_of_order_dim_times_f():
    # n >> f: every array the build holds is (dim, f) or smaller, none (dim, n);
    # _occupations(3, 400) is a (80601, 3) table of 1.9 MB, a (dim, n) one 258 MB
    tracemalloc.start()
    try:
        occ = _occupations(3, 400)
        sector = SectorOrbits(2, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.shape == (80601, 3) and sector.dim == 2001
    assert peak < 16 * occ.nbytes


def occupations_by_column_stack(f, n):
    """The f - 1-pass construction that copies the growing table every pass."""
    occ = np.full((1, 1), n, dtype=np.int64)
    for _ in range(f - 1):
        rest = occ[:, -1]
        parent = np.repeat(np.arange(len(occ)), rest + 1)
        start = np.cumsum(rest + 1) - (rest + 1)
        head = rest[parent] - (np.arange(len(parent)) - start[parent])
        occ = np.column_stack([occ[parent, :-1], head, rest[parent] - head])
    return occ


@pytest.mark.parametrize("f,n", [(19, 4), (23, 4), (13, 6), (3, 400), (2, 2000)])
def test_occupations_equal_the_column_stack_construction(f, n):
    got, want = _occupations(f, n), occupations_by_column_stack(f, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("f,n", [(23, 4), (13, 6)])
def test_sector_tables_build_in_memory_of_a_few_tables(f, n):
    # the orbits are listed from their patterns' class rows, so the build
    # holds less than one (dim, f) table of the sector's states
    tracemalloc.start()
    try:
        sector = SectorOrbits(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * f * sector.dim


def test_enumeration_respects_cap(monkeypatch):
    monkeypatch.setattr("qdnls.basis.DEFAULT_STATE_CAP", 10)
    with pytest.raises(CapacityError, match="20 states, above the cap 10"):
        SectorOrbits(4, 3)
    assert SectorOrbits(3, 2).dim == 6  # a sector at or below the cap is built


def test_invalid_sectors_rejected():
    with pytest.raises(ValidationError):
        SectorOrbits(1, 2)
    with pytest.raises(ValidationError):
        SectorOrbits(3, -1)


@given(sectors())
@settings(max_examples=40, deadline=None)
def test_rank_round_trip(fn):
    f, n = fn
    states = enumerate_sector(f, n)
    for i, state in enumerate(states):
        assert rank(state) == i


def rank_rows_by_suffix_table(rows):
    """rank_rows from the (rows, f - 1) table of every row's suffix sums."""
    rows = np.asarray(rows, dtype=np.int64)
    f = rows.shape[1]
    after = np.cumsum(rows[:, :0:-1], axis=1)[:, ::-1]  # bosons on the sites after j < f - 1
    table = np.array([[math.comb(t - 1 + m, m) if t else 0 for m in range(f)]
                      for t in range(int(after.max(initial=0)) + 1)], dtype=np.int64)
    return table[after, np.arange(f - 1, 0, -1)].sum(axis=1)


def test_rank_rows_rejects_negative_entries():
    # a negative count of the bosons after a site would index the rank
    # table from its end: [3, -1, 2] ranked as another state of (3, 4)
    with pytest.raises(ValidationError, match="negative"):
        rank_rows([[3, -1, 2]])
    with pytest.raises(ValidationError, match="negative"):
        canonical_rows(np.array([[0, 2, 1], [1, 1, -1]]))


def test_one_rank_table_serves_every_chunk_of_a_sector(monkeypatch):
    # the table is keyed on the rows' largest boson count, not on the
    # largest count after site 0, which differs from chunk to chunk
    monkeypatch.setattr(basis_module, "_rank_table",
                        functools.lru_cache(maxsize=64)(basis_module._rank_table.__wrapped__))
    SectorOrbits(3, 400)
    assert basis_module._rank_table.cache_info().misses == 1


def mixed_rows(f):
    """Up to 40 rows of f sites, each from its own sector, with at most top <= 5
    bosons a site, so that their largest rank comb(n + f - 1, f - 1) fits int64."""
    top = max(t for t in range(6) if math.comb(t * (f - 1) + f - 1, f - 1) < 2**63)
    return st.lists(st.lists(st.integers(0, top), min_size=f, max_size=f), max_size=40).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), f))


@given(st.integers(2, 23).flatmap(mixed_rows))
@example(np.zeros((0, 2), dtype=np.int64))
@example(np.zeros((0, 23), dtype=np.int64))
@settings(max_examples=80, deadline=None)
def test_rank_rows_equal_the_suffix_table_on_mixed_sectors(rows):
    got, want = rank_rows(rows), rank_rows_by_suffix_table(rows)
    assert got.dtype == want.dtype and got.shape == want.shape == (len(rows),)
    assert np.array_equal(got, want)


# ------------------------------------------------------------------- translate


@given(sectors(draw_n=st.integers(1, 6)), st.integers(-10, 10), st.integers(-10, 10))
@settings(max_examples=60, deadline=None)
def test_translate_composes(fn, t, u):
    f, n = fn
    state = enumerate_sector(f, n)[0]
    assert translate(translate(state, t), u) == translate(state, t + u)
    assert translate(state, f) == state


def test_translate_moves_rightward():
    assert translate((3, 1, 0, 0), 1) == (0, 3, 1, 0)
    assert translate((3, 1, 0, 0), -1) == (1, 0, 0, 3)


# ---------------------------------------------------------------------- orbits


@pytest.mark.parametrize("f,n", SMALL_SECTORS)
def test_orbits_partition_the_sector(f, n):
    sector = SectorOrbits(f, n)
    states = enumerate_sector(f, n)
    assert sum(orb.period for orb in sector.orbits) == len(states)
    seen = set()
    for orb in sector.orbits:
        members = rotations(orb.rep)
        assert len(members) == orb.period
        assert not members & seen
        seen |= members
        # representative is the lexicographically largest rotation
        assert orb.rep == max(members)
        assert f % orb.period == 0
    assert seen == set(states)


@pytest.mark.parametrize("f,n", SMALL_SECTORS)
def test_locate_gives_rep_and_shift(f, n):
    sector = SectorOrbits(f, n)
    for state in enumerate_sector(f, n):
        gi, shift = locate(sector, state)
        assert translate(sector.orbits[gi].rep, shift) == state
        assert 0 <= shift < sector.orbits[gi].period


@given(st.integers(2, 9), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_sector_keys_each_orbit_pattern_once(f, n):
    sector = SectorOrbits(f, n)
    assert len(sector.pattern_ids) == len(sector.orbits)
    for g, orb in enumerate(sector.orbits):
        assert sector.patterns[sector.pattern_ids[g]] == pattern_of(orb.rep)
    assert all(a > b for a, b in zip(sector.patterns, sector.patterns[1:]))
    assert sorted(set(sector.pattern_ids.tolist())) == list(range(len(sector.patterns)))


@given(st.integers(2, 8).flatmap(lambda f: st.lists(
    st.lists(st.integers(0, 4), min_size=f, max_size=f), min_size=1, max_size=6)))
@settings(max_examples=60, deadline=None)
def test_canonical_rows_fold_raw_rows_of_any_sector(rows):
    rep_rank, shift, period = canonical_rows(rows)
    for row, r, u, d in zip(rows, rep_rank.tolist(), shift.tolist(), period.tolist()):
        rep, want_period = orbit_of(tuple(row))
        assert (rank(rep), d) == (r, want_period)
        assert translate(rep, u) == tuple(row) and 0 <= u < d


def canonical_rows_by_rotation(rows):
    """canonical_rows as f separate rankings, one per rotation of the rows."""
    rows = np.asarray(rows, dtype=np.int64)
    f = rows.shape[1]
    rot = np.stack([rank_rows(np.roll(rows, t, axis=1)) for t in range(f)], axis=1)
    rep_rank = rot.min(axis=1)
    period = f // (rot == rep_rank[:, None]).sum(axis=1)
    return rep_rank, -rot.argmin(axis=1) % period, period


def assert_canonical_rows_as_by_rotation(rows):
    for got, want in zip(canonical_rows(rows), canonical_rows_by_rotation(rows)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("f", [2, 3, 7])
def test_canonical_rows_of_no_rows(f):
    assert_canonical_rows_as_by_rotation(np.zeros((0, f), dtype=np.int64))


def test_canonical_rows_on_two_sites():
    rows = [(a, b) for a in range(7) for b in range(7)]
    assert_canonical_rows_as_by_rotation(rows)
    rep_rank, shift, period = canonical_rows(rows)
    assert period.tolist() == [1 if a == b else 2 for a, b in rows]


@given(st.integers(2, 12).flatmap(lambda f: st.lists(
    st.lists(st.integers(0, 6), min_size=f, max_size=f), min_size=1, max_size=40)))
@settings(max_examples=60, deadline=None)
def test_canonical_rows_of_mixed_sectors_equal_ranking_each_rotation(rows):
    assert_canonical_rows_as_by_rotation(rows)


@pytest.mark.parametrize("f", [2, 9])
def test_canonical_rows_across_several_chunks(f):
    rng = np.random.default_rng(f)
    assert_canonical_rows_as_by_rotation(rng.integers(0, 4, size=(3 * ROW_CHUNK + 7, f)))


def rows_with_a_repeated_maximum(f, count, seed):
    """`count` rows of f sites in 0 .. 2, each with its maximum 3 on two sites."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 3, size=(count, f))
    rows[np.arange(count)[:, None], rng.permuted(np.tile(np.arange(f), (count, 1)), axis=1)[:, :2]] = 3
    return rows


@pytest.mark.parametrize("rows", [
    np.zeros((1, 5), dtype=np.int64),  # the vacuum: its maximum is on every site
    np.full((1, 4), 2), np.full((2, 23), 1), np.zeros((3, 23), dtype=np.int64),
    [(1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1), (2, 0, 2, 0, 2, 1), (0, 2, 1, 2, 0, 2)],
    rows_with_a_repeated_maximum(7, ROW_CHUNK + 1, 0),
    rows_with_a_repeated_maximum(23, 40, 1),
    np.random.default_rng(2).integers(0, 3, size=(ROW_CHUNK + 3, 23)),
], ids=["vacuum", "2222", "ones-23", "vacuum-23", "alternating", "chunk+1-repeated",
        "repeated-23", "random-23"])
def test_canonical_rows_edge_cases_equal_ranking_each_rotation(rows):
    # rows whose maximum sits on several sites reach their representative
    # through several of the ranked rotations
    assert_canonical_rows_as_by_rotation(rows)


def assert_table_is_canonical_rows_of_its_rows(sector):
    occ = _occupations(sector.f, sector.n)
    rep_rank, shift, period = canonical_rows(occ)
    reps = np.flatnonzero(rep_rank == np.arange(sector.dim))
    orbit = np.searchsorted(sector.reps, rep_rank)
    for got, want in ((sector.reps, reps), (sector.reps[orbit], rep_rank),
                      (sector.periods, period[reps]), (sector.periods[orbit], period),
                      (sector.rep_rows, occ[reps])):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# every sector of f 2-12, n 0-6 up to 5000 rows
TABLE_SECTORS = [(f, n) for f in range(2, 13) for n in range(7) if sector_dimension(f, n) <= 5000]


@given(st.sampled_from(TABLE_SECTORS))
@example((2, 0))
@example((2, 6))
@example((12, 0))
@settings(max_examples=40, deadline=None)
def test_sector_table_equals_canonical_rows(fn):
    assert_table_is_canonical_rows_of_its_rows(SectorOrbits(*fn))


def test_large_sector_table_equals_canonical_rows():
    sector = SectorOrbits(23, 4)
    assert sector.dim == math.comb(26, 4) and len(sector.orbits) == 650
    assert_table_is_canonical_rows_of_its_rows(sector)


def sector_table_by_rotation_ranks(occ):
    """(reps, orbit_of, shift_of, periods) from the full (dim, f) table of the
    ranks of every rotation of every row, folded by min, argmin and count."""
    dim, f = occ.shape
    step = rank_rows(np.roll(occ, 1, axis=1))
    rot = np.empty((dim, f), dtype=np.int64)
    rot[:, 0] = np.arange(dim)
    for t in range(1, f):
        rot[:, t] = step[rot[:, t - 1]]
    rep_rank = rot.min(axis=1)
    period = f // (rot == rep_rank[:, None]).sum(axis=1)
    reps = np.flatnonzero(rep_rank == np.arange(dim))
    return reps, np.searchsorted(reps, rep_rank), -rot.argmin(axis=1) % period, period[reps]


@pytest.mark.parametrize("f,n", sorted({(f, n) for f in range(2, 13) for n in range(7)}
                                       | {(2, 0), (12, 0), (23, 4), (19, 4), (11, 6), (13, 6),
                                          (2, 2000), (3, 400)}))
def test_sector_table_equals_the_rotation_rank_table(f, n):
    sector, occ = SectorOrbits(f, n), _occupations(f, n)
    reps, orbit_of, shift_of, periods = sector_table_by_rotation_ranks(occ)
    # each row's orbit and shift: canonical_rows, then the table's representatives
    rep_rank, shift, _ = canonical_rows(occ)
    for got, want in ((sector.reps, reps), (np.searchsorted(sector.reps, rep_rank), orbit_of),
                      (shift, shift_of), (sector.periods, periods), (sector.rep_rows, occ[reps])):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert sector.orbits == [TranslationOrbit(rep=tuple(occ[r].tolist()), period=int(d))
                             for r, d in zip(reps, periods)]


def test_orbit_of_short_period():
    assert orbit_of((0, 1, 0, 1)) == ((1, 0, 1, 0), 2)
    sector = SectorOrbits(4, 2)
    for state in enumerate_sector(4, 2):
        orb = sector.orbits[locate(sector, state)[0]]
        assert (orb.rep, orb.period) == orbit_of(state)



def partitions(n, largest=None):
    """Every occupation pattern of n bosons, largest clump first."""
    if n == 0:
        yield ()
        return
    for c in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - c, c):
            yield (c,) + rest


@pytest.mark.parametrize("f,n", [(f, n) for f in range(2, 13) for n in range(7)])
def test_pattern_classes_equal_the_filtered_sector_table(f, n):
    # every pattern of n, including those with more clumps than sites, and
    # given smallest clump first, against the rotation rank table
    occ = _occupations(f, n)
    table_reps, _, _, table_periods = sector_table_by_rotation_ranks(occ)
    for pattern in partitions(n):
        g = [i for i, r in enumerate(table_reps) if pattern_of(tuple(occ[r])) == pattern]
        reps, periods = pattern_classes(f, pattern[::-1])
        want = occ[table_reps[g]]
        assert reps.dtype == want.dtype and reps.shape == want.shape
        assert np.array_equal(reps, want)
        assert np.array_equal(periods, table_periods[g])


def test_pattern_classes_reach_rings_beyond_the_sector_table():
    # f = 41, n = 6 would hold 9.4e6 states; {4,2} has one class per separation
    f = 41
    reps, periods = pattern_classes(f, (4, 2))
    want = [(4,) + (0,) * (j - 1) + (2,) + (0,) * (f - 1 - j) for j in range(1, f)]
    assert reps.tolist() == [list(rep) for rep in want]
    assert periods.tolist() == [f] * (f - 1)


@pytest.mark.parametrize("f,pattern", [(1, (2,)), (5, (2, 0)), (5, (2, -1)), (7, (2.9, 2)),
                                       (7, ("2", "2"))])
def test_pattern_classes_validate_their_inputs(f, pattern):
    with pytest.raises(ValidationError):
        pattern_classes(f, pattern)


# ------------------------------------------------------------- momentum bases


def test_momentum_grid_labels():
    assert [k.l for k in momentum_grid(5)] == [-2, -1, 0, 1, 2]
    assert [k.l for k in momentum_grid(19)] == list(range(-9, 10))
    assert [k.l for k in momentum_grid(6)] == [0, 1, 2, 3, 4, 5]
    ks = [k.k for k in momentum_grid(7)]
    assert ks == sorted(ks)
    assert momentum_grid(7)[3].k == 0.0


def test_compatibility_condition():
    # period-2 orbit on f=4 exists only at even momentum labels
    sector = SectorOrbits(4, 2)
    g = locate(sector, (1, 0, 1, 0))[0]
    for l, carried in ((0, True), (1, False), (2, True), (3, False)):
        basis = momentum_basis(4, 2, MomentumIndex(l, 4))
        assert (g in basis.orbit_indices) == carried


@pytest.mark.parametrize("f,n", SMALL_SECTORS)
def test_momentum_dimensions_sum_to_sector(f, n):
    total = sum(momentum_basis(f, n, k).dim for k in momentum_grid(f))
    assert total == sector_dimension(f, n)


def test_sector_memo_never_serves_an_int_table_for_a_float_or_bool():
    # an untyped cache key would find the (2, 2) table for 2.0 and (2, 1) for True
    two, one = sector_orbits(2, 2), sector_orbits(2, 1)
    assert sector_orbits(2, 2) is two and sector_orbits(2, 1) is one
    for f, n in ((2.0, 2), (2, True), (2, 2.0), (True, 1), (np.int64(2), 2)):
        with pytest.raises(ValidationError):
            sector_orbits(f, n)


def test_momentum_basis_needs_a_momentum_index():
    with pytest.raises(ValidationError, match="needs a MomentumIndex, got 0.3"):
        momentum_basis(7, 4, 0.3)
    with pytest.raises(ValidationError, match="f = 5 ring does not match f = 7"):
        momentum_basis(7, 4, MomentumIndex(0, 5))


def test_block_dimensions_at_figure_sizes():
    # prime f and n coprime to it: every orbit has full period, so the
    # sector splits evenly over the f momenta
    assert momentum_basis(19, 4, MomentumIndex(0, 19)).dim == 7315 // 19 == 385
    assert momentum_basis(11, 6, MomentumIndex(3, 11)).dim == 8008 // 11 == 728


@given(sectors(draw_n=st.integers(0, 5)))
@settings(max_examples=30, deadline=None)
def test_every_block_lists_only_compatible_orbits(fn):
    # an orbit carries momentum k iff its Bloch sum over all f rotations,
    # sum_t exp(-i k t) T^t |rep>, does not vanish
    f, n = fn
    sector = SectorOrbits(f, n)
    for k in momentum_grid(f):
        basis = momentum_basis(f, n, k)
        assert list(basis.orbit_indices) == sorted(set(basis.orbit_indices.tolist()))
        included = set(basis.orbit_indices.tolist())
        for gi, orb in enumerate(sector.orbits):
            amp = sum(cmath.exp(-1j * k.k * t) for t in range(f)
                      if translate(orb.rep, t) == orb.rep)
            assert (gi in included) == (abs(amp) > 1e-9)

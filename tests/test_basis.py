"""Enumeration, ranking, translation orbits, and momentum bases."""

import cmath
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
    momentum_basis,
    momentum_grid,
    sector_dimension,
)
from qdnls.basis import ROW_CHUNK, TranslationOrbit, _occupations, canonical_rows, pattern_of, rank_rows

SMALL_SECTORS = [(2, 1), (3, 2), (4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (7, 5)]


def sectors(draw_f=st.integers(2, 7), draw_n=st.integers(0, 6)):
    return st.tuples(draw_f, draw_n)


def enumerate_sector(f, n):
    """The states of a sector as tuples, in the table's (rank) order."""
    return [tuple(row) for row in SectorOrbits(f, n).occ.tolist()]


def rank(state):
    return int(rank_rows([state])[0])


def locate(sector, state):
    """(orbit index g, shift u) with state == T^u orbits[g].rep."""
    i = rank(state)
    return int(sector.orbit_of[i]), int(sector.shift_of[i])


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


def assert_table_is_canonical_rows_of_its_rows(sector):
    rep_rank, shift, period = canonical_rows(sector.occ)
    reps = np.flatnonzero(rep_rank == np.arange(sector.dim))
    for got, want in ((sector.reps, reps), (sector.reps[sector.orbit_of], rep_rank),
                      (sector.shift_of, shift), (sector.periods, period[reps]),
                      (sector.periods[sector.orbit_of], period)):
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
                                       | {(2, 0), (12, 0), (23, 4)}))
def test_sector_table_equals_the_rotation_rank_table(f, n):
    sector = SectorOrbits(f, n)
    reps, orbit_of, shift_of, periods = sector_table_by_rotation_ranks(sector.occ)
    for got, want in ((sector.reps, reps), (sector.orbit_of, orbit_of),
                      (sector.shift_of, shift_of), (sector.periods, periods)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert sector.orbits == [TranslationOrbit(rep=tuple(sector.occ[r].tolist()), period=int(d))
                             for r, d in zip(reps, periods)]


def test_orbit_of_short_period():
    assert orbit_of((0, 1, 0, 1)) == ((1, 0, 1, 0), 2)
    sector = SectorOrbits(4, 2)
    for state in enumerate_sector(4, 2):
        orb = sector.orbits[locate(sector, state)[0]]
        assert (orb.rep, orb.period) == orbit_of(state)


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
        basis = momentum_basis(4, 2, MomentumIndex(l, 4), sector)
        assert (g in basis.orbit_indices) == carried


@pytest.mark.parametrize("f,n", SMALL_SECTORS)
def test_momentum_dimensions_sum_to_sector(f, n):
    total = sum(momentum_basis(f, n, k).dim for k in momentum_grid(f))
    assert total == sector_dimension(f, n)


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
        basis = momentum_basis(f, n, k, sector)
        assert list(basis.orbit_indices) == sorted(set(basis.orbit_indices.tolist()))
        included = set(basis.orbit_indices.tolist())
        for gi, orb in enumerate(sector.orbits):
            amp = sum(cmath.exp(-1j * k.k * t) for t in range(f)
                      if translate(orb.rep, t) == orb.rep)
            assert (gi in included) == (abs(amp) > 1e-9)

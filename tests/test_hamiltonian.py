"""Diagonal energies, hopping, momentum blocks, and the dense cross-check."""

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
    ModelParams,
    ValidationError,
    assemble_block,
    eigh,
    classify_block,
    extract_band,
    full_matrix,
    ground_state,
    labelled_spectra,
    momentum_grid,
    momentum_spectra,
)
import qdnls.basis as basis_module
from qdnls.basis import SectorOrbits, class_fold, hop_moves, momentum_basis, sector_orbits
from qdnls.hamiltonian import (DENSE_CAP_ENV, block_parts, bloch_couplings, dense_cap,
                               diagonal_energy)
from qdnls.perturbation import _class_rows


def test_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(f=2, n=1, gamma1=-1.0)
    with pytest.raises(ValidationError):
        ModelParams(f=2, n=1, gamma1=1.0, model="h3")
    with pytest.raises(ValidationError):
        # the first model has no three-boson term
        ModelParams(f=2, n=1, gamma1=1.0, gamma2=0.5, model="h1")
    ModelParams(f=2, n=1, gamma1=1.0, gamma2=0.5, model="h2")
    # booleans are not counts or couplings
    for bad in ({"f": True}, {"n": True}, {"gamma1": True}, {"gamma2": False},
                {"epsilon": True}):
        with pytest.raises(ValidationError):
            ModelParams(**{"f": 2, "n": 1, "gamma1": 1.0, **bad})


def test_single_clump_energies():
    # one site with n bosons: -gamma1 n(n-1) + gamma2 n(n-1)(n-2)
    params = ModelParams(f=5, n=5, gamma1=1.5, gamma2=0.25, epsilon=0.0)
    g1, g2 = params.gamma1, params.gamma2
    expectations = {
        1: 0.0,
        2: -2.0 * g1,
        3: -6.0 * g1 + 6.0 * g2,
        4: -12.0 * g1 + 24.0 * g2,
        5: -20.0 * g1 + 60.0 * g2,
    }
    for n, want in expectations.items():
        state = (n,) + (0,) * 4
        assert diagonal_energy(state, params) == pytest.approx(want, abs=1e-14)


def test_diagonal_energy_is_additive_over_sites():
    params = ModelParams(f=6, n=7, gamma1=2.0, gamma2=0.3, epsilon=0.1)
    state = (3, 0, 2, 0, 1, 1)
    parts = sum(diagonal_energy((c,) + (0,) * 5, ModelParams(f=6, n=c, gamma1=2.0,
                                                             gamma2=0.3, epsilon=0.1))
                for c in state if c)
    assert diagonal_energy(state, params) == pytest.approx(parts, rel=1e-15)


def test_hop_element_amplitudes():
    # boson moves from site s to s+direction with sqrt(n_src (n_dst + 1)),
    # listed by site and then direction +1, -1; empty sites contribute nothing
    src, moved, amp = hop_moves([(2, 1, 0)])
    assert [tuple(m) for m in moved.tolist()] == [(1, 2, 0), (1, 1, 1), (2, 0, 1), (3, 0, 0)]
    assert amp == pytest.approx(np.sqrt([2.0 * 2.0, 2.0, 1.0, 3.0]))
    assert list(src) == [0] * 4
    _, moved, _ = hop_moves([(2, 0, 1)])
    assert [tuple(m) for m in moved.tolist()] == [(1, 1, 1), (1, 0, 2), (3, 0, 0), (2, 1, 0)]


def test_two_site_spectrum_doubles_the_bond():
    # on two sites every bond appears once per site term, so the single
    # physical bond carries twice the hopping coefficient
    params = ModelParams(f=2, n=2, gamma1=0.0, gamma2=0.0, epsilon=1.0)
    h = full_matrix(params)
    hand = np.zeros((3, 3))
    amp = 2.0 * np.sqrt(2.0)  # both site terms move a boson across the bond
    hand[0, 1] = hand[1, 0] = -amp
    hand[1, 2] = hand[2, 1] = -amp
    assert np.abs(h - hand).max() < 1e-14
    got = eigh(h).eigenvalues
    assert np.abs(got - np.array([-4.0, 0.0, 4.0])).max() < 1e-12


def test_full_matrix_ordering_matches_enumeration():
    params = ModelParams(f=3, n=2, gamma1=1.0, gamma2=0.0, epsilon=0.0)
    h = full_matrix(params)
    states = sorted((s for s in itertools.product(range(3), repeat=3) if sum(s) == 2), reverse=True)
    diag = [diagonal_energy(s, params) for s in states]
    assert np.allclose(np.diag(h), diag)
    assert np.abs(h - np.diag(diag)).max() == 0.0


@pytest.mark.parametrize("f,n", [(4, 3), (5, 3), (6, 4), (2, 2)])
def test_block_union_matches_dense_spectrum(f, n):
    rng = np.random.default_rng(100 * f + n)
    for _ in range(3):
        g1, g2, eps = rng.uniform(0.5, 5.0, size=3)
        params = ModelParams(f=f, n=n, gamma1=float(g1), gamma2=float(g2),
                             epsilon=float(eps))
        dense = eigh(full_matrix(params)).eigenvalues
        blocks = momentum_spectra(params)
        union = np.sort(np.concatenate([spectrum.eigenvalues for _, spectrum in blocks]))
        scale = max(1.0, np.abs(dense).max())
        assert union.size == dense.size
        assert np.abs(union - dense).max() <= 1e-9 * scale
        # trace splits exactly over the momentum blocks
        trace_full = np.trace(full_matrix(params))
        trace_blocks = sum(np.trace(assemble_block(params, basis.k)[1]).real
                           for basis, _ in blocks)
        assert abs(trace_blocks - trace_full) <= 1e-10 * max(1.0, abs(trace_full))


def test_blocks_are_bitwise_hermitian():
    params = ModelParams(f=7, n=4, gamma1=1.3, gamma2=0.4, epsilon=0.7)
    for l in (-3, 0, 2):
        _, block = assemble_block(params, MomentumIndex(l, 7))
        assert np.array_equal(block, block.conj().T)


def test_a_sector_is_folded_once_and_the_oracle_not_at_all(monkeypatch):
    params = ModelParams(f=7, n=3, gamma1=1.3, gamma2=0.4, epsilon=0.7)
    sector_orbits(params.f, params.n)  # the shared table lists its orbits with canonical_rows too
    calls = []
    canonical_rows = basis_module.canonical_rows

    def counting(rows):
        calls.append(len(rows))
        return canonical_rows(rows)

    monkeypatch.setattr(basis_module, "canonical_rows", counting)
    basis_module.class_fold.cache_clear()
    # prime f, n < f: every orbit has period f, so every momentum has the same
    # basis and all seven blocks read one fold
    assert len(momentum_spectra(params)) == 7
    assert len(calls) == 1
    calls.clear()
    basis_module.class_fold.cache_clear()
    full_matrix(params)  # the oracle ranks its hops itself
    assert calls == []


def test_every_exact_entry_reads_one_shared_read_only_sector_table():
    params = ModelParams(f=7, n=4, gamma1=10.0, epsilon=0.5)
    bases = [momentum_basis(7, 4, MomentumIndex(1, 7))]
    bases += [basis for basis, _ in momentum_spectra(params, momentum_grid(7)[:2])]
    bases += [ksp.basis for ksp in labelled_spectra(params, pattern=(2, 2))]
    shared = sector_orbits(7, 4)
    assert all(basis.sector is shared for basis in bases)
    fresh = SectorOrbits(7, 4)
    assert (shared.dim, shared.patterns, shared.orbits) == (fresh.dim, fresh.patterns, fresh.orbits)
    for name in ("reps", "rep_rows", "periods", "pattern_ids", "adjacent"):
        array = getattr(shared, name)
        assert np.array_equal(array, getattr(fresh, name))
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_opposite_momenta_share_eigenvalues():
    params = ModelParams(f=7, n=3, gamma1=2.0, gamma2=0.5, epsilon=0.9)
    for l in (1, 2, 3):
        plus = eigh(assemble_block(params, MomentumIndex(l, 7))[1]).eigenvalues
        minus = eigh(assemble_block(params, MomentumIndex(-l, 7))[1]).eigenvalues
        assert np.abs(plus - minus).max() <= 1e-10 * max(1.0, np.abs(plus).max())


def test_zero_hopping_blocks_are_diagonal():
    params = ModelParams(f=5, n=4, gamma1=3.0, gamma2=1.0, epsilon=0.0)
    _, block = assemble_block(params, MomentumIndex(2, 5))
    off = block - np.diag(np.diag(block))
    assert np.abs(off).max() == 0.0


def test_h1_equals_h2_without_three_boson_term():
    base = dict(f=5, n=3, gamma1=1.7, gamma2=0.0, epsilon=0.4)
    h1 = full_matrix(ModelParams(model="h1", **base))
    h2 = full_matrix(ModelParams(model="h2", **base))
    assert np.array_equal(h1, h2)


def test_dense_cap_and_env_override(monkeypatch):
    params = ModelParams(f=19, n=4, gamma1=1.0)
    assert dense_cap() == 4000
    with pytest.raises(CapacityError):
        full_matrix(params)  # 7315 states over the default cap
    monkeypatch.setenv(DENSE_CAP_ENV, "8000")
    assert dense_cap() == 8000
    monkeypatch.setenv(DENSE_CAP_ENV, "10")
    with pytest.raises(CapacityError):
        full_matrix(ModelParams(f=4, n=3, gamma1=1.0))


# ---------------------------------------------- properties on random sectors


def dense_from_definition(params):
    """H of the module docstring, built state by state without the hop table."""
    f, n = params.f, params.n
    states = sorted((tuple(sites.count(s) for s in range(f))
                     for sites in itertools.combinations_with_replacement(range(f), n)),
                    reverse=True)
    index = {state: i for i, state in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for i, state in enumerate(states):
        h[i, i] = sum(-params.gamma1 * c * (c - 1) + params.gamma2 * c * (c - 1) * (c - 2)
                      for c in state)
        for s in range(f):
            for t in ((s + 1) % f, (s - 1) % f):
                if state[s] == 0:
                    continue
                moved = list(state)
                moved[s] -= 1
                moved[t] += 1
                h[index[tuple(moved)], i] -= params.epsilon * math.sqrt(state[s] * (state[t] + 1))
    return h


random_params = st.builds(
    ModelParams,
    f=st.integers(2, 7),
    n=st.integers(0, 5),
    gamma1=st.floats(0.0, 5.0),
    gamma2=st.floats(0.0, 5.0),
    epsilon=st.floats(0.0, 2.0),
)


@given(random_params)
@settings(max_examples=30, deadline=None)
def test_full_matrix_matches_the_hamiltonian_definition(params):
    want = dense_from_definition(params)
    got = full_matrix(params)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max())


@given(random_params)
@settings(max_examples=30, deadline=None)
def test_momentum_spectra_union_equals_dense_spectrum(params):
    dense = eigh(full_matrix(params)).eigenvalues
    union = np.sort(np.concatenate([spectrum.eigenvalues
                                    for _, spectrum in momentum_spectra(params)]))
    assert union.size == dense.size
    assert np.abs(union - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


@given(random_params)
@settings(max_examples=30, deadline=None)
def test_opposite_momentum_blocks_are_conjugate(params):
    # -l and, on the grid, its partner f - l; l = f/2 is its own partner
    for k in momentum_grid(params.f):
        _, plus = assemble_block(params, k)
        partners = [-k.l] + ([params.f - k.l] if 2 * k.l != params.f else [])
        for l in partners:
            _, minus = assemble_block(params, MomentumIndex(l, params.f))
            assert np.array_equal(minus, plus.conj())


pair_params = st.builds(
    ModelParams,
    f=st.integers(2, 9),
    n=st.integers(0, 5),
    gamma1=st.floats(0.0, 5.0),
    gamma2=st.floats(0.0, 5.0),
    epsilon=st.floats(0.0, 2.0),
)


@given(pair_params, st.floats(0.05, 1.0), st.data())
@example(ModelParams(f=6, n=0, gamma1=1.0, epsilon=0.5), 0.5, None)
@example(ModelParams(f=7, n=0, gamma1=1.0, epsilon=0.5), 0.5, None)
@settings(max_examples=30, deadline=None)
def test_labelled_spectra_equal_solving_every_momentum(params, threshold, data):
    # a partial grid may hold one member of a pair; n = 0 has empty blocks
    grid = momentum_grid(params.f)
    if data is not None:
        grid = data.draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
    labelled = labelled_spectra(params, threshold, grid)
    assert [ksp.basis.k for ksp in labelled] == grid
    for got in labelled:
        [(basis, want)] = momentum_spectra(params, grid=[got.basis.k])
        assert np.array_equal(got.basis.orbit_indices, basis.orbit_indices)
        assert got.basis.k == basis.k
        e_got, e_want = got.eigenvalues, want.eigenvalues
        assert e_got.shape == e_want.shape
        assert np.all(np.abs(e_got - e_want) <= 1e-12 * np.maximum(1.0, np.abs(e_want)))
        assert got.residual_bound == want.residual_bound
        # a partner's labels are those of its own solved vectors
        for array, want_array in zip((got.pattern_ids, got.weights, got.adjacent),
                                     classify_block(want.eigenvectors, basis, threshold)):
            assert np.array_equal(array, want_array)


def test_ground_state_keeps_the_first_of_degenerate_momenta():
    # without hopping the lone pair has the same energy at every momentum:
    # the scan keeps the first grid label, -2 on the odd ring and 0 on the even one
    for f, first in ((5, -2), (6, 0)):
        params = ModelParams(f=f, n=2, gamma1=1.0, epsilon=0.0)
        assert ground_state(labelled_spectra(params)).l == first


def test_band_extraction_holds_one_block_of_eigenvectors_at_a_time():
    # each block is classified as soon as it is solved; keeping every
    # block's eigenvectors until the band is read would hold 11 of them here
    params = ModelParams(f=11, n=5, gamma1=10.0, epsilon=0.5)
    # momentum_basis builds the shared sector table before tracing starts
    one_block = max(16 * momentum_basis(11, 5, k).dim ** 2 for k in momentum_grid(11))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectra = labelled_spectra(params)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        extract_band(params, (5,), labelled_spectra(params))
        band_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(spectra) == 11
    assert held <= one_block  # no block's eigenvectors survive the call
    assert peak <= 6 * one_block
    assert band_peak <= 6 * one_block


def test_solved_spectra_keep_no_block_matrices():
    # after the solve only the eigenpairs (and the small sector table) stay
    # alive; holding each block matrix as well would double the bytes
    params = ModelParams(f=9, n=5, gamma1=10.0, epsilon=0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectra = momentum_spectra(params)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    vector_bytes = sum(spectrum.eigenvectors.nbytes for _, spectrum in spectra)
    assert held <= 1.5 * vector_bytes


def test_block_assembly_holds_two_block_matrices_at_its_peak():
    # the hopping matrix is symmetrized in place, so assembly holds the block
    # and one conjugate transpose; 0.5 * (v + v.conj().T) would hold three
    params = ModelParams(f=11, n=5, gamma1=10.0, epsilon=0.5)
    sector_orbits(params.f, params.n)  # the shared table is built before tracing starts
    k = MomentumIndex(1, params.f)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, block = assemble_block(params, k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(block, block.conj().T)
    assert peak <= 2.5 * block.nbytes


@pytest.mark.parametrize("f, n", [(11, 6), (19, 4), (10, 4)])
def test_block_couplings_have_no_intermediates_and_equal_the_engine_fold(f, n):
    # every orbit that carries k is a class of the full momentum basis, so
    # block_parts may drop q; its p is the one the engine's own fold over
    # the same class rows gives, entry by entry
    params = ModelParams(f=f, n=n, gamma1=10.0, gamma2=1.5, epsilon=0.5)
    for k in momentum_grid(f):
        basis, _, v = block_parts(params, k)
        rows = basis.sector.rep_rows[basis.orbit_indices]
        engine_rows = _class_rows(params, [basis.sector.orbits[g] for g in basis.orbit_indices])
        assert np.array_equal(engine_rows, rows)
        # a fold of its own, not the memo block_parts just filled
        p, q, q_rows = bloch_couplings(class_fold.__wrapped__(f, engine_rows.tobytes()),
                                       params, k)
        assert q.shape == (0, basis.dim) and q_rows.shape == (0, f)
        assert np.array_equal(v, 0.5 * (p + p.conj().T))

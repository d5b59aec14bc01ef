"""Pattern classification, band extraction and tagging, effective masses."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdnls import (
    BandOverlapError,
    ModelParams,
    NumericalError,
    ValidationError,
    band22_asymptotic,
    band_mass,
    classify_block,
    effective_mass,
    extract_band,
    ground_state,
    labelled_spectra,
    mass_ratio_report,
    momentum_spectra,
    pt_band,
)
import qdnls.bands as bands_module
import qdnls.basis as basis_module
from qdnls.basis import MomentumIndex, SectorOrbits, canonical_rows, momentum_basis, momentum_grid
from qdnls.bands import normalize_pattern, pattern_of

from conftest import points_at


def basis_states(basis):
    return [basis.sector.orbits[g].rep for g in basis.orbit_indices]


def vector_on(basis, amplitudes):
    """A vector over `basis` holding the given amplitude on each named orbit."""
    states = basis_states(basis)
    vec = np.zeros(basis.dim)
    for rep, amp in amplitudes.items():
        vec[states.index(rep)] = amp
    return vec


# f = 4, n = 4 at l = 0: every orbit, e.g. (2,2,0,0), (2,0,2,0), (2,1,1,0), (2,1,0,1)
RING4 = momentum_basis(4, 4, MomentumIndex(0, 4))


# ------------------------------------------------------------- pattern helpers


def test_pattern_of_collects_nonzero_counts():
    assert pattern_of((2, 0, 0, 2, 0)) == (2, 2)
    assert pattern_of((0, 2, 4, 0)) == (4, 2)
    assert pattern_of((1, 1, 1, 1)) == (1, 1, 1, 1)
    assert pattern_of((0, 0, 0)) == ()


def adjacent_clumps(state):
    """Whether `state` is two clumps on neighbouring ring sites, read off site
    by site."""
    sites = [s for s, c in enumerate(state) if c]
    return len(sites) == 2 and sites[1] - sites[0] in (1, len(state) - 1)


def test_adjacency_tags_ring_neighbors():
    sector = SectorOrbits(5, 4)

    def adjacent(state):
        return bool(sector.adjacent[np.searchsorted(sector.reps, canonical_rows([state])[0][0])])

    for state, want in (((2, 2, 0, 0, 0), True), ((2, 0, 2, 0, 0), False),
                        ((2, 0, 0, 0, 2), True),    # wraps around the ring
                        ((1, 3, 0, 0, 0), True),    # its representative (3, 0, 0, 0, 1) too
                        ((4, 0, 0, 0, 0), False), ((2, 1, 1, 0, 0), False)):
        assert adjacent(state) == adjacent_clumps(state) == want


@given(st.integers(2, 9), st.integers(0, 6))
@example(2, 2).via("the pair (1, 1) neighbours on both sides")
@example(5, 4).via("the representative (3, 0, 0, 0, 1) wraps around the ring")
@settings(max_examples=40, deadline=None)
def test_sector_keys_adjacency_once_per_orbit(f, n):
    sector = SectorOrbits(f, n)
    assert sector.adjacent.dtype == bool
    assert sector.adjacent.tolist() == [adjacent_clumps(orb.rep) for orb in sector.orbits]


def test_normalize_pattern_sorts_and_validates():
    assert normalize_pattern is basis_module.normalize_pattern
    assert normalize_pattern([2, 4]) == (4, 2)
    with pytest.raises(ValidationError):
        normalize_pattern([2, 0])
    with pytest.raises(ValidationError):
        normalize_pattern([])
    assert normalize_pattern((np.int64(2), 4)) == (4, 2)
    # entries are never truncated or parsed: (2.5, 2.5) is no {2,2}
    for bad in ([2.5, 2.5], [2.9, 2], ["2", "2"], [True, 1], [4, np.float64(2.0)]):
        with pytest.raises(ValidationError, match="positive integers"):
            normalize_pattern(bad)


# -------------------------------------------------------------- classification


def label(vector, basis, threshold=0.5):
    """The (pattern or None, weight, adjacent) label of one vector."""
    (pid,), (weight,), (adjacent,) = classify_block(vector[:, None], basis, threshold)
    return basis.sector.patterns[pid] if pid >= 0 else None, weight, adjacent


def test_pure_states_classify_with_full_weight():
    basis = momentum_basis(5, 4, MomentumIndex(0, 5))
    pattern, weight, adjacent = label(vector_on(basis, {(2, 0, 2, 0, 0): 1.0}), basis)
    assert (pattern, adjacent) == ((2, 2), False)
    assert weight == pytest.approx(1.0)
    assert label(vector_on(basis, {(2, 2, 0, 0, 0): 1.0}), basis)[2]


def test_pure_bloch_state_classifies_by_orbit_representative():
    basis = momentum_basis(5, 6, momentum_grid(5)[2], SectorOrbits(5, 6))
    target = next(i for i, rep in enumerate(basis_states(basis)) if pattern_of(rep) == (3, 3))
    vec = np.zeros(basis.dim)
    vec[target] = 1.0
    pattern, weight, adjacent = label(vec, basis)
    assert (pattern, adjacent) == ((3, 3), True)
    assert weight == pytest.approx(1.0)


# amplitudes of 1/2 on two (2,2) and two (2,1,1) orbits keep both pattern
# weights at exactly 0.5; the (2,2) orbits are one adjacent, one separated
EVEN_SPLIT = {(2, 2, 0, 0): 0.5, (2, 0, 2, 0): 0.5, (2, 1, 1, 0): 0.5, (2, 1, 0, 1): 0.5}


def test_even_split_stays_unclassified_at_half():
    pattern, weight, _ = label(vector_on(RING4, EVEN_SPLIT), RING4)
    assert pattern is None
    assert weight == 0.5


def test_tie_above_threshold_breaks_deterministically():
    # the larger pattern wins the tie; its first equal-amplitude orbit tags it
    pattern, _, adjacent = label(vector_on(RING4, EVEN_SPLIT), RING4, threshold=0.4)
    assert (pattern, adjacent) == ((2, 2), True)


def test_classify_validates_inputs():
    pure = vector_on(RING4, {(2, 2, 0, 0): 1.0})
    with pytest.raises(ValidationError):
        classify_block(pure[:, None], RING4, threshold=0.0)
    with pytest.raises(ValidationError):
        classify_block(pure[:, None], RING4, threshold=1.2)
    with pytest.raises(ValidationError):          # not normalized
        classify_block(vector_on(RING4, {(2, 2, 0, 0): 0.6, (2, 1, 1, 0): 0.6})[:, None], RING4)
    with pytest.raises(ValidationError):
        classify_block(np.append(pure, 0.0)[:, None], RING4)  # wrong length
    # threshold 1.0 is allowed but nothing can strictly exceed it
    assert label(pure, RING4, threshold=1.0)[0] is None


def reference_classification(vectors, basis, threshold):
    """classify_block's (pattern_ids, weights, adjacent), read off state by
    state from pattern_of and adjacent_clumps."""
    states = basis_states(basis)
    amp2 = np.abs(np.asarray(vectors, dtype=complex)) ** 2
    out = []
    for j in range(amp2.shape[1]):
        weights = {}
        for state, a in zip(states, amp2[:, j].tolist()):
            weights[pattern_of(state)] = weights.get(pattern_of(state), 0.0) + a
        weight = max(weights.values())
        best = max(p for p, w in weights.items() if w == weight)
        members = [i for i, state in enumerate(states) if pattern_of(state) == best]
        dominant = max(members, key=lambda i: amp2[i, j])  # the first of equal maxima
        pid = basis.sector.patterns.index(best) if weight > threshold and best else -1
        out.append((pid, weight, adjacent_clumps(states[dominant])))
    return tuple(np.array(column) for column in zip(*out))


@given(st.integers(2, 7), st.integers(0, 5), st.data(),
       st.sampled_from([0.25, 0.4, 0.5, 0.6, 1.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_block_classification_matches_per_state_reference(f, n, data, threshold, seed):
    k = data.draw(st.sampled_from(momentum_grid(f)))
    basis = momentum_basis(f, n, k)
    assume(basis.dim > 0)
    rng = np.random.default_rng(seed)
    states = basis_states(basis)
    columns = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            # equal amplitudes 1/sqrt(m) on up to three orbits of one pattern and
            # up to three others: exact weight ties between patterns and between
            # states of one pattern (m = 4 can split at exactly 0.5)
            pat = data.draw(st.sampled_from(sorted({pattern_of(s) for s in states})))
            own = [i for i, s in enumerate(states) if pattern_of(s) == pat]
            others = data.draw(st.integers(0, min(basis.dim, 3)))
            picked = {*rng.choice(own, min(len(own), 3), replace=False).tolist(),
                      *rng.choice(basis.dim, others, replace=False).tolist()}
            m = len(picked)
            col = np.zeros(basis.dim, dtype=complex)
            col[list(picked)] = rng.choice([-1.0, 1.0], m) / np.sqrt(m)
        else:
            col = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            col /= np.linalg.norm(col)
        columns.append(col)
    vectors = np.column_stack(columns)
    got = classify_block(vectors, basis, threshold)
    assert [a.dtype.kind for a in got] == ["i", "f", "b"]
    for array, want in zip(got, reference_classification(vectors, basis, threshold)):
        assert np.array_equal(array, want)


@given(st.integers(2, 9), st.integers(0, 6), st.data(), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_block_weights_equal_an_add_at_reference(f, n, data, columns, seed):
    basis = momentum_basis(f, n, data.draw(st.sampled_from(momentum_grid(f))))
    assume(basis.dim > 0)
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(basis.dim, columns)) + 1j * rng.normal(size=(basis.dim, columns))
    vectors /= np.linalg.norm(vectors, axis=0)
    patterns = [pattern_of(state) for state in basis_states(basis)]
    ids = np.array([sorted(set(patterns)).index(p) for p in patterns])
    # a whole block, and one column alone: each column is summed on its own
    for block in (vectors, vectors[:, :1]):
        totals = np.zeros((len(set(patterns)), block.shape[1]))
        np.add.at(totals, ids, np.abs(block) ** 2)
        weights = classify_block(block, basis)[1]
        assert np.array_equal(weights, totals.max(axis=0))


def test_classified_count_decreases_with_threshold():
    p = ModelParams(f=7, n=4, gamma1=1.0, gamma2=0.0, epsilon=1.0)
    basis, spectrum = momentum_spectra(p)[3]
    counts = []
    for threshold in (0.2, 0.4, 0.6, 0.8):
        pattern_ids = classify_block(spectrum.eigenvectors, basis, threshold)[0]
        counts.append(int(np.count_nonzero(pattern_ids >= 0)))
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]


# ------------------------------------------------------------- band extraction


def test_pair_band_tags_one_line_and_a_continuum():
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    report = extract_band(p, (2, 2), labelled_spectra(p))
    for l, (selected, expected) in report.counts.items():
        assert (selected, expected) == (3, 3)
        points = points_at(report, l)
        assert sum(1 for q in points if q.tag == "line") == 1
        assert sum(1 for q in points if q.tag == "continuum") == 2
    assert min(q.weight for q in report.points) > 0.98
    # the line sits above the continuum for attractive gamma1
    for l in report.counts:
        line = [q for q in points_at(report, l) if q.tag == "line"][0]
        rest = [q.energy for q in points_at(report, l) if q.tag == "continuum"]
        assert line.energy > max(rest)


def test_pair_band_tracks_its_closed_form():
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    report = extract_band(p, (2, 2), labelled_spectra(p))
    assert report.pt_residuals is not None
    residuals = [v for v in report.pt_residuals.values() if v is not None]
    assert len(residuals) == 7
    assert max(residuals) < 2e-3


def test_band_without_closed_form_has_no_residuals():
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    report = extract_band(p, (3, 1), labelled_spectra(p))
    assert report.pt_residuals is None
    assert all(c == (6, 6) for c in report.counts.values())
    assert all(q.pt is None for q in report.points)


def test_zero_hopping_band_collapses_to_merged():
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.0)
    report = extract_band(p, (2, 2), labelled_spectra(p))
    assert report.points
    assert all(q.tag == "merged" for q in report.points)
    assert all(q.energy == pytest.approx(-40.0) for q in report.points)
    assert all(q.weight == pytest.approx(1.0) for q in report.points)


def test_strong_hopping_raises_band_overlap():
    p = ModelParams(f=7, n=4, gamma1=1.0, gamma2=0.0, epsilon=1.0)
    spectra = labelled_spectra(p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # gamma1 = 1 also draws resonance warnings
        rep = extract_band(p, (2, 2), spectra)
        # the band is returned as found; a mass fit of it raises the first note
        with pytest.raises(BandOverlapError) as err:
            band_mass(p, (2, 2), "line")
    assert str(err.value) == rep.overlap_notes[0]
    # the overlap is noted in the report, and only there
    assert not [w for w in caught if "another band overlaps" in str(w.message)]
    short = [l for l, (found, want) in rep.counts.items() if found < want]
    assert short
    assert [note.split(":")[0] for note in rep.overlap_notes] == \
        [f"pattern (2, 2) at l = {l}" for l in short]


def test_too_strict_threshold_reports_overlap():
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    rep = extract_band(p, (2, 2), labelled_spectra(p, 0.995))
    assert rep.counts[0] == (1, 3)
    assert rep.overlap_notes[0] == ("pattern (2, 2) at l = -3: found 1 of 3 states; "
                                    "another band overlaps or the threshold is too strict")
    with pytest.raises(BandOverlapError) as err:
        band_mass(p, (2, 2), "line", threshold=0.995)
    assert str(err.value) == rep.overlap_notes[0]


def test_band_points_pair_the_closed_form_slot_by_slot():
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.25)
    reference = pt_band(p, (2, 2))
    for threshold in (0.5, 0.999):
        report = extract_band(p, (2, 2), labelled_spectra(p, threshold))
        for l, (found, want) in report.counts.items():
            points = points_at(report, l)
            energies = [q.energy for q in points]
            assert energies == sorted(energies)
            if found == len(reference[l]):
                assert [q.pt for q in points] == reference[l].tolist()
                assert report.pt_residuals[l] == max(abs(q.energy - q.pt) for q in points)
            else:  # a short momentum pairs none of its states
                assert all(q.pt is None for q in points)
                assert report.pt_residuals[l] is None
    # at 0.999 some momenta come up short
    assert any(0 < found < want for found, want in report.counts.values())


def test_classification_and_extraction_rank_no_rows(monkeypatch):
    # the sector table keys every orbit's pattern once; nothing after it ranks
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    spectra = labelled_spectra(p)
    solved = momentum_spectra(p)

    def no_ranking(rows):
        raise AssertionError("rank_rows called after the sector was built")

    # bands would see its own binding of an imported rank_rows
    for module in (basis_module, bands_module):
        monkeypatch.setattr(module, "rank_rows", no_ranking, raising=False)
    for basis, spectrum in solved:
        classify_block(spectrum.eigenvectors, basis)
    assert extract_band(p, (2, 2), spectra).points


def test_extract_band_validates_pattern_and_inputs():
    p = ModelParams(f=5, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.1)
    spectra = labelled_spectra(p)
    with pytest.raises(ValidationError):
        extract_band(p, (5, 1), spectra)  # wrong boson count
    with pytest.raises(ValidationError):
        extract_band(p, (2.5, 2.5), spectra)  # not truncated to (2, 2)
    three = ModelParams(f=3, n=4, gamma1=10.0)
    three_spectra = labelled_spectra(three)
    with pytest.raises(ValidationError):
        extract_band(three, (1, 1, 1, 1), three_spectra)  # four clumps on three sites


@pytest.mark.parametrize("other", [dict(f=7, n=6), dict(f=9, n=4)])
def test_extract_band_rejects_spectra_of_another_sector(monkeypatch, other):
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    spectra = labelled_spectra(ModelParams(**other, gamma1=10.0, epsilon=0.5))
    monkeypatch.setattr(bands_module, "pt_band", None)  # rejected before any work
    with pytest.raises(ValidationError, match="do not match the requested"):
        extract_band(p, (2, 2), spectra)


def test_ground_state_is_the_single_clump_at_zero_momentum():
    p = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    spectra = labelled_spectra(p)
    g = ground_state(spectra)
    assert g.l == 0
    assert g.energy == pytest.approx(-120.0333462948, abs=1e-9)
    assert g.pattern == (4,)
    with pytest.raises(ValidationError):
        ground_state([])
    # the first label of the ground momentum is its ground state's label
    basis, ground = next(pair for pair in momentum_spectra(p) if pair[0].k.l == 0)
    assert (g.pattern, g.weight) == label(ground.eigenvectors[:, 0], basis)[:2]


# ------------------------------------------------- windowed band vs full solve


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
F7N4 = dict(f=7, n=4, gamma1=10.0, epsilon=0.5)
F7N6 = dict(f=7, n=6, gamma1=30.0, epsilon=0.5)
F7N6_G2 = dict(f=7, n=6, gamma1=10.0, gamma2=20.0, epsilon=0.5)


def config(name):
    return ModelParams(**json.loads((CONFIGS / f"{name}.json").read_text()))


def assert_window_equals_the_full_solve(params, pattern, threshold):
    """The band and ground of a solve windowed on `pattern` are those of the
    solve of every eigenvector; returns the windowed spectra and band."""
    windowed = labelled_spectra(params, threshold, pattern=pattern)
    full = labelled_spectra(params, threshold)
    assert all(w.window == normalize_pattern(pattern) and f.window is None
               for w, f in zip(windowed, full))
    band, want = (extract_band(params, pattern, spectra) for spectra in (windowed, full))
    assert [(q.l, q.k, q.index, q.energy, q.tag, q.pt) for q in band.points] == \
        [(q.l, q.k, q.index, q.energy, q.tag, q.pt) for q in want.points]
    assert all(abs(q.weight - r.weight) <= 1e-12 for q, r in zip(band.points, want.points))
    assert band.counts == want.counts
    assert band.overlap_notes == want.overlap_notes
    assert band.pt_residuals == want.pt_residuals
    got, ground = ground_state(windowed), ground_state(full)
    assert (got.l, got.k, got.energy, got.pattern) == \
        (ground.l, ground.k, ground.energy, ground.pattern)
    assert abs(got.weight - ground.weight) <= 1e-12
    return windowed, band


@pytest.mark.parametrize("name,pattern,threshold", [
    ("band22_n4", (2, 2), 0.5), ("band22_ground", (2, 2), 0.5), ("band42_n6", (4, 2), 0.5),
    ("band33_n6", (3, 3), 0.5), ("band22_n4", (2, 2), 0.3), ("band22_n4", (2, 2), 0.9),
    ("band22_n4", (2, 2), 1.0)])
def test_windowed_band_of_a_shipped_config_equals_the_full_solve(name, pattern, threshold):
    spectra, band = assert_window_equals_the_full_solve(config(name), pattern, threshold)
    # a window holds the lowest pair and the band's candidates, a few per block
    assert all(ksp.columns[0] == 0 and len(ksp.columns) <= 12 for ksp in spectra)
    if name == "band42_n6":
        assert ground_state(spectra).l == -1  # the first of the tied E(-1) = E(0) = E(1)
    assert bool(band.overlap_notes) == (threshold == 1.0)  # no vector is pure


@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("model,pattern", [(F7N4, (2, 2)), (F7N6, (4, 2)), (F7N6_G2, (3, 3))],
                         ids=["f7n4-22", "f7n6-42", "f7n6-33"])
def test_windowed_golden_band_equals_the_full_solve(model, pattern, threshold):
    assert_window_equals_the_full_solve(ModelParams(**model), pattern, threshold)


@pytest.mark.parametrize("model,pattern,threshold", [
    (dict(f=7, n=6, gamma1=3.0, epsilon=1.0), (4, 2), 0.9),
    (dict(f=9, n=5, gamma1=2.0, epsilon=1.0), (3, 2), 0.5),
    (dict(f=7, n=4, gamma1=1.0, epsilon=1.0), (2, 2), 0.5),
])
def test_windowed_overlapping_band_equals_the_full_solve(model, pattern, threshold):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # strong hopping draws resonance warnings
        _, band = assert_window_equals_the_full_solve(ModelParams(**model), pattern, threshold)
    assert any(0 < found < want for found, want in band.counts.values())
    assert band.overlap_notes


def test_extract_band_rejects_spectra_windowed_on_another_pattern():
    p = ModelParams(**F7N6)
    spectra = labelled_spectra(p, pattern=(3, 3))
    with pytest.raises(ValidationError, match="windowed on pattern"):
        extract_band(p, (4, 2), spectra)
    assert extract_band(p, (3, 3), spectra).points
    with pytest.raises(ValidationError):
        labelled_spectra(p, pattern=(5, 2))  # checked before any solve


# ------------------------------------------------------------ effective masses


def quadratic_samples(delta, curvature, points=11):
    ks = [j * delta for j in range(-(points // 2), points // 2 + 1)]
    return ks, [0.5 * curvature * k * k for k in ks]


def test_effective_mass_recovers_quadratic_curvature():
    ks, es = quadratic_samples(0.05, curvature=3.0)
    fit = effective_mass(ks, es)
    assert fit.mass == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert fit.curvature_fd == pytest.approx(3.0, rel=1e-9)
    assert fit.curvature_fit == pytest.approx(3.0, rel=1e-9)


def test_effective_mass_accepts_shuffled_input():
    ks, es = quadratic_samples(0.05, curvature=-2.0)
    order = np.random.default_rng(7).permutation(len(ks))
    fit = effective_mass(np.array(ks)[order], np.array(es)[order])
    assert fit.mass == pytest.approx(-0.5, rel=1e-12)


def test_effective_mass_matches_asymptotic_line_band():
    # curvature of the bound-pair line is eps^2 / (gamma1 Gamma) exactly,
    # so the mass is gamma1 Gamma / eps^2
    for gamma2, want in ((0.0, -160.0), (7.5, 56.0)):
        p = ModelParams(f=19, n=4, gamma1=10.0, gamma2=gamma2, epsilon=0.5)
        delta = 2.0 * math.pi / 201.0
        ks = [j * delta for j in range(-5, 6)]
        es = [band22_asymptotic(p, k).line for k in ks]
        fit = effective_mass(ks, es)
        assert fit.mass == pytest.approx(want, rel=1e-6)


def test_effective_mass_validates_grids():
    delta = 0.05
    ks, es = quadratic_samples(delta, 1.0)
    with pytest.raises(ValidationError):
        effective_mass(ks[:4], es[:4])
    with pytest.raises(ValidationError):
        effective_mass([k + 0.5 * delta for k in ks], es)   # no k = 0 sample
    with pytest.raises(ValidationError):
        effective_mass([k + 2 * delta for k in ks[:5]], es[:5])   # zero at the edge
    bad = list(ks)
    bad[-4] += 0.3 * delta
    with pytest.raises(ValidationError):
        effective_mass(bad, es)
    coarse, ec = quadratic_samples(2.0 * math.pi / 9.0, 1.0, points=5)
    with pytest.raises(ValidationError):
        effective_mass(coarse, ec)
    with pytest.raises(ValidationError):
        effective_mass(ks, es[:-1])


def test_effective_mass_rejects_degenerate_dispersion():
    ks, _ = quadratic_samples(0.05, 1.0, points=5)
    with pytest.raises(NumericalError):
        effective_mass(ks, [5.0] * 5)                      # flat band
    with pytest.raises(NumericalError):
        effective_mass(ks, [3.0 * k for k in ks])          # pure slope
    with pytest.raises(NumericalError):
        effective_mass(ks, [0.0, 0.0, 1.0, 0.0, 0.0])      # estimates disagree


def test_band_mass_requires_the_requested_tag():
    single = ModelParams(f=17, n=2, gamma1=10.0, gamma2=0.0, epsilon=0.1)
    with pytest.raises(NumericalError):
        band_mass(single, (2,), "line")


def test_mass_ratio_approaches_line_coupling():
    report = mass_ratio_report(17, 10.0, epsilon=0.1)
    assert report.gamma_prediction == pytest.approx(-4.0)
    assert report.m2_star == pytest.approx(500.202, abs=0.1)
    assert report.m2_star > 0 and report.m22_star < 0
    assert report.ratio == pytest.approx(-4.0, rel=2e-3)

"""Closed second-order band forms and the numeric degenerate-PT reference."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdnls
from qdnls import (
    MomentumIndex,
    ModelParams,
    PTValidityWarning,
    ResonanceError,
    SectorOrbits,
    ValidationError,
    assemble_block,
    band22_asymptotic,
    bw_second_order_block,
    eigh,
    extract_band,
    h22_matrix,
    h33_matrix,
    h42_matrix,
    labelled_spectra,
    momentum_grid,
    momentum_spectra,
    pt_band,
)
from qdnls.basis import TranslationOrbit, momentum_basis, pattern_of, rank_rows
from qdnls.errors import ResonanceWarning
from qdnls.hamiltonian import block_parts, diagonal_energy
from qdnls.perturbation import (
    PT_BUILDERS,
    Coeffs22,
    coeffs22,
    coeffs33,
    coeffs42,
    continuum42,
    continuum42_bounds,
    pt_asymptotics,
    resonance_floor,
)

from conftest import points_at


def classes_of(sector, pattern):
    return [orb for orb in sector.orbits if pattern_of(orb.rep) == pattern]


# ------------------------------------------------------------------ coefficients


def test_pair_coefficients_at_figure_parameters():
    c = coeffs22(ModelParams(f=19, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5))
    assert c.prefactor == pytest.approx(-0.05)
    assert c.shift == pytest.approx(-0.1)
    assert c.impurity == pytest.approx(-4.0)
    c = coeffs22(ModelParams(f=19, n=4, gamma1=10.0, gamma2=7.5, epsilon=0.5))
    assert c.impurity == pytest.approx(1.4)


def test_heavy_pair_coefficients_at_figure_parameters():
    c = coeffs42(ModelParams(f=11, n=6, gamma1=30.0, gamma2=0.0, epsilon=0.5))
    assert c.shift == pytest.approx(-(1.0 / 9.0) * 0.25)   # D eps^2, D = -1/9
    assert c.prefactor == pytest.approx(-0.25 / 30.0)
    assert c.impurity == pytest.approx(8.0 / 3.0)
    assert c.closure_mag == pytest.approx(6.0)


def test_triplet_coefficients_at_figure_parameters():
    c = coeffs33(ModelParams(f=11, n=6, gamma1=10.0, gamma2=20.0, epsilon=0.5))
    assert c.prefactor == pytest.approx(0.0375)
    assert c.impurity == pytest.approx(-27.0 / 22.0)


def test_pattern_energy_sums_clumps():
    params = ModelParams(f=11, n=6, gamma1=3.0, gamma2=0.5, epsilon=0.1)
    assert diagonal_energy((2,), params) == pytest.approx(-6.0)
    assert diagonal_energy((2, 2), params) == pytest.approx(-12.0)
    assert diagonal_energy((4, 2), params) == pytest.approx(
        diagonal_energy((4,), params) + diagonal_energy((2,), params))
    # a pattern is read as an occupation row, whatever the clumps' sites
    assert diagonal_energy((4, 2), params) == diagonal_energy((0, 2, 0, 4, 0), params)


# ------------------------------------------------------------- matrix structure


def test_pair_matrix_structure():
    params = ModelParams(f=11, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    c = coeffs22(params)
    k = 2.0 * math.pi * 2 / 11
    m = h22_matrix(params, k)
    sigma = 5
    assert m.shape == (sigma, sigma)
    assert np.array_equal(m, m.conj().T)
    assert m[0, 0] == pytest.approx(c.shift + c.prefactor * c.impurity)
    assert m[sigma - 1, sigma - 1] == pytest.approx(c.shift + c.prefactor * math.cos(sigma * k))
    assert m[0, 1] == pytest.approx(c.prefactor * Coeffs22.kappa(k))
    assert m[2, 2] == pytest.approx(c.shift)


def test_pair_matrix_single_class_ring():
    # f = 3: adjacent and maximal separation coincide; impurity entry only
    params = ModelParams(f=3, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    with pytest.warns(PTValidityWarning):
        m = h22_matrix(params, 0.0)
    c = coeffs22(params)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(c.shift + c.prefactor * c.impurity)


def test_flat_triplet_matrix_is_k_free():
    params = ModelParams(f=11, n=6, gamma1=10.0, gamma2=20.0, epsilon=0.5)
    a = h33_matrix(params, 0.0)
    b = h33_matrix(params, 1.234)
    assert np.array_equal(a, b)
    assert np.abs(a - np.diag(np.diag(a))).max() == 0.0


def test_even_ring_rejected():
    params = ModelParams(f=8, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    with pytest.raises(ValidationError):
        h22_matrix(params, 0.0)


def test_closed_forms_reject_a_momentum_of_another_ring():
    pair = ModelParams(f=11, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    heavy = ModelParams(f=11, n=6, gamma1=30.0, gamma2=0.0, epsilon=0.5)
    flat = ModelParams(f=11, n=6, gamma1=10.0, gamma2=20.0, epsilon=0.5)
    alien = MomentumIndex(1, 13)
    for build, params in ((h22_matrix, pair), (h42_matrix, heavy), (h33_matrix, flat),
                          (band22_asymptotic, pair)):
        with pytest.raises(ValidationError,
                           match="momentum index on f=13 does not match the ring f=11"):
            build(params, alien)  # h33_matrix never reads k, and still rejects it
        # a float k is taken as it is, and a momentum index of the ring as its k
        own = MomentumIndex(1, 11)
        want, got = build(params, own.k), build(params, own)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
    with pytest.raises(ValidationError, match="does not match the ring"):
        pt_band(pair, (2, 2), momentum_grid(13))


PAIR = ModelParams(f=11, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
ALIEN = MomentumIndex(1, 13)
# every entry that takes a momentum of the f = 11 ring, given one of f = 13
RING_ENTRIES = {
    "momentum_basis": lambda: momentum_basis(11, 4, ALIEN),
    "assemble_block": lambda: assemble_block(PAIR, ALIEN),
    "momentum_spectra": lambda: momentum_spectra(PAIR, momentum_grid(13)),
    "bw_second_order_block": lambda: bw_second_order_block(
        PAIR, ALIEN, classes_of(SectorOrbits(11, 4), (2, 2))),
    "h22_matrix": lambda: h22_matrix(PAIR, ALIEN),
    "h42_matrix": lambda: h42_matrix(replace(PAIR, n=6, gamma1=30.0), ALIEN),
    "h33_matrix": lambda: h33_matrix(replace(PAIR, n=6, gamma2=20.0), ALIEN),
    "band22_asymptotic": lambda: band22_asymptotic(PAIR, ALIEN),
    "pt_band": lambda: pt_band(PAIR, (2, 2), momentum_grid(13)),
}


@pytest.mark.parametrize("entry", RING_ENTRIES)
def test_every_entry_rejects_a_momentum_of_another_ring_with_one_message(entry):
    with pytest.raises(ValidationError) as info:
        RING_ENTRIES[entry]()
    assert str(info.value) == "momentum index on f=13 does not match the ring f=11"


def test_momentum_basis_and_engine_need_a_momentum_index_with_one_message():
    with pytest.raises(ValidationError) as basis_error:
        momentum_basis(11, 4, 0.3)
    with pytest.raises(ValidationError) as engine_error:
        bw_second_order_block(PAIR, 0.3, classes_of(SectorOrbits(11, 4), (2, 2)))
    assert (str(basis_error.value) == str(engine_error.value)
            == "a ring momentum needs a MomentumIndex, got 0.3")


# the closed forms at the f = 11 ring, each with the parameters of its pattern
CLOSED_FORMS = {
    "h22_matrix": (h22_matrix, PAIR),
    "h42_matrix": (h42_matrix, replace(PAIR, n=6, gamma1=30.0)),
    "h33_matrix": (h33_matrix, replace(PAIR, n=6, gamma2=20.0)),
    "band22_asymptotic": (band22_asymptotic, PAIR),
}
BAD_MOMENTA = [True, np.bool_(True), "1", "x", None, 1j, [1.0], np.array([1.0]), MomentumIndex,
               math.nan, math.inf, -np.float64(math.inf), 10**400]


@pytest.mark.parametrize("entry,k", [(entry, k) for entry in CLOSED_FORMS for k in BAD_MOMENTA
                                     # h33_matrix's k is optional: it never reads it
                                     if k is not None or entry != "h33_matrix"],
                         ids=lambda value: repr(value)[:16])
def test_closed_forms_take_a_momentum_index_or_a_real_number_only(entry, k):
    build, params = CLOSED_FORMS[entry]
    with pytest.raises(ValidationError) as info:
        build(params, k)
    assert str(info.value) == (
        f"a momentum needs a MomentumIndex or a finite real number, got {k!r}")


@pytest.mark.parametrize("entry", CLOSED_FORMS)
def test_closed_forms_take_every_real_type_as_its_float(entry):
    build, params = CLOSED_FORMS[entry]
    want = build(params, 1.0)
    for k in (1, np.int64(1), np.int8(1), np.float64(1.0), np.float32(1.0)):
        got = build(params, k)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_matrices_conjugate_under_momentum_reversal():
    params = ModelParams(f=11, n=6, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    pair = ModelParams(f=11, n=4, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    for l in (1, 2, 5):
        k = 2.0 * math.pi * l / 11
        assert np.allclose(h22_matrix(pair, -k), h22_matrix(pair, k).conj())
        assert np.allclose(h42_matrix(params, -k), h42_matrix(params, k).conj())


# ------------------------------------------------------------------- resonances


@pytest.mark.parametrize("build,g1,g2,name", [
    (coeffs22, 0.0, 1.0, "-2*gamma1"),
    (coeffs22, 3.0, 1.0, "gamma1 - 3*gamma2"),
    (coeffs42, 6.0, 1.0, "gamma1 - 6*gamma2"),
    (coeffs33, 1.5, 1.0, "3*gamma2 - 2*gamma1"),
])
def test_resonant_denominators_are_named(build, g1, g2, name):
    params = ModelParams(f=11, n=6, gamma1=g1, gamma2=g2, epsilon=0.1)
    with pytest.raises(ResonanceError) as err:
        build(params)
    assert err.value.denominator == name
    assert f"denominator {name} = " in str(err.value)


def test_line_coupling_resonance_in_asymptotic_band():
    # 3 gamma2 = 4 gamma1 kills the line-coupling ratio itself
    params = ModelParams(f=19, n=4, gamma1=3.0, gamma2=4.0, epsilon=0.1)
    with pytest.raises(ResonanceError) as err:
        band22_asymptotic(params, 0.0)
    assert "3*gamma2 - 4*gamma1" in str(err.value)


# ------------------------------------------------------------- asymptotic band


def test_asymptotic_pair_band_at_figure_parameters():
    params = ModelParams(f=19, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    asym = band22_asymptotic(params, 0.0)
    assert asym.line == pytest.approx(-39.8875, abs=1e-12)
    assert asym.continuum_lo == pytest.approx(-40.2, abs=1e-12)
    assert asym.continuum_hi == pytest.approx(-40.0, abs=1e-12)
    assert asym.exists_all_k  # |impurity| = 4 > 1
    # the continuum interpolates the edges through theta
    assert asym.continuum(0.5) < asym.continuum_hi
    assert asym.continuum(0.5) > asym.continuum_lo


def test_asymptotic_line_detaches_only_past_threshold():
    # impurity (3 g2 - 4 g1)/(g1 - 3 g2) = -0.5: line exists iff cos(k/2) < 0.5
    params = ModelParams(f=19, n=4, gamma1=1.0, gamma2=7.0 / 3.0, epsilon=0.1)
    c = coeffs22(params)
    assert c.impurity == pytest.approx(-0.5)
    assert band22_asymptotic(params, 0.0).line is None
    asym = band22_asymptotic(params, 0.9 * math.pi).line
    assert asym is not None
    assert not band22_asymptotic(params, 0.0).exists_all_k


def test_asymptotic_band_folds_momentum():
    params = ModelParams(f=19, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    a = band22_asymptotic(params, 0.3)
    b = band22_asymptotic(params, 0.3 + 2.0 * math.pi)
    assert a.line == pytest.approx(b.line, rel=1e-15)


def test_finite_matrix_converges_to_asymptotic_band():
    diffs_line, diffs_lo = [], []
    for f in (9, 19, 39):
        params = ModelParams(f=f, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
        ev = np.sort(eigh(h22_matrix(params, 0.0)).eigenvalues) + diagonal_energy((2, 2), params)
        asym = band22_asymptotic(params, 0.0)
        diffs_line.append(abs(ev[-1] - asym.line))   # impurity above: top eigenvalue
        diffs_lo.append(abs(ev[0] - asym.continuum_lo))
    assert diffs_line[1] < 1e-9  # exponential in sigma
    assert diffs_lo[0] > diffs_lo[1] > diffs_lo[2]
    assert diffs_lo[2] < 5e-4


def test_heavy_pair_continuum_identities():
    params = ModelParams(f=11, n=6, gamma1=30.0, gamma2=0.0, epsilon=0.5)
    c = coeffs42(params)
    # theta = pi/2 sits at the center: E4 + E2 + D eps^2
    center = diagonal_energy((4, 2), params) + c.shift
    assert continuum42(params, 0.5 * math.pi) == pytest.approx(center, rel=1e-14)
    lo, hi = continuum42_bounds(params)
    assert lo == pytest.approx(-420.0 - 8.0 / 180.0, abs=1e-10)
    assert hi == pytest.approx(-420.0 - 2.0 / 180.0, abs=1e-10)
    assert lo < center < hi


def test_pt_band_takes_a_pattern_in_any_order():
    params = ModelParams(f=11, n=6, gamma1=30.0, gamma2=0.0, epsilon=0.5)
    ordered, reversed_ = pt_band(params, (4, 2)), pt_band(params, (2, 4))
    assert ordered.keys() == reversed_.keys()
    assert all(np.array_equal(ordered[l], reversed_[l]) for l in ordered)


PT_CASES = [  # (params, pattern): the golden `pt` cases and band22_n4.json
    (ModelParams(f=7, n=4, gamma1=10.0, epsilon=0.5), (2, 2)),
    (ModelParams(f=7, n=6, gamma1=30.0, epsilon=0.5), (4, 2)),
    (ModelParams(f=7, n=6, gamma1=10.0, gamma2=20.0, epsilon=0.5), (3, 3)),
    (ModelParams(f=19, n=4, gamma1=10.0, epsilon=0.5), (2, 2)),
]


@pytest.mark.parametrize("params,pattern", PT_CASES)
def test_pt_band_keeps_eigh_ascending_order_bitwise(params, pattern):
    # eigh's eigenvalues are ascending, so pt_band's energies, which it does
    # not sort, are bitwise those of the sorted spectrum
    offset = diagonal_energy(pattern, params)
    band = pt_band(params, pattern)
    for k in momentum_grid(params.f):
        energies = band[k.l]
        want = np.sort(eigh(PT_BUILDERS[pattern](params, k)).eigenvalues) + offset
        assert np.array_equal(energies, want)
        assert np.all(np.diff(energies) >= 0)


@pytest.mark.parametrize("params,pattern", PT_CASES)
def test_pt_asymptotics_read_the_coefficient_functions(params, pattern):
    center = diagonal_energy(pattern, params)
    for k in momentum_grid(params.f):
        asym = pt_asymptotics(params, pattern, k)
        if pattern == (2, 2):
            band = band22_asymptotic(params, k.k)
            assert asym == {"asym_line": band.line, "asym_cont_min": band.continuum_lo,
                            "asym_cont_max": band.continuum_hi}
        elif pattern == (4, 2):
            assert list(asym.values()) == list(continuum42_bounds(params))
            assert list(asym) == ["asym_cont_min", "asym_cont_max"]
        else:
            # the two values of the flat matrix's diagonal, adjacent class first
            diag = h33_matrix(params).diagonal().real + center
            assert list(asym) == ["asym_line", "asym_cont"]
            assert [asym["asym_line"], asym["asym_cont"]] == [diag[0], diag[-1]]


def test_closed_form_explains_criterion_3_spread():
    # acceptance criterion 3 asks the exact {4,2} continuum at this point to be
    # k-independent within 10 eps^3 / gamma1^2 per eigenvalue index; the
    # closed second-order matrix, whose two extreme eigenvalues are the lines,
    # already spreads its continuum by more than that, and by the exact amount
    params = ModelParams(f=11, n=6, gamma1=30.0, gamma2=0.0, epsilon=0.5)
    closed = pt_band(params, (4, 2))
    per_k = np.array([closed[l][1:-1] for l in sorted(closed)])
    spread = float((per_k.max(axis=0) - per_k.min(axis=0)).max())
    report = extract_band(params, (4, 2), labelled_spectra(params))
    exact = np.array([sorted(p.energy for p in points_at(report, l) if p.tag == "continuum")
                      for l in sorted(report.counts)])
    exact_spread = float((exact.max(axis=0) - exact.min(axis=0)).max())
    bound = 10.0 * params.epsilon ** 3 / params.gamma1 ** 2
    assert spread > bound
    assert f"{spread:.3g}" == f"{exact_spread:.3g}"


def test_criterion_3_spread_is_a_second_order_finite_size_effect():
    # the k-spread of the closed {4,2} continuum at criterion 3's couplings:
    # spread * f falls with f (about 0.015 / f), so the spread crosses the
    # bound 10 eps^3 / gamma1^2 between f = 11 and f = 13, and every entry of
    # the matrix carries eps^2, so halving eps quarters the spread exactly
    # while the bound falls by 8
    def spread(f, eps):
        params = ModelParams(f=f, n=6, gamma1=30.0, gamma2=0.0, epsilon=eps)
        ev = np.linalg.eigvalsh(np.array([h42_matrix(params, k) for k in momentum_grid(f)]))
        continuum = ev[:, 1:-1]
        return float((continuum.max(axis=0) - continuum.min(axis=0)).max())

    rings = range(7, 82, 2)
    spreads = {f: spread(f, 0.5) for f in rings}
    scaled = [spreads[f] * f for f in rings]
    assert all(a > b for a, b in zip(scaled, scaled[1:]))
    assert 0.0139 < scaled[-1] < scaled[0] < 0.0173
    bound = 10.0 * 0.5 ** 3 / 30.0 ** 2
    assert spreads[11] > bound > spreads[13]
    for f in (7, 11, 13, 41):
        assert spread(f, 0.25) * 4 == spreads[f]


# ------------------------------------------------- numeric second-order check


def test_first_order_coupling_vanishes_between_pair_classes():
    # one hop always breaks a clump, so V has no matrix element inside the
    # pattern space and the leading correction is second order
    params = ModelParams(f=11, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    sector = SectorOrbits(11, 4)
    cls = classes_of(sector, (2, 2))
    for k in momentum_grid(11)[:3]:
        basis, _, v = block_parts(params, k)
        orbits = np.searchsorted(sector.reps, rank_rows([orb.rep for orb in cls]))
        rows = [int(np.flatnonzero(basis.orbit_indices == g)[0]) for g in orbits]
        assert np.abs(v[np.ix_(rows, rows)]).max() == 0.0


@pytest.mark.parametrize("f,n,pattern,build", [
    (11, 4, (2, 2), h22_matrix),
    (11, 6, (4, 2), h42_matrix),
    (11, 6, (3, 3), h33_matrix),
])
def test_closed_forms_match_numeric_reference(f, n, pattern, build):
    params = ModelParams(f=f, n=n, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    sector = SectorOrbits(f, n)
    cls = classes_of(sector, pattern)
    for k in momentum_grid(f):
        bw = bw_second_order_block(params, k, cls, sector)
        closed = build(params, k)
        assert np.abs(bw - closed).max() <= 1e-12


def test_single_class_reference_matches_exact_band():
    # the isolated pair clump: a 1x1 reference whose value tracks the exact
    # lowest band of the two-boson sector to fourth order
    params = ModelParams(f=11, n=2, gamma1=10.0, gamma2=0.0, epsilon=0.1)
    sector = SectorOrbits(11, 2)
    cls = classes_of(sector, (2,))
    assert len(cls) == 1
    spectra = {basis.k.l: spectrum for basis, spectrum in momentum_spectra(params)}
    offset = diagonal_energy((2,), params)
    for k in momentum_grid(11):
        bw = bw_second_order_block(params, k, cls, sector)
        predicted = float(bw[0, 0].real) + offset
        exact = float(spectra[k.l].eigenvalues[0])
        assert abs(predicted - exact) <= 1e-6


def test_reference_rejects_non_degenerate_classes():
    params = ModelParams(f=11, n=6, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    sector = SectorOrbits(11, 6)
    mixed = classes_of(sector, (4, 2))[:1] + classes_of(sector, (3, 3))[:1]
    with pytest.raises(ValidationError):
        bw_second_order_block(params, momentum_grid(11)[0], mixed, sector)


def test_reference_raises_on_resonant_intermediates():
    # gamma1 = 3 gamma2 puts the broken-pair intermediate on top of the
    # pair classes
    params = ModelParams(f=11, n=4, gamma1=3.0, gamma2=1.0, epsilon=0.1)
    sector = SectorOrbits(11, 4)
    cls = classes_of(sector, (2, 2))
    with pytest.raises(ResonanceError) as err:
        bw_second_order_block(params, momentum_grid(11)[5], cls, sector)
    assert str(err.value) == (
        "resonant parameters: denominator E0(classes) - E0((3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0))"
        " = 0 is below the resonance floor")


def test_near_resonant_parameters_warn():
    # smallest intermediate gap is 2 gamma1 = 20, within 10 x epsilon here
    params = ModelParams(f=11, n=4, gamma1=10.0, gamma2=0.0, epsilon=2.5)
    sector = SectorOrbits(11, 4)
    cls = classes_of(sector, (2, 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bw_second_order_block(params, momentum_grid(11)[5], cls, sector)
    assert any("epsilon" in str(w.message) for w in caught)
    # the shared policy names the nearest intermediate, first in rank order
    assert [str(w.message) for w in caught] == [
        "denominator E0(classes) - E0((3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)) = 20 is within "
        "10 x epsilon; second-order results may be inaccurate"]


# ------------------------------------------- local engine vs the dense block


def dense_reference(params, k, classes, sector):
    """The numeric reference read off the whole dense Bloch block: the class
    rows of `block_parts` and the sum over every coupled column outside them."""
    basis, diag, v = block_parts(params, k)
    p = []
    for orb in classes:
        g = np.searchsorted(sector.reps, rank_rows([orb.rep])[0])
        j = int(np.searchsorted(basis.orbit_indices, g))
        if j == basis.dim or basis.orbit_indices[j] != g:
            raise ValidationError(f"class {orb.rep} carries no weight at momentum l={k.l}")
        p.append(j)
    q = np.setdiff1d(np.arange(basis.dim), p)
    v_pq = v[np.ix_(p, q)]
    coupled = np.abs(v_pq).max(axis=0, initial=0.0) > 1e-12 * max(params.epsilon, 1.0)
    den = diag[p[0]] - diag[q[coupled]]
    if den.size:
        worst = int(np.argmin(np.abs(den)))
        if abs(den[worst]) < resonance_floor(params):
            rep = sector.orbits[basis.orbit_indices[q[coupled][worst]]].rep
            raise ResonanceError(f"E0(classes) - E0({rep})", float(den[worst]))
    v_c = v_pq[:, coupled]
    h = v[np.ix_(p, p)] + (v_c / den) @ v_c.conj().T
    return 0.5 * (h + h.conj().T)


@st.composite
def degenerate_families(draw):
    """A small sector, couplings with gamma2 <= gamma1 / 10 (one hop then
    changes the zero-hopping energy by at least 0.8 gamma1 unless it stays in
    its pattern), and a random subset of the classes of one pattern."""
    f, n = draw(st.integers(3, 9)), draw(st.integers(2, 6))
    gamma1 = draw(st.floats(1.0, 10.0))
    params = ModelParams(f=f, n=n, gamma1=gamma1, gamma2=draw(st.floats(0.0, gamma1 / 10)),
                         epsilon=draw(st.floats(0.01, 1.0)))
    sector = SectorOrbits(f, n)
    patterns = sorted({pattern_of(orb.rep) for orb in sector.orbits})
    members = classes_of(sector, draw(st.sampled_from(patterns)))
    chosen = draw(st.lists(st.integers(0, len(members) - 1), min_size=1, unique=True))
    return params, sector, [members[i] for i in chosen]


def outcome(build, *args):
    try:
        return build(*args)
    except (ValidationError, ResonanceError) as exc:
        return exc


@given(degenerate_families())
@settings(max_examples=40, deadline=None)
def test_local_engine_equals_dense_block_reference(family):
    params, sector, classes = family
    e0 = diagonal_energy(np.array([orb.rep for orb in classes]), params)
    tol = 1e-12 * max(1.0, float(np.abs(e0).max()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in momentum_grid(params.f):
            want = outcome(dense_reference, params, k, classes, sector)
            got = outcome(bw_second_order_block, params, k, classes)
            if isinstance(want, Exception):
                # no weight at k, or a same-pattern class left outside the set:
                # the same error, naming the same state
                assert type(got) is type(want) and str(got) == str(want)
                continue
            assert not isinstance(got, Exception), got
            assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("f,n,pattern,gamma1", [(10, 4, (2, 2), 10.0), (12, 6, (4, 2), 30.0),
                                                (8, 4, (2, 2), 10.0)])
def test_reference_at_opposite_momenta_of_an_even_ring_is_bitwise_conjugate(f, n, pattern,
                                                                           gamma1):
    # the Bloch phase reads the reduced label, so l and f - l give exactly
    # opposite phases, as in the exact blocks
    params = ModelParams(f=f, n=n, gamma1=gamma1, gamma2=0.0, epsilon=0.5)
    reps, periods = qdnls.pattern_classes(f, pattern)
    classes = [TranslationOrbit(rep=tuple(r), period=d)
               for r, d in zip(reps.tolist(), periods.tolist())]
    checked = 0
    for l in range(1, f // 2):
        plus = outcome(bw_second_order_block, params, MomentumIndex(l, f), classes)
        minus = outcome(bw_second_order_block, params, MomentumIndex(f - l, f), classes)
        if isinstance(plus, Exception):  # a period-f/2 class has no weight at odd l
            assert type(minus) is type(plus)
            continue
        assert np.array_equal(minus, plus.conj())
        checked += 1
    assert checked >= (f // 2 - 1) // 2


def test_reference_reaches_rings_beyond_the_sector_table(monkeypatch):
    # f = 41, n = 6 has 9.4e6 states; the {4,2} classes are the 4-clump at
    # site 0 and the 2-clump at each clockwise separation 1 .. 40
    def refuse(*args, **kwargs):
        raise AssertionError("the reference built a sector table")

    for module in (qdnls, qdnls.basis, qdnls.hamiltonian, qdnls.perturbation):
        if hasattr(module, "SectorOrbits"):
            monkeypatch.setattr(module, "SectorOrbits", refuse)
    monkeypatch.setattr(qdnls.basis, "_occupations", refuse)
    f = 41
    params = ModelParams(f=f, n=6, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    classes = [TranslationOrbit(rep=(4,) + (0,) * (j - 1) + (2,) + (0,) * (f - 1 - j), period=f)
               for j in range(1, f)]
    for k in momentum_grid(f):
        bw = bw_second_order_block(params, k, classes, sector=None)
        assert np.abs(bw - h42_matrix(params, k)).max() <= 1e-10


def test_reference_ranks_a_fixed_number_of_times_at_any_ring_size(monkeypatch):
    # canonical_rows ranks all f rotations of its rows in one call, so one
    # block takes as many rankings at f = 41 as at f = 11
    calls = []
    rank_rows = qdnls.basis.rank_rows

    def counting(rows):
        calls.append(len(rows))
        return rank_rows(rows)

    monkeypatch.setattr(qdnls.basis, "rank_rows", counting)
    counts = []
    for f in (11, 41):
        params = ModelParams(f=f, n=6, gamma1=30.0, gamma2=4.0, epsilon=0.5)
        classes = [TranslationOrbit(rep=(4,) + (0,) * (j - 1) + (2,) + (0,) * (f - 1 - j), period=f)
                   for j in range(1, f)]
        qdnls.basis.class_fold.cache_clear()  # fold this family afresh
        calls.clear()
        bw_second_order_block(params, momentum_grid(f)[1], classes)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def counting_canonical_rows(monkeypatch):
    """Patch the basis module's canonical_rows, which the class fold calls, to
    record each call's row count, and forget every memoized class fold, so the
    next call makes its own."""
    qdnls.basis.class_fold.cache_clear()
    calls = []
    canonical_rows = qdnls.basis.canonical_rows

    def counting(rows):
        calls.append(len(rows))
        return canonical_rows(rows)

    monkeypatch.setattr(qdnls.basis, "canonical_rows", counting)
    return calls


@pytest.mark.parametrize("f", [11, 41])
def test_reference_folds_classes_and_destinations_in_one_call(monkeypatch, f):
    calls = counting_canonical_rows(monkeypatch)
    params = ModelParams(f=f, n=6, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    classes = [TranslationOrbit(rep=(4,) + (0,) * (j - 1) + (2,) + (0,) * (f - 1 - j), period=f)
               for j in range(1, f)]
    for k in momentum_grid(f)[:3]:
        bw_second_order_block(params, k, classes)
    # the f - 1 class rows stacked over their 4 (f - 1) hop destinations, folded
    # at the first momentum and reused at the others
    assert calls == [(f - 1) + 4 * (f - 1)]


def test_a_class_family_is_folded_once_at_every_momentum_and_coupling(monkeypatch):
    sector = SectorOrbits(11, 4)
    cls = classes_of(sector, (2, 2))
    calls = counting_canonical_rows(monkeypatch)
    for eps in (0.5, 0.25):
        params = ModelParams(f=11, n=4, gamma1=10.0, gamma2=0.0, epsilon=eps)
        for k in momentum_grid(11):
            bw_second_order_block(params, k, cls, sector)
    # each class row has two 2-clumps, each with two moves
    assert calls == [len(cls) + 4 * len(cls)]


VALIDATION_CASES = ["rotation", "length", "count", "negative", "bool", "float", "huge",
                    "wrap", "duplicate", "empty", "ring"]
# the cases rejected before the fold, each naming its one bad class
ENTRY_CASES = ("rotation", "length", "count", "negative", "bool", "float", "huge", "wrap")


def valid_input():
    """(params, k, classes): the {2, 2} classes of the f=11, n=4 sector at l = 0."""
    params = ModelParams(f=11, n=4, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    return params, momentum_grid(11)[0], classes_of(SectorOrbits(11, 4), (2, 2))


def invalid_input(case):
    """(params, k, classes) on the f=11, n=4 sector that the reference rejects."""
    params, k, cls = valid_input()
    if case == "ring":
        k = MomentumIndex(0, 7)
    tail = (0,) * 8
    classes = {
        "rotation": [TranslationOrbit(rep=(0, 2, 2) + tail, period=11)],
        "length": [TranslationOrbit(rep=(2, 2, 0), period=3)],
        "count": [TranslationOrbit(rep=(2, 1, 0) + tail, period=11)],
        "negative": [TranslationOrbit(rep=(3, -1, 2) + tail, period=11)],
        "bool": [TranslationOrbit(rep=(2, 1, True) + tail, period=11)],
        "float": [TranslationOrbit(rep=(2.0, 2, 0) + tail, period=11)],
        # beyond int64: an OverflowError of the array conversion is no answer
        "huge": [TranslationOrbit(rep=(2**70, 4 - 2**70, 0) + tail, period=11)],
        # int64 entries whose int64 sum wraps round to n
        "wrap": [TranslationOrbit(rep=(2**62,) * 4 + (4,) + (0,) * 6, period=11)],
        "duplicate": cls[:1] + cls[:1],
        "empty": [],
        "ring": cls,
    }[case]
    return params, k, classes


@pytest.mark.parametrize("with_sector", [False, True])
@pytest.mark.parametrize("case", VALIDATION_CASES)
def test_reference_validation_is_the_same_with_and_without_a_sector(monkeypatch, case,
                                                                    with_sector):
    params, k, classes = invalid_input(case)
    sector = SectorOrbits(11, 4)
    calls = counting_canonical_rows(monkeypatch)
    with pytest.raises(ValidationError) as info:
        bw_second_order_block(params, k, classes, sector if with_sector else None)
    if case in ENTRY_CASES:
        assert str(info.value) == f"{classes[0].rep!r} is not an orbit representative of this sector"
    # only rows of the right length, sign and count reach the one canonical_rows
    # call, which rejects a row that is not its own lowest-rank rotation
    assert len(calls) == (case in ("rotation", "duplicate"))


@pytest.mark.parametrize("bad", [["count", "length"], ["length", "count"], ["float", "huge"],
                                 ["huge", "negative"], ["bool", "rotation"]])
def test_reference_names_the_first_bad_class(bad):
    params, k, good = valid_input()
    classes = good[:1] + [invalid_input(case)[2][0] for case in bad]
    with pytest.raises(ValidationError) as info:
        bw_second_order_block(params, k, classes)
    assert str(info.value) == f"{classes[1].rep!r} is not an orbit representative of this sector"


def test_reference_accepts_a_rep_of_numpy_integers():
    params, k, classes = valid_input()
    as_int64 = [TranslationOrbit(rep=tuple(map(np.int64, orb.rep)), period=orb.period)
                for orb in classes]
    want = bw_second_order_block(params, k, classes)
    assert np.array_equal(bw_second_order_block(params, k, as_int64), want)


def test_reference_needs_a_momentum_index():
    params, _, classes = valid_input()
    with pytest.raises(ValidationError, match="needs a MomentumIndex, got 0.3"):
        bw_second_order_block(params, 0.3, classes)
    # the closed forms take a float momentum
    k = momentum_grid(11)[6]
    assert np.array_equal(h22_matrix(params, k.k), h22_matrix(params, k))


@pytest.mark.parametrize("n, sector_f, sector_n", [(4, 11, 3), (4, 13, 4), (6, 11, 4)])
def test_reference_rejects_a_sector_other_than_the_requested_one(n, sector_f, sector_n):
    # the {2, 2} classes of the f=11, n=4 sector, each a valid input for n=4
    params = ModelParams(f=11, n=n, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    classes = classes_of(SectorOrbits(11, 4), (2, 2))
    with pytest.raises(ValidationError, match="does not match"):
        bw_second_order_block(params, momentum_grid(11)[0], classes,
                              SectorOrbits(sector_f, sector_n))


# ------------------------------------------- the memoized class fold


def same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return (not isinstance(got, Exception) and got.dtype == want.dtype
            and np.array_equal(got, want))


def assert_warm_equals_cold(params, classes, other_params, sector=None):
    """Every momentum of `params`, each call on a fold made afresh, equals the
    same calls on one fold made at the first momentum of `other_params`."""
    fold = qdnls.basis.class_fold
    grid = momentum_grid(params.f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cold = []
        for k in grid:
            fold.cache_clear()
            cold.append(outcome(bw_second_order_block, params, k, classes, sector))
        fold.cache_clear()
        outcome(bw_second_order_block, other_params, grid[0], classes, sector)
        warm = [outcome(bw_second_order_block, params, k, classes, sector) for k in grid]
    assert fold.cache_info().misses == 1
    assert all(same_outcome(got, want) for got, want in zip(warm, cold))
    return cold


# the six points of qbench's pt-reference workload: (pattern, f, n, gamma1, gamma2)
PT_REFERENCE_POINTS = [((2, 2), 19, 4, 10.0, 0.0), ((2, 2), 23, 4, 10.0, 0.0),
                       ((4, 2), 11, 6, 30.0, 0.0), ((4, 2), 13, 6, 30.0, 0.0),
                       ((3, 3), 11, 6, 10.0, 20.0), ((3, 3), 13, 6, 10.0, 20.0)]


@pytest.mark.parametrize("point", PT_REFERENCE_POINTS)
def test_warm_fold_is_bitwise_equal_to_a_cold_one_at_the_reference_points(point):
    pattern, f, n, gamma1, gamma2 = point
    sector = SectorOrbits(f, n)
    classes = classes_of(sector, pattern)
    shipped = ModelParams(f=f, n=n, gamma1=gamma1, gamma2=gamma2, epsilon=0.5)
    jittered = ModelParams(f=f, n=n, gamma1=gamma1 * 1.013, gamma2=gamma2 * 0.988,
                           epsilon=0.5 * 1.017)
    for params, other in ((shipped, jittered), (jittered, shipped)):
        cold = assert_warm_equals_cold(params, classes, other, sector)
        assert not any(isinstance(c, Exception) for c in cold)


def test_warm_fold_is_bitwise_equal_to_a_cold_one_on_an_even_ring():
    # {2,2}: the period-5 class (2,0,0,0,0,2,0,0,0,0) reaches period-10 orbits,
    # so sqrt(d_p / d_q) differs from 1, and it has no weight at odd l;
    # {2,1,1}: hops reach period-5 orbits, which drop out at odd l
    sector = SectorOrbits(10, 4)
    params = ModelParams(f=10, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5)
    other = ModelParams(f=10, n=4, gamma1=10.2, gamma2=0.1, epsilon=0.49)
    pairs = classes_of(sector, (2, 2))
    assert [orb.period for orb in pairs].count(5) == 1
    cold = assert_warm_equals_cold(params, pairs, other)
    assert [isinstance(c, Exception) for c in cold] == [k.l % 2 == 1 for k in momentum_grid(10)]
    singles = classes_of(sector, (2, 1, 1))
    cold = assert_warm_equals_cold(params, singles, other)
    assert not any(isinstance(c, Exception) for c in cold)
    fold = qdnls.basis.class_fold(10, np.array([orb.rep for orb in singles], dtype=np.int64).tobytes())
    assert 5 in fold.period


def rejected_input(case):
    """`invalid_input`, a class without weight at k, classes of two patterns,
    or resonant couplings."""
    if case in VALIDATION_CASES:
        return invalid_input(case)
    if case == "weightless":
        return (ModelParams(f=10, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.5),
                MomentumIndex(1, 10), classes_of(SectorOrbits(10, 4), (2, 2)))
    if case == "mixed":
        sector = SectorOrbits(11, 6)
        return (ModelParams(f=11, n=6, gamma1=30.0, gamma2=4.0, epsilon=0.5), momentum_grid(11)[0],
                classes_of(sector, (4, 2))[:1] + classes_of(sector, (3, 3))[:1])
    return (ModelParams(f=11, n=4, gamma1=3.0, gamma2=1.0, epsilon=0.1), momentum_grid(11)[5],
            classes_of(SectorOrbits(11, 4), (2, 2)))


@pytest.mark.parametrize("case", VALIDATION_CASES + ["weightless", "mixed", "resonant"])
def test_warm_fold_raises_what_a_cold_one_raises(case):
    params, k, classes = rejected_input(case)
    qdnls.basis.class_fold.cache_clear()
    cold = outcome(bw_second_order_block, params, k, classes)
    warm = outcome(bw_second_order_block, params, k, classes)
    assert isinstance(cold, ResonanceError if case == "resonant" else ValidationError)
    assert type(warm) is type(cold) and str(warm) == str(cold)


def test_a_bool_entry_is_rejected_after_its_int_twin_is_folded():
    # True packs to the same int64 bytes as 1, so the fold key is made only
    # from rows that passed the entry checks
    params = ModelParams(f=11, n=4, gamma1=30.0, gamma2=4.0, epsilon=0.5)
    k = momentum_grid(11)[0]
    ints = classes_of(SectorOrbits(11, 4), (2, 1, 1))
    assert ints[0].rep[:3] == (2, 1, 1)

    def twin(*head):
        return [TranslationOrbit(rep=head + ints[0].rep[3:], period=11)] + ints[1:]

    qdnls.basis.class_fold.cache_clear()
    want = bw_second_order_block(params, k, ints)
    assert np.array_equal(bw_second_order_block(params, k, twin(np.int64(2), 1, np.int64(1))), want)
    bools = twin(2, 1, True)
    with pytest.raises(ValidationError) as info:
        bw_second_order_block(params, k, bools)
    assert str(info.value) == f"{bools[0].rep!r} is not an orbit representative of this sector"
    assert qdnls.basis.class_fold.cache_info().misses == 1


def test_resonance_warning_names_the_caller_with_a_warm_or_cold_fold():
    params = ModelParams(f=11, n=4, gamma1=10.0, gamma2=0.0, epsilon=2.5)
    cls = classes_of(SectorOrbits(11, 4), (2, 2))
    qdnls.basis.class_fold.cache_clear()
    for _ in ("cold", "warm"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bw_second_order_block(params, momentum_grid(11)[5], cls)
        assert [w.category for w in caught] == [ResonanceWarning]
        assert caught[0].filename == __file__

"""Certified Hermitian eigensolver."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdnls import NumericalError, Spectrum, ValidationError, eigh
from qdnls.eigensolve import ORTHO_TOL, RESIDUAL_RTOL, SLICE


def random_hermitian(rng, dim, complex_entries=True):
    if complex_entries:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    else:
        a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def test_contract_on_random_matrices():
    rng = np.random.default_rng(7)
    for trial in range(30):
        dim = int(rng.integers(2, 60))
        h = random_hermitian(rng, dim, complex_entries=bool(trial % 2))
        spec = eigh(h, want_vectors=True)
        w, v = spec.eigenvalues, spec.eigenvectors
        assert np.all(np.diff(w) >= 0)
        fro = np.linalg.norm(h)
        assert np.linalg.norm(h @ v - v * w, axis=0).max() <= RESIDUAL_RTOL * fro
        gram = v.conj().T @ v
        assert np.abs(gram - np.eye(dim)).max() <= ORTHO_TOL
        assert abs(w.sum() - np.trace(h).real) <= 1e-10 * max(1.0, abs(np.trace(h).real))


def test_values_only_mode():
    h = np.diag([3.0, 1.0, 2.0])
    spec = eigh(h)
    assert isinstance(spec, Spectrum)
    assert spec.eigenvectors is None
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])


def test_rejects_bad_input():
    with pytest.raises(ValidationError):
        eigh(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hermiticity_tolerance_is_relative():
    # tolerance is 1e-12 of the largest entry: 1e-6 here
    h = 1e6 * np.eye(3)
    h[0, 1] = 1e-4
    with pytest.raises(ValidationError):
        eigh(h)
    h[0, 1] = 1e-8
    eigh(h)  # under the relative tolerance: accepted


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_unitary_conjugation_preserves_spectrum(dim, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    q = np.linalg.qr(rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim)))[0]
    w1 = eigh(h).eigenvalues
    w2 = eigh(q @ h @ q.conj().T).eigenvalues
    assert np.abs(w1 - w2).max() <= 1e-9 * max(1.0, np.abs(w1).max())



@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_values_only_path_matches_the_vector_path(dim, seed, complex_entries):
    h = random_hermitian(np.random.default_rng(seed), dim, complex_entries)
    values = eigh(h)
    full = eigh(h, want_vectors=True)
    scale = max(1.0, float(np.abs(full.eigenvalues).max()))
    assert np.abs(values.eigenvalues - full.eigenvalues).max() <= 1e-12 * scale
    # the stated certificate: trace and Frobenius norm
    fro = np.linalg.norm(h)
    assert abs(values.eigenvalues.sum() - np.trace(h).real) <= RESIDUAL_RTOL * fro
    assert abs(np.linalg.norm(values.eigenvalues) - fro) <= RESIDUAL_RTOL * fro
    assert values.residual_bound <= RESIDUAL_RTOL * fro


def test_values_only_path_rejects_shifted_eigenvalues(monkeypatch):
    h = random_hermitian(np.random.default_rng(3), 20)
    true_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: true_eigvalsh(a) + 1e-8 * np.linalg.norm(a))
    with pytest.raises(NumericalError):
        eigh(h)
    eigh(h, want_vectors=True)  # the vector path does not call eigvalsh


def test_values_only_certificate_holds_at_extreme_scales():
    # the certificate's squares are taken in units of the largest entry, so
    # they neither underflow nor overflow
    h = random_hermitian(np.random.default_rng(5), 6)
    want = eigh(h).eigenvalues
    for factor in (1e-233, 1e200):
        got = eigh(factor * h).eigenvalues
        assert np.abs(got / factor - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(eigh(np.zeros((3, 3))).eigenvalues, np.zeros(3))


@pytest.mark.parametrize("factor", [1e-233, 1e200])
def test_vector_path_certificate_holds_at_extreme_scales(factor, monkeypatch):
    # the residuals and ||H||_F are taken in units of the largest entry;
    # unscaled, their squares overflow to inf at 1e200 and underflow to 0 at
    # 1e-233, and either way pairs with shifted eigenvalues pass
    h = factor * random_hermitian(np.random.default_rng(5), 6)
    true_eigh = np.linalg.eigh

    def shifted(a):
        w, v = true_eigh(a)
        return 1.1 * w, v

    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        spec = eigh(h, want_vectors=True)
        assert np.isfinite(spec.residual_bound)
        assert spec.residual_bound <= RESIDUAL_RTOL * factor * np.linalg.norm(h / factor)
        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(NumericalError):
            eigh(h, want_vectors=True)


@pytest.mark.parametrize("want_vectors", [False, True])
def test_subnormal_entries_are_solved_as_a_scaled_copy(want_vectors):
    # a path graph with hopping 2**-1073: its eigenvalues +-sqrt(2) * 2**-1073
    # round to 3 * 2**-1074 and cannot pass a certificate in units of 2**-1073
    tiny = 2.0 ** -1073
    h = tiny * np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        spec = eigh(h, want_vectors=want_vectors)
    want = np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0)]) * 2.0 ** -1000
    assert np.array_equal(spec.eigenvalues, want * 2.0 ** -73)
    assert spec.residual_bound <= RESIDUAL_RTOL * 2.0 * tiny
    if want_vectors:
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(3)).max() <= ORTHO_TOL


def test_subnormal_hermiticity_is_judged_on_the_scaled_copy():
    # one subnormal ulp of asymmetry is 2**-74 of entries of 2**-1000, within
    # tolerance, but 2**-39 > HERMITICITY_RTOL of entries of 2**-1035, where
    # the unscaled threshold 1e-12 * 2**-1035 would round up to that ulp
    ulp = 2.0 ** -1074
    path = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    for tiny, hermitian in [(2.0 ** -1000, True), (2.0 ** -1035, False)]:
        h = tiny * path
        h[0, 1] -= ulp
        if hermitian:
            assert np.allclose(eigh(h, want_vectors=True).eigenvalues / tiny,
                               [-np.sqrt(2.0), 0.0, np.sqrt(2.0)])
        else:
            with pytest.raises(ValidationError):
                eigh(h)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("want_vectors", [False, True])
def test_checks_hold_at_most_one_full_size_temporary(want_vectors, complex_entries):
    # beside the input and the eigenvectors, the checks keep one scaled copy
    # of the matrix and slices SLICE wide; numpy's own LAPACK buffers are
    # not traced
    h = random_hermitian(np.random.default_rng(11), 12 * SLICE, complex_entries)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spec = eigh(h, want_vectors=want_vectors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    vectors = spec.eigenvectors.nbytes if want_vectors else 0
    assert peak - vectors <= 1.5 * h.nbytes


def test_every_slice_is_checked(monkeypatch):
    # a fault in the last slice of rows or columns, past the first SLICE
    dim = 2 * SLICE + 5
    h = random_hermitian(np.random.default_rng(12), dim)
    asymmetric = h.copy()
    asymmetric[-1, -2] += 1e-6
    with pytest.raises(ValidationError):
        eigh(asymmetric)
    true_eigh = np.linalg.eigh
    for fault, matrix in (("value", h), ("norm", h), ("overlap", np.eye(dim))):
        def faulty(a, fault=fault):
            w, v = true_eigh(a)
            if fault == "value":
                w[-1] += 1e-6 * np.abs(w).max()
            elif fault == "norm":
                v[:, -1] *= 1.0 + 1e-6
            else:  # not orthogonal to the first column, yet an eigenvector of I
                v[:, -1] += 1e-6 * v[:, 0]
                v[:, -1] /= np.linalg.norm(v[:, -1])
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", faulty)
        with pytest.raises(NumericalError):
            eigh(matrix, want_vectors=True)
    monkeypatch.setattr(np.linalg, "eigh", true_eigh)
    spec = eigh(h, want_vectors=True)  # every Gram slice subtracts its own diagonal
    assert spec.residual_bound <= RESIDUAL_RTOL * np.linalg.norm(h)

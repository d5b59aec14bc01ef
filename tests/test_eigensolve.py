"""Certified Hermitian eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdnls import NumericalError, Spectrum, ValidationError, eigh
from qdnls.eigensolve import ORTHO_TOL, RESIDUAL_RTOL


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


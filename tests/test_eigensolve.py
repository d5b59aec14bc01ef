"""Certified Hermitian eigensolver."""

import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdnls.eigensolve as eigensolve
from qdnls import ModelParams, NumericalError, Spectrum, ValidationError, assemble_block, eigh
from qdnls import SectorOrbits, momentum_grid
from qdnls.eigensolve import ORTHO_TOL, RESIDUAL_RTOL, SLICE
from qdnls.hamiltonian import reduced_label

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_hermitian(rng, dim, complex_entries=True):
    if complex_entries:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    else:
        a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def numpy_eigh_not_called(a):
    raise AssertionError("np.linalg.eigh called on the zheevd path")


# eigh's vector paths for complex matrices, zheevd only where numpy's BLAS exports it
LAPACK_PATHS = ("zheevd", "numpy") if eigensolve._zheevd() else ("numpy",)
needs_zheevd = pytest.mark.skipif("zheevd" not in LAPACK_PATHS,
                                  reason="numpy's BLAS does not export scipy_zheevd_64_")


@contextlib.contextmanager
def lapack_path(path):
    """Send every complex vector solve down one path: zheevd through ctypes at
    any size, or numpy's eigh, as when zheevd is not exported."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "numpy":
            mp.setattr(eigensolve, "_zheevd", lambda: None)
        else:
            mp.setattr(eigensolve, "_NUMPY_DIM", 0)
            mp.setattr(np.linalg, "eigh", numpy_eigh_not_called)
        yield mp


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
def test_vector_path_certificate_holds_at_extreme_scales(factor):
    # the residuals and ||H||_F are taken in units of the largest entry;
    # unscaled, their squares overflow to inf at 1e200 and underflow to 0 at
    # 1e-233, and either way pairs with shifted eigenvalues pass
    h = factor * random_hermitian(np.random.default_rng(5), 6)
    true_lapack = eigensolve._lapack

    def shifted(a, want_vectors):
        w, v = true_lapack(a, want_vectors)
        return 1.1 * w, v

    for path in LAPACK_PATHS:
        with (lapack_path(path) as mp, warnings.catch_warnings(),
              np.errstate(over="raise", invalid="raise", divide="raise")):
            warnings.simplefilter("error")
            spec = eigh(h, want_vectors=True)
            assert np.isfinite(spec.residual_bound)
            assert spec.residual_bound <= RESIDUAL_RTOL * factor * np.linalg.norm(h / factor)
            mp.setattr(eigensolve, "_lapack", shifted)
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
def test_checks_hold_at_most_one_full_size_temporary(want_vectors, complex_entries, monkeypatch):
    # beside the input and the eigenvectors, the checks keep one scaled copy
    # of the matrix and slices SLICE wide; LAPACK runs before tracing starts,
    # so neither its buffers nor its outputs are counted
    h = random_hermitian(np.random.default_rng(11), 12 * SLICE, complex_entries)
    solved = eigensolve._lapack(h, want_vectors)
    monkeypatch.setattr(eigensolve, "_lapack", lambda a, want_vectors: solved)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eigh(h, want_vectors=want_vectors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * h.nbytes


def test_every_slice_is_checked():
    # a fault in the last slice of rows or columns, past the first SLICE
    dim = 2 * SLICE + 5
    h = random_hermitian(np.random.default_rng(12), dim)
    asymmetric = h.copy()
    asymmetric[-1, -2] += 1e-6
    with pytest.raises(ValidationError):
        eigh(asymmetric)
    true_lapack = eigensolve._lapack
    for path in LAPACK_PATHS:
        for fault, matrix in (("value", h), ("norm", h), ("overlap", np.eye(dim, dtype=complex))):
            def faulty(a, want_vectors, fault=fault):
                w, v = true_lapack(a, want_vectors)
                if fault == "value":
                    w[-1] += 1e-6 * np.abs(w).max()
                elif fault == "norm":
                    v[:, -1] *= 1.0 + 1e-6
                else:  # not orthogonal to the first column, yet an eigenvector of I
                    v[:, -1] += 1e-6 * v[:, 0]
                    v[:, -1] /= np.linalg.norm(v[:, -1])
                return w, v

            with lapack_path(path) as mp:
                mp.setattr(eigensolve, "_lapack", faulty)
                with pytest.raises(NumericalError):
                    eigh(matrix, want_vectors=True)
        with lapack_path(path):
            spec = eigh(h, want_vectors=True)  # every Gram slice subtracts its own diagonal
        assert spec.residual_bound <= RESIDUAL_RTOL * np.linalg.norm(h)


# ------------------------------------------------ the zheevd path and its fallback


def config_blocks():
    """(name, l, block) of every block the band path solves for the shipped
    configs: the r >= 0 half of each ring's grid."""
    for path in sorted(CONFIGS.glob("*.json")):
        params = ModelParams(**json.loads(path.read_text()))
        sector = SectorOrbits(params.f, params.n)
        for k in momentum_grid(params.f):
            if reduced_label(k.l, params.f) >= 0:
                yield path.stem, k.l, assemble_block(params, k, sector)[1]


@needs_zheevd
def test_config_blocks_solve_to_numpys_eigenvalues_bitwise():
    # zheevd differs from numpy's call only in zunmtr's workspace, which the
    # eigenvalues never see; bitwise equality keeps ties such as band42_n6's
    # E(-1) = E(0) = E(1) as they are
    blocks = 0
    for name, l, h in config_blocks():
        assert len(h) > eigensolve._NUMPY_DIM  # every one takes the zheevd path
        spec = eigh(h, want_vectors=True)
        w, v = np.linalg.eigh(h)
        assert np.array_equal(spec.eigenvalues, w), (name, l)
        assert np.abs(spec.eigenvectors - v).max() <= 1e-13, (name, l)
        blocks += 1
    assert blocks == 32


@needs_zheevd
def test_one_blas_thread_keeps_the_eigenvalues_bitwise():
    # OpenBLAS picks its kernels' blocking by thread count; both calls must
    # still agree when they share one thread, as they do at the default
    script = """
import json, sys
import numpy as np
from qdnls import ModelParams, MomentumIndex, assemble_block, eigh
from qdnls.eigensolve import _zheevd
params = ModelParams(**json.load(open(sys.argv[1])))
for l in (-1, 0, 1):
    h = assemble_block(params, MomentumIndex(l, params.f))[1]
    assert np.array_equal(eigh(h, want_vectors=True).eigenvalues, np.linalg.eigh(h)[0]), l
assert _zheevd() is not None
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(eigensolve.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(CONFIGS / "band42_n6.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@needs_zheevd
def test_contract_on_random_matrices_on_the_zheevd_path(monkeypatch):
    rng = np.random.default_rng(17)
    dims = [65, 300, *rng.integers(66, 300, size=8)]
    wants = {dim: np.linalg.eigh(random_hermitian(np.random.default_rng(dim), dim))[0]
             for dim in dims}
    monkeypatch.setattr(np.linalg, "eigh", numpy_eigh_not_called)
    for dim in dims:
        h = random_hermitian(np.random.default_rng(dim), dim)
        spec = eigh(h, want_vectors=True)
        w, v = spec.eigenvalues, spec.eigenvectors
        assert np.array_equal(w, wants[dim])
        assert np.all(np.diff(w) >= 0)
        fro = np.linalg.norm(h)
        assert np.linalg.norm(h @ v - v * w, axis=0).max() <= RESIDUAL_RTOL * fro
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= ORTHO_TOL


def test_forced_fallback_gives_the_same_eigenvalues(monkeypatch):
    h = random_hermitian(np.random.default_rng(19), 2 * SLICE + 5)
    direct = eigh(h, want_vectors=True)
    calls = []
    monkeypatch.setattr(eigensolve, "_zheevd", lambda: calls.append(1))
    fallback = eigh(h, want_vectors=True)
    assert calls  # the lookup was asked, found nothing, and numpy solved
    assert np.array_equal(fallback.eigenvalues, direct.eigenvalues)
    assert np.array_equal(fallback.eigenvalues, np.linalg.eigh(h)[0])
    assert fallback.residual_bound <= RESIDUAL_RTOL * np.linalg.norm(h)


@needs_zheevd
def test_zheevd_failure_raises_numerical_error(monkeypatch):
    zheevd, zunmtr = eigensolve._zheevd()

    def no_convergence(*args):
        zheevd(*args)
        if args[7].value != -1:  # the solve, not the workspace query
            args[12].value = 3

    monkeypatch.setattr(eigensolve, "_zheevd", lambda: (no_convergence, zunmtr))
    with pytest.raises(NumericalError, match="zheevd info 3"):
        eigh(random_hermitian(np.random.default_rng(23), 2 * SLICE), want_vectors=True)

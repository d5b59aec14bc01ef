"""Certified Hermitian eigensolver."""

import contextlib
import ctypes
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
from qdnls import SectorOrbits, extract_band, labelled_spectra, momentum_grid
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
    raise AssertionError("np.linalg.eigh called on the split path")


def near_diagonal(dim, seed=0):
    """A Hermitian matrix whose eigenvectors are close to the unit vectors, so
    that a window on a few basis rows returns those rows' columns."""
    return np.diag(np.arange(dim, dtype=float)) + 0.01 * random_hermitian(
        np.random.default_rng(seed), dim)


# eigh's vector paths for complex matrices: zhetrd + dstedc + zunmtr through
# ctypes only where numpy's BLAS exports the three
LAPACK_PATHS = ("split", "numpy") if eigensolve._routines() else ("numpy",)
needs_split = pytest.mark.skipif(
    "split" not in LAPACK_PATHS,
    reason="numpy's BLAS does not export scipy_zhetrd_64_, scipy_dstedc_64_ and scipy_zunmtr_64_")


@contextlib.contextmanager
def lapack_path(path):
    """Send every complex vector solve down one path: the split steps through
    ctypes at any size, or numpy's eigh, as when they are not exported."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "numpy":
            mp.setattr(eigensolve, "_routines", lambda: None)
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
        assert np.all(np.diff(got) >= 0)  # the power-of-two rescale keeps the order
    assert np.array_equal(eigh(np.zeros((3, 3))).eigenvalues, np.zeros(3))


@pytest.mark.parametrize("factor", [1e-233, 1e200])
def test_vector_path_certificate_holds_at_extreme_scales(factor):
    # the residuals and ||H||_F are taken in units of the largest entry;
    # unscaled, their squares overflow to inf at 1e200 and underflow to 0 at
    # 1e-233, and either way pairs with shifted eigenvalues pass
    h = factor * random_hermitian(np.random.default_rng(5), 6)
    true_solve = eigensolve._solve

    def shifted(*args):
        w, v, columns = true_solve(*args)
        return 1.1 * w, v, columns

    for path in LAPACK_PATHS:
        with (lapack_path(path) as mp, warnings.catch_warnings(),
              np.errstate(over="raise", invalid="raise", divide="raise")):
            warnings.simplefilter("error")
            spec = eigh(h, want_vectors=True)
            assert np.isfinite(spec.residual_bound)
            assert spec.residual_bound <= RESIDUAL_RTOL * factor * np.linalg.norm(h / factor)
            mp.setattr(eigensolve, "_solve", shifted)
            with pytest.raises(NumericalError):
                eigh(h, want_vectors=True)


@pytest.mark.parametrize("factor", [1e-233, 1e200])
def test_split_path_holds_at_extreme_scales_windowed_and_full(factor):
    # zheevd would scale such a matrix before its reduction; eigh scales it by
    # a power of two instead, so the split steps and the row weights see
    # entries near 1 and no operation overflows
    h = near_diagonal(3 * SLICE, seed=6)
    rows = [5, 70, 130]
    for path in LAPACK_PATHS:
        with lapack_path(path):
            want_full = eigh(h, want_vectors=True)
            want_window = eigh(h, want_vectors=True, rows=rows, threshold=0.5)
            with (warnings.catch_warnings(),
                  np.errstate(over="raise", invalid="raise", divide="raise")):
                warnings.simplefilter("error")
                full = eigh(factor * h, want_vectors=True)
                window = eigh(factor * h, want_vectors=True, rows=rows, threshold=0.5)
        assert window.columns.tolist() == want_window.columns.tolist() == [0, 5, 70, 130]
        for got, want in ((full, want_full), (window, want_window)):
            scale = np.abs(want.eigenvalues).max()
            assert np.abs(got.eigenvalues / factor - want.eigenvalues).max() <= 1e-12 * scale
            assert np.all(np.diff(got.eigenvalues) >= 0)
            assert np.array_equal(got.columns, want.columns)
            assert np.abs(got.eigenvectors - want.eigenvectors).max() <= 1e-12
            assert np.isfinite(got.residual_bound)
            assert got.residual_bound <= RESIDUAL_RTOL * factor * np.linalg.norm(h)


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
    solved = eigensolve._solve(h, want_vectors, None, 0.5)
    monkeypatch.setattr(eigensolve, "_solve", lambda *args: solved)
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
    true_solve = eigensolve._solve
    for path in LAPACK_PATHS:
        for fault, matrix in (("value", h), ("norm", h), ("overlap", np.eye(dim, dtype=complex))):
            def faulty(*args, fault=fault):
                w, v, columns = true_solve(*args)
                if fault == "value":
                    w[-1] += 1e-6 * np.abs(w).max()
                elif fault == "norm":
                    v[:, -1] *= 1.0 + 1e-6
                else:  # not orthogonal to the first column, yet an eigenvector of I
                    v[:, -1] += 1e-6 * v[:, 0]
                    v[:, -1] /= np.linalg.norm(v[:, -1])
                return w, v, columns

            with lapack_path(path) as mp:
                mp.setattr(eigensolve, "_solve", faulty)
                with pytest.raises(NumericalError):
                    eigh(matrix, want_vectors=True)
        with lapack_path(path):
            spec = eigh(h, want_vectors=True)  # every Gram slice subtracts its own diagonal
        assert spec.residual_bound <= RESIDUAL_RTOL * np.linalg.norm(h)


# ------------------------------------- the split path, its window and its fallback

# the band each shipped config is read for
CONFIG_PATTERNS = {"band22_n4": (2, 2), "band22_ground": (2, 2), "band42_n6": (4, 2),
                   "band33_n6": (3, 3)}


def config_blocks():
    """(name, l, block, band rows) of every block the band path solves for the
    shipped configs: the r >= 0 half of each ring's grid, with the basis rows
    of the config's band pattern."""
    for path in sorted(CONFIGS.glob("*.json")):
        params = ModelParams(**json.loads(path.read_text()))
        sector = SectorOrbits(params.f, params.n)
        pid = sector.patterns.index(CONFIG_PATTERNS[path.stem])
        for k in momentum_grid(params.f):
            if reduced_label(k.l, params.f) >= 0:
                basis, h = assemble_block(params, k)
                yield path.stem, k.l, h, np.flatnonzero(sector.pattern_ids[basis.orbit_indices] == pid)


def window_of(v, rows, threshold):
    """The columns a window returns, from the full eigenvectors `v`."""
    weights = (np.abs(v[rows]) ** 2).sum(axis=0)
    return sorted({0} | set(np.flatnonzero(weights > threshold - ORTHO_TOL).tolist()))


@needs_split
def test_config_blocks_solve_to_numpys_eigenvalues_bitwise():
    # the split steps are zheevd's own calls on the same input, so the
    # eigenvalues are numpy's bitwise, windowed or not; that keeps ties such as
    # band42_n6's E(-1) = E(0) = E(1) as they are
    blocks = 0
    for name, l, h, rows in config_blocks():
        assert len(h) > eigensolve._NUMPY_DIM  # every one takes the split path
        w, v = np.linalg.eigh(h)
        full = eigh(h, want_vectors=True)
        window = eigh(h, want_vectors=True, rows=rows, threshold=0.5)
        assert np.array_equal(full.eigenvalues, w), (name, l)
        assert np.array_equal(window.eigenvalues, w), (name, l)
        assert np.array_equal(full.columns, np.arange(len(w)))
        assert np.abs(full.eigenvectors - v).max() <= 1e-13, (name, l)
        assert window.columns.tolist() == window_of(v, rows, 0.5), (name, l)
        assert np.abs(window.eigenvectors - v[:, window.columns]).max() <= 1e-13, (name, l)
        blocks += 1
    assert blocks == 32


@needs_split
def test_one_blas_thread_keeps_the_eigenvalues_bitwise():
    # OpenBLAS picks its kernels' blocking by thread count; the split steps and
    # numpy must still agree when they share one thread, as they do at the
    # default, and the window must select the band of the full solve, which
    # is the band selected at the default thread count
    script = """
import json, sys
import numpy as np
from qdnls import ModelParams, MomentumIndex, assemble_block, eigh, extract_band, labelled_spectra
from qdnls.eigensolve import _routines
params = ModelParams(**json.load(open(sys.argv[1])))
for l in (-1, 0, 1):
    basis, h = assemble_block(params, MomentumIndex(l, params.f))
    rows = np.flatnonzero(basis.sector.pattern_ids[basis.orbit_indices]
                          == basis.sector.patterns.index((4, 2)))
    w = np.linalg.eigh(h)[0]
    assert np.array_equal(eigh(h, want_vectors=True).eigenvalues, w), l
    assert np.array_equal(eigh(h, want_vectors=True, rows=rows).eigenvalues, w), l
assert _routines() is not None
band = extract_band(params, (4, 2), labelled_spectra(params, pattern=(4, 2)))
full = extract_band(params, (4, 2), labelled_spectra(params))
points = [[p.l, p.index, p.energy, p.tag] for p in band.points]
assert points == [[p.l, p.index, p.energy, p.tag] for p in full.points]
print(json.dumps(points))
"""
    config = CONFIGS / "band42_n6.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(eigensolve.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    params = ModelParams(**json.loads(config.read_text()))
    band = extract_band(params, (4, 2), labelled_spectra(params, pattern=(4, 2)))
    # the energies move by ulps with the thread count, the selection must not
    one_thread = json.loads(done.stdout)
    assert [[l, index, tag] for l, index, _, tag in one_thread] == \
        [[p.l, p.index, p.tag] for p in band.points]
    assert all(abs(e - p.energy) <= 1e-12 * abs(p.energy)
               for (_, _, e, _), p in zip(one_thread, band.points))


@needs_split
def test_contract_on_random_matrices_on_the_split_path(monkeypatch):
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


def test_windowed_solve_returns_the_rows_columns_and_every_eigenvalue():
    dim = 2 * SLICE + 5
    h = near_diagonal(dim)
    for path in LAPACK_PATHS:
        with lapack_path(path):
            full = eigh(h, want_vectors=True)
            for rows, threshold, columns in (([3, 100], 0.5, [0, 3, 100]),
                                             ([], 0.5, [0]),  # the lowest pair only
                                             ([3, 100], 1.0, [0])):  # no vector is pure
                window = eigh(h, want_vectors=True, rows=rows, threshold=threshold)
                assert window.columns.tolist() == columns
                assert np.array_equal(window.eigenvalues, full.eigenvalues)
                assert np.abs(window.eigenvectors - full.eigenvectors[:, columns]).max() <= 1e-13
                assert window.residual_bound <= RESIDUAL_RTOL * np.linalg.norm(h)


def test_windowed_solve_certifies_its_columns_and_every_eigenvalue():
    # a fault in a returned column fails the residual or the Gram check; a
    # shifted eigenvalue whose vector is not returned fails the trace and
    # Frobenius check
    dim = 2 * SLICE + 5
    true_solve = eigensolve._solve
    for path in LAPACK_PATHS:
        for fault, matrix, message in (
                ("value", near_diagonal(dim), "residual"), ("norm", near_diagonal(dim), "Gram"),
                ("overlap", np.eye(dim, dtype=complex), "Gram"),
                ("unreturned", near_diagonal(dim), "tr H")):
            def faulty(*args, fault=fault):
                w, v, columns = true_solve(*args)
                assert columns.tolist() == [0, 3, 100]
                if fault == "value":
                    w[columns[-1]] += 1e-6 * np.abs(w).max()
                elif fault == "unreturned":
                    w[50] += 1e-6 * np.abs(w).max()
                elif fault == "norm":
                    v[:, -1] *= 1.0 + 1e-6
                else:  # not orthogonal to the first column, yet an eigenvector of I
                    v[:, -1] += 1e-6 * v[:, 0]
                    v[:, -1] /= np.linalg.norm(v[:, -1])
                return w, v, columns

            with lapack_path(path) as mp:
                mp.setattr(eigensolve, "_solve", faulty)
                with pytest.raises(NumericalError, match=message):
                    eigh(matrix, want_vectors=True, rows=[3, 100], threshold=0.5)


def test_row_weights_that_miss_their_count_raise():
    # each row of the unitary V has unit norm, so the weights of every column
    # on the rows add up to their count; Q^H E_P (or numpy's rows) off by 1e-6
    # must raise before any vector is returned
    h = near_diagonal(2 * SLICE + 5)
    rows = [3, 100]
    for path in LAPACK_PATHS:
        with lapack_path(path) as mp:
            if path == "split":
                true_lapack = eigensolve._lapack

                def skewed(name, *args):
                    true_lapack(name, *args)
                    if name == "zunmtr" and args[2] == b"C" and args[-1] != -1:
                        args[8][...] *= 1.0 + 1e-6  # Q^H E_P, past the workspace query

                mp.setattr(eigensolve, "_lapack", skewed)
            else:
                true_eigh = np.linalg.eigh

                def skewed(a):
                    w, v = true_eigh(a)
                    v[rows[0]] *= 1.0 + 1e-6
                    return w, v

                mp.setattr(np.linalg, "eigh", skewed)
            with pytest.raises(NumericalError, match="add up to"):
                eigh(h, want_vectors=True, rows=rows, threshold=0.5)


def test_forced_fallback_gives_the_same_eigenvalues(monkeypatch):
    h = random_hermitian(np.random.default_rng(19), 2 * SLICE + 5)
    near = near_diagonal(2 * SLICE + 5)
    params = ModelParams(f=7, n=6, gamma1=30.0, epsilon=0.5)  # blocks of dimension 132
    direct = eigh(h, want_vectors=True)
    direct_window = eigh(near, want_vectors=True, rows=[3, 100], threshold=0.5)
    direct_band = extract_band(params, (4, 2), labelled_spectra(params, pattern=(4, 2)))
    calls = []
    monkeypatch.setattr(eigensolve, "_routines", lambda: calls.append(1))
    fallback = eigh(h, want_vectors=True)
    assert calls  # the lookup was asked, found nothing, and numpy solved
    assert np.array_equal(fallback.eigenvalues, direct.eigenvalues)
    assert np.array_equal(fallback.eigenvalues, np.linalg.eigh(h)[0])
    assert fallback.residual_bound <= RESIDUAL_RTOL * np.linalg.norm(h)
    fallback_window = eigh(near, want_vectors=True, rows=[3, 100], threshold=0.5)
    assert np.array_equal(fallback_window.eigenvalues, direct_window.eigenvalues)
    assert fallback_window.columns.tolist() == direct_window.columns.tolist() == [0, 3, 100]
    band = extract_band(params, (4, 2), labelled_spectra(params, pattern=(4, 2)))
    assert [(p.l, p.index, p.energy, p.tag) for p in band.points] == \
        [(p.l, p.index, p.energy, p.tag) for p in direct_band.points]
    assert max(abs(p.weight - q.weight) for p, q in zip(band.points, direct_band.points)) <= 1e-12
    assert band.counts == direct_band.counts


@needs_split
def test_split_step_failure_raises_numerical_error(monkeypatch):
    # nonzero info from the solve (not the workspace query) of any of the
    # three steps raises, windowed or not
    h = random_hermitian(np.random.default_rng(23), 2 * SLICE)
    routines = eigensolve._routines()
    for name in ("zhetrd", "dstedc", "zunmtr"):
        def failing(*args, routine=routines[name]):
            routine(*args)
            *ints, info = [x for x in args if isinstance(x, ctypes.c_int64)]
            if all(x.value != -1 for x in ints):
                info.value = 3

        monkeypatch.setattr(eigensolve, "_routines", lambda: {**routines, name: failing})
        for rows in (None, [3, 50]):
            with pytest.raises(NumericalError, match=f"{name} info 3"):
                eigh(h, want_vectors=True, rows=rows, threshold=0.5)

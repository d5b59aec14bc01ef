"""Dense Hermitian eigensolver with certified results.

Thin wrapper over LAPACK, one route per request and matrix kind:

- without vectors, numpy.linalg.eigvalsh;
- with vectors, for a complex128 matrix, the three steps of `zheevd` from
  the OpenBLAS that numpy has loaded, each called through ctypes by
  `_lapack`, the one place that calls them.  `zhetrd` reduces an F-order
  copy of H to a real tridiagonal T = Q^H H Q, `dstedc` finds the
  eigenvalues w and the real eigenvectors Z of T, and `zunmtr` forms the
  eigenvectors V = Q Z of the columns asked for.  These are the calls
  `zheevd` makes (its `zstedc` hands a problem of this size to `dstedc`),
  on the same input and with the same block sizes, so w is bitwise numpy's;
  `zunmtr` gets its own blocked workspace, so V differs from numpy's in
  rounding only;
- with vectors otherwise, numpy.linalg.eigh: real matrices keep numpy's
  `dsyevd` (the real form of each unwindowed momentum block: within 1e-12 of
  the complex block's eigenvalues, not bitwise), and it is the fallback when
  numpy's BLAS does not export the three routines, looked up on first use.

A windowed solve, `eigh(h, True, rows, threshold)`, returns the eigenvector
columns that can carry more than `threshold` of their weight on the basis
rows P = `rows`: the lowest pair, and every pair whose P-weight
sum_{p in P} |V[p, j]|^2 exceeds threshold - ORTHO_TOL.  It has every
P-weight before it forms any vector: one `zunmtr` applies Q^H to the |P|
unit columns e_p, and V[P, :] = (Q^H E_P)^H Z is one |P| x n x n product.
Only the chosen columns of Z are back-transformed.  A vector left out
carries at most threshold - ORTHO_TOL on P, and these weights differ from
those of the formed vector in rounding only, so it cannot be classified as
P at that threshold.  The rows of the unitary V have unit norm, so the
P-weights of all columns must add up to |P| within ORTHO_TOL * |P|.  numpy's
path takes the same weights from its full V and returns the same columns.

The wrapper checks the input is Hermitian, then certifies the output, and
raises instead of returning a silently wrong spectrum:
- with vectors: the residual ||H v - w v||_2 of every returned pair within
  RESIDUAL_RTOL * ||H||_F, and their orthonormality in max norm within
  ORTHO_TOL;
- on every eigenvalue, returned pair or not: |sum w - tr H| and
  |sqrt(sum w^2) - ||H||_F| each within RESIDUAL_RTOL * ||H||_F, the two
  spectral invariants of a Hermitian matrix that need no vectors.

Both take their norms in units of the largest entry, so no square under- or
overflows.  Outside [SAFE_MIN, 1 / SAFE_MIN], where `zheevd` would scale H
before `zhetrd` and the split steps do not, `eigh` solves the copy scaled
exactly by a power of two that brings its largest entry near 1.  Beside the
input and the eigenvectors, the checks hold at most one full-size
temporary, H / max |H| (or |H| to find max |H|); the Hermiticity check, the
residuals and the rows of V^dag V - I are taken SLICE rows or columns at a
time.

The momentum blocks reach this solver once per +-k pair, windowed ones as
complex matrices; see `bands.labelled_spectra`.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

RESIDUAL_RTOL = 1e-10      # ||H v - w v||_2 <= RESIDUAL_RTOL * ||H||_F
ORTHO_TOL = 1e-10          # max |V^dag V - I|, and the slack of a window's P-weights
HERMITICITY_RTOL = 1e-12   # max |H - H^dag| <= HERMITICITY_RTOL * max |H|
SAFE_MIN = 2.0 ** -485     # zheevd's sqrt(safmin / eps): it scales max |H| outside [it, 1 / it]
SLICE = 64                 # rows or columns per slice of a check's temporaries

_INT = ctypes.POINTER(ctypes.c_int64)
_CHAR, _PTR = ctypes.c_char_p, ctypes.c_void_p
_LEN = ctypes.c_size_t     # the hidden length of a Fortran character argument
_ARGS = {                  # each routine's arguments before info and the hidden lengths
    "zhetrd": [_CHAR, _INT, _PTR, _INT, _PTR, _PTR, _PTR, _PTR, _INT],
    "dstedc": [_CHAR, _INT, _PTR, _PTR, _PTR, _INT, _PTR, _INT, _PTR, _INT],
    "zunmtr": [_CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT],
}


@dataclass
class Spectrum:
    """Ascending eigenvalues, the certified residual, and the eigenvectors (as
    columns) of the eigenvalues indexed by the ascending `columns`: every
    index, those of a window, or none without vectors (eigenvectors None).
    The residual is the largest pair residual with vectors, the larger of the
    trace and Frobenius deviations without."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float
    columns: np.ndarray


def _slices(n: int) -> list[slice]:
    return [slice(s, s + SLICE) for s in range(0, n, SLICE)]


def _unit_scale(a: np.ndarray) -> tuple[float, float]:
    """The largest |entry| of `a` (1 if a = 0) and 1 if that lies in [SAFE_MIN, 1 / SAFE_MIN],
    else the power of two `half` that takes half^2 max |a| into [1/4, 1), applied twice."""
    unit = float(np.abs(a).max()) or 1.0
    return unit, 1.0 if SAFE_MIN <= unit <= 1.0 / SAFE_MIN else 2.0 ** (-math.frexp(unit)[1] // 2)


def _value_deviation(a: np.ndarray, w: np.ndarray, unit: float, fro: float) -> float:
    """The larger deviation of the eigenvalues `w` of `a` from tr H and from
    ||H||_F, both in units `unit` of the largest entry, where fro = ||H||_F / unit."""
    trace_dev = abs(math.fsum((w / unit).tolist()) - float(np.trace(a).real) / unit)
    norm_dev = abs(float(np.linalg.norm(w / unit)) - fro)
    if max(trace_dev, norm_dev) > RESIDUAL_RTOL * fro:
        raise NumericalError(
            f"eigenvalues miss tr H by {unit * trace_dev:.3e} and ||H||_F by "
            f"{unit * norm_dev:.3e}; each must stay within {RESIDUAL_RTOL:g} * ||H||_F = "
            f"{unit * RESIDUAL_RTOL * fro:.3e}")
    return max(trace_dev, norm_dev)


@functools.cache
def _routines():
    """numpy's own ILP64 `zhetrd`, `dstedc` and `zunmtr` by name, or None where
    its BLAS does not export them.  Loading numpy's LAPACK module again returns
    the loaded library, and a symbol lookup on it also searches its OpenBLAS."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _ARGS}
    except (AttributeError, OSError):
        return None
    for name, routine in routines.items():
        routine.argtypes = _ARGS[name] + [_INT] + [_LEN] * _ARGS[name].count(_CHAR)
        routine.restype = None
    return routines


def _lapack(name: str, *args) -> None:
    """Call `name` of `_routines()` through ctypes, the one place that does:
    integers by reference, arrays by their data, then info and a hidden length
    of 1 per character argument.  Nonzero info raises NumericalError."""
    info = ctypes.c_int64(0)
    passed = [ctypes.c_int64(x) if isinstance(x, (int, np.integer)) else
              x.ctypes.data if isinstance(x, np.ndarray) else x for x in args]
    _routines()[name](*passed, info, *[1] * sum(isinstance(x, bytes) for x in args))
    if info.value:
        raise NumericalError(f"eigensolver did not converge: {name} info {info.value}")


def _call(name: str, args: tuple, *dtypes) -> None:
    """Call `name` on `args` followed by one workspace of each of `dtypes` and
    its length, each workspace sized by a query first (one entry, length -1)."""
    query = [np.empty(1, dtype) for dtype in dtypes]
    _lapack(name, *args, *[x for q in query for x in (q, -1)])
    spaces = [np.empty(int(q[0].real), dtype) for q, dtype in zip(query, dtypes)]
    _lapack(name, *args, *[x for space in spaces for x in (space, len(space))])


def _apply_q(trans: bytes, h: np.ndarray, tau: np.ndarray, c: np.ndarray) -> None:
    """c := Q c (trans N) or Q^H c (trans C) in place, Q being the reduction
    of `zhetrd` held in `h` and `tau`, with `zunmtr`'s blocked workspace."""
    n, m = c.shape
    _call("zunmtr", (b"L", b"L", trans, n, m, h, n, tau, c, n), np.complex128)


def validate_threshold(threshold: float) -> None:
    real = isinstance(threshold, (int, float, np.integer, np.floating))
    if isinstance(threshold, bool) or not real or not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold!r}")


def _window_rows(rows, n: int) -> np.ndarray:
    """`rows` as an index array, refused unless it lists distinct integers in
    0 .. n - 1; np.asarray reads [1, True] as integers, so a list is read too."""
    r = np.asarray(rows)
    if r.ndim == 1 and (r.dtype.kind in "iu" or not r.size) and (
            isinstance(rows, np.ndarray) or not any(isinstance(x, (bool, np.bool_)) for x in rows)):
        r = r.astype(np.intp, copy=False)  # a uint64 beyond it turns negative
        if ((r >= 0) & (r < n)).all() and (np.bincount(r) < 2).all():
            return r
    raise ValidationError(f"window rows must be distinct integer indices in 0 .. {n - 1}")


def _window(weights: np.ndarray, count: int, threshold: float) -> np.ndarray:
    """The columns a windowed solve returns, from every column's weight on
    `count` basis rows: the lowest and each whose weight may exceed
    `threshold`.  The weights must add up to `count`."""
    total = math.fsum(weights.tolist())
    if abs(total - count) > ORTHO_TOL * count:
        raise NumericalError(
            f"eigenvector weights on {count} basis rows add up to {total!r}; they must "
            f"equal {count} within {ORTHO_TOL:g} * {count}")
    keep = weights > threshold - ORTHO_TOL
    keep[0] = True
    return np.flatnonzero(keep)


def _split_pairs(a: np.ndarray, rows, threshold: float):
    """`_solve` of a complex128 `a` by `zhetrd`, `dstedc` and `zunmtr`."""
    n = len(a)
    h = np.array(a, order="F")  # zhetrd overwrites it with T and the reflectors of Q
    w, e, tau = np.empty(n), np.empty(n), np.empty(n, np.complex128)
    _call("zhetrd", (b"L", n, h, n, w, e, tau), np.complex128)
    z = np.empty((n, n), order="F")
    _call("dstedc", (b"I", n, w, e, z, n), np.float64, np.int64)
    if rows is None:
        columns = np.arange(n)
    else:
        y = np.zeros((n, len(rows)), np.complex128, order="F")
        y[rows, np.arange(len(rows))] = 1.0
        _apply_q(b"C", h, tau, y)  # Q^H E_P, whose conjugate transpose is Q[P, :]
        weights = ((np.hstack([y.real, y.imag]).T @ z) ** 2).sum(axis=0)  # of V[P, :]
        columns = _window(weights, len(rows), threshold)
    v = np.asfortranarray(z[:, columns], dtype=np.complex128)
    del z  # before the back-transformation, so that Z and V are not both alive
    _apply_q(b"N", h, tau, v)
    return w, v, columns


def _solve(a: np.ndarray, want_vectors: bool, rows, threshold: float):
    """LAPACK's ascending eigenvalues of `a`, with the eigenvectors of the
    columns that `rows` and `threshold` window and their indices, or None and
    no columns without vectors."""
    try:
        if not want_vectors:
            return np.linalg.eigvalsh(a), None, np.zeros(0, np.intp)
        if a.dtype == np.complex128 and _routines() is not None:
            return _split_pairs(a, rows, threshold)
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    if rows is None:
        return w, v, np.arange(len(w))
    columns = _window((np.abs(v[rows]) ** 2).sum(axis=0), len(rows), threshold)
    return w, v[:, columns], columns


def eigh(matrix, want_vectors: bool = False, rows=None, threshold: float = 0.5) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with contract checks.  With vectors
    and distinct basis `rows`, only the lowest eigenvector and those whose weight
    on `rows` may exceed `threshold`, in (0, 1], are formed and returned."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError(f"need a non-empty square matrix, got shape {a.shape}")
    if rows is not None:
        validate_threshold(threshold)
        rows = _window_rows(rows, len(a))
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    unit, half = _unit_scale(a)
    if half != 1.0:  # scaled in two factors, so that neither over- nor underflows
        s = eigh(a * half * half, want_vectors, rows, threshold)
        return Spectrum(eigenvalues=s.eigenvalues / half / half, eigenvectors=s.eigenvectors,
                        residual_bound=s.residual_bound / half / half, columns=s.columns)
    asym = max(float(np.abs(a[s] - a[:, s].conj().T).max()) for s in _slices(len(a)))
    if asym > HERMITICITY_RTOL * unit:
        raise ValidationError("matrix is not Hermitian within tolerance")
    w, v, columns = _solve(a, want_vectors, rows, threshold)
    if not want_vectors:
        fro = float(np.linalg.norm(a / unit))
        return Spectrum(eigenvalues=w, eigenvectors=None, columns=columns,
                        residual_bound=unit * _value_deviation(a, w, unit, fro))
    b = a / unit  # the one full-size temporary
    fro = float(np.linalg.norm(b))
    residual = gram_dev = 0.0
    for s in _slices(len(columns)):
        # the pairs of columns s, and rows s of V^dag V - I from the diagonal
        # on: that matrix is Hermitian, so its upper triangle holds every |entry|
        r = b @ v[:, s]
        r -= v[:, s] * (w[columns[s]] / unit)
        residual = max(residual, float(np.linalg.norm(r, axis=0).max()))
        gram = v[:, s].conj().T @ v[:, s.start:]
        gram[np.diag_indices(len(gram))] -= 1.0
        gram_dev = max(gram_dev, float(np.abs(gram).max()))
    if residual > RESIDUAL_RTOL * fro:
        raise NumericalError(
            f"residual {unit * residual:.3e} exceeds {RESIDUAL_RTOL:g} * ||H||_F = "
            f"{unit * RESIDUAL_RTOL * fro:.3e}")
    if gram_dev > ORTHO_TOL:
        raise NumericalError(f"eigenvector Gram deviation {gram_dev:.3e} exceeds {ORTHO_TOL:g}")
    _value_deviation(a, w, unit, fro)  # the eigenvalues whose pairs were not returned too
    return Spectrum(eigenvalues=w, eigenvectors=v, residual_bound=unit * residual,
                    columns=columns)

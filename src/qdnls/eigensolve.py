"""Dense Hermitian eigensolver with certified results.

Thin wrapper over LAPACK, which `_lapack` alone calls:

- without vectors, numpy.linalg.eigvalsh;
- with vectors, for a complex128 matrix of dimension above _NUMPY_DIM,
  `zheevd` of the OpenBLAS that numpy has loaded, through ctypes.  It is
  called as numpy.linalg.eigh calls it (jobz 'V', uplo 'L', an F-order
  copy), with more workspace.  numpy passes the 2N + N^2 entries that
  `zheevd` reports as optimal, which leave its back-transformation `zunmtr`
  N entries, so that runs unblocked, as BLAS-2; adding `zunmtr`'s own
  workspace query lets it run blocked.  `zhetrd` and `zstedc` run as under
  numpy, so the eigenvalues are bitwise numpy's and the eigenvectors differ
  in rounding only;
- with vectors otherwise, numpy.linalg.eigh: up to _NUMPY_DIM it runs the
  same LAPACK path without ctypes' call overhead, real matrices (which the
  CLI never solves with vectors) keep numpy's `dsyevd`, and it is the
  fallback when numpy's BLAS does not export `scipy_zheevd_64_`, which is
  looked up on first use.

The wrapper checks the input is Hermitian, then certifies the output, and
raises instead of returning a silently wrong spectrum:
- with vectors: the residual ||H v - w v||_2 of every pair within
  RESIDUAL_RTOL * ||H||_F, and eigenvector orthonormality in max norm within
  ORTHO_TOL;
- eigenvalues only: |sum w - tr H| and |sqrt(sum w^2) - ||H||_F| each within
  RESIDUAL_RTOL * ||H||_F, the two spectral invariants of a Hermitian matrix
  that need no vectors.

Both take their norms in units of the largest entry, so no square under- or
overflows.  Below TINY_ENTRY, where rounding errors are subnormal, `eigh`
solves the exact copy H * 2**1000 instead.  Beside the input and the
eigenvectors, the checks hold at most one full-size temporary, H / max |H|
(or |H| to find max |H|); the Hermiticity check, the residuals and the rows
of V^dag V - I are taken SLICE rows or columns at a time.

The momentum blocks reach this solver once per +-k pair; see
`bands.labelled_spectra`.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

RESIDUAL_RTOL = 1e-10      # ||H v - w v||_2 <= RESIDUAL_RTOL * ||H||_F
ORTHO_TOL = 1e-10          # max |V^dag V - I|
HERMITICITY_RTOL = 1e-12   # max |H - H^dag| <= HERMITICITY_RTOL * max |H|
TINY_ENTRY = 2.0 ** -970   # below it, eps * max |H| is subnormal
SLICE = 64                 # rows or columns per slice of a check's temporaries
_NUMPY_DIM = 64            # up to this dimension numpy.linalg.eigh is the faster call

_INT = ctypes.POINTER(ctypes.c_int64)
_CHAR, _PTR = ctypes.c_char_p, ctypes.c_void_p
_LEN = ctypes.c_size_t     # the hidden length of a Fortran character argument


@dataclass
class Spectrum:
    """Ascending eigenvalues, optional eigenvectors (columns), certified
    residual: the largest pair residual with vectors, the larger of the trace
    and Frobenius deviations without."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float


def _slices(n: int) -> list[slice]:
    return [slice(s, s + SLICE) for s in range(0, n, SLICE)]


def _certified_values(a: np.ndarray, w: np.ndarray, unit: float) -> Spectrum:
    """Eigenvalues of `a` checked against its trace and Frobenius norm, both
    taken in units `unit` of the largest entry."""
    fro = float(np.linalg.norm(a / unit))
    trace_dev = abs(math.fsum((w / unit).tolist()) - float(np.trace(a).real) / unit)
    norm_dev = abs(float(np.linalg.norm(w / unit)) - fro)
    if max(trace_dev, norm_dev) > RESIDUAL_RTOL * fro:
        raise NumericalError(
            f"eigenvalues miss tr H by {unit * trace_dev:.3e} and ||H||_F by "
            f"{unit * norm_dev:.3e}; each must stay within {RESIDUAL_RTOL:g} * ||H||_F = "
            f"{unit * RESIDUAL_RTOL * fro:.3e}")
    return Spectrum(eigenvalues=w, eigenvectors=None,
                    residual_bound=unit * max(trace_dev, norm_dev))


@functools.cache
def _zheevd():
    """numpy's own ILP64 `zheevd` and `zunmtr`, or None where its BLAS does not
    export them.  Loading numpy's LAPACK module again returns the loaded
    library, and a symbol lookup on it also searches its OpenBLAS."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        zheevd, zunmtr = lib.scipy_zheevd_64_, lib.scipy_zunmtr_64_
    except (AttributeError, OSError):
        return None
    zheevd.argtypes = [_CHAR, _CHAR, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT,
                       _PTR, _INT, _INT, _LEN, _LEN]
    zunmtr.argtypes = [_CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT,
                       _PTR, _INT, _INT, _LEN, _LEN, _LEN]
    zheevd.restype = zunmtr.restype = None
    return zheevd, zunmtr


def _zheevd_pairs(a: np.ndarray, zheevd, zunmtr) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the complex128 matrix `a` from `zheevd`,
    given zunmtr's blocked workspace (side L, N x N) beside its own."""
    i64 = ctypes.c_int64
    n, info, query = i64(len(a)), i64(0), i64(-1)
    v = np.array(a, order="F")  # zheevd overwrites it with the eigenvectors
    w = np.empty(len(a))
    work, rwork, iwork = np.empty(1, np.complex128), np.empty(1), np.empty(1, np.int64)
    # with lwork = -1 each routine writes its workspace sizes to the first entries
    zheevd(b"V", b"L", n, v.ctypes.data, n, w.ctypes.data, work.ctypes.data, query,
           rwork.ctypes.data, query, iwork.ctypes.data, query, info, 1, 1)
    lwork, lrwork, liwork = int(work[0].real), int(rwork[0]), int(iwork[0])
    zunmtr(b"L", b"L", b"N", n, n, v.ctypes.data, n, work.ctypes.data, v.ctypes.data, n,
           work.ctypes.data, query, info, 1, 1, 1)
    lwork += int(work[0].real)
    work, rwork, iwork = np.empty(lwork, np.complex128), np.empty(lrwork), np.empty(liwork, np.int64)
    zheevd(b"V", b"L", n, v.ctypes.data, n, w.ctypes.data, work.ctypes.data, i64(lwork),
           rwork.ctypes.data, i64(lrwork), iwork.ctypes.data, i64(liwork), info, 1, 1)
    if info.value:
        raise NumericalError(f"eigensolver did not converge: zheevd info {info.value}")
    return w, v


def _lapack(a: np.ndarray, want_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """LAPACK's ascending eigenvalues of `a`, with its eigenvectors or None."""
    try:
        if not want_vectors:
            return np.linalg.eigvalsh(a), None
        routines = _zheevd() if a.dtype == np.complex128 and len(a) > _NUMPY_DIM else None
        return np.linalg.eigh(a) if routines is None else _zheevd_pairs(a, *routines)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc


def eigh(matrix, want_vectors: bool = False) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with contract checks."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError(f"need a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    unit = float(np.abs(a).max()) or 1.0  # the largest entry, 1 for H = 0
    if unit < TINY_ENTRY:
        s = eigh(a * 2.0 ** 1000, want_vectors)  # exact: no entry over- or underflows
        return Spectrum(eigenvalues=s.eigenvalues * 2.0 ** -1000, eigenvectors=s.eigenvectors,
                        residual_bound=s.residual_bound * 2.0 ** -1000)
    asym = max(float(np.abs(a[s] - a[:, s].conj().T).max()) for s in _slices(len(a)))
    if asym > HERMITICITY_RTOL * unit:
        raise ValidationError("matrix is not Hermitian within tolerance")
    w, v = _lapack(a, want_vectors)
    if not want_vectors:
        return _certified_values(a, w, unit)
    b = a / unit  # the one full-size temporary
    fro = float(np.linalg.norm(b))
    residual = gram_dev = 0.0
    for s in _slices(len(w)):
        # the pairs of columns s, and rows s of V^dag V - I from the diagonal
        # on: that matrix is Hermitian, so its upper triangle holds every |entry|
        r = b @ v[:, s]
        r -= v[:, s] * (w[s] / unit)
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
    return Spectrum(eigenvalues=w, eigenvectors=v, residual_bound=unit * residual)

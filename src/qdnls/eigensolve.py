"""Dense Hermitian eigensolver with certified residuals.

Thin wrapper over LAPACK (numpy.linalg.eigh).  The wrapper checks the input is
Hermitian, then certifies the output: per-pair residual against a fraction of
the Frobenius norm, and eigenvector orthonormality in max norm.  Violations
raise instead of returning silently wrong spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

RESIDUAL_RTOL = 1e-10      # ||H v - w v||_2 <= RESIDUAL_RTOL * ||H||_F
ORTHO_TOL = 1e-10          # max |V^dag V - I|
HERMITICITY_RTOL = 1e-12   # max |H - H^dag| <= HERMITICITY_RTOL * max |H|


@dataclass
class Spectrum:
    """Ascending eigenvalues, optional eigenvectors (columns), certified residual."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residual_bound: float


def eigh(matrix, want_vectors: bool = False) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with contract checks."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError(f"need a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    scale = float(np.abs(a).max())
    if float(np.abs(a - a.conj().T).max()) > HERMITICITY_RTOL * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    resid = a @ v - v * w
    residual_bound = float(np.linalg.norm(resid, axis=0).max())
    fro = float(np.linalg.norm(a))
    if residual_bound > RESIDUAL_RTOL * fro:
        raise NumericalError(
            f"residual {residual_bound:.3e} exceeds {RESIDUAL_RTOL:g} * ||H||_F = {RESIDUAL_RTOL * fro:.3e}"
        )
    gram_dev = float(np.abs(v.conj().T @ v - np.eye(len(w))).max())
    if gram_dev > ORTHO_TOL:
        raise NumericalError(f"eigenvector Gram deviation {gram_dev:.3e} exceeds {ORTHO_TOL:g}")
    return Spectrum(eigenvalues=w, eigenvectors=v if want_vectors else None,
                    residual_bound=residual_bound)

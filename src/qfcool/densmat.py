"""Stacked kernels for one- and two-qubit states, and the state validator.

Conventions used throughout the package:

* computational basis ``|s a>`` ordered ``|00>, |01>, |10>, |11>``
  (register-major), with subsystem order register (S) tensor ancilla (A);
* ``|0>`` is the +1 eigenstate of ``sigma_z``;
* all entropies are in nats (natural logarithm).

``validate_density_matrix`` (and ``as_matrix``) check a caller's matrix where
it enters a public function of the package, and ``_psd_sqrt`` checks that its
input is Hermitian and PSD within the clamp; every other function here is an
unchecked kernel on 2x2 and 4x4 matrices or on stacks of them.  ``_xlogx``
holds the entropy cutoff rule of the whole matrix route.
"""

from __future__ import annotations

import numpy as np

from .closed_forms import ENTROPY_CUTOFF

# Elementwise tolerance for matrix comparisons and state validation.
ATOL = 1e-12
# Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; anything lower is an error.
PSD_CLAMP = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex 2x2 or 4x4 ndarray of finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # before any arithmetic, which NaN and inf would poison
        raise ValueError("matrix entries must be finite numbers")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _all_hermitian(a: np.ndarray) -> bool:
    """True when every matrix of a stack ``(..., d, d)`` is Hermitian within ``ATOL``."""
    return bool((np.abs(a - _dagger(a)) <= ATOL).all())


def _checked(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a caller's density matrix; return it and its ascending eigenvalues."""
    a = as_matrix(rho)
    if not _all_hermitian(a):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(a) - 1.0) > ATOL:
        raise ValueError("density matrix must have unit trace")
    w = np.linalg.eigvalsh(a)
    if w[0] < -ATOL:
        raise ValueError(f"density matrix must be positive semidefinite (min eigenvalue {w[0]:.3e})")
    return a, w


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the ndarray.

    Raises ValueError naming the violated property.
    """
    return _checked(rho)[0]


# Unchecked kernels for states the package builds itself (valid by
# construction) or has validated once where they entered.  Each kernel
# treats every matrix of a stack ``(..., d, d)`` exactly as it treats a single one.

def _tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (4, 4))


def _partial_trace(a: np.ndarray, keep: str) -> np.ndarray:
    # np.trace's sum, 0 + first + second term, by slices: the same bytes, signed zeros included
    return 0 + a[..., ::2, ::2] + a[..., 1::2, 1::2] if keep == "S" else 0 + a[..., :2, :2] + a[..., 2:, 2:]


def _xlogx(q: np.ndarray) -> np.ndarray:
    """q ln q elementwise, +0.0 where q is at or below ``ENTROPY_CUTOFF``: the cutoff rule of
    every entropy of the matrix route, the spectra here and the discord's basis search."""
    kept = q > ENTROPY_CUTOFF
    if kept.all():
        return q * np.log(q)
    return np.where(kept, q * np.log(np.where(kept, q, 1.0)), 0.0)


def _spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """Entropies of spectra ``(..., d)``, by ``_xlogx``."""
    return -_xlogx(w).sum(axis=-1)


def _vn_entropies(a: np.ndarray) -> np.ndarray:
    return _spectrum_entropy(np.linalg.eigvalsh(a))


def _expectation(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.trace(h @ a, axis1=-2, axis2=-1).real


def _purity(a: np.ndarray) -> np.ndarray:
    """tr(a a) of each matrix, summed over the entries without a matrix product."""
    return np.einsum("...ij,...ji->...", a, a).real


def _bloch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_expectation`` of each of ``PAULI`` on 2x2 matrices, read from their entries: every
    product with a Pauli entry (0 or +-1) is exact, so summed from np.trace's +0 start, bit for bit."""
    re, im = a.real, a.imag
    return ((0.0 + re[..., 1, 0]) + re[..., 0, 1], (0.0 + im[..., 1, 0]) - im[..., 0, 1],
            (0.0 + re[..., 0, 0]) - re[..., 1, 1])


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S @ S == a, of a matrix or a stack.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; raises if any
    matrix is not Hermitian or has an eigenvalue below -PSD_CLAMP.
    """
    if not _all_hermitian(a):
        raise ValueError("psd_sqrt expects a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    low = w[..., 0]
    negative = low < -PSD_CLAMP
    if negative.any():
        raise ValueError(
            f"psd_sqrt expects a PSD matrix (min eigenvalue {low[negative].flat[0]:.3e})")
    s = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _dagger(v)
    return 0.5 * (s + _dagger(s))

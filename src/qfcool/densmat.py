"""Dense complex linear algebra for one- and two-qubit states.

Conventions used throughout the package:

* computational basis ``|s a>`` ordered ``|00>, |01>, |10>, |11>``
  (register-major), with subsystem order register (S) tensor ancilla (A);
* ``|0>`` is the +1 eigenstate of ``sigma_z``;
* all entropies are in nats (natural logarithm).

Only 2x2 and 4x4 matrices are supported; there is no n-qubit ambition.
"""

from __future__ import annotations

from typing import NamedTuple

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


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex 2x2 or 4x4 ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
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


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, register-major ordering."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != (2, 2) or mb.shape != (2, 2):
        raise ValueError("tensor expects two 2x2 factors")
    return _tensor(ma, mb)


# Unchecked kernels for states the package builds itself (valid by
# construction); the public functions below validate and then call them.
# Each kernel treats every matrix of a stack ``(..., d, d)`` exactly as it
# treats a single one; a diagonal operator is applied by scaling, bit for bit.

def _tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (4, 4))


def _partial_trace(a: np.ndarray, keep: str) -> np.ndarray:
    # np.trace's sum, 0 + first + second term, by slices: the same bytes, signed zeros included
    return 0 + a[..., ::2, ::2] + a[..., 1::2, 1::2] if keep == "S" else 0 + a[..., :2, :2] + a[..., 2:, 2:]


def _spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """Entropies of ascending spectra ``(..., d)``.

    Eigenvalues at or below the cutoff are replaced by 1, whose term
    1 ln 1 is an exact zero; they lead each spectrum, so the sum equals
    the sum over the kept eigenvalues alone bit for bit.
    """
    kept = np.where(w > ENTROPY_CUTOFF, w, 1.0)
    return -(kept * np.log(kept)).sum(axis=-1)


def _vn_entropies(a: np.ndarray) -> np.ndarray:
    return _spectrum_entropy(np.linalg.eigvalsh(a))


def _expectation(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.trace(h @ a, axis1=-2, axis2=-1).real


def _diagonal_expectation(levels: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``_expectation`` of the diagonal H with diagonal ``levels`` ``(..., d)``, bit for bit: each
    entry of ``h @ a`` is one rounded product plus exact zeros, traced here in its layout and order."""
    return np.trace(levels[..., :, None] * a, axis1=-2, axis2=-1).real


def _purity(a: np.ndarray) -> float:
    return float(_expectation(a, a))


def _bloch_vector(a: np.ndarray) -> np.ndarray:
    return np.array([_expectation(s, a) for s in PAULI])


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduce a 4x4 density matrix to the marginal of one subsystem.

    ``keep`` is ``"S"`` (trace out the ancilla) or ``"A"`` (trace out the
    register).
    """
    a = validate_density_matrix(rho)
    if a.shape != (4, 4):
        raise ValueError("partial_trace expects a 4x4 density matrix")
    if keep not in ("S", "A"):
        raise ValueError(f"keep must be 'S' or 'A', got {keep!r}")
    return _partial_trace(a, keep)


def vn_entropy(rho) -> float:
    """Von Neumann entropy in nats, with 0 ln 0 = 0."""
    return float(_spectrum_entropy(_checked(rho)[1]))


def hermitian_eig(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues)."""
    return _hermitian_eig(as_matrix(m))


def _hermitian_eig(a: np.ndarray) -> Spectrum:
    if not _all_hermitian(a):
        raise ValueError("hermitian_eig expects a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def psd_sqrt(rho) -> np.ndarray:
    """Hermitian PSD square root S with S @ S == rho.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; anything below
    -PSD_CLAMP raises.
    """
    return _psd_sqrt(as_matrix(rho))


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """``psd_sqrt`` of a matrix or a stack; raises if any matrix fails a check."""
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


def conjugate(m) -> np.ndarray:
    """Entrywise complex conjugation in the fixed computational basis."""
    return np.conj(as_matrix(m))


def expectation(h, rho) -> float:
    """tr(H rho) for Hermitian H; the imaginary residue must be negligible."""
    ha, ra = as_matrix(h), validate_density_matrix(rho)
    if ha.shape != ra.shape:
        raise ValueError(f"dimension mismatch: {ha.shape} vs {ra.shape}")
    val = np.trace(ha @ ra)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)


def purity(rho) -> float:
    """tr(rho^2)."""
    return _purity(validate_density_matrix(rho))


def bloch_vector(rho) -> np.ndarray:
    """(x, y, z) Pauli expectations of a single-qubit state."""
    a = validate_density_matrix(rho)
    if a.shape != (2, 2):
        raise ValueError("bloch_vector expects a 2x2 density matrix")
    return _bloch_vector(a)

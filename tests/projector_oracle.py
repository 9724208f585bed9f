"""The definitional conditional entropy of a measured two-qubit state.

The projector route: project one side, weigh each branch's reduced entropy
by its probability.  It is the independent oracle for the Bloch-space
kernel (``correlations._conditional_entropy_scan``) that the discord basis
search runs on, so it reduces and sums with numpy alone, not with the
library's kernels.
"""

import numpy as np

from qfcool.correlations import MeasurementBasis

# Branches at or below this probability contribute zero (the kernel's floor).
PROB_FLOOR = 1e-12
# Eigenvalues at or below this contribute zero to an entropy (the library's cutoff).
ENTROPY_CUTOFF = 1e-15
ID2 = np.eye(2)


def conditional_entropy(rho, measured_side: str, basis: MeasurementBasis) -> float:
    """Average post-measurement entropy of the unmeasured side."""
    other = "A" if measured_side == "S" else "S"
    total = 0.0
    for proj in basis.projectors():
        big = np.kron(ID2, proj) if measured_side == "A" else np.kron(proj, ID2)
        branch = big @ rho @ big
        p = float(np.trace(branch).real)
        if p <= PROB_FLOOR:
            continue
        total += p * reduced_entropy(branch / p, other)
    return total


def reduced_entropy(conditional, keep: str) -> float:
    """Entropy of one marginal of a conditional state (PSD by construction).

    Dividing a low-probability branch by its weight amplifies rounding
    noise, so the reduction is raw and the spectrum is clipped instead of
    running the strict state validator.
    """
    # indices (s, a, s', a'): keeping S traces a against a', keeping A traces s against s'
    axes = (1, 3) if keep == "S" else (0, 2)
    marginal = np.trace(conditional.reshape(2, 2, 2, 2), axis1=axes[0], axis2=axes[1])
    w = np.clip(np.linalg.eigvalsh(0.5 * (marginal + marginal.conj().T)), 0.0, None)
    w = w / w.sum()
    w = w[w > ENTROPY_CUTOFF]
    return float(-(w * np.log(w)).sum())

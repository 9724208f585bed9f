"""The Bloch-space conditional-entropy kernel as it was before its fast paths.

A frozen copy of ``correlations._conditional_entropy_scan`` that stacks both
outcomes in one array and masks every element.  The kernel must return the
same floats as this copy, bit for bit: a fast path may skip a mask only
where the mask keeps every element, so each value goes through the same
IEEE operations.
"""

import numpy as np

from qfcool import densmat

# Branches at or below this probability contribute zero (the kernel's floor).
PROB_FLOOR = 1e-12


def outcomes(local, other, m, axes):
    """``(p, live, q)`` of both outcomes: each branch's probability and whether it
    is above the floor, ``(2, r, k)``, and the two eigenvalues of its conditional
    state, ``(2, 2, r, k)`` (those of a dead branch are 1/2)."""
    v = np.concatenate([local[:, None], m.transpose(0, 2, 1)], axis=1)
    x = axes[..., None, :, :]
    dot = x[..., 0] * v[:, :, 0, None] + x[..., 1] * v[:, :, 1, None] + x[..., 2] * v[:, :, 2, None]
    dot = np.array([dot, -dot])
    p = 0.5 * (1.0 + dot[:, :, 0])
    shifted = other[:, :, None] + dot[:, :, 1:]
    shifted *= shifted
    lengths = np.sqrt(shifted[:, :, 0] + shifted[:, :, 1] + shifted[:, :, 2])
    live = p > PROB_FLOOR
    ratio = np.where(live, np.minimum(1.0, lengths / np.where(live, 2.0 * p, 1.0)), 0.0)
    return p, live, np.array([(1.0 + ratio) / 2.0, (1.0 - ratio) / 2.0])


def conditional_entropy_scan(local, other, m, axes):
    """Average conditional entropy of each row for a batch of measurement axes.

    Same arguments and result as ``correlations._conditional_entropy_scan``.
    """
    p, live, q = outcomes(local, other, m, axes)
    kept = q > densmat.ENTROPY_CUTOFF
    h = -np.where(kept, q * np.log(np.where(kept, q, 1.0)), 0.0).sum(axis=0)
    return np.where(live, p * h, 0.0).sum(axis=0)

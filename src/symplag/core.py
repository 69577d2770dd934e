"""Symplectic structure of R^4 shared by the frame machinery.

All matrix conventions follow the block form J = [[0, I2], [-I2, 0]]; a 4x4
matrix X is symplectic when X^T J X = J.  Group and algebra elements are plain
numpy arrays: an affine symplectic motion is the 5x5 matrix [[1, 0], [P, X]]
acting on R^4 by q -> P + X q.
"""

from __future__ import annotations

import numpy as np

J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
J4.flags.writeable = False


def _symplectic_error(X: np.ndarray) -> np.ndarray:
    """X^T J X - J for a (..., 4, 4) stack of matrices."""
    return np.swapaxes(X, -1, -2) @ J4 @ X - J4


# -J X^T J as one gather: entry (r, c) is X[c ^ 2, r ^ 2], negated off the diagonal blocks
_INV_COL, _INV_ROW = np.indices((4, 4)) ^ 2
_INV_SIGN = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((2, 2)))


def _symplectic_inverse(X: np.ndarray) -> np.ndarray:
    """X^-1 = -J X^T J for a (..., 4, 4) stack of symplectic matrices.

    For X = [[a, b], [c, d]] in 2x2 blocks this is [[d^T, -b^T], [-c^T, a^T]],
    one gather of X's entries.  Each entry is +-x + 0.0, so a zero comes out
    +0.0, as from the matrix products with J: on finite input the result is
    byte-identical to -J @ X^T @ J.
    """
    out = X[..., _INV_ROW, _INV_COL] * _INV_SIGN
    out += 0.0
    return out


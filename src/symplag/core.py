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

import numpy as np
from scipy.linalg import expm

import symplag as sg
from symplag.core import _symplectic_inverse


def test_j4_squares_to_minus_identity():
    assert np.array_equal(sg.J4 @ sg.J4, -np.eye(4))
    assert sg.symplectic_defect(np.eye(4)) == 0.0
    assert sg.symplectic_defect(sg.J4) == 0.0


def test_symplectic_inverse_composes_to_identity():
    # a stack of group elements expm([[a, b], [c, -a^T]]), b and c symmetric
    rng = np.random.default_rng(5)
    a, b, c = 0.4 * rng.normal(size=(3, 20, 2, 2))
    b, c = b + np.swapaxes(b, -1, -2), c + np.swapaxes(c, -1, -2)
    M = np.block([[a, b], [c, -np.swapaxes(a, -1, -2)]])
    X = np.stack([expm(m) for m in M])
    Xi = _symplectic_inverse(X)
    assert Xi.shape == X.shape
    assert np.max(np.abs(X @ Xi - np.eye(4))) < 1e-12
    assert np.max(np.abs(Xi @ X - np.eye(4))) < 1e-12

import numpy as np
from scipy.linalg import expm

import symplag as sg
from symplag.core import _symplectic_error

from reduction import _symplectic_inverse


def test_j4_squares_to_minus_identity():
    assert np.array_equal(sg.J4 @ sg.J4, -np.eye(4))
    assert not np.any(_symplectic_error(np.eye(4)))
    assert not np.any(_symplectic_error(sg.J4))


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


def _reference_inverse(X):
    """-J X^T J through the two products with J, the formula's literal form."""
    return -sg.J4 @ np.swapaxes(X, -1, -2) @ sg.J4


def test_symplectic_inverse_is_byte_identical_to_products_with_j():
    # the blockwise inverse must reproduce the products' bytes, a zero's sign
    # included: tobytes() tells +0.0 from -0.0, np.array_equal does not
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0),
                           sg.GridGeometry(61, 61, 0.0, 0.0, 0.005, 0.005))
    F = sg.integrate_frame(sg.theta_from_invariants(inv), compute_path_defect=False)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(7, 9, 4, 4))
    X[rng.random(X.shape) < 0.3] = 0.0
    X[rng.random(X.shape) < 0.3] = -0.0
    for stack in (F.S[..., 1:, 1:], X, X[3, 4]):
        expected = _reference_inverse(stack)
        got = _symplectic_inverse(stack)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

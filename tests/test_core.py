import numpy as np
from scipy.linalg import expm

import symplag as sg
from symplag.frames import _affine_inverse5


def test_j4_squares_to_minus_identity():
    assert np.array_equal(sg.J4 @ sg.J4, -np.eye(4))
    assert sg.symplectic_defect(np.eye(4)) == 0.0
    assert sg.symplectic_defect(sg.J4) == 0.0


def test_affine_inverse5_composes_to_identity():
    # affine-algebra matrix: translation p, sp(4) part [[a, b], [c, -a^T]]
    # with b, c symmetric
    M = np.zeros((5, 5))
    M[1:, 0] = [1.0, -2.0, 0.5, 0.0]
    M[1:3, 1:3] = [[0.3, -0.2], [0.1, 0.25]]
    M[1:3, 3:5] = [[0.4, -0.1], [-0.1, 0.2]]
    M[3:5, 1:3] = [[0.05, 0.15], [0.15, -0.3]]
    M[3:5, 3:5] = -M[1:3, 1:3].T
    g = expm(M)
    gi = _affine_inverse5(g)
    assert np.max(np.abs(g @ gi - np.eye(5))) < 1e-12
    assert np.max(np.abs(gi @ g - np.eye(5))) < 1e-12

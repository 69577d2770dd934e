"""Closed forms of the constant family's frame that tests use as oracles for
`integrate_frame`: the sp(4) parts of Theta's coefficients and the first two
frame columns of Exp(x A + y B), for h = 1 and a constant real p."""

import numpy as np

from symplag.config import DEFAULT_TOLS
from symplag.errors import ParameterDomain
from symplag.generators import _sqrt_terms


def constant_ab(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous coefficient matrices of Theta for h = 1 and constant real p.

    Returned as the 4x4 sp(4) parts; the translation part (which carries t)
    is assembled by theta_from_invariants.
    """
    A = np.array(
        [
            [1.0, 0.0, p + 1.0, 0.0],
            [0.0, -1.0, 0.0, -(p + 1.0)],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    )
    B = np.array(
        [
            [0.0, -1.0, 0.0, 1.0 - p],
            [-1.0, 0.0, 1.0 - p, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
        ]
    )
    return A, B


def frame_columns(p: float, x, y) -> tuple[np.ndarray, np.ndarray]:
    """First two frame columns of Exp(x A + y B) in closed form.

    Outside -2 < p < 2 the hyperbolic terms turn trigonometric; this is
    handled by evaluating over the complex field and keeping the real part
    (the exponential is entire, so the closed form continues analytically).
    """
    if min(abs(p - 2.0), abs(p + 2.0)) <= DEFAULT_TOLS.tol_rank:
        raise ParameterDomain("p must avoid +-2")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sp, sm, s4 = _sqrt_terms(p)
    chx, shx = np.cosh(sp * x), np.sinh(sp * x)
    chy, shy = np.cosh(sm * y), np.sinh(sm * y)
    X1 = np.stack(
        [
            chy * (chx + shx / sp),
            -(sp * chx + p * shx) * shy / s4,
            chy * shx / sp,
            (sp * chx + 2.0 * shx) * shy / s4,
        ],
        axis=-1,
    )
    X2 = np.stack(
        [
            (-sp * chx + p * shx) * shy / s4,
            chy * (chx - shx / sp),
            (sp * chx - 2.0 * shx) * shy / s4,
            -chy * shx / sp,
        ],
        axis=-1,
    )
    return X1.real, X2.real

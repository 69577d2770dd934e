"""Closed forms that tests use as oracles.

For `integrate_frame`: the sp(4) parts of Theta's coefficients and the first
two frame columns of Exp(x A + y B), for h = 1 and a constant real p.  For
`invariants_from_immersion`: the constant family's closed form composed with
a holomorphic change of coordinate, with its exact (t, h, p).
"""

import numpy as np

from symplag.config import DEFAULT_TOLS
from symplag.errors import ParameterDomain
from symplag.frames import ImmersionGrid
from symplag.generators import _closed_form_at, _sqrt_terms, separated_t


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


# Holomorphic changes of coordinate w = g(z) for `reparametrized_closed_form`,
# each as (g, (g', g'', g''')).
_ROTATION = np.exp(0.7j)
MAPS = {
    "quad": (lambda z: z + 0.5 * z**2, (lambda z: 1.0 + z, lambda z: 1.0 + 0 * z,
                                        lambda z: 0 * z)),
    "cubic": (lambda z: z + z**3, (lambda z: 1.0 + 3.0 * z**2, lambda z: 6.0 * z,
                                   lambda z: 6.0 + 0 * z)),
    "rotation": (lambda z: _ROTATION * z, (lambda z: _ROTATION + 0 * z, lambda z: 0 * z,
                                           lambda z: 0 * z)),
}


def reparametrized_at(params, g, x, y) -> np.ndarray:
    """The constant family's closed form F (h = 1) at w = g(x + iy): F(Re w, Im w),
    (..., 4).  Re w and Im w are taken as (g(x + iy) + gbar(x - iy)) / 2 and
    (g(x + iy) - gbar(x - iy)) / 2i, where gbar(w) = conj(g(conj w)) has g's
    conjugated coefficients, so that complex x and y give the analytic
    continuation; at real x and y the imaginary part is round-off."""
    w, wbar = g(x + 1j * y), np.conj(g(np.conj(x - 1j * y)))
    return _closed_form_at(params, 0.5 * (w + wbar), -0.5j * (w - wbar))


def reparametrized_closed_form(params, g, dg, geom):
    """The closed form F of `params` composed with a holomorphic g on `geom`, and
    its exact invariants in the grid coordinate z, by their law under a
    holomorphic change of coordinate.

    With t_w the family's t at w = g(z), g' = dg[0] and the Schwarzian
    S(g) = g'''/g' - (3/2)(g''/g')^2: t = t_w(g) g'^(3/2) (up to the frame's
    sign), h = g'^(3/2) conj(g')^(-1/2) and p = p g'^2 - S(g)/2.  Returns the
    ImmersionGrid and the three (nx, ny) fields t, h, p.
    """
    xx, yy = geom.mesh()
    z = xx + 1j * yy
    w = g(z)
    d1, d2, d3 = (d(z) for d in dg)
    t = separated_t(params, w.real, w.imag) * d1**1.5
    h = d1**1.5 * np.conj(d1) ** -0.5
    p = params.p * d1**2 - 0.5 * (d3 / d1 - 1.5 * (d2 / d1) ** 2)
    return ImmersionGrid(geom, reparametrized_at(params, g, xx, yy).real), t, h, p

"""Closed-form data generators.

Two families: the constant-invariant surfaces (h = 1, p a real constant, t
from a separated exponential ansatz) with their explicit frame columns and
immersion components, and totally umbilic immersions built from complex
curves via a 2x2 holomorphic linear ODE.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import NotHolomorphic, ParameterDomain
from .frames import ImmersionGrid, _sweep_grid
from .grids import GridGeometry, _node_values, d_z, d_zbar
from .invariants import InvariantTriple


@dataclass(frozen=True)
class ConstantFamilyParams:
    """Parameters of the constant-invariant family.

    p is the constant third invariant (p != +-2 keeps the closed-form
    denominators alive); the remaining reals parametrize the separated
    solution of the t-equation.
    """

    p: float
    c1: float = 1.0
    c2: float = 1.0
    a1: float = 0.0
    a2: float = 0.0
    m1: float = 0.0
    m2: float = 0.0

    def __post_init__(self):
        if min(abs(self.p - 2.0), abs(self.p + 2.0)) <= DEFAULT_TOLS.tol_rank:
            raise ParameterDomain("p must avoid +-2")


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


def separated_t(params: ConstantFamilyParams, x, y):
    """Separated-ansatz solution of the t-equation, t = (v1 + w1) + i(v2 + w2).

    With the half-sum Wirtinger convention the real form of the equation is
      (t1)_x - (t2)_y = 2 t1,   (t2)_x + (t1)_y = -2 t2,
    which the exponential ansatz satisfies (the a1 offset only when a1 = 0;
    the a2 offset cancels identically).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v1 = params.c1 * np.exp(2.0 * x) - params.a1
    v2 = params.c2 * np.exp(-2.0 * x) - params.a2
    w1 = params.m1 * np.exp(2.0 * y) + params.m2 * np.exp(-2.0 * y) - params.a1
    w2 = -params.m1 * np.exp(2.0 * y) + params.m2 * np.exp(-2.0 * y) + params.a2
    return (v1 + w1) + 1j * (v2 + w2)


def family_triple(
    params: ConstantFamilyParams, geom: GridGeometry, lam: float = 0.0
) -> InvariantTriple:
    """Invariant triple (t, 1, p - lam) of the family on a grid."""
    xx, yy = geom.mesh()
    return InvariantTriple(geom, separated_t(params, xx, yy), 1.0, params.p - lam)


def _sqrt_terms(p: float):
    sp = np.sqrt(complex(2.0 + p))
    sm = np.sqrt(complex(2.0 - p))
    return sp, sm, sp * sm


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


def closed_form_immersion(params: ConstantFamilyParams, geom: GridGeometry) -> ImmersionGrid:
    """Explicit immersion components for the a1 = a2 = m1 = m2 = 0 configuration."""
    if any(abs(v) > 0 for v in (params.a1, params.a2, params.m1, params.m2)):
        raise ParameterDomain("closed form requires a1 = a2 = m1 = m2 = 0")
    p, c1, c2 = params.p, params.c1, params.c2
    xx, yy = geom.mesh()
    sp, sm, _ = _sqrt_terms(p)
    rad = (p + 2.0) * sm  # sqrt((p + 2)(4 - p^2)), continued analytically past p = -2
    chx, shx = np.cosh(sp * xx), np.sinh(sp * xx)
    chy, shy = np.cosh(sm * yy), np.sinh(sm * yy)
    e4x = np.exp(4.0 * xx)
    pref = np.exp(-2.0 * xx) / ((p - 2.0) * rad)
    Acomp = [
        -c1 * e4x * rad * chy - c2 * (p * p - 4.0) * shy,
        -c1 * e4x * (p * p - 4.0) * shy - c2 * rad * chy,
        c1 * e4x * rad * chy,
        c2 * rad * chy,
    ]
    Bcomp = [
        c1 * e4x * p * sm * sp * chy - c2 * (p - 2.0) * sp * shy,
        c1 * e4x * (p - 2.0) * sp * shy - c2 * p * sm * sp * chy,
        -2.0 * c1 * e4x * sm * sp * chy - c2 * (p - 2.0) * sp * shy,
        c1 * e4x * (p - 2.0) * sp * shy + 2.0 * c2 * sm * sp * chy,
    ]
    f = np.stack([pref * (chx * Aj + shx * Bj) for Aj, Bj in zip(Acomp, Bcomp)], axis=-1)
    imag = float(np.max(np.abs(f.imag)))
    if imag > 1e-9 * max(1.0, float(np.max(np.abs(f.real)))):
        warnings.warn(f"closed-form immersion has imaginary residue {imag:.3e}")
    return ImmersionGrid(geom, f.real)


# -- totally umbilic immersions from complex curves ---------------------------


@dataclass(frozen=True)
class UmbilicCurveSpec:
    """Holomorphic datum p, as node values on `geometry` (a scalar is
    broadcast), and family parameter for the 2x2 curve ODE."""

    geometry: GridGeometry
    p: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _node_values(self.geometry, self.p, "p"))


def _curve_coefficient(pv: np.ndarray, lam: float) -> np.ndarray:
    """Augmented 3x3 coefficient [[N, e1], [0, 0]] with N = [[0, p - lam], [1, 0]]."""
    out = np.zeros(pv.shape + (3, 3), dtype=complex)
    out[..., 0, 1] = pv - lam
    out[..., 1, 0] = 1.0
    out[..., 0, 2] = 1.0
    return out


def umbilic_curve(
    spec: UmbilicCurveSpec, tols: Tolerances = DEFAULT_TOLS
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the curve ODE; returns (curve (nx,ny,2), frame (nx,ny,2,2)).

    The frame solves X^-1 dX = [[0, -i(p-lam)], [1, 0]] dz from the identity
    at the base node and the curve is the primitive of its first column.
    Holomorphy of p makes the grid-path integral path-independent.
    """
    geom = spec.geometry
    holo = float(np.max(np.abs(d_zbar(spec.p, geom))))
    if holo > tols.tol_resid:
        raise NotHolomorphic(f"max |p_zbar| = {holo:.3e} > {tols.tol_resid:.3e}")
    N = _curve_coefficient(spec.p, spec.lam)
    T = _sweep_grid(N, N, geom.dx, 1j * geom.dy)
    frame = T[..., :2, :2]
    curve = T[..., :2, 2]
    det = np.linalg.det(frame)
    det_err = float(np.max(np.abs(det - 1.0)))
    if det_err > 1e-8:
        warnings.warn(f"frame determinant drifted by {det_err:.3e}")
    fd = flex_defect(geom, curve)
    if np.min(fd) < tols.tol_rank:
        warnings.warn("flex points detected on the integrated curve")
    return curve, frame


def curve_to_immersion(geom: GridGeometry, curve: np.ndarray) -> ImmersionGrid:
    """Map C^2 curve samples to R^4 through the standard identification."""
    u = curve[..., 0]
    w = curve[..., 1]
    f = np.stack([u.real, -u.imag, w.real, w.imag], axis=-1)
    return ImmersionGrid(geom, f)


def umbilic_immersion(spec: UmbilicCurveSpec, tols: Tolerances = DEFAULT_TOLS) -> ImmersionGrid:
    curve, _ = umbilic_curve(spec, tols)
    return curve_to_immersion(spec.geometry, curve)


def flex_defect(geom: GridGeometry, curve: np.ndarray) -> np.ndarray:
    """|f_z wedge f_zz| per node of a curve held as (nx, ny, 2) node values in C^2;
    zero flags a flex point."""
    f_z = d_z(curve, geom)
    f_zz = d_z(f_z, geom)
    return np.abs(f_z[..., 0] * f_zz[..., 1] - f_z[..., 1] * f_zz[..., 0])

"""Closed-form data generators.

Two families: the constant-invariant surfaces (h = 1, p a real constant, t
from a separated exponential ansatz) with their explicit immersion
components, and totally umbilic immersions built from complex curves via a
2x2 holomorphic linear ODE.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, _number
from .errors import NotHolomorphic, ParameterDomain
from .frames import ImmersionGrid, _sweep_grid
from .grids import GridGeometry, _node_values, d_z, d_zbar
from .invariants import InvariantTriple


@dataclass(frozen=True)
class ConstantFamilyParams:
    """Parameters of the constant-invariant family.

    p is the constant third invariant (p != +-2 keeps the closed-form
    denominators alive); c1, c2, m1 and m2 weight the exponentials of the
    separated solution of the t-equation.  All five are finite floats.
    """

    p: float
    c1: float = 1.0
    c2: float = 1.0
    m1: float = 0.0
    m2: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _number(f.name, getattr(self, f.name)))
        if min(abs(self.p - 2.0), abs(self.p + 2.0)) <= DEFAULT_TOLS.tol_rank:
            raise ParameterDomain("p must avoid +-2")


def separated_t(params: ConstantFamilyParams, x, y):
    """Separated-ansatz solution of the t-equation, t = (v1 + w1) + i(v2 + w2).

    With the half-sum Wirtinger convention the real form of the equation is
      (t1)_x - (t2)_y = 2 t1,   (t2)_x + (t1)_y = -2 t2,
    which the exponential ansatz satisfies.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v1 = params.c1 * np.exp(2.0 * x)
    v2 = params.c2 * np.exp(-2.0 * x)
    w1 = params.m1 * np.exp(2.0 * y) + params.m2 * np.exp(-2.0 * y)
    w2 = -params.m1 * np.exp(2.0 * y) + params.m2 * np.exp(-2.0 * y)
    return (v1 + w1) + 1j * (v2 + w2)


def family_triple(params: ConstantFamilyParams, geom: GridGeometry) -> InvariantTriple:
    """Invariant triple (t, 1, p) of the family on a grid; `shift_family`
    moves it along the family."""
    xx, yy = geom.mesh()
    return InvariantTriple(geom, separated_t(params, xx, yy), 1.0, params.p)


def _sqrt_terms(p: float):
    sp = np.sqrt(complex(2.0 + p))
    sm = np.sqrt(complex(2.0 - p))
    return sp, sm, sp * sm


def _closed_form_at(params: ConstantFamilyParams, xx, yy) -> np.ndarray:
    """The m1 = m2 = 0 immersion at real arrays xx, yy, which broadcast: complex
    (..., 4), imaginary part 0."""
    p, c1, c2 = params.p, params.c1, params.c2
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
    return np.stack([pref * (chx * Aj + shx * Bj) for Aj, Bj in zip(Acomp, Bcomp)], axis=-1)


def closed_form_immersion(params: ConstantFamilyParams, geom: GridGeometry) -> ImmersionGrid:
    """Explicit immersion components for the m1 = m2 = 0 configuration."""
    if params.m1 or params.m2:
        raise ParameterDomain("closed form requires m1 = m2 = 0")
    # each factor depends on one coordinate, so the grid's axes broadcast to the mesh
    f = _closed_form_at(params, geom.x[:, None], geom.y[None, :])
    return ImmersionGrid(geom, np.ascontiguousarray(f.real))  # not a view that holds f


# -- totally umbilic immersions from complex curves ---------------------------


@dataclass(frozen=True)
class UmbilicCurveSpec:
    """Holomorphic datum p, read-only node values on `geometry` (a scalar is
    broadcast), and the finite family parameter lam of the 2x2 curve ODE."""

    geometry: GridGeometry
    p: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _node_values(self.geometry, self.p, "p"))
        object.__setattr__(self, "lam", _number("lam", self.lam))


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

    X^-1 dX = [[0, p - lam], [1, 0]] dz (a y step is i dy) from X = I at the
    base node; the curve is the primitive of X e1, path-independent as p is
    holomorphic.  f_zz = X e2 makes f_z wedge f_zz = det X, and X^T J X =
    det X J, so a drift of det X above `tols.tol_frame` warns.
    """
    geom = spec.geometry
    holo = float(np.max(np.abs(d_zbar(spec.p, geom))))
    if holo > tols.tol_resid:
        raise NotHolomorphic(f"max |p_zbar| = {holo:.3e} > {tols.tol_resid:.3e}")
    N = _curve_coefficient(spec.p, spec.lam)
    T = _sweep_grid(N, N, geom.dx, 1j * geom.dy)
    frame = T[..., :2, :2]
    curve = T[..., :2, 2]
    det = frame[..., 0, 0] * frame[..., 1, 1] - frame[..., 0, 1] * frame[..., 1, 0]
    drift = float(np.max(np.abs(det - 1.0)))
    if drift > tols.tol_frame:
        warnings.warn(f"frame determinant drifted by {drift:.3e} > tol_frame {tols.tol_frame:.3e}")
    return curve, frame


def curve_to_immersion(geom: GridGeometry, curve: np.ndarray) -> ImmersionGrid:
    """Map C^2 curve samples to R^4 through the standard identification."""
    u = curve[..., 0]
    w = curve[..., 1]
    f = np.stack([u.real, -u.imag, w.real, w.imag], axis=-1)
    return ImmersionGrid(geom, f)


def umbilic_immersion(spec: UmbilicCurveSpec, tols: Tolerances = DEFAULT_TOLS) -> ImmersionGrid:
    return curve_to_immersion(spec.geometry, umbilic_curve(spec, tols)[0])


def flex_defect(geom: GridGeometry, curve: np.ndarray) -> np.ndarray:
    """|f_z wedge f_zz| per node of a curve held as (nx, ny, 2) node values in C^2;
    zero flags a flex point.  On `umbilic_curve`'s curves it is |det X|."""
    f_z = d_z(curve, geom)
    f_zz = d_z(f_z, geom)
    return np.abs(f_z[..., 0] * f_zz[..., 1] - f_z[..., 1] * f_zz[..., 0])

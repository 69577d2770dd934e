"""Scalar identities and operators on the invariant functions (t, h, p).

Houses the compatibility residuals of the invariant triple, the invariant
differential-form coefficients in the adapted gauge (where the base 1-form is
dz), the genericity operators with the p-recovery formula, and the
1-parameter shift family with its applicability certificate.
Fields are complex (nx, ny) arrays of node values; each record and call
carries one GridGeometry for all of them, and every function returns arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .errors import NonRealH, NotClosed, NotGeneric, UmbilicPoint
from .grids import GridGeometry, _node_values, cumquad, d_z, d_zbar, diff4, gradient


@dataclass(frozen=True)
class InvariantTriple:
    """Fields t (never zero), h, p on one grid geometry, held as read-only
    complex (nx, ny) arrays; a scalar is broadcast to the grid."""

    geometry: GridGeometry
    t: np.ndarray
    h: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in ("t", "h", "p"):
            object.__setattr__(self, name,
                               _node_values(self.geometry, getattr(self, name), name))
        tmin = float(np.min(np.abs(self.t)))
        if tmin <= DEFAULT_TOLS.tol_rank:
            raise ValueError(f"t must be never zero; min |t| = {tmin:.3e}")


@dataclass(frozen=True)
class FormCoefficients:
    """Coefficients of the invariant forms in the adapted gauge.

    fubini  -- cubic-form coefficient t^2        (of dz^3)
    hopf    -- normalized quadratic coefficient |t|^(2/3) h  (of dz^2)
    thomsen -- real metric coefficient |h|^2     (of dz dzbar)
    nform   -- coefficient |t|^2 h of the derived invariant form
    """

    fubini: np.ndarray
    hopf: np.ndarray
    thomsen: np.ndarray
    nform: np.ndarray


def inteq_residual(inv: InvariantTriple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the three compatibility equations of (t, h, p).

    r1 = t_zbar - conj(t) h
    r2 = p_zbar - (2 h conj(h)_z - i (|h|^2)_z)
    r3 = (conj(p) h - p conj(h)) - (h_zbar_zbar - conj(h)_zz)
    """
    geom = inv.geometry
    t, h, p = inv.t, inv.h, inv.p
    hbar = np.conj(h)
    hbar_z = d_z(hbar, geom)
    # |h|^2 is differenced as complex: diff4 of the real array differs in the last bits
    habs2 = np.abs(h) ** 2 + 0j
    r1 = d_zbar(t, geom) - np.conj(t) * h
    r2 = d_zbar(p, geom) - (2.0 * h * hbar_z - 1j * d_z(habs2, geom))
    r3 = (np.conj(p) * h - p * hbar) - (d_zbar(d_zbar(h, geom), geom) - d_z(hbar_z, geom))
    return r1, r2, r3


def diffeq_residual(
    t: np.ndarray, h_real: np.ndarray, p2: np.ndarray, geom: GridGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the real-h PDE system governing applicable immersions.

    r1 = t_zbar - h conj(t);  r2 = h_xy + 2 h p2;  r3 = lap(p2) + 4 (h^2)_xy.
    """
    t = _node_values(geom, t, "t")
    h_real = _node_values(geom, h_real, "h")
    tol = DEFAULT_TOLS.tol_resid
    im = float(np.max(np.abs(h_real.imag)))
    if im > tol:
        raise NonRealH(f"max |Im h| = {im:.3e} > {tol:.3e}")
    h = h_real.real
    p2v = _node_values(geom, p2, "p2").real
    r1 = d_zbar(t, geom) - h * np.conj(t)
    h_xy = diff4(diff4(h, geom.dx, 0), geom.dy, 1)
    r2 = h_xy + 2.0 * h * p2v
    lap = (
        diff4(diff4(p2v, geom.dx, 0), geom.dx, 0)
        + diff4(diff4(p2v, geom.dy, 1), geom.dy, 1)
    )
    h2_xy = diff4(diff4(h * h, geom.dx, 0), geom.dy, 1)
    r3 = lap + 4.0 * h2_xy
    return r1, r2, r3


def p1_from_p2(p2: np.ndarray, h: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Primitive of [(p2)_y + 2(h^2)_x] dx - [(p2)_x + 2(h^2)_y] dy, zero at the base node.

    The 1-form is checked for closedness first; grid-path integration runs
    down the first column and then along rows.  Adding a constant to the
    result moves through the associated family.
    """
    p2v = _node_values(geom, p2, "p2").real
    h2 = np.real(_node_values(geom, h, "h")) ** 2
    p2_x, p2_y = gradient(p2v, geom)
    h2_x, h2_y = gradient(h2, geom)
    F = p2_y + 2.0 * h2_x
    G = -(p2_x + 2.0 * h2_y)
    curl = diff4(F, geom.dy, 1) - diff4(G, geom.dx, 0)
    cmax = float(np.max(np.abs(curl)))
    tol = DEFAULT_TOLS.tol_resid
    if cmax > tol:
        raise NotClosed(f"curl residual {cmax:.3e} > {tol:.3e}")
    out = np.empty((geom.nx, geom.ny))
    out[0, :] = cumquad(G[0, :], geom.dy)
    out[:, :] = out[0, :][None, :] + cumquad(F, geom.dx, axis=0)
    return out


def form_coefficients(inv: InvariantTriple) -> FormCoefficients:
    """Invariant-form coefficients in the adapted gauge (base 1-form = dz)."""
    t, h = inv.t, inv.h
    abst = np.abs(t)
    return FormCoefficients(
        fubini=t**2,
        hopf=abst ** (2.0 / 3.0) * h,
        thomsen=np.abs(h) ** 2 + 0j,
        nform=abst**2 * h,
    )


def dbar_fubini_residual(inv: InvariantTriple) -> np.ndarray:
    """Coefficient residual of the cubic-form derivative identity.

    Returns d_zbar(t^2) - 2 |t|^2 h, which vanishes whenever the first
    compatibility equation holds.
    """
    t, h = inv.t, inv.h
    return d_zbar(t**2, inv.geometry) - 2.0 * np.abs(t) ** 2 * h


def genericity_ops(
    h: np.ndarray, geom: GridGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Second- through fourth-order operators of h used for p-recovery.

    D2 = (conj(h)_zz - h_zbar_zbar) / (2 conj(h))
    D3 = [ (D2)_zbar - 2 h conj(h)_z + i (|h|^2)_z ] / h
    P2 = (conj(h)_z / conj(h))_zbar - (h_zbar / h)_z
    D4 = (conj(D3))_zbar - (D3)_z - (conj(h)_z/conj(h)) D3 + (h_zbar/h) conj(D3)
    """
    hv = _node_values(geom, h, "h")
    tol = DEFAULT_TOLS.tol_umbilic
    hmin = float(np.min(np.abs(hv)))
    if hmin < tol:
        raise UmbilicPoint(f"min |h| = {hmin:.3e} < {tol:.3e}")
    hbar = np.conj(hv)
    hbar_z = d_z(hbar, geom)
    h_zbar = d_zbar(hv, geom)
    # |h|^2 is differenced as complex: diff4 of the real array differs in the last bits
    habs2 = np.abs(hv) ** 2 + 0j
    d2 = (d_z(hbar_z, geom) - d_zbar(h_zbar, geom)) / (2.0 * hbar)
    d3 = (d_zbar(d2, geom) - 2.0 * hv * hbar_z + 1j * d_z(habs2, geom)) / hv
    p2 = d_zbar(hbar_z / hbar, geom) - d_z(h_zbar / hv, geom)
    d3bar = np.conj(d3)
    d4 = (d_zbar(d3bar, geom) - d_z(d3, geom)
          - (hbar_z / hbar) * d3 + (h_zbar / hv) * d3bar)
    return d2, d3, p2, d4


def is_generic(inv: InvariantTriple) -> np.ndarray:
    """Boolean grid: node is generic when the Hopf coefficient and P2 are both nonzero."""
    tol = DEFAULT_TOLS.tol_umbilic
    hopf_nonzero = np.abs(inv.h) > tol
    if not hopf_nonzero.all():
        return hopf_nonzero
    _, _, p2, _ = genericity_ops(inv.h, inv.geometry)
    return hopf_nonzero & (np.abs(p2) > tol)


def recover_p(h: np.ndarray, geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Recover (s, p) from h alone via s = -D4/P2, p = h s + D2.

    Returns (s real grid, p).  s is real by construction: P2 and D4 both have
    the form U - conj(U), so both are purely imaginary.  Raises UmbilicPoint
    where |h| < tol_umbilic and NotGeneric where |P2| <= tol_umbilic.
    """
    h = _node_values(geom, h, "h")
    d2, _, p2, d4 = genericity_ops(h, geom)
    bad = np.abs(p2) <= DEFAULT_TOLS.tol_umbilic
    if bad.any():
        idx = np.argwhere(bad)
        raise NotGeneric(
            f"P2 vanishes at {len(idx)} node(s), e.g. (i,j) = {tuple(idx[0])}"
        )
    s = (-d4 / p2).real
    return s, h * s + d2


def shift_family(inv: InvariantTriple, lam: float) -> InvariantTriple:
    """Shift p by a real constant; t and h are unchanged.

    When h is real-valued (the applicable case) the shifted triple satisfies
    the compatibility equations exactly when the input does.
    """
    return InvariantTriple(inv.geometry, inv.t, inv.h, inv.p - float(lam))


def applicability_residual(h: np.ndarray, w: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Certificate residual for a candidate quadratic differential coefficient w.

    Per node: |Im(conj(w) h)| (real alignment of the Hopf coefficient with w)
    plus |w_zbar| (holomorphy of w).  Zero means w certifies applicability.
    """
    h = _node_values(geom, h, "h")
    w = _node_values(geom, w, "w")
    align = np.abs(np.imag(np.conj(w) * h))
    holo = np.abs(d_zbar(w, geom))
    return align + holo

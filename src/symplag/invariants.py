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
from .errors import NotGeneric, UmbilicPoint
from .grids import GridGeometry, _node_values, d_z, d_zbar


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

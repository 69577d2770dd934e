"""Scalar identities and operators on the invariant functions (t, h, p).

Houses the compatibility residuals of the invariant triple, the cubic-form
derivative identity, and the 1-parameter shift family with its applicability
certificate.
Fields are complex (nx, ny) arrays of node values; each record and call
carries one GridGeometry for all of them, and every function returns arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, _number
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


def dbar_fubini_residual(inv: InvariantTriple) -> np.ndarray:
    """Coefficient residual of the cubic-form derivative identity.

    Returns d_zbar(t^2) - 2 |t|^2 h, which vanishes whenever the first
    compatibility equation holds.
    """
    t, h = inv.t, inv.h
    return d_zbar(t**2, inv.geometry) - 2.0 * np.abs(t) ** 2 * h


def shift_family(inv: InvariantTriple, lam: float) -> InvariantTriple:
    """Shift p by a real constant; t and h are unchanged.

    When h is real-valued (the applicable case) the shifted triple satisfies
    the compatibility equations exactly when the input does.
    """
    return InvariantTriple(inv.geometry, inv.t, inv.h, inv.p - _number("lam", lam))


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

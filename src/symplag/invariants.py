"""Scalar identities and operators on the invariant functions (t, h, p).

Houses the compatibility residuals of the invariant triple, the invariant
differential-form coefficients in the adapted gauge (where the base 1-form is
dz), the genericity operators with the p-recovery formula, and the
1-parameter shift family with its applicability certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import NonRealH, NotClosed, NotGeneric, UmbilicPoint
from .grids import ComplexGrid, GridGeometry, cumquad, d_z, d_zbar, diff4, gradient


@dataclass(frozen=True)
class InvariantTriple:
    """Fields t (never zero), h, p sharing one grid geometry."""

    t: ComplexGrid
    h: ComplexGrid
    p: ComplexGrid

    def __post_init__(self):
        if not (self.t.geometry == self.h.geometry == self.p.geometry):
            raise ValueError("t, h, p must share one grid geometry")
        for name in ("t", "h", "p"):
            if not np.all(np.isfinite(getattr(self, name).values)):
                raise ValueError(f"{name} must be finite")
        if self.t.min_abs() <= DEFAULT_TOLS.tol_rank:
            raise ValueError(f"t must be never zero; min |t| = {self.t.min_abs():.3e}")

    @property
    def geometry(self) -> GridGeometry:
        return self.t.geometry


@dataclass(frozen=True)
class FormCoefficients:
    """Coefficients of the invariant forms in the adapted gauge.

    fubini  -- cubic-form coefficient t^2        (of dz^3)
    hopf    -- normalized quadratic coefficient |t|^(2/3) h  (of dz^2)
    thomsen -- real metric coefficient |h|^2     (of dz dzbar)
    nform   -- coefficient |t|^2 h of the derived invariant form
    """

    fubini: ComplexGrid
    hopf: ComplexGrid
    thomsen: ComplexGrid
    nform: ComplexGrid


def inteq_residual(inv: InvariantTriple) -> tuple[ComplexGrid, ComplexGrid, ComplexGrid]:
    """Residuals of the three compatibility equations of (t, h, p).

    r1 = t_zbar - conj(t) h
    r2 = p_zbar - (2 h conj(h)_z - i (|h|^2)_z)
    r3 = (conj(p) h - p conj(h)) - (h_zbar_zbar - conj(h)_zz)
    """
    t, h, p = inv.t, inv.h, inv.p
    hbar = h.with_values(np.conj(h.values))
    habs2 = h.with_values(np.abs(h.values) ** 2)
    r1 = t.with_values(d_zbar(t).values - np.conj(t.values) * h.values)
    r2 = p.with_values(
        d_zbar(p).values - (2.0 * h.values * d_z(hbar).values - 1j * d_z(habs2).values)
    )
    r3 = p.with_values(
        (np.conj(p.values) * h.values - p.values * np.conj(h.values))
        - (d_zbar(d_zbar(h)).values - d_z(d_z(hbar)).values)
    )
    return r1, r2, r3


def diffeq_residual(
    t: ComplexGrid,
    h_real: ComplexGrid,
    p2: ComplexGrid,
    tol_resid: float = DEFAULT_TOLS.tol_resid,
) -> tuple[ComplexGrid, np.ndarray, np.ndarray]:
    """Residuals of the real-h PDE system governing applicable immersions.

    r1 = t_zbar - h conj(t);  r2 = h_xy + 2 h p2;  r3 = lap(p2) + 4 (h^2)_xy.
    """
    im = float(np.max(np.abs(h_real.values.imag)))
    if im > tol_resid:
        raise NonRealH(f"max |Im h| = {im:.3e} > {tol_resid:.3e}")
    h = h_real.values.real
    p2v = p2.values.real
    geom = h_real.geometry
    r1 = t.with_values(d_zbar(t).values - h * np.conj(t.values))
    h_xy = diff4(diff4(h, geom.dx, 0), geom.dy, 1)
    r2 = h_xy + 2.0 * h * p2v
    lap = (
        diff4(diff4(p2v, geom.dx, 0), geom.dx, 0)
        + diff4(diff4(p2v, geom.dy, 1), geom.dy, 1)
    )
    h2_xy = diff4(diff4(h * h, geom.dx, 0), geom.dy, 1)
    r3 = lap + 4.0 * h2_xy
    return r1, r2, r3


def p1_from_p2(
    p2: ComplexGrid, h: ComplexGrid, tol_resid: float = DEFAULT_TOLS.tol_resid
) -> np.ndarray:
    """Primitive of [(p2)_y + 2(h^2)_x] dx - [(p2)_x + 2(h^2)_y] dy, zero at the base node.

    The 1-form is checked for closedness first; grid-path integration runs
    down the first column and then along rows.  Adding a constant to the
    result moves through the associated family.
    """
    geom = p2.geometry
    p2v = p2.values.real
    h2 = np.real(h.values) ** 2
    p2_x, p2_y = gradient(p2v, geom)
    h2_x, h2_y = gradient(h2, geom)
    F = p2_y + 2.0 * h2_x
    G = -(p2_x + 2.0 * h2_y)
    curl = diff4(F, geom.dy, 1) - diff4(G, geom.dx, 0)
    cmax = float(np.max(np.abs(curl)))
    if cmax > tol_resid:
        raise NotClosed(f"curl residual {cmax:.3e} > {tol_resid:.3e}")
    out = np.empty((geom.nx, geom.ny))
    out[0, :] = cumquad(G[0, :], geom.dy)
    out[:, :] = out[0, :][None, :] + cumquad(F, geom.dx, axis=0)
    return out


def form_coefficients(inv: InvariantTriple) -> FormCoefficients:
    """Invariant-form coefficients in the adapted gauge (base 1-form = dz)."""
    t, h = inv.t.values, inv.h.values
    geom = inv.geometry
    abst = np.abs(t)
    return FormCoefficients(
        fubini=ComplexGrid(geom, t**2),
        hopf=ComplexGrid(geom, abst ** (2.0 / 3.0) * h),
        thomsen=ComplexGrid(geom, np.abs(h) ** 2 + 0j),
        nform=ComplexGrid(geom, abst**2 * h),
    )


def dbar_fubini_residual(inv: InvariantTriple) -> ComplexGrid:
    """Coefficient residual of the cubic-form derivative identity.

    Returns d_zbar(t^2) - 2 |t|^2 h, which vanishes whenever the first
    compatibility equation holds.
    """
    t, h = inv.t, inv.h
    t2 = t.with_values(t.values**2)
    return t.with_values(d_zbar(t2).values - 2.0 * np.abs(t.values) ** 2 * h.values)


def genericity_ops(
    h: ComplexGrid, tol_umbilic: float = DEFAULT_TOLS.tol_umbilic
) -> tuple[ComplexGrid, ComplexGrid, ComplexGrid, ComplexGrid]:
    """Second- through fourth-order operators of h used for p-recovery.

    D2 = (conj(h)_zz - h_zbar_zbar) / (2 conj(h))
    D3 = [ (D2)_zbar - 2 h conj(h)_z + i (|h|^2)_z ] / h
    P2 = (conj(h)_z / conj(h))_zbar - (h_zbar / h)_z
    D4 = (conj(D3))_zbar - (D3)_z - (conj(h)_z/conj(h)) D3 + (h_zbar/h) conj(D3)
    """
    if h.min_abs() < tol_umbilic:
        raise UmbilicPoint(f"min |h| = {h.min_abs():.3e} < {tol_umbilic:.3e}")
    geom = h.geometry
    hv = h.values
    hbar = h.with_values(np.conj(hv))
    habs2 = h.with_values(np.abs(hv) ** 2)
    hbar_z = d_z(hbar)
    h_zbar = d_zbar(h)
    d2 = h.with_values((d_z(d_z(hbar)).values - d_zbar(d_zbar(h)).values) / (2.0 * np.conj(hv)))
    d3 = h.with_values(
        (d_zbar(d2).values - 2.0 * hv * hbar_z.values + 1j * d_z(habs2).values) / hv
    )
    p2 = h.with_values(
        d_zbar(h.with_values(hbar_z.values / np.conj(hv))).values
        - d_z(h.with_values(h_zbar.values / hv)).values
    )
    d3bar = h.with_values(np.conj(d3.values))
    d4 = h.with_values(
        d_zbar(d3bar).values
        - d_z(d3).values
        - (hbar_z.values / np.conj(hv)) * d3.values
        + (h_zbar.values / hv) * d3bar.values
    )
    return d2, d3, p2, d4


def is_generic(
    inv: InvariantTriple,
    tol: float = DEFAULT_TOLS.tol_umbilic,
) -> np.ndarray:
    """Boolean grid: node is generic when the Hopf coefficient and P2 are both nonzero."""
    hopf_nonzero = np.abs(inv.h.values) > tol
    if not hopf_nonzero.all():
        return hopf_nonzero
    _, _, p2, _ = genericity_ops(inv.h, tol_umbilic=tol)
    return hopf_nonzero & (np.abs(p2.values) > tol)


def recover_p(
    h: ComplexGrid,
    tol_umbilic: float = DEFAULT_TOLS.tol_umbilic,
) -> tuple[np.ndarray, ComplexGrid, float]:
    """Recover (s, p) from h alone via s = -D4/P2, p = h s + D2.

    Returns (s real grid, p, max imaginary residual of s).  s is real-valued
    when the compatibility equations hold; the imaginary part is reported as
    a diagnostic rather than silently dropped.  Raises UmbilicPoint where
    |h| < tol_umbilic and NotGeneric where |P2| <= tol_umbilic.
    """
    d2, _, p2, d4 = genericity_ops(h, tol_umbilic=tol_umbilic)
    bad = np.abs(p2.values) <= tol_umbilic
    if bad.any():
        idx = np.argwhere(bad)
        raise NotGeneric(
            f"P2 vanishes at {len(idx)} node(s), e.g. (i,j) = {tuple(idx[0])}"
        )
    s_complex = -d4.values / p2.values
    s = s_complex.real
    imag_resid = float(np.max(np.abs(s_complex.imag)))
    p = h.with_values(h.values * s + d2.values)
    return s, p, imag_resid


def shift_family(inv: InvariantTriple, lam: float) -> InvariantTriple:
    """Shift p by a real constant; t and h are unchanged.

    When h is real-valued (the applicable case) the shifted triple satisfies
    the compatibility equations exactly when the input does.
    """
    return InvariantTriple(inv.t, inv.h, inv.p.with_values(inv.p.values - float(lam)))


def applicability_residual(h: ComplexGrid, w: ComplexGrid) -> np.ndarray:
    """Certificate residual for a candidate quadratic differential coefficient w.

    Per node: |Im(conj(w) h)| (real alignment of the Hopf coefficient with w)
    plus |w_zbar| (holomorphy of w).  Zero means w certifies applicability.
    """
    if not w.geometry == h.geometry:
        raise ValueError("h and w must share one grid geometry")
    align = np.abs(np.imag(np.conj(w.values) * h.values))
    holo = np.abs(d_zbar(w).values)
    return align + holo

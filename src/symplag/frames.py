"""Frame machinery: Maurer-Cartan assembly, flatness, integration, reduction.

The 1-form Theta = A dx + B dy is stored as two (nx, ny, 5, 5) arrays of
affine-algebra values in the 5x5 representation [[0, 0], [p, x]].  A frame
field stores one 5x5 group element per node; the immersion is its
translation part.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .core import J4, _symplectic_error, _symplectic_inverse, symplectic_defect
from .errors import (
    FrameDefect,
    IntegrationBlowup,
    NotAdapted,
    NotElliptic,
    NotLagrangian,
    UmbilicGaugeWarning,
)
from .grids import GridGeometry, diff4, gradient, wirtinger
from .invariants import InvariantTriple
from . import grids


@dataclass(frozen=True)
class MaurerCartanField:
    """Per-node coefficient pair (A, B) of Theta = A dx + B dy."""

    geometry: GridGeometry
    A: np.ndarray  # (nx, ny, 5, 5)
    B: np.ndarray


@dataclass(frozen=True)
class FrameField:
    """Group-valued field S(x, y) with integration diagnostics."""

    geometry: GridGeometry
    S: np.ndarray  # (nx, ny, 5, 5)
    flatness_report: float = 0.0
    path_defect: float = 0.0

    def max_symplectic_defect(self) -> float:
        return symplectic_defect(self.S[:, :, 1:, 1:])


@dataclass(frozen=True)
class ImmersionGrid:
    """R^4-valued immersion samples f[i, j] on a grid."""

    geometry: GridGeometry
    f: np.ndarray  # (nx, ny, 4)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (self.geometry.nx, self.geometry.ny, 4):
            raise ValueError(f"immersion values have shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("immersion values must be finite")
        object.__setattr__(self, "f", f)


# -- Theta from invariants ----------------------------------------------------


def _mat2(a, b, c, d) -> np.ndarray:
    """Per-node 2x2 matrices [[a, b], [c, d]] from fields of a's shape (or scalars)."""
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def theta_from_invariants(inv: InvariantTriple) -> MaurerCartanField:
    """Assemble the flat 1-form whose frame integral realizes (t, h, p).

    Coefficient layout per node (upper-left 1-row is zero):
      translation: (t1, -t2, 0, 0) dx + (-t2, -t1, 0, 0) dy
      alpha from h, gamma constant, beta from the derivative terms of h and p.
    """
    geom = inv.geometry
    t, h, p = inv.t, inv.h, inv.p
    t1, t2 = t.real, t.imag
    h1, h2 = h.real, h.imag
    habs2 = np.abs(h) ** 2

    h_zbar = grids.d_zbar(h, geom)
    ups_x = 2.0 * h_zbar.real
    ups_y = -2.0 * h_zbar.imag
    rho_x = p + habs2
    rho_y = 1j * (p - habs2)

    nx, ny = geom.nx, geom.ny
    A = np.zeros((nx, ny, 5, 5))
    B = np.zeros((nx, ny, 5, 5))

    # translation parts
    A[..., 1, 0] = t1
    A[..., 2, 0] = -t2
    B[..., 1, 0] = -t2
    B[..., 2, 0] = -t1

    def fill(M, alpha, beta, gamma):
        M[..., 1:3, 1:3] = alpha
        M[..., 1:3, 3:5] = beta
        M[..., 3:5, 1:3] = gamma
        M[..., 3:5, 3:5] = -np.swapaxes(alpha, -1, -2)

    alpha_x = _mat2(h1, -h2, -h2, -h1)
    alpha_y = _mat2(-h2, -h1, -h1, h2)
    beta_x = _mat2(ups_x + rho_x.real, -rho_x.imag, -rho_x.imag, ups_x - rho_x.real)
    beta_y = _mat2(ups_y + rho_y.real, -rho_y.imag, -rho_y.imag, ups_y - rho_y.real)

    gamma_x = np.broadcast_to(np.array([[1.0, 0.0], [0.0, -1.0]]), (nx, ny, 2, 2))
    gamma_y = np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]), (nx, ny, 2, 2))

    fill(A, alpha_x, beta_x, gamma_x)
    fill(B, alpha_y, beta_y, gamma_y)
    return MaurerCartanField(geom, A, B)


def flatness_residual(theta: MaurerCartanField) -> np.ndarray:
    """Node-wise sup-norm of dB/dx - dA/dy + [A, B] (zero-curvature residual)."""
    geom = theta.geometry
    dBdx = diff4(theta.B, geom.dx, axis=0)
    dAdy = diff4(theta.A, geom.dy, axis=1)
    comm = theta.A @ theta.B - theta.B @ theta.A
    return np.max(np.abs(dBdx - dAdy + comm), axis=(-1, -2))


# -- frame integration --------------------------------------------------------


def _midpoints(M: np.ndarray) -> np.ndarray:
    """Cubic-interpolated midpoint samples along axis 0; shape (n-1, ...)."""
    n = M.shape[0]
    mid = np.empty((n - 1,) + M.shape[1:], dtype=M.dtype)
    mid[1:-1] = (-M[:-3] + 9.0 * M[1:-2] + 9.0 * M[2:-1] - M[3:]) / 16.0
    w = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
    mid[0] = np.tensordot(w, M[:4], axes=(0, 0))
    mid[-1] = np.tensordot(w, M[-1:-5:-1], axes=(0, 0))
    return mid


def _rk4(S: np.ndarray, M: np.ndarray, h) -> np.ndarray:
    """RK4 for dS/ds = S M(s) on a batch of lines: start states S (lines, k, k),
    samples M (n, lines, k, k).  A state norm above 1e12, or NaN, raises
    IntegrationBlowup naming the step.  Returns all (n, lines, k, k)."""
    n = M.shape[0]
    mid = _midpoints(M)
    out = np.empty((n,) + S.shape, dtype=S.dtype)
    out[0] = S
    for k in range(n - 1):
        k1 = S @ M[k]
        k2 = (S + 0.5 * h * k1) @ mid[k]
        k3 = (S + 0.5 * h * k2) @ mid[k]
        k4 = (S + h * k3) @ M[k + 1]
        S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = np.max(np.abs(S))
        if not norm <= 1e12:  # NaN fails too
            raise IntegrationBlowup(f"frame norm {norm:.3e} is not below 1e12 at sweep step {k}")
        out[k + 1] = S
    return out


def _sweep_grid(A: np.ndarray, B: np.ndarray, hx, hy) -> np.ndarray:
    """Integrate from the identity at node (0, 0): up the first column with B, then
    along every row with A.  A and B are (nx, ny, k, k); so is the result."""
    start = np.eye(A.shape[-1], dtype=A.dtype)[None]
    column = _rk4(start, B[0][:, None], hy)[:, 0]
    return _rk4(column, A, hx)


def integrate_frame(
    theta: MaurerCartanField,
    tols: Tolerances = DEFAULT_TOLS,
    compute_path_defect: bool = True,
) -> FrameField:
    """Integrate dS = S Theta from S = I at the base node with classical RK4 steps.

    Flatness is measured first; a residual above tol_flat is reported as a
    warning (the integral still exists on each path, it just becomes
    path-dependent, which the transposed-sweep defect quantifies).  Each step
    is checked for blow-up; the finished frame's symplectic defect
    max |X^T J X - J| above tol_frame raises FrameDefect.
    """
    if not (np.all(np.isfinite(theta.A)) and np.all(np.isfinite(theta.B))):
        raise ValueError("Theta holds a non-finite value")
    flat = float(np.max(flatness_residual(theta)))
    if flat > tols.tol_flat:
        warnings.warn(f"flatness residual {flat:.3e} exceeds tol_flat "
                      f"{tols.tol_flat:.3e}; frame is path-dependent")
    geom = theta.geometry
    S = _sweep_grid(theta.A, theta.B, geom.dx, geom.dy)
    defect = np.max(np.abs(_symplectic_error(S[..., 1:, 1:])), axis=(-1, -2))
    node = np.unravel_index(np.argmax(defect), defect.shape)
    if defect[node] > tols.tol_frame:
        raise FrameDefect(f"symplectic defect {defect[node]:.3e} exceeds tol_frame "
                          f"{tols.tol_frame:.3e} at node {tuple(map(int, node))}")
    path_defect = 0.0
    if compute_path_defect:
        S_alt = _sweep_grid(np.swapaxes(theta.B, 0, 1), np.swapaxes(theta.A, 0, 1),
                            geom.dy, geom.dx)
        path_defect = float(np.max(np.abs(S - np.swapaxes(S_alt, 0, 1))))
    return FrameField(geom, S, flatness_report=flat, path_defect=path_defect)


def immersion_from_frame(F: FrameField) -> ImmersionGrid:
    return ImmersionGrid(F.geometry, F.S[:, :, 1:, 0].copy())


def _lagrangian(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """|Omega(f_x, f_y)| per node."""
    return np.abs(np.einsum("...i,ij,...j->...", fx, J4, fy))


def lagrangian_defect(m: ImmersionGrid) -> np.ndarray:
    """|Omega(f_x, f_y)| with finite-difference partials, per node."""
    return _lagrangian(*gradient(m.f, m.geometry))


# -- numerical Maurer-Cartan form and invariant extraction --------------------


def numerical_maurer_cartan(F: FrameField) -> MaurerCartanField:
    """Theta-hat = S^-1 dS via 4th-order finite differences of the frame.

    S = [[1, 0], [P, X]] must be affine symplectic, as the frames of `integrate_frame`
    and `reduction_pipeline` are: S^-1 dS = [[0, 0], [X^-1 dP, X^-1 dX]] with the
    closed form X^-1 = -J X^T J, exact on the group."""
    Sx, Sy = gradient(F.S, F.geometry)
    Xinv = _symplectic_inverse(F.S[..., 1:, 1:])
    Sx[..., 1:, :] = Xinv @ Sx[..., 1:, :]
    Sy[..., 1:, :] = Xinv @ Sy[..., 1:, :]
    return MaurerCartanField(F.geometry, Sx, Sy)


class _Forms(NamedTuple):
    """Complex forms of one coefficient (A or B) of a 5x5 affine-algebra field."""

    tau: np.ndarray  # translation: tau0 - i tau1
    omega: np.ndarray  # gamma: (g00 - g11)/2 + i g10
    gamma_trace: np.ndarray  # g00 + g11
    eta: np.ndarray  # alpha: (a00 - a11)/2 - i (a10 + a01)/2
    w: np.ndarray  # alpha trace and skew: (a00 + a11) - i (a10 - a01)
    rho: np.ndarray  # beta: (b00 - b11)/2 - i b10


def _decode(M: np.ndarray) -> _Forms:
    """Read the blocks of a 5x5 algebra field: translation tau in rows 1-2 of
    column 0, then [[alpha, beta], [gamma, -alpha^T]] in the 4x4 part."""
    alpha, beta, gamma = M[..., 1:3, 1:3], M[..., 1:3, 3:5], M[..., 3:5, 1:3]
    return _Forms(
        tau=M[..., 1, 0] - 1j * M[..., 2, 0],
        omega=0.5 * (gamma[..., 0, 0] - gamma[..., 1, 1]) + 1j * gamma[..., 1, 0],
        gamma_trace=gamma[..., 0, 0] + gamma[..., 1, 1],
        eta=0.5 * (alpha[..., 0, 0] - alpha[..., 1, 1])
        - 0.5j * (alpha[..., 1, 0] + alpha[..., 0, 1]),
        w=(alpha[..., 0, 0] + alpha[..., 1, 1]) - 1j * (alpha[..., 1, 0] - alpha[..., 0, 1]),
        rho=0.5 * (beta[..., 0, 0] - beta[..., 1, 1]) - 1j * beta[..., 1, 0],
    )


def extract_invariants(
    F: FrameField,
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[InvariantTriple, dict]:
    """Read (t, h, p) off the numerical Maurer-Cartan form of an adapted frame,
    which must be affine symplectic (see `numerical_maurer_cartan`).

    The gauge report carries the max residuals of every adapted-frame
    condition; the first of omega, gamma_trace, alpha_trace, alpha_skew and
    ell above tol_gauge raises NotAdapted naming it.
    """
    mc = numerical_maurer_cartan(F)
    x, y = _decode(mc.A), _decode(mc.B)
    t, tau_bar = wirtinger(x.tau, y.tau)
    h, ell = wirtinger(x.eta, y.eta)
    p, rho_bar = wirtinger(x.rho, y.rho)

    report = {
        "omega": float(np.max(np.abs(np.stack([x.omega - 1.0, y.omega - 1j])))),
        "gamma_trace": float(np.max(np.abs(np.stack([x.gamma_trace, y.gamma_trace])))),
        "alpha_trace": float(np.max(np.abs(np.stack([x.w.real, y.w.real])))),
        "alpha_skew": float(np.max(np.abs(np.stack([x.w.imag, y.w.imag])))),
        "ell": float(np.max(np.abs(ell))),
        "tau_antiholo": float(np.max(np.abs(tau_bar))),
        "rho_conj": float(np.max(np.abs(rho_bar - np.abs(h) ** 2))),
    }
    for name in ("omega", "gamma_trace", "alpha_trace", "alpha_skew", "ell"):
        if report[name] > tols.tol_gauge:
            raise NotAdapted(name, report[name], tols.tol_gauge)
    return InvariantTriple(F.geometry, t, h, p), report


# -- inverse pipeline: immersion -> adapted frame -> invariants ---------------


def _gauge_matrix5(A2: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Embed the stabilizer element Y(A, b) = [[A, A b], [0, A^-T]] in 5x5 form.

    A2 has shape (..., 2, 2); b, when given, (..., 2, 2) symmetric.
    """
    shape = A2.shape[:-2]
    Y = np.zeros(shape + (5, 5))
    Y[..., 0, 0] = 1.0
    Y[..., 1:3, 1:3] = A2
    if b is not None:
        Y[..., 1:3, 3:5] = A2 @ b
    a00, a01, a10, a11 = A2[..., 0, 0], A2[..., 0, 1], A2[..., 1, 0], A2[..., 1, 1]
    Y[..., 3:5, 3:5] = _mat2(a11, -a10, -a01, a00) / (a00 * a11 - a01 * a10)[..., None, None]
    return Y


def _unwrap2d(theta: np.ndarray) -> np.ndarray:
    """Continuous branch of an angle field over a simply connected grid."""
    row0 = np.unwrap(theta[0, :])
    out = np.unwrap(theta, axis=0)
    out += (row0 - theta[0, :])[None, :]
    return out


def _omega_bar_coefficient(ux, uy, ox, oy) -> np.ndarray:
    """c in u = a omega + c conj(omega), per node, for the 1-forms u = ux dx + uy dy
    and omega = ox dx + oy dy:  c = (ux oy - uy ox) / (conj(ox) oy - conj(oy) ox).
    Raises NotElliptic where omega is not a coframe, Im(conj(ox) oy) = 0."""
    det = (np.conj(ox) * oy).imag
    degenerate = det == 0
    if np.any(degenerate):
        node = np.unravel_index(np.argmax(degenerate), degenerate.shape)
        raise NotElliptic(f"omega is not a coframe at node {tuple(map(int, node))}")
    # num / (2i det) with a real divisor.  Peak RSS at 241^2 is sensitive to these
    # temporaries: a complex divisor, or det from real parts, raised it by 11 MB.
    num = ux * oy - uy * ox
    return (num.imag - 1j * num.real) / (2.0 * det)


def _gamma_trace_gauge(x: _Forms, y: _Forms) -> np.ndarray:
    """Stage 2: kill the trace of gamma = 2 Re(conj(l) omega), whose omega-bar
    coefficient is l.  The induced form |omega|^2 - Re(conj(l) omega)^2 of a
    coframe omega is positive definite iff |l| < 1."""
    l = _omega_bar_coefficient(x.gamma_trace, y.gamma_trace, x.omega, y.omega)
    l1, l2 = l.real, l.imag
    if np.any(l1**2 + l2**2 >= 1.0):
        raise NotElliptic("induced quadratic form is not positive definite: |l| >= 1")
    phi = np.arcsin(-l2 / np.sqrt(1.0 - l1**2))
    r2 = np.sqrt(0.5 * (1.0 - l1))
    return _gauge_matrix5(_mat2(r2 * np.cos(phi), r2 * np.sin(phi), 0.0,
                                np.sqrt(0.5 * (1.0 + l1))))


def _eta_gauge(x: _Forms, y: _Forms) -> np.ndarray:
    """Stage 3: remove the antiholomorphic part of eta = h omega + ell conj(omega),
    whose coefficient ell is real up to round-off."""
    ell = _omega_bar_coefficient(x.eta, y.eta, x.omega, y.omega).real
    eye2 = np.broadcast_to(np.eye(2), ell.shape + (2, 2))
    return _gauge_matrix5(eye2, _mat2(ell, 0.0, 0.0, ell))


def _conformal_gauge(x: _Forms, y: _Forms) -> np.ndarray:
    """Stage 4: conformal gauge so that omega = dz."""
    c = wirtinger(x.omega, y.omega)[0]
    r4 = np.abs(c) ** -0.5
    s4 = 0.5 * _unwrap2d(np.angle(c))
    return _gauge_matrix5(_mat2(r4 * np.cos(s4), -r4 * np.sin(s4),
                                r4 * np.sin(s4), r4 * np.cos(s4)))


def _alpha_gauge(x: _Forms, y: _Forms) -> np.ndarray:
    """Stage 5: kill the trace and skew parts of alpha."""
    w = wirtinger(x.w, y.w)[0]
    eye2 = np.broadcast_to(np.eye(2), w.shape + (2, 2))
    b5 = _mat2(0.5 * w.real, -0.5 * w.imag, -0.5 * w.imag, -0.5 * w.real)
    return _gauge_matrix5(eye2, b5)


# Nodes cropped per side by a reduction.  Each stage differentiates again, so
# edge-stencil error spreads inward: at 61^2 (dx = 0.005) a margin of 4 leaves
# alpha_trace above tol_gauge on the closed-form surfaces, and 8 does not.
DEFAULT_MARGIN = 8


def _cropped(geom: GridGeometry, margin: int) -> GridGeometry:
    """geom less `margin` nodes on every side; ValueError unless `margin` is an
    integer and 5x5 nodes remain."""
    if not isinstance(margin, numbers.Integral):
        raise ValueError(f"margin must be an integer, got {margin!r}")
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    if geom.nx - 2 * margin < 5 or geom.ny - 2 * margin < 5:
        raise ValueError(f"grid too small for margin {margin}")
    return GridGeometry(geom.nx - 2 * margin, geom.ny - 2 * margin,
                        geom.x0 + margin * geom.dx, geom.y0 + margin * geom.dy,
                        geom.dx, geom.dy)


def reduction_pipeline(
    m: ImmersionGrid,
    tols: Tolerances = DEFAULT_TOLS,
    margin: int = DEFAULT_MARGIN,
) -> tuple[FrameField, InvariantTriple, dict]:
    """Run the full frame reduction on an immersion and extract (t, h, p).

    Stages: tangent frame with columns (f_y, f_x) and its symplectic
    completion; trace-of-gamma normalization; removal of the
    antiholomorphic part of eta; conformal gauge to the grid coordinate;
    final trace/skew normalization of alpha.  Stages 2 and 3 each split a
    1-form u of the running frame along its coframe omega, u = a omega +
    c conj(omega), and gauge away c: stage 2 with u = gamma_trace, whose c
    is l, and stage 3 with u = eta, whose c is real.

    Raises NotLagrangian or NotElliptic when the input fails the
    corresponding test.  The input is not elliptic at a node where df drops
    rank (det of the tangent Gram matrix <= tol_rank), where omega is not a
    coframe, or where |l| >= 1.

    Each stage differentiates the running frame, so one-sided stencil error
    compounds in a band along the grid edge; the returned frame field and
    invariants are cropped by `margin` nodes per side to stay clear of it.
    Returns the frame, the invariants and `extract_invariants`' gauge report.
    """
    geom = m.geometry
    cropped = _cropped(geom, margin)
    fx, fy = gradient(m.f, geom)
    lag_max = float(np.max(_lagrangian(fx, fy)))
    if lag_max > tols.tol_frame:
        raise NotLagrangian(f"max |Omega(f_x, f_y)| = {lag_max:.3e} > {tols.tol_frame:.3e}")

    M = np.stack([fy, fx], axis=-1)  # tangent columns (..., 4, 2)
    G = np.swapaxes(M, -1, -2) @ M
    g00, g01, g11 = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
    det = g00 * g11 - g01 * g01
    rank_drop = det <= tols.tol_rank
    if np.any(rank_drop):
        node = np.unravel_index(np.argmax(rank_drop), rank_drop.shape)
        raise NotElliptic(f"df drops rank at node {tuple(map(int, node))}: det of the "
                          f"tangent Gram matrix {det[node]:.3e} <= tol_rank {tols.tol_rank:.3e}")
    N = -(J4 @ M) @ (_mat2(g11, -g01, -g01, g00) / det[..., None, None])
    S = np.zeros((geom.nx, geom.ny, 5, 5))
    S[..., 0, 0] = 1.0
    S[..., 1:, 0] = m.f
    S[..., 1:, 1:3] = M
    S[..., 1:, 3:5] = N

    for gauge in (_gamma_trace_gauge, _eta_gauge, _conformal_gauge, _alpha_gauge):
        mc = numerical_maurer_cartan(FrameField(geom, S))
        S = S @ gauge(_decode(mc.A), _decode(mc.B))
        del mc  # freed before the next stage differentiates: 11 MB less peak RSS at 241^2

    if margin:
        S = S[margin:-margin, margin:-margin]
    frame = FrameField(cropped, S)
    inv, report = extract_invariants(frame, tols)
    if np.min(np.abs(inv.h)) < tols.tol_umbilic:
        warnings.warn("min |h| below tol_umbilic: umbilic nodes present",
                      UmbilicGaugeWarning)
    return frame, inv, report


def _motion_defect(S1: np.ndarray, S2: np.ndarray, m1: ImmersionGrid,
                   m2: ImmersionGrid) -> float:
    """Sup-norm of m2 minus m1 moved by q -> P2 ± X2 X1^-1 (q - P1), the better sign."""
    R = S2[1:, 1:] @ _symplectic_inverse(S1[1:, 1:])
    q = np.einsum("ij,...j->...i", R, m1.f - S1[1:, 0])
    return min(float(np.max(np.abs(S2[1:, 0] + sign * q - m2.f))) for sign in (1.0, -1.0))


def congruence_matrix(
    members: list[ImmersionGrid],
    tols: Tolerances = DEFAULT_TOLS,
    margin: int = DEFAULT_MARGIN,
) -> np.ndarray:
    """Symmetric (k, k) matrix of pairwise congruence defects, zero diagonal.

    Entry (i, j), i < j, is the defect of the best symplectic motion taking
    member i onto member j, built from their adapted frames at the base node
    of the cropped grid; both frame signs are tried and the smaller defect
    kept.  Each member is reduced once, and a lone member not at all.
    """
    k = len(members)
    out = np.zeros((k, k))
    if k < 2:
        return out
    # only the 5x5 base-node frames are kept, so the cropped fields are freed
    base = [reduction_pipeline(m, tols, margin)[0].S[0, 0].copy() for m in members]
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = _motion_defect(base[i], base[j], members[i], members[j])
    return out


def congruence_defect(
    m1: ImmersionGrid,
    m2: ImmersionGrid,
    tols: Tolerances = DEFAULT_TOLS,
    margin: int = DEFAULT_MARGIN,
) -> float:
    """Sup-norm defect of the best symplectic motion taking m1 onto m2 (see
    `congruence_matrix`).  A value below tol_congruent certifies congruence."""
    return float(congruence_matrix([m1, m2], tols, margin)[0, 1])


# -- serialization ------------------------------------------------------------


def save_immersion(
    m: ImmersionGrid, path: str | Path, frame: FrameField | None = None
) -> None:
    """Write `i,j,x,y,f1..f4` rows (17 significant digits), one per node.

    When a frame field is supplied its 16 symplectic-matrix entries are
    appended per row (s11..s44, row-major).  Geometry goes in a .json sidecar.
    """
    geom = m.geometry
    if frame is not None and frame.geometry != geom:
        raise ValueError("frame and immersion must share one grid geometry")
    header = ["i", "j", "x", "y", "f1", "f2", "f3", "f4"]
    values = m.f
    if frame is not None:
        header += [f"s{r}{c}" for r in range(1, 5) for c in range(1, 5)]
        S = frame.S[..., 1:, 1:].reshape(geom.nx, geom.ny, 16)
        values = np.concatenate([values, S], axis=-1)
    text = grids._axis_text
    js, ys = text(np.arange(geom.ny, dtype=float)), text(geom.y)
    lead = ([i + j + x + y for j, y in zip(js, ys)]
            for i, x in zip(text(np.arange(geom.nx, dtype=float)), text(geom.x)))
    grids._save_table(path, geom, header, lead, values)


def _node_index(path: str | Path, geom: GridGeometry, ij: np.ndarray) -> np.ndarray:
    """C-order node number of each row's `i, j` pair; every node must occur once."""
    shape = np.array([geom.nx, geom.ny])
    bad = np.any((ij != np.round(ij)) | (ij < 0) | (ij >= shape), axis=1)
    if np.any(bad):
        r = int(np.argmax(bad))
        raise ValueError(f"{path}: row {r + 1} names node {tuple(ij[r].tolist())}, "
                         f"not a node of the {geom.nx}x{geom.ny} grid")
    k = ij[:, 0].astype(int) * geom.ny + ij[:, 1].astype(int)
    counts = np.bincount(k, minlength=geom.nx * geom.ny)
    for problem, nodes in (("duplicate", counts > 1), ("missing", counts == 0)):
        if np.any(nodes):
            node = divmod(int(np.argmax(nodes)), geom.ny)
            raise ValueError(f"{path}: {problem} node {node}")
    return k


def load_immersion(path: str | Path) -> tuple[ImmersionGrid, FrameField | None]:
    """Read an immersion CSV back; returns the frame field too when present.

    Rows are placed by their `i, j` columns; a non-integer or out-of-range
    index, a node that is duplicated or missing, or a non-finite immersion or
    frame value raises ValueError.
    """
    geom, header, data = grids._load_table(path)
    k = _node_index(path, geom, data[:, :2])
    bad = ~np.all(np.isfinite(data[:, 4:]), axis=1)
    if np.any(bad):
        r = int(np.argmax(bad))
        raise ValueError(f"{path}: row {r + 1} (node {divmod(int(k[r]), geom.ny)}) "
                         f"holds a non-finite value")
    n = geom.nx * geom.ny
    f = np.empty((n, 4))
    f[k] = data[:, 4:8]
    f = f.reshape(geom.nx, geom.ny, 4)
    S = None
    if len(header) > 8:
        S = np.zeros((n, 5, 5))
        S[:, 0, 0] = 1.0
        S[k, 1:, 1:] = data[:, 8:24].reshape(-1, 4, 4)
        S = S.reshape(geom.nx, geom.ny, 5, 5)
        S[..., 1:, 0] = f
    m = ImmersionGrid(geom, f)
    return m, (FrameField(geom, S) if S is not None else None)

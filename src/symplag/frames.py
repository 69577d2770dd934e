"""Frame machinery: Maurer-Cartan assembly, flatness, integration, reduction.

The 1-form Theta = A dx + B dy is stored as two (nx, ny, 5, 5) arrays of
affine-algebra values in the 5x5 representation [[0, 0], [p, x]].  A frame
field stores one 5x5 group element per node; the immersion is its
translation part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, _number
from .core import J4, _symplectic_error, _symplectic_inverse
from .errors import (
    FrameDefect,
    IntegrationBlowup,
    NotAdapted,
    NotElliptic,
    NotLagrangian,
    UmbilicGaugeWarning,
)
from .grids import GridGeometry, _node_values, _non_finite_node, diff4, gradient, wirtinger
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
    flatness_report: float = float("nan")  # NaN when not measured
    error_estimate: float = float("nan")  # NaN when not computed
    symplectic_defect: float = float("nan")  # max |X^T J X - J|; NaN when not measured


@dataclass(frozen=True)
class ImmersionGrid:
    """R^4-valued immersion samples f[i, j] on a grid, a read-only (nx, ny, 4) array."""

    geometry: GridGeometry
    f: np.ndarray  # (nx, ny, 4)

    def __post_init__(self):
        object.__setattr__(self, "f", _node_values(self.geometry, self.f, "immersion values",
                                                   dtype=float, trailing=(4,)))


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
    A, B = theta.A, theta.B
    # (dBdx - dAdy) + (AB - BA), accumulated in place in that order
    r = diff4(B, geom.dx, axis=0)
    r -= diff4(A, geom.dy, axis=1)
    comm = A @ B
    comm -= B @ A
    r += comm
    return np.max(np.abs(r, out=r), axis=(-1, -2))


# -- frame integration --------------------------------------------------------


# cubic interpolation weights for the midpoint of the first (or last) panel
_MID_EDGE = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0


def _midpoints(M: np.ndarray) -> np.ndarray:
    """Cubic-interpolated midpoint samples along axis 0; shape (n-1, ...)."""
    n = M.shape[0]
    mid = np.empty((n - 1,) + M.shape[1:], dtype=M.dtype)
    mid[1:-1] = (-M[:-3] + 9.0 * M[1:-2] + 9.0 * M[2:-1] - M[3:]) / 16.0
    rest = M.shape[1:]
    mid[0] = np.dot(_MID_EDGE, M[:4].reshape(4, -1)).reshape(rest)
    mid[-1] = np.dot(_MID_EDGE, M[-1:-5:-1].reshape(4, -1)).reshape(rest)
    return mid


def _rk4(S: np.ndarray, M: np.ndarray, h, sweep: str) -> np.ndarray:
    """RK4 for dS/ds = S M(s) on a batch of lines: start states S (lines, k, k),
    samples M (n, lines, k, k).  A state norm above 1e12, or NaN, raises
    IntegrationBlowup naming the `sweep` and the step.  Returns all
    (n, lines, k, k)."""
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
            raise IntegrationBlowup(f"frame norm {norm:.3e} is not below 1e12 "
                                    f"at {sweep} sweep step {k}")
        out[k + 1] = S
    return out


def _sweep_grid(A: np.ndarray, B: np.ndarray, hx, hy,
                names: tuple[str, str] = ("first-column", "row")) -> np.ndarray:
    """Integrate from the identity at node (0, 0): up the first column with B, then
    along every row with A.  A and B are (nx, ny, k, k), nx, ny >= 4; so is the
    result.  `names` names the two sweeps in an IntegrationBlowup message."""
    start = np.eye(A.shape[-1], dtype=A.dtype)[None]
    column = _rk4(start, B[0][:, None], hy, names[0])[:, 0]
    return _rk4(column, A, hx, names[1])


def integrate_frame(
    theta: MaurerCartanField,
    tols: Tolerances = DEFAULT_TOLS,
    compute_path_defect: bool = True,
) -> FrameField:
    """Integrate dS = S Theta from S = I at the base node with classical RK4 steps.

    Flatness is measured first; a residual above tol_flat is reported as a
    warning (the integral still exists on each path, it just becomes
    path-dependent).  Each step is checked for blow-up; the finished frame's
    symplectic defect, kept in `symplectic_defect`, above tol_frame raises FrameDefect.

    `compute_path_defect` runs the subgrid sweep for `error_estimate`: the same
    sweep on Theta's every-other-node subgrid (the first n - 1 nodes of an
    even axis) with steps 2 dx and 2 dy gives f2, and max |f2 - f| / 15 over
    the shared nodes is the Richardson estimate of the immersion's error.  It
    sees RK4 truncation only, not curvature, which the flatness residual
    measures.  Below 7 nodes on an axis the subgrid is too short to sweep, and
    the estimate is NaN, as it is when not computed.
    """
    for name, M in (("A", theta.A), ("B", theta.B)):
        node = _non_finite_node(M)
        if node is not None:
            raise ValueError(f"Theta holds a non-finite value in {name} at node {node}")
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
    estimate = float("nan")
    if compute_path_defect and min(geom.nx, geom.ny) >= 7:
        S2 = _sweep_grid(theta.A[::2, ::2], theta.B[::2, ::2], 2 * geom.dx, 2 * geom.dy,
                         ("step-doubling first-column", "step-doubling row"))
        estimate = float(np.max(np.abs(S2[..., 1:, 0] - S[::2, ::2, 1:, 0]))) / 15.0
    return FrameField(geom, S, flatness_report=flat, error_estimate=estimate,
                      symplectic_defect=float(defect[node]))


def immersion_from_frame(F: FrameField) -> ImmersionGrid:
    return ImmersionGrid(F.geometry, F.S[:, :, 1:, 0].copy())


def _lagrangian(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """|Omega(f_x, f_y)| per node."""
    return np.abs(np.einsum("...i,ij,...j->...", fx, J4, fy))


def lagrangian_defect(m: ImmersionGrid) -> np.ndarray:
    """|Omega(f_x, f_y)| with finite-difference partials, per node."""
    return _lagrangian(*gradient(m.f, m.geometry))


# -- Maurer-Cartan coefficients and invariant extraction ----------------------


_TANGENT = (slice(1, None), slice(1, 3))  # rows 1-4, columns 1-2: alpha and gamma


def _mc_coefficient(S: np.ndarray, geom: GridGeometry, Xinv: np.ndarray, axis: int,
                    part: tuple = ()) -> np.ndarray:
    """The dx (axis 0) or dy (axis 1) coefficient of S^-1 dS, the whole or its
    `part`, given Xinv = X^-1: `diff4` of S with its last four rows multiplied by
    Xinv in place.  S = [[1, 0], [P, X]] must be affine symplectic, as the frames
    of `integrate_frame` and `reduction_pipeline` are: then S^-1 dS =
    [[0, 0], [X^-1 dP, X^-1 dX]], with X^-1 = -J X^T J exact on the group."""
    d = diff4(S, (geom.dx, geom.dy)[axis], axis, part)
    rows = d[..., -4:, :]
    np.matmul(Xinv, rows, out=rows)
    return d


class _Forms(NamedTuple):
    """Complex forms of one coefficient (x or y) of the tangent block."""

    omega: np.ndarray  # gamma: (g00 - g11)/2 + i g10
    gamma_trace: np.ndarray  # g00 + g11
    eta: np.ndarray  # alpha: (a00 - a11)/2 - i (a10 + a01)/2
    w: np.ndarray  # alpha trace and skew: (a00 + a11) - i (a10 - a01)


def _decode(T: np.ndarray) -> _Forms:
    """Read a (..., 4, 2) tangent block [[alpha], [gamma]] of a 5x5 algebra field."""
    alpha, gamma = T[..., :2, :], T[..., 2:, :]
    return _Forms(
        omega=0.5 * (gamma[..., 0, 0] - gamma[..., 1, 1]) + 1j * gamma[..., 1, 0],
        gamma_trace=gamma[..., 0, 0] + gamma[..., 1, 1],
        eta=0.5 * (alpha[..., 0, 0] - alpha[..., 1, 1])
        - 0.5j * (alpha[..., 1, 0] + alpha[..., 0, 1]),
        w=(alpha[..., 0, 0] + alpha[..., 1, 1]) - 1j * (alpha[..., 1, 0] - alpha[..., 0, 1]),
    )


def _tangent_forms(S: np.ndarray, geom: GridGeometry) -> list[_Forms]:
    """The decoded tangent blocks of S^-1 S_x and S^-1 S_y, all that the gauge
    stages read, so only those eight entries of S are differenced."""
    Xinv = _symplectic_inverse(S[..., 1:, 1:])
    return [_decode(_mc_coefficient(S, geom, Xinv, a, _TANGENT)) for a in (0, 1)]


def _tau_rho(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translation form tau = tau0 - i tau1 (rows 1-2 of column 0) and beta form
    rho = (b00 - b11)/2 - i b10 of a 5x5 algebra field."""
    beta = M[..., 1:3, 3:5]
    return (M[..., 1, 0] - 1j * M[..., 2, 0],
            0.5 * (beta[..., 0, 0] - beta[..., 1, 1]) - 1j * beta[..., 1, 0])


def extract_invariants(
    F: FrameField,
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[InvariantTriple, dict]:
    """Read (t, h, p) off the Maurer-Cartan form S^-1 dS of an adapted frame,
    which must be affine symplectic (see `_mc_coefficient`).

    Of the report's seven max residuals, only omega, gamma_trace, alpha_trace,
    alpha_skew and ell are adapted-frame conditions: the first above tol_gauge
    raises NotAdapted naming it.  tau_antiholo (tau-bar = 0) and rho_conj
    (rho-bar = |h|^2) are consistency residuals that read t's and p's errors.
    """
    Xinv = _symplectic_inverse(F.S[..., 1:, 1:])

    def read(axis):
        # the forms are copies, so each coefficient is freed before the next is taken
        M = _mc_coefficient(F.S, F.geometry, Xinv, axis)
        return _decode(M[..., 1:, 1:3]), *_tau_rho(M)

    (x, tau_x, rho_x), (y, tau_y, rho_y) = read(0), read(1)
    t, tau_bar = wirtinger(tau_x, tau_y)
    h, ell = wirtinger(x.eta, y.eta)
    p, rho_bar = wirtinger(rho_x, rho_y)

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


def _apply_gauge(S: np.ndarray, A: np.ndarray | None, b: np.ndarray | None) -> None:
    """S <- S Y in place for the stabilizer element Y = [[1, 0, 0], [0, A, A b],
    [0, 0, A^-T]] of one gauge stage, which has either A, (..., 2, 2), and b = 0,
    or a symmetric b, (..., 2, 2), and A = I.

    Rows 1-4 of the tangent columns T (1-2) and normal columns N (3-4) become
    T A and N A^-T, or T and N + T b; nothing else changes.  This is the 5x5
    product S @ Y less its sums with exact zeros, so it matches S @ Y byte for
    byte, except that a -0.0 that S @ Y would turn into +0.0 stays -0.0.
    """
    T, N = S[..., 1:, 1:3], S[..., 1:, 3:5]
    if b is not None:
        N += T @ b
        return
    a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    T[...] = T @ A
    N[...] = N @ (_mat2(a11, -a10, -a01, a00) / (a00 * a11 - a01 * a10)[..., None, None])


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


def _gamma_trace_gauge(x: _Forms, y: _Forms) -> tuple[np.ndarray, None]:
    """Stage 2, an A: kill the trace of gamma = 2 Re(conj(l) omega), whose
    omega-bar coefficient is l.  The induced form |omega|^2 - Re(conj(l) omega)^2
    of a coframe omega is positive definite iff |l| < 1."""
    l = _omega_bar_coefficient(x.gamma_trace, y.gamma_trace, x.omega, y.omega)
    l1, l2 = l.real, l.imag
    if np.any(l1**2 + l2**2 >= 1.0):
        raise NotElliptic("induced quadratic form is not positive definite: |l| >= 1")
    phi = np.arcsin(-l2 / np.sqrt(1.0 - l1**2))
    r2 = np.sqrt(0.5 * (1.0 - l1))
    return _mat2(r2 * np.cos(phi), r2 * np.sin(phi), 0.0, np.sqrt(0.5 * (1.0 + l1))), None


def _eta_gauge(x: _Forms, y: _Forms) -> tuple[None, np.ndarray]:
    """Stage 3, a b: remove the antiholomorphic part of eta = h omega + ell conj(omega),
    whose coefficient ell is real up to round-off."""
    ell = _omega_bar_coefficient(x.eta, y.eta, x.omega, y.omega).real
    return None, _mat2(ell, 0.0, 0.0, ell)


def _conformal_gauge(x: _Forms, y: _Forms) -> tuple[np.ndarray, None]:
    """Stage 4, an A: conformal gauge so that omega = dz."""
    c = wirtinger(x.omega, y.omega)[0]
    r4 = np.abs(c) ** -0.5
    s4 = 0.5 * _unwrap2d(np.angle(c))
    return _mat2(r4 * np.cos(s4), -r4 * np.sin(s4), r4 * np.sin(s4), r4 * np.cos(s4)), None


def _alpha_gauge(x: _Forms, y: _Forms) -> tuple[None, np.ndarray]:
    """Stage 5, a b: kill the trace and skew parts of alpha."""
    w = wirtinger(x.w, y.w)[0]
    return None, _mat2(0.5 * w.real, -0.5 * w.imag, -0.5 * w.imag, -0.5 * w.real)


# Nodes cropped per side by a reduction.  Each stage differentiates again, so
# edge-stencil error spreads inward: at 61^2 (dx = 0.005) a margin of 4 leaves
# alpha_trace above tol_gauge on the closed-form surfaces, and 8 does not.
DEFAULT_MARGIN = 8


def _cropped(geom: GridGeometry, margin: int) -> tuple[GridGeometry, int]:
    """geom less `margin` nodes on every side, and `margin` as an int; ValueError
    unless `margin` is an integer, nonnegative, and leaves 5x5 nodes."""
    margin = _number("margin", margin, integer=True)
    if margin < 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    if geom.nx - 2 * margin < 5 or geom.ny - 2 * margin < 5:
        raise ValueError(f"grid too small for margin {margin}")
    return GridGeometry(geom.nx - 2 * margin, geom.ny - 2 * margin,
                        geom.x0 + margin * geom.dx, geom.y0 + margin * geom.dy,
                        geom.dx, geom.dy), margin


def _tangent_columns(m: ImmersionGrid,
                     tols: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1's Lagrangian and rank tests: the tangent columns (f_y, f_x) as
    (..., 4, 2), their Gram matrix and its det, once both tests pass."""
    fx, fy = gradient(m.f, m.geometry)
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
    return M, G, det


def _tangent_frame(m: ImmersionGrid, tols: Tolerances) -> np.ndarray:
    """Stage 1 of `reduction_pipeline`: the frame with tangent columns (f_y, f_x)
    and their symplectic completion, after the Lagrangian and rank tests."""
    M, G, det = _tangent_columns(m, tols)
    g00, g01, g11 = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
    N = -(J4 @ M) @ (_mat2(g11, -g01, -g01, g00) / det[..., None, None])
    S = np.zeros(m.f.shape[:2] + (5, 5))
    S[..., 0, 0] = 1.0
    S[..., 1:, 0] = m.f
    S[..., 1:, 1:3] = M
    S[..., 1:, 3:5] = N
    return S


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
    is l, and stage 3 with u = eta, whose c is real.  Stages 2-5 read the
    tangent block of the running frame's S^-1 dS, extraction all of it, each
    from `_mc_coefficient`.

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
    cropped, margin = _cropped(geom, margin)
    S = _tangent_frame(m, tols)
    for gauge in (_gamma_trace_gauge, _eta_gauge, _conformal_gauge, _alpha_gauge):
        # X^-1 stays inside _tangent_forms: held across _apply_gauge, it raised
        # the 121^2 peak from 2.92 to 3.56 frames
        _apply_gauge(S, *gauge(*_tangent_forms(S, geom)))

    if margin:
        S = S[margin:-margin, margin:-margin].copy()  # frees the uncropped frame
    frame = FrameField(cropped, S)
    inv, report = extract_invariants(frame, tols)
    if np.min(np.abs(inv.h)) < tols.tol_umbilic:
        warnings.warn("min |h| below tol_umbilic: umbilic nodes present",
                      UmbilicGaugeWarning)
    return frame, inv, report


_JET_DEGREE = 6
_JET_HALF_WIDTH = 8


def _two_jet(m: ImmersionGrid, k: int) -> np.ndarray:
    """m's 2-jet [f_x, f_y, f_xx, f_xy, f_yy] at node (k, k), a (4, 5) array.

    Along each axis, one (3, n) row of weights takes the n node values to the
    value and first and second derivatives at k of their least-squares fit of
    degree _JET_DEGREE (n - 1 at most) over the min(n, 2 _JET_HALF_WIDTH + 1)
    nodes around k, a window shifted inside the axis near an edge.
    """
    r, geom, G = _JET_HALF_WIDTH, m.geometry, m.f
    for n, h in ((geom.nx, geom.dx), (geom.ny, geom.dy)):
        w = min(2 * r + 1, n)
        start = min(max(k - r, 0), n - w)
        u = (np.arange(start, start + w) - k) / r  # in half-widths, for a well-posed fit
        V = np.vander(u, min(_JET_DEGREE, w - 1) + 1, increasing=True)
        W = np.zeros((3, n))
        W[:, start:start + w] = np.linalg.pinv(V)[:3] * [[1.0], [1 / (r * h)], [2 / (r * h)**2]]
        # this axis's derivative order becomes axis 1, so G ends as [x order, y order, 4]
        G = np.moveaxis(np.tensordot(W, G, axes=(1, 0)), 0, 1)
    return np.stack([G[1, 0], G[0, 1], G[2, 0], G[1, 1], G[0, 2]], axis=-1)


def congruence_matrix(
    members: list[ImmersionGrid],
    tols: Tolerances = DEFAULT_TOLS,
    margin: int = DEFAULT_MARGIN,
) -> np.ndarray:
    """Symmetric (k, k) matrix of pairwise congruence defects, zero diagonal.

    Each member's 2-jet D (`_two_jet`) is fitted at the base node b = (margin,
    margin).  Entry (i, j), i < j, judges the affine motion q -> P + X q, X =
    D_j D_i^+ and P = f_j(b) - X f_i(b): it is the larger of max |X^T J X - J|,
    so that a motion that is not symplectic (one that scales, say) is no
    congruence, and sup |P + X f_i - f_j| over the grid.  Entries compare f
    node by node, so members on different grid geometries are a ValueError
    naming both, raised before anything else.  Stage 1's Lagrangian and rank
    tests (`_tangent_columns`) check each member's whole grid, and a 2-jet that
    spans less than R^4 (det D D^T <= tol_rank; a Lagrangian plane's) is
    NotElliptic.  A lone member is not checked at all.
    """
    for m in members[1:]:
        if m.geometry != members[0].geometry:
            raise ValueError(f"congruence needs one grid geometry, got {members[0].geometry} "
                             f"and {m.geometry}")
    if len(members) < 2:
        return np.zeros((len(members),) * 2)
    margin = _cropped(members[0].geometry, margin)[1]  # before any member is checked
    for m in members:
        _tangent_columns(m, tols)
    jets = [_two_jet(m, margin) for m in members]
    for D in jets:  # X would be singular, and a congruent pair read at least 1
        det = float(np.prod(np.linalg.svd(D, compute_uv=False) ** 2))
        if det <= tols.tol_rank:
            raise NotElliptic(f"the 2-jet of f spans less than R^4 at node {(margin, margin)}: "
                              f"det of its Gram matrix {det:.3e} <= tol_rank {tols.tol_rank:.3e}")
    pinvs = [np.linalg.pinv(D) for D in jets]
    out = np.zeros((len(members),) * 2)
    for i, j in zip(*np.triu_indices(len(members), 1)):
        X = jets[j] @ pinvs[i]
        moved = (members[i].f - members[i].f[margin, margin]) @ X.T + members[j].f[margin, margin]
        out[i, j] = out[j, i] = max(float(np.max(np.abs(_symplectic_error(X)))),
                                    float(np.max(np.abs(moved - members[j].f))))
    return out


def congruence_defect(
    m1: ImmersionGrid,
    m2: ImmersionGrid,
    tols: Tolerances = DEFAULT_TOLS,
    margin: int = DEFAULT_MARGIN,
) -> float:
    """Defect of the affine motion that the fitted 2-jets at the base node
    give, taking m1 onto m2 (see `congruence_matrix`).  A value below
    tol_congruent certifies congruence."""
    return float(congruence_matrix([m1, m2], tols, margin)[0, 1])


# -- serialization ------------------------------------------------------------


# value columns of an immersion CSV: f, then the frame's X row-major when saved
_F_COLUMNS = ["f1", "f2", "f3", "f4"]
_S_COLUMNS = [f"s{r}{c}" for r in range(1, 5) for c in range(1, 5)]


def save_immersion(
    m: ImmersionGrid, path: str | Path, frame: FrameField | None = None
) -> None:
    """Write `x,y,f1..f4` rows (17 significant digits), one per node.

    When a frame field is supplied its 16 symplectic-matrix entries are
    appended per row (s11..s44, row-major).  Geometry goes in a .json sidecar.
    """
    geom = m.geometry
    if frame is None:
        grids._save_table(path, geom, _F_COLUMNS, m.f)
        return
    if frame.geometry != geom:
        raise ValueError("frame and immersion must share one grid geometry")
    S = frame.S[..., 1:, 1:].reshape(geom.nx, geom.ny, 16)
    grids._save_table(path, geom, _F_COLUMNS + _S_COLUMNS, np.concatenate([m.f, S], axis=-1))


def load_immersion(path: str | Path) -> tuple[ImmersionGrid, FrameField | None]:
    """Read a `save_immersion` CSV back; returns the frame field too when present.

    `grids._load_table` states which files it rejects; the header must be
    `x,y,f1..f4` or `x,y,f1..f4,s11..s44`.
    """
    geom, header, values = grids._load_table(path, _F_COLUMNS, _F_COLUMNS + _S_COLUMNS)
    f = values[..., :4].copy()
    m = ImmersionGrid(geom, f)
    if header == _F_COLUMNS:
        return m, None
    S = np.zeros((geom.nx, geom.ny, 5, 5))
    S[..., 0, 0] = 1.0
    S[..., 1:, 0] = f
    S[..., 1:, 1:] = values[..., 4:].reshape(geom.nx, geom.ny, 4, 4)
    return m, FrameField(geom, S)

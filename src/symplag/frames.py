"""Frame machinery: Maurer-Cartan assembly, flatness, integration, and the
inverse path, which reads invariants and congruence from f's fitted jets.

The 1-form Theta = A dx + B dy is stored as two (nx, ny, 5, 5) arrays of
affine-algebra values in the 5x5 representation [[0, 0], [p, x]].  A frame
field stores one 5x5 group element per node; the immersion is its
translation part.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, _number
from .core import _symplectic_error
from .errors import FrameDefect, IntegrationBlowup, NotAdapted, NotElliptic, NotLagrangian
from .grids import GridGeometry, _node_values, _non_finite_node, diff4, wirtinger
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


def theta_from_invariants(inv: InvariantTriple) -> MaurerCartanField:
    """Assemble the flat 1-form whose frame integral realizes (t, h, p), each
    entry written straight into the two (nx, ny, 5, 5) arrays.  With t = t1 + i t2
    and h = h1 + i h2, a node's A and B are zero but for
      the translation column, (t1, -t2) and (-t2, -t1);
      alpha = [[a, b], [b, -a]], (a, b) = (h1, -h2) and (-h2, -h1), and -alpha^T = -alpha;
      beta = [[u + Re rho, -Im rho], [-Im rho, u - Re rho]], u = 2 Re h_zbar and
      rho = p + |h|^2 for A, u = -2 Im h_zbar and rho = i (p - |h|^2) for B;
      gamma = [[1, 0], [0, -1]] and [[0, 1], [1, 0]].
    """
    geom, t, h, p = inv.geometry, inv.t, inv.h, inv.p
    h_zbar = grids.d_zbar(h, geom)  # before A and B: its temporaries do not add to them
    habs2 = np.abs(h) ** 2
    A, B = np.zeros((geom.nx, geom.ny, 5, 5)), np.zeros((geom.nx, geom.ny, 5, 5))
    for M, translation, (a, b), u, rho, gamma in (
            (A, (t.real, -t.imag), (h.real, -h.imag), 2.0 * h_zbar.real, p + habs2,
             [[1.0, 0.0], [0.0, -1.0]]),
            (B, (-t.imag, -t.real), (-h.imag, -h.real), -2.0 * h_zbar.imag, 1j * (p - habs2),
             [[0.0, 1.0], [1.0, 0.0]])):
        M[..., 1, 0], M[..., 2, 0] = translation
        M[..., 1, 1], M[..., 1, 2], M[..., 2, 1], M[..., 2, 2] = a, b, b, -a
        M[..., 1, 3], M[..., 2, 4] = u + rho.real, u - rho.real
        M[..., 1, 4] = M[..., 2, 3] = -rho.imag
        M[..., 3:5, 1:3] = gamma
        M[..., 3, 3], M[..., 3, 4], M[..., 4, 3], M[..., 4, 4] = -a, -b, -b, a
    return MaurerCartanField(geom, A, B)


_BLOCK_ROWS = 16  # x-rows per block of the flatness and symplectic-defect checks


def flatness_residual(theta: MaurerCartanField) -> np.ndarray:
    """Node-wise sup-norm of dB/dx - dA/dy + [A, B] (zero-curvature residual),
    evaluated on blocks of `_BLOCK_ROWS` x-rows.  Each block differences B along
    x on its rows plus 2 halo rows each side, at least 5 rows, so a row is an
    edge row of its slab only where it is one of the grid's: every row takes
    the whole-field derivative's stencil and operands."""
    geom = theta.geometry
    A, B = theta.A, theta.B
    nx = A.shape[0]
    out = np.empty(A.shape[:2], dtype=np.result_type(A.dtype, B.dtype, float))
    for r0 in range(0, nx, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, nx)
        s0, s1 = max(0, min(r0 - 2, nx - 5)), min(nx, max(r1 + 2, 5))
        # (dBdx - dAdy) + (AB - BA), accumulated in place in that order
        r = diff4(B[s0:s1], geom.dx, axis=0)[r0 - s0:r1 - s0]
        r -= diff4(A[r0:r1], geom.dy, axis=1)
        comm = A[r0:r1] @ B[r0:r1]
        comm -= B[r0:r1] @ A[r0:r1]
        r += comm
        np.max(np.abs(r, out=r), axis=(-1, -2), out=out[r0:r1])
    return out


# -- frame integration --------------------------------------------------------


# cubic interpolation weights for the midpoint of the first (or last) panel
_MID_EDGE = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0


def _step_midpoints(M: np.ndarray):
    """Cubic-interpolated samples of M (n, ...) halfway between nodes k and
    k + 1, yielded one step at a time: the first and last from the 4 nodes at
    their end, the others as (-M[k-1] + 9 M[k] + 9 M[k+1] - M[k+2]) / 16
    rounds.  Each 9 M[k] is formed once, for two steps."""
    yield np.dot(_MID_EDGE, M[:4].reshape(4, -1)).reshape(M.shape[1:])
    nine = 9.0 * M[1]
    for k in range(1, M.shape[0] - 2):
        mid = nine - M[k - 1]  # -M[k-1] + 9 M[k], to the bit
        nine = 9.0 * M[k + 1]
        mid += nine
        mid -= M[k + 2]
        mid /= 16.0
        yield mid
    yield np.dot(_MID_EDGE, M[-1:-5:-1].reshape(4, -1)).reshape(M.shape[1:])


def _rk4(S: np.ndarray, M: np.ndarray, h, sweep: str) -> np.ndarray:
    """RK4 for dS/ds = S M(s) on a batch of lines: start states S (lines, k, k),
    samples M (n, lines, k, k), n >= 4.  A state norm above 1e12, or NaN, raises
    IntegrationBlowup naming the `sweep` and the step.  Returns all
    (n, lines, k, k)."""
    out = np.empty((M.shape[0],) + S.shape, dtype=S.dtype)
    out[0] = S
    for k, mid in enumerate(_step_midpoints(M)):
        k1 = S @ M[k]
        k2 = (S + 0.5 * h * k1) @ mid
        k3 = (S + 0.5 * h * k2) @ mid
        k4 = (S + h * k3) @ M[k + 1]
        S = np.add(S, (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=out[k + 1])
        norm = np.abs(S).max()
        if not norm <= 1e12:  # NaN fails too
            raise IntegrationBlowup(f"frame norm {norm:.3e} is not below 1e12 "
                                    f"at {sweep} sweep step {k}")
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

    Flatness, the integrability equations of the invariants that Theta
    encodes, is measured first; a residual above tol_resid is reported as a
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
    if flat > tols.tol_resid:
        warnings.warn(f"flatness residual {flat:.3e} exceeds tol_resid "
                      f"{tols.tol_resid:.3e}; frame is path-dependent")
    geom = theta.geometry
    S = _sweep_grid(theta.A, theta.B, geom.dx, geom.dy)
    defect = np.empty((geom.nx, geom.ny))
    for r0 in range(0, geom.nx, _BLOCK_ROWS):
        np.max(np.abs(_symplectic_error(S[r0:r0 + _BLOCK_ROWS, :, 1:, 1:])), axis=(-1, -2),
               out=defect[r0:r0 + _BLOCK_ROWS])
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


def _omega(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Omega(u, v) = u^T J v per node, for (4, ...) vectors, complex ones too."""
    return u[0] * v[2] + u[1] * v[3] - u[2] * v[0] - u[3] * v[1]


# -- the inverse path: immersion -> (t, h, p) ----------------------------------


def _unwrap2d(theta: np.ndarray) -> np.ndarray:
    """Continuous branch of an angle field over a simply connected grid."""
    row0 = np.unwrap(theta[0, :])
    out = np.unwrap(theta, axis=0)
    out += (row0 - theta[0, :])[None, :]
    return out


DEFAULT_MARGIN = 8  # nodes cropped per side, where fit windows shift; congruence's base node


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


@functools.lru_cache(maxsize=512)  # interior nodes share one
def _fit_stencil(w: int, k: int, half: int, degree: int) -> np.ndarray:
    """pinv of the Vandermonde matrix at nodes 0 .. w - 1, offset by k, scaled by 1 / half."""
    u = (np.arange(w) - k) / half
    return np.linalg.pinv(np.vander(u, min(degree, w - 1) + 1, increasing=True))


def _fit_weights(n: int, k: int, half: int, degree: int, h: float, order: int) -> np.ndarray:
    """(order + 1, n) weights taking n node values of step h to the 0th to
    `order`th derivatives at node k of their least-squares polynomial fit of
    degree `degree` (w - 1 at most) over the w = min(n, 2 half + 1) nodes
    around k, a window shifted inside the axis near an edge."""
    w = min(2 * half + 1, n)
    start = min(max(k - half, 0), n - w)
    W = np.zeros((order + 1, n))
    W[:, start:start + w] = _fit_stencil(w, k - start, half, degree)[:order + 1] * [
        [math.factorial(i) / (half * h) ** i] for i in range(order + 1)]
    return W


# congruence fits its own 2-jet: the 4-jet's fit (R = 0.025, degree 8) reads a
# translated copy at 6.5e-10, not 2e-11, at margin 0, and taking the 2-jet from
# `_fitted_blocks(m, 2)` fits the whole grid for one node (4 members at 241^2: 44 -> 62 ms)
_JET_DEGREE = 6
_JET_HALF_WIDTH = 8


def _two_jet(m: ImmersionGrid, k: int) -> np.ndarray:
    """m's 2-jet [f_x, f_y, f_xx, f_xy, f_yy] at node (k, k), a (4, 5) array."""
    geom, G = m.geometry, m.f
    for n, h in ((geom.nx, geom.dx), (geom.ny, geom.dy)):
        W = _fit_weights(n, k, _JET_HALF_WIDTH, _JET_DEGREE, h, 2)
        # this axis's derivative order becomes axis 1, so G ends as [x order, y order, 4]
        G = np.moveaxis(np.tensordot(W, G, axes=(1, 0)), 0, 1)
    return np.stack([G[1, 0], G[0, 1], G[2, 0], G[1, 1], G[0, 2]], axis=-1)


_FIT_RADIUS = 0.025  # fit half-width, physical: its round-off does not grow under refinement
_FIT_DEGREE = 8  # degree of the fits of f's 4-jet
_FIT_BLOCK = 16  # nodes per block of fit weights


@functools.lru_cache(maxsize=4)  # one command's members and calls share one
def _fit_operator(n: int, h: float) -> tuple:
    """Read-only blocks (r0, r1, c0, c1, W) of the `_fit_weights` over
    max(2, round(_FIT_RADIUS / h)) nodes each side on an axis of n nodes of
    step h: W, (5, r1 - r0, c1 - c0), takes the values at nodes c0 .. c1 - 1,
    all that the windows of nodes r0 .. r1 - 1 touch, to derivatives 0 to 4."""
    blocks = []
    for r0 in range(0, n, _FIT_BLOCK):
        W = np.stack([_fit_weights(n, k, max(2, round(_FIT_RADIUS / h)), _FIT_DEGREE, h, 4)
                      for k in range(r0, min(r0 + _FIT_BLOCK, n))], axis=1)
        c0, c1 = np.flatnonzero(W.any(axis=(0, 1)))[[0, -1]] + [0, 1]
        W = W[..., c0:c1].copy()
        W.flags.writeable = False
        blocks.append((r0, r0 + W.shape[1], int(c0), int(c1), W))
    return tuple(blocks)


def _fitted_blocks(m: ImmersionGrid, order: int = 4):
    """(c0, c1, P) per y band of `_fit_operator`: P[i, j], (4, nx, c1 - c0), is
    d_x^i d_y^j f on columns c0 .. c1 - 1 for 1 <= i + j <= `order` (at most 4),
    from x fits over the whole grid; a partial is the same number at any `order`."""
    F = np.ascontiguousarray(np.moveaxis(m.f, -1, 0))
    G = np.empty((order + 1,) + F.shape)
    for i in range(order + 1):
        for r0, r1, c0, c1, W in _fit_operator(m.geometry.nx, m.geometry.dx):
            np.matmul(W[i], F[:, c0:c1], out=G[i, :, r0:r1])
    del F  # else held until the last block
    for r0, r1, c0, c1, W in _fit_operator(m.geometry.ny, m.geometry.dy):
        yield r0, r1, {(i, j): G[i, ..., c0:c1] @ W[j].T  # no (0, 0): f itself is not needed
                       for i in range(order + 1) for j in range(i == 0, order + 1 - i)}


def _joined(blocks) -> list:
    """The arrays of the per-block tuples `blocks`, each joined along its last axis."""
    return [np.concatenate(v, axis=-1) for v in zip(*blocks)]


def _tangent_fields(P: dict) -> tuple[np.ndarray, np.ndarray]:
    """|Omega(f_x, f_y)| and the det |f_x|^2 |f_y|^2 - (f_x . f_y)^2 of the
    Gram matrix of the partials f_x = P[1, 0] and f_y = P[0, 1]."""
    fx, fy = P[1, 0], P[0, 1]
    det = np.sum(fx * fx, axis=0) * np.sum(fy * fy, axis=0) - np.sum(fx * fy, axis=0) ** 2
    return np.abs(_omega(fx, fy)), det


def lagrangian_defect(m: ImmersionGrid) -> np.ndarray:
    """|Omega(f_x, f_y)| per node, from f's fitted partials."""
    return _joined(_tangent_fields(P) for *_, P in _fitted_blocks(m, 1))[0]


def _tangent_gates(lag: np.ndarray, det: np.ndarray, tols: Tolerances) -> None:
    """`_tangent_fields`' gates: max lag at most tol_frame, else NotLagrangian, and
    det above tol_rank, else NotElliptic naming the first failing node."""
    lag_max = float(np.max(lag))
    if lag_max > tols.tol_frame:
        raise NotLagrangian(f"max |Omega(f_x, f_y)| = {lag_max:.3e} > {tols.tol_frame:.3e}")
    rank_drop = det <= tols.tol_rank
    if np.any(rank_drop):
        node = np.unravel_index(np.argmax(rank_drop), rank_drop.shape)
        raise NotElliptic(f"df drops rank at node {tuple(map(int, node))}: det of the "
                          f"tangent Gram matrix {det[node]:.3e} <= tol_rank {tols.tol_rank:.3e}")


def _wirtinger_terms(k: int, l: int = 0) -> dict:
    """{(i, j): c} with d_z^k d_zbar^l = sum c d_x^i d_y^j: the product of the
    `wirtinger` forms of d_x and d_y, as polynomials in d_y / d_x."""
    d_z, d_zbar = wirtinger(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    c = functools.reduce(np.convolve, [d_z] * k + [d_zbar] * l, np.ones(1))
    return {(k + l - j, j): c[j] for j in range(k + l + 1) if c[j]}


def _closed_forms(P: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """2A = t^2, h, p and the conformal residual |Omega(f_zbar, f_zz)| / |A| in
    a conformal grid coordinate, from partials P of f at any nodes: with
    A, B, C, D = Omega(f_z, f_zz), Omega(f_z, f_zzz), Omega(f_zz, f_zzz),
    Omega(f_z, f_zzzz), h = -Omega(f_zz, f_zzbar) / |A| and
    p = -(3/2) C/A - (1/2) D/A + (3/4) (B/A)^2.  On a Lagrangian f, B = A_z and
    C + D = B_z, so p = t (1/t)_zz - C/A, a Schwarzian-type term."""
    fz, fzz, fzzz, fzzzz, fzbar, fzzbar = (
        sum(c * P[ij] for ij, c in _wirtinger_terms(*kl).items())
        for kl in ((1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (1, 1)))
    A, B, C, D = _omega(fz, fzz), _omega(fz, fzzz), _omega(fzz, fzzz), _omega(fz, fzzzz)
    h, conformal = -_omega(fzz, fzzbar) / np.abs(A), np.abs(_omega(fzbar, fzz)) / np.abs(A)
    return 2.0 * A, h, -1.5 * C / A - 0.5 * D / A + 0.75 * (B / A) ** 2, conformal


def _ellipticity(P: dict) -> np.ndarray:
    """q = [4 (ac - b^2)(bd - c^2) - (ad - bc)^2] / (a^2 + b^2 + c^2 + d^2)^2 of
    the cubic form Omega(df, d^2 f) in the partials P: positive where it has
    three distinct real roots, 1 where it is apolar, NaN where it is 0."""
    a, b, c = (_omega(P[1, 0], P[k]) for k in ((2, 0), (1, 1), (0, 2)))
    d = _omega(P[0, 1], P[0, 2])
    return (4.0 * (a * c - b * b) * (b * d - c * c) - (a * d - b * c) ** 2) / (
        a * a + b * b + c * c + d * d) ** 2


def invariants_from_immersion(
    m: ImmersionGrid,
    tols: Tolerances = DEFAULT_TOLS,
    margin: int = DEFAULT_MARGIN,
) -> tuple[InvariantTriple, dict]:
    """(t, h, p) of an elliptic Lagrangian immersion in a conformal grid
    coordinate by `_closed_forms`, cropped by `margin` nodes per side; t's
    phase, angle(2A) / 2 made continuous, fixes t up to a global sign.  Gates,
    in order: `_cropped`, `_tangent_gates`, `_ellipticity` above tol_gauge on
    the whole grid (else NotElliptic), and conformal residuals at most
    tol_gauge on the kept nodes (else NotAdapted "conformal").  The report
    holds the kept nodes' `lagrangian_defect` and `conformal` residuals."""
    cropped, margin = _cropped(m.geometry, margin)
    rows, end = slice(margin, margin + cropped.nx), margin + cropped.ny

    def block(c0, c1, P):  # the gates' fields, and the closed forms on the kept columns
        kept = slice(max(margin - c0, 0), max(min(c1, end) - c0, 0))
        with np.errstate(divide="ignore", invalid="ignore"):  # q and A = 0 are judged below
            forms = _ellipticity(P), *_closed_forms({k: v[:, rows, kept] for k, v in P.items()})
        return (*_tangent_fields(P), *forms)

    lag, det, q, t2, h, p, conformal = _joined(block(*b) for b in _fitted_blocks(m))
    _tangent_gates(lag, det, tols)
    if not np.all(q > tols.tol_gauge):  # NaN is refused too
        node = np.unravel_index(np.argmax(~(q > tols.tol_gauge)), q.shape)
        raise NotElliptic(f"the cubic form is not elliptic at node {tuple(map(int, node))}: "
                          f"q = {q[node]:.3e} is not above tol_gauge {tols.tol_gauge:.3e}")
    worst = float(np.max(conformal))
    if worst > tols.tol_gauge:
        raise NotAdapted("conformal", worst, tols.tol_gauge)
    t = np.sqrt(np.abs(t2)) * np.exp(0.5j * _unwrap2d(np.angle(t2)))
    report = {"lagrangian_defect": lag[rows, margin:end], "conformal": conformal}
    return InvariantTriple(cropped, t, h, p), report


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
    naming both, raised before anything else.  `_tangent_gates` checks each
    member's fitted f_x and f_y on its whole grid, and a 2-jet that spans
    less than R^4 (det D D^T <= tol_rank; a Lagrangian plane's) is
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
        _tangent_gates(*_joined(_tangent_fields(P) for *_, P in _fitted_blocks(m, 1)), tols)
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

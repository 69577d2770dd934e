"""The paper's method of moving frames, kept as the oracle that ties
`symplag.invariants_from_immersion`'s closed forms to the paper's frames.

`reduction_pipeline` reduces an immersion to its adapted frame in five
stages and `extract_invariants` reads (t, h, p) off that frame's
Maurer-Cartan form.  Stage 1 differences f with `gradient`; each later stage
differences the running frame again, so p's round-off grows like eps / h^4.
Tests compare the closed forms with this reduction, and reduce integrated
frames with `extract_invariants`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from symplag.config import DEFAULT_TOLS, Tolerances
from symplag.core import J4
from symplag.errors import NotAdapted, NotElliptic, NotLagrangian
from symplag.frames import (
    DEFAULT_MARGIN,
    FrameField,
    ImmersionGrid,
    _cropped,
    _unwrap2d,
)
from symplag.grids import GridGeometry, diff4, gradient, wirtinger
from symplag.invariants import InvariantTriple


def _mat2(a, b, c, d) -> np.ndarray:
    """Per-node 2x2 matrices [[a, b], [c, d]] from fields of a's shape (or scalars)."""
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


# -J X^T J as one gather: entry (r, c) is X[c ^ 2, r ^ 2], negated off the diagonal blocks
_INV_COL, _INV_ROW = np.indices((4, 4)) ^ 2
_INV_SIGN = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((2, 2)))


def _symplectic_inverse(X: np.ndarray) -> np.ndarray:
    """X^-1 = -J X^T J for a (..., 4, 4) stack of symplectic matrices.

    For X = [[a, b], [c, d]] in 2x2 blocks this is [[d^T, -b^T], [-c^T, a^T]],
    one gather of X's entries.  Each entry is +-x + 0.0, so a zero comes out
    +0.0, as from the matrix products with J: on finite input the result is
    byte-identical to -J @ X^T @ J.
    """
    out = X[..., _INV_ROW, _INV_COL]
    out *= _INV_SIGN
    out += 0.0
    return out


def _omega(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Omega(u, v) = u^T J v per node, for (..., 4) vectors."""
    return (u[..., 0] * v[..., 2] + u[..., 1] * v[..., 3]
            - u[..., 2] * v[..., 0] - u[..., 3] * v[..., 1])


_TANGENT = (slice(1, None), slice(1, 3))  # rows 1-4, columns 1-2: alpha and gamma


def _mc_coefficient(S: np.ndarray, geom: GridGeometry, axis: int,
                    part: tuple = ()) -> np.ndarray:
    """The dx (axis 0) or dy (axis 1) coefficient of S^-1 dS, the whole or its
    `part`: `diff4` of S, cut to `part`, with its last four rows multiplied in
    place by X^-1, which is taken only once the whole derivative is freed.
    S = [[1, 0], [P, X]] must be affine symplectic, as the frames of
    `integrate_frame` and `reduction_pipeline` are: then S^-1 dS =
    [[0, 0], [X^-1 dP, X^-1 dX]], with X^-1 = -J X^T J exact on the group."""
    d = np.ascontiguousarray(diff4(S, (geom.dx, geom.dy)[axis], axis)[(..., *part)])
    rows = d[..., -4:, :]
    np.matmul(_symplectic_inverse(S[..., 1:, 1:]), rows, out=rows)
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
    stages read, so only those eight entries are kept and multiplied by X^-1."""
    return [_decode(_mc_coefficient(S, geom, a, _TANGENT)) for a in (0, 1)]


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
    def read(axis):
        # the forms are copies, so each coefficient is freed before the next is taken
        M = _mc_coefficient(F.S, F.geometry, axis)
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


def _tangent_columns(m: ImmersionGrid,
                     tols: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Lagrangian and rank tests of f's `gradient` on the whole grid: the
    tangent columns (f_y, f_x) as (..., 4, 2), their Gram matrix and its det,
    once both tests pass."""
    fx, fy = gradient(m.f, m.geometry)
    lag_max = float(np.max(np.abs(_omega(fx, fy))))
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
        # X^-1 stays inside _mc_coefficient: held across _apply_gauge, it raised
        # the 121^2 peak from 2.92 to 3.56 frames
        _apply_gauge(S, *gauge(*_tangent_forms(S, geom)))

    if margin:
        S = S[margin:-margin, margin:-margin].copy()  # frees the uncropped frame
    frame = FrameField(cropped, S)
    inv, report = extract_invariants(frame, tols)
    return frame, inv, report

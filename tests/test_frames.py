import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import symplag as sg
from symplag.core import _symplectic_error
from symplag.errors import (
    FrameDefect,
    IntegrationBlowup,
    NotAdapted,
    NotElliptic,
    NotLagrangian,
)
from symplag.frames import (
    FrameField,
    MaurerCartanField,
    _step_midpoints,
    _sweep_grid,
    _two_jet,
)
from symplag.generators import _curve_coefficient
from symplag.cli import main
from symplag.grids import diff4, gradient

from closed_forms import constant_ab
from reduction import (
    _TANGENT,
    _alpha_gauge,
    _apply_gauge,
    _conformal_gauge,
    _decode,
    _eta_gauge,
    _gamma_trace_gauge,
    _mat2,
    _mc_coefficient,
    _omega_bar_coefficient,
    _tangent_forms,
    _tangent_frame,
    _tau_rho,
    extract_invariants,
    reduction_pipeline,
)


GEOM = sg.GridGeometry(61, 61, 0.0, 0.0, 0.005, 0.005)


def family_theta(p=1.0, geom=GEOM, lam=0.0):
    inv = sg.shift_family(sg.family_triple(sg.ConstantFamilyParams(p=p), geom), lam)
    return inv, sg.theta_from_invariants(inv)


def affine_motion(p, a, b, c):
    """expm of the affine-algebra matrix with translation p and sp(4) part
    [[a, B], [C, -a^T]], where B, C are the symmetric matrices [[v0, v1], [v1, v2]]."""
    M = np.zeros((5, 5))
    M[1:, 0] = p
    M[1:3, 1:3] = a
    M[1:3, 3:5] = [[b[0], b[1]], [b[1], b[2]]]
    M[3:5, 1:3] = [[c[0], c[1]], [c[1], c[2]]]
    M[3:5, 3:5] = -np.transpose(a)
    return expm(M)


def quiet_integrate(theta, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sg.integrate_frame(theta, **kw)


def quiet_pipeline(m, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return reduction_pipeline(m, **kw)


def test_theta_matches_constant_coefficient_matrices():
    inv, theta = family_theta(p=1.0)
    A, B = constant_ab(1.0)
    assert np.max(np.abs(theta.A[..., 1:, 1:] - A)) < 1e-12
    assert np.max(np.abs(theta.B[..., 1:, 1:] - B)) < 1e-12
    t = inv.t
    assert np.array_equal(theta.A[..., 1, 0], t.real)
    assert np.array_equal(theta.A[..., 2, 0], -t.imag)
    assert np.array_equal(theta.B[..., 1, 0], -t.imag)
    assert np.array_equal(theta.B[..., 2, 0], -t.real)


def mat2_theta(inv):
    """Theta as four per-node 2x2 blocks per coefficient, copied into A and B:
    the assembly that `theta_from_invariants` writes entry by entry."""
    geom, t, h, p = inv.geometry, inv.t, inv.h, inv.p
    h1, h2, habs2 = h.real, h.imag, np.abs(h) ** 2
    h_zbar = sg.d_zbar(h, geom)
    ups_x, ups_y = 2.0 * h_zbar.real, -2.0 * h_zbar.imag
    rho_x, rho_y = p + habs2, 1j * (p - habs2)
    A, B = np.zeros((2, geom.nx, geom.ny, 5, 5))
    A[..., 1, 0], A[..., 2, 0], B[..., 1, 0], B[..., 2, 0] = t.real, -t.imag, -t.imag, -t.real
    for M, alpha, beta, gamma in (
            (A, _mat2(h1, -h2, -h2, -h1),
             _mat2(ups_x + rho_x.real, -rho_x.imag, -rho_x.imag, ups_x - rho_x.real),
             [[1.0, 0.0], [0.0, -1.0]]),
            (B, _mat2(-h2, -h1, -h1, h2),
             _mat2(ups_y + rho_y.real, -rho_y.imag, -rho_y.imag, ups_y - rho_y.real),
             [[0.0, 1.0], [1.0, 0.0]])):
        M[..., 1:3, 1:3] = alpha
        M[..., 1:3, 3:5] = beta
        M[..., 3:5, 1:3] = gamma
        M[..., 3:5, 3:5] = -np.swapaxes(alpha, -1, -2)
    return A, B


def theta_triples(geom):
    """The constant family, two h = 0 triples with holomorphic t and p, and a
    triple with a complex, non-constant h, on `geom`."""
    z = geom.zmesh()
    return [sg.family_triple(sg.ConstantFamilyParams(p=0.7, c1=1.3, c2=0.7), geom),
            sg.InvariantTriple(geom, 1.0 + 0.3 * z, 0.0, 0.5 + 0.2 * z ** 2),
            sg.InvariantTriple(geom, (1.0 + 0.5j) + (0.4 - 0.2j) * z, 0.0,
                               0.3 + 0.4j * z + 0.2 * z ** 2),
            sg.InvariantTriple(geom, 1.2 + 0.1j * z,
                               (0.3 - 0.2j) + (0.5 + 0.1j) * z + 0.4j * np.conj(z) ** 2,
                               -0.2 + 0.6j * z)]


@pytest.mark.parametrize("shape", [(5, 7), (11, 11), (13, 29), (121, 121)],
                         ids=["5x7", "11x11", "13x29", "121x121"])
def test_theta_is_byte_identical_to_the_block_assembly(shape):
    nx, ny = shape
    geom = sg.GridGeometry(nx, ny, -0.1, 0.05, 0.3 / (nx - 1), 0.2 / (ny - 1))
    for inv in theta_triples(geom):
        theta = sg.theta_from_invariants(inv)
        A, B = mat2_theta(inv)
        assert theta.A.tobytes() == A.tobytes() and theta.B.tobytes() == B.tobytes()


def test_theta_peak_memory_is_within_its_bound():
    # tracemalloc peak of a warm 121^2 call, in frames of n * n * 25 * 8 bytes:
    # 3.16 while four (nx, ny, 2, 2) blocks and two broadcast gamma blocks
    # were copied into A and B; 2.72 with each entry written straight into
    # them, A and B the 2 of it.  The bound is 1.1x the last
    n = 121
    geom = sg.GridGeometry(n, n, 0.0, 0.0, 0.3 / (n - 1), 0.3 / (n - 1))
    inv = family_theta(p=1.0, geom=geom)[0]
    sg.theta_from_invariants(inv)
    tracemalloc.start()
    try:
        sg.theta_from_invariants(inv)
        peak = tracemalloc.get_traced_memory()[1] / (n * n * 25 * 8)
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2.72, peak


def test_flatness_small_for_compatible_triple():
    _, theta = family_theta(p=0.0)
    assert np.max(sg.flatness_residual(theta)) < 1e-7


def test_flatness_flags_incompatible_triple():
    geom = GEOM
    # violates the compatibility equations (r1 = -1)
    inv = sg.InvariantTriple(geom, 1.0, 1.0, 0.0)
    theta = sg.theta_from_invariants(inv)
    assert np.max(sg.flatness_residual(theta)) > 0.1
    with pytest.warns(UserWarning):
        sg.integrate_frame(theta, compute_path_defect=False)


def _constant_theta(entries):
    """Flat 1-form A dx with constant A (zero B) given as {(row, col): value}."""
    A = np.zeros((GEOM.nx, GEOM.ny, 5, 5))
    for (r, c), v in entries.items():
        A[..., r, c] = v
    return MaurerCartanField(GEOM, A, np.zeros_like(A))


def test_integration_blowup_guard():
    theta = _constant_theta({(1, 0): 1e14})  # translation outruns the 1e12 guard
    with pytest.raises(IntegrationBlowup):
        quiet_integrate(theta, compute_path_defect=False)


def test_integration_blowup_guard_trips_on_nan():
    # NaN compares False with any bound: the guard must still trip, not return
    # a NaN frame.  The first RK4 step of this finite Theta overflows to inf,
    # and inf * 0 leaves NaN in the frame.
    theta = _constant_theta({(1, 1): 1e300, (3, 3): -1e300})
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationBlowup, match="frame norm nan .* sweep step 0"):
        quiet_integrate(theta, compute_path_defect=False)


@pytest.mark.parametrize("estimate", [False, True])
def test_integrate_rejects_non_finite_theta(estimate):
    # NaN flatness raises no warning, and neither sweep reads B off its first
    # column: unchecked, this NaN would go unseen
    _, theta = family_theta(p=1.0)
    theta.B[30, 30, 1, 2] = np.nan
    with pytest.raises(ValueError, match=r"non-finite value in B at node \(30, 30\)"):
        sg.integrate_frame(theta, compute_path_defect=estimate)


def test_integration_blowup_names_the_step_doubling_sweep():
    # a rotation of 2.5 rad per step in the (q1, q3) and (q2, q4) planes: an
    # RK4 step damps it by 0.51 on the grid, while at twice the step (5 rad,
    # outside RK4's stability interval) it grows by 21 on the subgrid
    omega = 500.0
    theta = _constant_theta({(1, 3): omega, (2, 4): omega,
                             (3, 1): -omega, (4, 2): -omega})
    loose = sg.Tolerances().replace(tol_frame=2.0)  # the damped frame leaves Sp(4)
    F = quiet_integrate(theta, tols=loose, compute_path_defect=False)
    assert np.max(np.abs(F.S[..., 1:, 1:])) <= 1.0
    with pytest.raises(IntegrationBlowup, match="at step-doubling row sweep step"):
        quiet_integrate(theta, tols=loose)


def test_frame_leaving_the_group_raises_frame_defect():
    # a constant rotation in the (q1, q3) and (q2, q4) planes with omega dx = 0.5:
    # the frame stays bounded, but RK4 damps the rotation and leaves Sp(4)
    omega = 100.0
    theta = _constant_theta({(1, 3): omega, (2, 4): omega,
                             (3, 1): -omega, (4, 2): -omega})
    with pytest.raises(FrameDefect, match=r"symplectic defect 1\.25\de-02"):
        sg.integrate_frame(theta, compute_path_defect=False)


def test_tight_tol_frame_raises_frame_defect_naming_the_defect():
    _, theta = family_theta(p=1.0)
    d = quiet_integrate(theta, compute_path_defect=False).symplectic_defect
    assert 1e-14 < d < 1e-12
    tight = sg.Tolerances().replace(tol_frame=1e-14)
    with pytest.raises(FrameDefect, match=f"symplectic defect {d:.3e} exceeds"):
        quiet_integrate(theta, tols=tight, compute_path_defect=False)


def test_integrated_frame_matches_exponential():
    inv, theta = family_theta(p=1.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    A, B = constant_ab(1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        i, j = rng.integers(0, GEOM.nx), rng.integers(0, GEOM.ny)
        E = expm(GEOM.x[i] * A + GEOM.y[j] * B)
        assert np.max(np.abs(F.S[i, j, 1:, 1:] - E)) < 1e-10
    # the defect integrate_frame measured is the frame's own
    assert F.symplectic_defect == np.max(np.abs(_symplectic_error(F.S[..., 1:, 1:]))) < 1e-8


def test_error_estimate_small_when_flat():
    inv, theta = family_theta(p=0.0)
    F = quiet_integrate(theta)
    assert F.flatness_report < 1e-7
    assert 0.0 < F.error_estimate < 1e-6


@pytest.mark.parametrize("n", [60, 61, 121])
@pytest.mark.parametrize("p, c1, c2", [(1.0, 1.0, 1.0), (-1.3, 0.5, 2.0), (1.4, 2.0, 0.5)])
def test_error_estimate_matches_closed_form_error(n, p, c1, c2):
    # the subgrid's max |f2 - f| / 15 against the true RK4 error of f; an even
    # 60^2 compares the first 59 nodes of each axis
    h = 0.3 / (2 * (n // 2))
    geom = sg.GridGeometry(n, n, 0.0, 0.0, h, h)
    params = sg.ConstantFamilyParams(p=p, c1=c1, c2=c2)
    F = quiet_integrate(sg.theta_from_invariants(sg.family_triple(params, geom)))
    err = sg.immersion_from_frame(F).f - sg.closed_form_immersion(params, geom).f
    err = np.max(np.abs(err - err[0, 0]))  # the surfaces differ by a translation
    assert abs(F.error_estimate / err - 1.0) < 0.15


def test_error_estimate_is_nan_unless_computed_on_seven_nodes():
    # the subgrid of 7 nodes has the 4 an RK4 sweep needs; that of 6 has 3
    for n, known in ((6, False), (7, True)):
        geom = sg.GridGeometry(n, 9, 0.0, 0.0, 0.005, 0.005)
        F = quiet_integrate(family_theta(p=1.0, geom=geom)[1])
        assert np.isfinite(F.error_estimate) == known
    F = quiet_integrate(family_theta(p=1.0)[1], compute_path_defect=False)
    assert np.isnan(F.error_estimate)


def test_immersion_from_frame_is_lagrangian():
    _, theta = family_theta(p=3.0)
    m = sg.immersion_from_frame(quiet_integrate(theta, compute_path_defect=False))
    assert np.max(sg.lagrangian_defect(m)) < 1e-8


def test_roundtrip_extraction():
    inv, theta = family_theta(p=1.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    out, report = extract_invariants(F)
    assert np.max(np.abs(out.t - inv.t)) < 1e-6
    assert np.max(np.abs(out.h - inv.h)) < 1e-6
    assert np.max(np.abs(out.p - inv.p)) < 1e-6
    assert all(v < 1e-6 for v in report.values())


def test_sign_flip_preserves_quadratic_invariants():
    inv, theta = family_theta(p=1.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    S = F.S.copy()
    S[..., 1:, 1:] *= -1.0
    out, _ = extract_invariants(FrameField(GEOM, S))
    base, _ = extract_invariants(F)
    # -S is the other adapted frame: t flips sign, t^2, h, p are unchanged
    assert np.max(np.abs(out.t + base.t)) < 1e-9
    assert np.max(np.abs(out.t**2 - base.t**2)) < 1e-6
    assert np.max(np.abs(out.h - base.h)) < 1e-12
    assert np.max(np.abs(out.p - base.p)) < 1e-12


def test_extract_rejects_non_adapted_frame():
    _, theta = family_theta(p=1.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    Y = np.eye(5)
    Y[1:3, 1:3] = np.diag([1.3, 1.0 / 1.3])
    Y[3:5, 3:5] = np.diag([1.0 / 1.3, 1.3])
    with pytest.raises(NotAdapted):
        extract_invariants(FrameField(GEOM, F.S @ Y))


def maurer_cartan(S, geom, part=()):
    """Both coefficients of S^-1 dS, or their `part`, from `_mc_coefficient`."""
    return [_mc_coefficient(S, geom, axis, part) for axis in (0, 1)]


def test_numerical_maurer_cartan_inverts_integration():
    _, theta = family_theta(p=0.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    A, B = maurer_cartan(F.S, F.geometry)
    assert np.max(np.abs(A - theta.A)) < 1e-6
    assert np.max(np.abs(B - theta.B)) < 1e-6


@pytest.mark.parametrize("source", ["integrate", "reduction"])
def test_numerical_maurer_cartan_matches_lu_solve(source):
    # the closed-form inverse X^-1 = -J X^T J against the general 5x5 LU solve
    if source == "integrate":
        F = quiet_integrate(family_theta(p=1.0)[1], compute_path_defect=False)
    else:
        F = quiet_pipeline(sg.closed_form_immersion(sg.ConstantFamilyParams(p=-1.3), GEOM))[0]
    for form, dS in zip(maurer_cartan(F.S, F.geometry), gradient(F.S, F.geometry)):
        ref = np.linalg.solve(F.S, dS)
        err = np.max(np.abs(form[..., 1:, :] - ref[..., 1:, :]))
        assert err <= 1e-12 * np.max(np.abs(dS))


@pytest.mark.parametrize("source", ["integrate", "stage 1"])
def test_tangent_maurer_cartan_is_byte_identical_to_that_block_of_the_whole(source):
    # the gauge stages read only this block, so not even a last bit may move
    if source == "integrate":
        S = quiet_integrate(family_theta(p=1.0)[1], compute_path_defect=False).S
    else:
        m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=-1.3, c1=0.5, c2=2.0), GEOM)
        S = _tangent_frame(m, sg.DEFAULT_TOLS)
    whole = [M[..., 1:, 1:3] for M in maurer_cartan(S, GEOM)]
    for T, W, forms in zip(maurer_cartan(S, GEOM, _TANGENT), whole, _tangent_forms(S, GEOM)):
        assert T.shape == (61, 61, 4, 2)
        assert T.tobytes() == W.tobytes()
        for got, want in zip(forms, _decode(W)):
            assert got.tobytes() == want.tobytes()


def reduction_peak_frames(n):
    """tracemalloc peak of one reduction of the p = 1 closed form on n x n
    nodes, in frames of n * n * 25 * 8 bytes."""
    geom = sg.GridGeometry(n, n, 0.0, 0.0, 0.3 / (n - 1), 0.3 / (n - 1))
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), geom)
    tracemalloc.start()
    try:
        quiet_pipeline(m)
        return tracemalloc.get_traced_memory()[1] / (n * n * 25 * 8)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, bound", [(61, 2.9), (121, 3.1)])
def test_reduction_peak_memory_is_within_its_bound(n, bound):
    # each gauge is applied in place and extraction takes one coefficient of
    # the form at a time; a 5x5 gauge matrix, S @ Y and both coefficients held
    # at once peaked at 3.34 and 3.35 frames.  At 61^2 the gauge stages hold
    # the peak: 2.93 frames while each stage's X^-1 product went to a new
    # array, 2.82 with it made in place.  Since diff4 lost `part` each stage
    # differences the whole frame: 3.25 with X^-1 held across that, 2.61
    # with X^-1 taken after it and its gather negated in place
    assert reduction_peak_frames(n) <= bound


def gauge_matrix5(A2, b=None):
    """The stabilizer element Y(A, b) = [[A, A b], [0, A^-T]] embedded in 5x5 form."""
    Y = np.zeros(A2.shape[:-2] + (5, 5))
    Y[..., 0, 0] = 1.0
    Y[..., 1:3, 1:3] = A2
    if b is not None:
        Y[..., 1:3, 3:5] = A2 @ b
    a00, a01, a10, a11 = A2[..., 0, 0], A2[..., 0, 1], A2[..., 1, 0], A2[..., 1, 1]
    Y[..., 3:5, 3:5] = _mat2(a11, -a10, -a01, a00) / (a00 * a11 - a01 * a10)[..., None, None]
    return Y


@pytest.mark.parametrize("stage", [_gamma_trace_gauge, _eta_gauge, _conformal_gauge, _alpha_gauge],
                         ids=["stage2", "stage3", "stage4", "stage5"])
def test_apply_gauge_matches_embedded_product(stage):
    # stages 2 and 4 give an A, stages 3 and 5 a symmetric b
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=-1.3, c1=0.5, c2=2.0), GEOM)
    S = _tangent_frame(m, sg.DEFAULT_TOLS)
    A, b = stage(*_tangent_forms(S, GEOM))
    assert (A is None) != (b is None)
    Y = gauge_matrix5(np.broadcast_to(np.eye(2), b.shape) if A is None else A, b)
    out = S.copy()
    _apply_gauge(out, A, b)
    assert out.tobytes() == (S @ Y).tobytes()
    # Y is symplectic, so the gauge carries the frame's own defect E along as
    # Y^T E Y and adds nothing but round-off
    Yx = Y[..., 1:, 1:]
    carried = np.swapaxes(Yx, -1, -2) @ _symplectic_error(S[..., 1:, 1:]) @ Yx
    assert np.max(np.abs(_symplectic_error(out[..., 1:, 1:]) - carried)) <= 1e-13


def curve_immersion(geom):
    zz = geom.zmesh()
    curve = np.stack([zz, 0.5 * zz**2], axis=-1)
    return sg.curve_to_immersion(geom, curve)


def test_pipeline_on_complex_curve():
    geom = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
    m = curve_immersion(geom)
    inv, _ = sg.invariants_from_immersion(m, margin=8)
    assert np.max(np.abs(inv.h)) < 1e-8
    assert np.max(np.abs(inv.t - inv.t[0, 0])) < 1e-8


def test_pipeline_recovers_family_invariants():
    geom = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
    params = sg.ConstantFamilyParams(p=1.0)
    m = sg.closed_form_immersion(params, geom)
    inv, _ = sg.invariants_from_immersion(m, margin=8)
    sub = inv.geometry
    xx, yy = sub.mesh()
    t_want = sg.separated_t(params, xx, yy)
    sign = np.sign(np.real(inv.t[0, 0] / t_want[0, 0]))
    assert np.max(np.abs(inv.t - sign * t_want)) < 1e-5
    # h and p are insensitive to the adapted-frame sign; only t flips
    assert np.max(np.abs(inv.h - 1.0)) < 1e-5
    assert np.max(np.abs(inv.p - 1.0)) < 1e-5


@pytest.mark.parametrize("origin", [0.0, -0.15])
def test_pipeline_default_margin_passes_gauge_gate(origin):
    # the default margin crops past the band where edge stencil error spoils
    # the gauge conditions (a margin of 4 raises NotAdapted here)
    geom = sg.GridGeometry(61, 61, origin, origin, 0.005, 0.005)
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), geom)
    _, inv, report = reduction_pipeline(m)
    assert (inv.geometry.nx, inv.geometry.ny) == (45, 45)
    assert max(report[k] for k in ("omega", "gamma_trace", "alpha_trace",
                                   "alpha_skew", "ell")) <= sg.DEFAULT_TOLS.tol_gauge
    assert np.max(np.abs(inv.p - 1.0)) < 1e-5


def test_pipeline_gauge_covariance():
    geom = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
    m = curve_immersion(geom)
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) * 0.2
    g = affine_motion(rng.normal(size=4) * 0.4, a, (0.1, -0.05, 0.2), (0.0, 0.15, -0.1))
    moved = sg.ImmersionGrid(geom, g[1:, 0] + np.einsum("ij,...j->...i", g[1:, 1:], m.f))
    inv1, _ = sg.invariants_from_immersion(m, margin=8)
    inv2, _ = sg.invariants_from_immersion(moved, margin=8)
    assert np.max(np.abs(inv2.t**2 - inv1.t**2)) < 1e-7
    assert np.max(np.abs(inv2.h - inv1.h)) < 1e-7
    assert np.max(np.abs(inv2.p - inv1.p)) < 1e-7


def test_pipeline_rejects_non_lagrangian():
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.05, 0.05)
    xx, yy = geom.mesh()
    f = np.stack([xx, yy, np.zeros_like(xx), xx], axis=-1)  # Omega(f_x, f_y) = -1
    with pytest.raises(NotLagrangian, match=r"max \|Omega\(f_x, f_y\)\| = 1\.000e\+00 > "):
        sg.invariants_from_immersion(sg.ImmersionGrid(geom, f))


def moved_copy(m: sg.ImmersionGrid, seed: int) -> sg.ImmersionGrid:
    """m under a random affine symplectic motion."""
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=size) * 0.3 for size in ((2, 2), 3, 3))
    g = affine_motion(rng.normal(size=4) * 0.5, a, b, c)
    return sg.ImmersionGrid(m.geometry, g[1:, 0] + np.einsum("ij,...j->...i", g[1:, 1:], m.f))


def test_congruence_defect_cases():
    geom = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
    m1 = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), geom)
    moved = moved_copy(m1, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert sg.congruence_defect(m1, moved, margin=8) < 1e-10
        assert sg.congruence_defect(m1, m1, margin=8) < 1e-10
        m0 = sg.closed_form_immersion(sg.ConstantFamilyParams(p=0.0), geom)
        assert sg.congruence_defect(m1, m0, margin=8) > 1e-2


def test_congruence_matrix_matches_pairwise_defects():
    members = [sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0 - lam), GEOM)
               for lam in (-0.5, 0.0, 0.5, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mat = sg.congruence_matrix(members, margin=8)
        pairs = {(i, j): sg.congruence_defect(members[i], members[j], margin=8)
                 for i in range(4) for j in range(i + 1, 4)}
    assert mat.shape == (4, 4)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)
    for (i, j), d in pairs.items():
        assert mat[i, j] == d  # bit-equal: same jets, same motion
    assert np.all(mat[~np.eye(4, dtype=bool)] > 1e-3)


def square(n: int, origin: float = 0.0) -> sg.GridGeometry:
    """The n x n grid of side 0.3 from (origin, origin)."""
    h = 0.3 / (n - 1)
    return sg.GridGeometry(n, n, origin, origin, h, h)


def test_congruence_of_a_moved_copy_at_241_is_below_1e_10():
    # test_congruence_defect_cases holds the bound at 61^2
    params = sg.ConstantFamilyParams(p=0.5, c1=1.3, c2=0.7)
    m = sg.closed_form_immersion(params, square(241, -0.15))
    assert sg.congruence_defect(m, moved_copy(m, 5)) < 1e-10


def test_congruence_of_a_translated_copy_at_margin_0():
    # the base node is the grid's corner: the fits shift their windows inside
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), GEOM)
    assert sg.congruence_defect(m, sg.ImmersionGrid(GEOM, m.f + 0.3), margin=0) < 1e-10


def test_congruence_refuses_translated_planes():
    # a Lagrangian plane's 2-jet spans only R^2: X = D_j D_i^+ would be
    # singular, and these congruent members would read 1
    geom = sg.GridGeometry(31, 31, 0.0, 0.0, 0.01, 0.01)
    xx, yy = geom.mesh()
    plane = sg.ImmersionGrid(geom, np.stack([xx, yy, 0 * xx, 0 * xx], axis=-1))
    with pytest.raises(NotElliptic, match=r"spans less than R\^4 at node \(8, 8\)"):
        sg.congruence_defect(plane, sg.ImmersionGrid(geom, plane.f + 0.5))


@pytest.mark.parametrize("copy", [lambda f: 2.0 * f, lambda f: f[..., [2, 3, 0, 1]]],
                         ids=["scaled", "mirrored"])
def test_congruence_refuses_a_motion_that_is_not_symplectic(copy):
    # X = 2 I, or the swap of the two planes, maps f onto the copy node for
    # node: only max |X^T J X - J|, 3 or 2, tells the copy from a congruence
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), GEOM)
    assert sg.congruence_defect(m, sg.ImmersionGrid(GEOM, copy(m.f))) > 1.0


# Non-congruent pairs that share t^2 and h: the defects that the motion between
# the adapted frames of the five-stage reduction at the base node gave, to 5
# digits, when congruence still built those frames
@pytest.mark.parametrize("n, params, lam, pinned", [
    (61, {"p": 1.0}, 0.5, 6.7211e-3),
    (61, {"p": 1.0}, 1.0, 1.3393e-2),
    (241, {"p": 0.5, "c1": 1.3, "c2": 0.7}, 0.5, 1.0369e-2),
    (241, {"p": 0.5, "c1": 1.3, "c2": 0.7}, 1.0, 2.0658e-2),
    (241, {"p": 0.5, "c1": 1.3, "c2": 0.7}, -1.0, 2.0978e-2),
])
def test_congruence_of_shift_pairs_keeps_the_adapted_frames_defect(n, params, lam, pinned):
    m0, m1 = (sg.closed_form_immersion(sg.ConstantFamilyParams(**dict(params, p=p)), square(n))
              for p in (params["p"], params["p"] - lam))
    assert abs(sg.congruence_defect(m0, m1) / pinned - 1.0) < 0.01


def test_congruence_of_umbilic_lambda_pairs_keeps_the_adapted_frames_defect():
    geom = square(61, -0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        members = [sg.umbilic_immersion(sg.UmbilicCurveSpec(geom, 0.0, lam))
                   for lam in (-1.0, 0.0, 1.0)]
    mat = sg.congruence_matrix(members)
    for (i, j), pinned in {(0, 1): 5.8981e-3, (0, 2): 1.1797e-2, (1, 2): 5.9378e-3}.items():
        assert abs(mat[i, j] / pinned - 1.0) < 0.01


@pytest.mark.parametrize("n, margin", [(61, 0), (61, 8), (11, 3)])
def test_two_jet_is_exact_on_a_sextic_immersion(n, margin):
    # four polynomials of total degree 6; on 11 nodes each fit takes the whole axis
    geom = sg.GridGeometry(n, n, -0.1, 0.05, 0.005, 0.005)
    P = np.polynomial.polynomial
    rng = np.random.default_rng(n + margin)
    C = rng.normal(size=(4, 7, 7)) * (np.add.outer(np.arange(7), np.arange(7)) <= 6)
    xx, yy = geom.mesh()
    f = np.stack([P.polyval2d(xx, yy, c) for c in C], axis=-1)
    x0, y0 = geom.x[margin], geom.y[margin]
    exact = np.array([[P.polyval2d(x0, y0, P.polyder(P.polyder(c, a, axis=0), b, axis=1))
                       for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))] for c in C])
    assert np.max(np.abs(_two_jet(sg.ImmersionGrid(geom, f), margin) - exact)) < 1e-9


def bumped_far_corner() -> sg.ImmersionGrid:
    """The p = 1 closed form on GEOM with a bump in f3 of radius 5 nodes around
    node (50, 50), far from the nodes that congruence fits its 2-jet to."""
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), GEOM)
    i, j = np.indices((GEOM.nx, GEOM.ny))
    r2 = ((i - 50) ** 2 + (j - 50) ** 2) / 25.0
    f = m.f.copy()
    f[..., 2] += 1e-3 * np.where(r2 < 1.0, (1.0 - r2) ** 4, 0.0)
    return sg.ImmersionGrid(GEOM, f)


def test_congruence_checks_lagrangian_on_the_whole_grid():
    m, bumped = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), GEOM), bumped_far_corner()
    assert np.max(sg.lagrangian_defect(bumped)) > sg.DEFAULT_TOLS.tol_frame
    # at margin 8 the 2-jet reads the first 17 nodes of each axis, which the bump misses
    assert np.array_equal(bumped.f[:17, :17], m.f[:17, :17])
    with pytest.raises(NotLagrangian):
        sg.congruence_matrix([m, bumped], margin=8)


def test_congruence_command_exits_1_on_a_member_non_lagrangian_off_the_block(tmp_path):
    # compared with itself, the bumped surface would be congruent but for the gate
    path = tmp_path / "bumped.csv"
    sg.save_immersion(bumped_far_corner(), path)
    doc = tmp_path / "cong.json"
    doc.write_text(json.dumps({"command": "congruence",
                               "params": {"first": str(path), "second": str(path)}}))
    assert main(["--config", str(doc), "--out", str(tmp_path / "out")]) == 1


def test_congruence_matrix_does_not_reduce_a_lone_member():
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.05, 0.05)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, np.stack([xx, yy, np.zeros_like(xx), xx], axis=-1))
    with pytest.raises(NotLagrangian):  # what checking it would raise
        sg.invariants_from_immersion(m)
    assert np.array_equal(sg.congruence_matrix([m]), [[0.0]])


def test_congruence_matrix_refuses_members_on_different_grids():
    # entries compare f node by node; neither member is checked (each would
    # raise NotLagrangian), so the refusal comes first
    members = []
    for n in (21, 25):
        geom = sg.GridGeometry(n, n, 0.0, 0.0, 0.05, 0.05)
        xx, yy = geom.mesh()
        members.append(sg.ImmersionGrid(geom, np.stack([xx, yy, 0 * xx, xx], axis=-1)))
    with pytest.raises(ValueError, match=r"GridGeometry\(nx=21, .* and GridGeometry\(nx=25, "):
        sg.congruence_matrix(members)


def test_immersion_save_load_roundtrip(tmp_path):
    _, theta = family_theta(p=1.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    m = sg.immersion_from_frame(F)
    path = tmp_path / "imm.csv"
    sg.save_immersion(m, path, frame=F)
    m2, F2 = sg.load_immersion(path)
    assert m2.geometry == m.geometry
    assert np.array_equal(m2.f, m.f)  # 17 significant digits round-trip
    assert np.array_equal(F2.S[..., 1:, 1:], F.S[..., 1:, 1:])
    path2 = tmp_path / "imm-noframe.csv"
    sg.save_immersion(m, path2)
    m3, F3 = sg.load_immersion(path2)
    assert F3 is None and np.array_equal(m3.f, m.f)


def test_frames_not_integrated_report_no_flatness(tmp_path):
    # only integrate_frame measures flatness and the symplectic defect; a
    # loaded or reduced frame reads NaN
    _, theta = family_theta(p=1.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    assert F.flatness_report < 1e-7
    m = sg.immersion_from_frame(F)
    path = tmp_path / "imm.csv"
    sg.save_immersion(m, path, frame=F)
    _, loaded = sg.load_immersion(path)
    reduced, _, _ = quiet_pipeline(m)
    for frame in (loaded, reduced):
        assert np.isnan(frame.flatness_report) and np.isnan(frame.error_estimate)
        assert np.isnan(frame.symplectic_defect)


def test_save_immersion_rejects_non_finite_frame(tmp_path):
    geom = sg.GridGeometry(7, 7, 0.0, 0.0, 0.1, 0.1)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, np.stack([xx, yy, xx * yy, xx - yy], axis=-1))
    S = np.tile(np.eye(5), (7, 7, 1, 1))
    S[1, 1, 2, 3] = np.inf
    path = tmp_path / "imm.csv"
    with pytest.raises(ValueError, match=r"node \(1, 1\) holds a non-finite value"):
        sg.save_immersion(m, path, frame=FrameField(geom, S))
    assert not path.exists()


def _duplicate_row(lines):
    lines[1 + 3 * 7 + 3] = lines[1 + 0 * 7 + 1]  # node (3, 3) becomes a copy of (0, 1)


def _swapped_rows(lines):
    a, b = 1 + 1 * 7 + 2, 1 + 1 * 7 + 3  # nodes (1, 2) and (1, 3)
    lines[a], lines[b] = lines[b], lines[a]


def _set_cell(lines, node, column, text):
    cells = lines[1 + node[0] * 7 + node[1]].split(",")
    cells[column] = text
    lines[1 + node[0] * 7 + node[1]] = ",".join(cells)


def _x_off_node(lines):
    _set_cell(lines, (0, 4), 0, "123")


def _nan_y(lines):
    _set_cell(lines, (0, 4), 1, "nan")


def _keep_columns(lines, cut):
    lines[:] = [",".join(line.rstrip("\r\n").split(",")[cut]) + "\r\n" for line in lines]


def _three_columns(lines):
    _keep_columns(lines, slice(3))


def _one_column(lines):
    _keep_columns(lines, slice(1))


def _nine_columns(lines):
    _keep_columns(lines, slice(9))


def _no_coordinates(lines):
    _keep_columns(lines, slice(2, None))


def _non_numeric_cell(lines):
    _set_cell(lines, (2, 3), 4, "abc")


def _legacy_indices(lines):
    # the i,j,x,y layout written before x,y became the only coordinate columns
    lines[0] = "i,j," + lines[0]
    for r in range(1, len(lines)):
        lines[r] = "%d,%d," % divmod(r - 1, 7) + lines[r]


def _nan_frame_entry(lines):
    lines[1 + 2 * 7 + 5] = lines[1 + 2 * 7 + 5].rsplit(",", 1)[0] + ",nan\r\n"  # s44 of (2, 5)


_NOT_IMMERSION = r" is not x,y,f1,f2,f3,f4 or x,y,f1,f2,f3,f4,s11,.*,s44$"


@pytest.mark.parametrize("edit, message", [
    (_duplicate_row, r"row 25 at \(x, y\) = \(0, 0\.10000000000000001\) is not node \(3, 3\)"),
    (_swapped_rows, r"row 10 at \(x, y\) = \(0\.10000000000000001, 0\.30000000000000004\) "
                    r"is not node \(1, 2\)"),
    (_x_off_node, r"row 5 at \(x, y\) = \(123, 0\.40000000000000002\) is not node \(0, 4\)"),
    (_nan_y, r"row 5 at \(x, y\) = \(0, nan\) is not node \(0, 4\)"),
    (_three_columns, r"header x,y,f1" + _NOT_IMMERSION),
    (_one_column, r"header x" + _NOT_IMMERSION),
    (_nine_columns, r"header x,y,f1,f2,f3,f4,s11,s12,s13" + _NOT_IMMERSION),
    (_no_coordinates, r"header f1,f2,f3,f4,s11,.*,s44" + _NOT_IMMERSION),
    (_legacy_indices, r"header i,j,x,y,f1,.*,s44" + _NOT_IMMERSION),
    (_nan_frame_entry, r"row 20 \(node \(2, 5\)\) holds a non-finite value"),
    (_non_numeric_cell, r"could not convert string 'abc'"),
], ids=["duplicate-row", "swapped-rows", "x-off-node", "nan-y", "three-columns", "one-column",
        "nine-columns", "no-coordinates", "legacy-indices", "nan-frame-entry", "non-numeric-cell"])
def test_load_immersion_rejects_misplaced_rows(tmp_path, edit, message):
    geom = sg.GridGeometry(7, 7, 0.0, 0.0, 0.1, 0.1)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, np.stack([xx, yy, xx * yy, xx - yy], axis=-1))
    path = tmp_path / "imm.csv"
    sg.save_immersion(m, path, frame=FrameField(geom, np.broadcast_to(np.eye(5), (7, 7, 5, 5))))
    with open(path, newline="") as fh:
        lines = fh.readlines()
    edit(lines)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    with pytest.raises(ValueError, match=message) as err:
        sg.load_immersion(path)
    assert str(err.value).startswith(f"{path}: ")
    assert str(err.value).count(str(path)) == 1


@pytest.mark.parametrize("text, message", [
    ('{"nx": 3, "ny": 7, "x0": 0, "y0": 0, "dx": 0.1, "dy": 0.1}', "at least 5x5, got 3x7"),
    ("nx = 7", "Expecting value"),
], ids=["nx-3", "not-json"])
def test_load_immersion_names_a_bad_sidecar(tmp_path, text, message):
    geom = sg.GridGeometry(7, 7, 0.0, 0.0, 0.1, 0.1)
    xx, yy = geom.mesh()
    path = tmp_path / "imm.csv"
    sg.save_immersion(sg.ImmersionGrid(geom, np.stack([xx, yy, xx * yy, xx - yy], -1)), path)
    sidecar = tmp_path / "imm.csv.json"
    sidecar.write_text(text)
    with pytest.raises(ValueError, match=message) as err:
        sg.load_immersion(path)
    assert str(err.value).startswith(f"{sidecar}: ")
    assert str(err.value).count(str(sidecar)) == 1


@pytest.mark.parametrize("grad_phi, message", [
    # a Lagrangian plane: the cubic form vanishes, and q reads 0/0
    (lambda x, y: (0 * x, 0 * y), "q = nan"),
    # cubic graphs: x^3 + y^3 has one real root (q = -1/4), x^2 y a double root
    (lambda x, y: (3 * x**2, 3 * y**2), r"q = -2\.500e-01"),
    (lambda x, y: (2 * x * y, x**2), r"q = -?(\d\.\d{3}e-(1\d|[2-9]\d|\d{3})|0\.000e\+00)"),
], ids=["plane", "x3+y3", "x2y"])
def test_pipeline_rejects_non_elliptic(grad_phi, message):
    # the Lagrangian graph f = (x, y, phi_x, phi_y)
    geom = sg.GridGeometry(41, 41, 0.1, 0.1, 0.01, 0.01)
    xx, yy = geom.mesh()
    f = np.stack([xx, yy, *grad_phi(xx, yy)], axis=-1)
    with pytest.raises(NotElliptic, match=r"not elliptic at node \(0, 0\): " + message):
        sg.invariants_from_immersion(sg.ImmersionGrid(geom, f))


def test_omega_bar_coefficient_recovers_c():
    # coframes of both orientations whose two vectors are at least 30 degrees
    # apart, so the division is well conditioned
    rng = np.random.default_rng(11)
    shape = (40, 40)
    r = rng.uniform(0.5, 2.0, size=(2,) + shape)
    alpha = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    beta = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(np.pi / 6, 5 * np.pi / 6, size=shape)
    ox, oy = r[0] * np.exp(1j * alpha), r[1] * np.exp(1j * (alpha + beta))
    a, c = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    ux, uy = a * ox + c * np.conj(ox), a * oy + c * np.conj(oy)
    assert np.max(np.abs(_omega_bar_coefficient(ux, uy, ox, oy) - c)) < 1e-12
    ox[3, 4], oy[3, 4] = 1.0, -2.0  # omega_x, omega_y dependent over R
    with pytest.raises(NotElliptic, match=r"not a coframe at node \(3, 4\)"):
        _omega_bar_coefficient(ux, uy, ox, oy)


@pytest.mark.parametrize("kind", ["constant", "x_only"])
def test_pipeline_rejects_rank_deficient_immersion(kind):
    # df has rank 0 or 1 everywhere: the tangent Gram matrix is singular
    geom = sg.GridGeometry(31, 31, 0.0, 0.0, 0.01, 0.01)
    xx, _ = geom.mesh()
    zero = np.zeros_like(xx)
    first = zero + 1.0 if kind == "constant" else xx
    f = np.stack([first, zero + 2.0, zero, zero], axis=-1)
    with pytest.raises(NotElliptic, match=r"df drops rank at node \(0, 0\)"):
        sg.invariants_from_immersion(sg.ImmersionGrid(geom, f))


def test_pipeline_checks_margin_before_any_stage():
    # a non-Lagrangian input: the margin check must come before the Lagrangian test
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.05, 0.05)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, np.stack([xx, yy, np.zeros_like(xx), xx], axis=-1))
    for margin in (-1, 9, 2.5, 8.5, True, "8", float("nan"), float("inf")):
        with pytest.raises(ValueError, match="margin"):
            sg.invariants_from_immersion(m, margin=margin)


def test_integer_valued_float_margin_is_that_integer():
    # 8.0 crops as 8 does, byte for byte, in the invariants and in congruence
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), GEOM)
    moved = sg.ImmersionGrid(GEOM, m.f + 0.25)
    runs = []
    for margin in (8, 8.0):
        inv, gates = sg.invariants_from_immersion(m, margin=margin)
        mat = sg.congruence_matrix([m, moved], margin=margin)
        runs.append((inv.geometry, [v.tobytes() for v in (inv.t, inv.h, inv.p)],
                     {k: v.tobytes() for k, v in gates.items()}, mat.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["family", "umbilic"])
def test_decode_recovers_theta_encoding(kind):
    if kind == "family":
        params = sg.ConstantFamilyParams(p=1.0, m1=0.2, m2=0.1)
        inv = sg.shift_family(sg.family_triple(params, GEOM), 0.5)
    else:
        zz = GEOM.zmesh()
        inv = sg.InvariantTriple(GEOM, 2.0 + 0.3 * zz, 0.0, 0.5 * zz)
    theta = sg.theta_from_invariants(inv)
    x, y = _decode(theta.A[..., 1:, 1:3]), _decode(theta.B[..., 1:, 1:3])
    (tau_x, rho_x), (tau_y, rho_y) = _tau_rho(theta.A), _tau_rho(theta.B)
    t, h, p = inv.t, inv.h, inv.p
    habs2 = np.abs(h) ** 2
    # the derivative terms of h sit in the trace of beta, which rho does not read
    for got, want in ((x.omega, 1.0), (y.omega, 1j), (x.gamma_trace, 0.0),
                      (y.gamma_trace, 0.0), (x.w, 0.0), (y.w, 0.0),
                      (x.eta, h), (y.eta, 1j * h), (tau_x, t), (tau_y, 1j * t),
                      (rho_x, p + habs2), (rho_y, 1j * (p - habs2))):
        assert np.max(np.abs(got - want)) < 1e-12


def test_flatness_residual_is_byte_identical_to_reference():
    # accumulated in place, the residual must keep the expression's every bit
    _, theta = family_theta(p=1.0)
    A, B = theta.A, theta.B
    dBdx, dAdy = diff4(B, GEOM.dx, axis=0), diff4(A, GEOM.dy, axis=1)
    expected = np.max(np.abs(dBdx - dAdy + (A @ B - B @ A)), axis=(-1, -2))
    assert sg.flatness_residual(theta).tobytes() == expected.tobytes()


def whole_field_flatness(A, B, geom):
    """The residual as one whole-field expression, accumulated in place in
    `flatness_residual`'s order."""
    r = diff4(B, geom.dx, 0)
    r -= diff4(A, geom.dy, 1)
    comm = A @ B
    comm -= B @ A
    r += comm
    return np.max(np.abs(r, out=r), axis=(-1, -2))


@pytest.mark.parametrize("nx, ny", [(5, 7), (6, 6), (16, 9), (17, 33), (33, 40), (61, 61),
                                    (100, 37), (241, 241)])
def test_blocked_flatness_is_byte_identical_to_the_whole_field(nx, ny):
    # blocks of 16 x-rows, tails of 1 row included (17, 33, 241): a block's
    # slab for B's x-derivative has 2 halo rows and at least 5 rows
    geom = sg.GridGeometry(nx, ny, 0.0, 0.0, 0.01, 0.013)
    rng = np.random.default_rng(nx * 1000 + ny)
    A, B = rng.standard_normal((2, nx, ny, 5, 5))
    got = sg.flatness_residual(MaurerCartanField(geom, A, B))
    assert got.tobytes() == whole_field_flatness(A, B, geom).tobytes()


def _midpoints(M):
    """Every cubic-interpolated midpoint sample along axis 0 at once, (n - 1, ...)."""
    w = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
    mid = np.empty((M.shape[0] - 1,) + M.shape[1:], dtype=M.dtype)
    mid[1:-1] = (-M[:-3] + 9.0 * M[1:-2] + 9.0 * M[2:-1] - M[3:]) / 16.0
    mid[0] = np.dot(w, M[:4].reshape(4, -1)).reshape(M.shape[1:])
    mid[-1] = np.dot(w, M[-1:-5:-1].reshape(4, -1)).reshape(M.shape[1:])
    return mid


def reference_sweep(A, B, hx, hy):
    """`_sweep_grid` by an RK4 whose midpoint samples are all computed first."""
    def rk4(S, M, h):
        mid = _midpoints(M)
        out = [S]
        for k in range(M.shape[0] - 1):
            k1 = S @ M[k]
            k2 = (S + 0.5 * h * k1) @ mid[k]
            k3 = (S + 0.5 * h * k2) @ mid[k]
            k4 = (S + h * k3) @ M[k + 1]
            S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(S)
        return np.stack(out)
    column = rk4(np.eye(A.shape[-1], dtype=A.dtype)[None], B[0][:, None], hy)[:, 0]
    return rk4(column, A, hx)


def sweep_samples():
    """(A, B, hx, hy) of the row and first-column sweeps, the subgrid sweep and
    the complex umbilic curve sweep."""
    _, theta = family_theta(p=1.0)
    N = _curve_coefficient(0.3 + 0.2 * GEOM.zmesh() - 0.1j * GEOM.zmesh() ** 2, 0.4)
    return [(theta.A, theta.B, GEOM.dx, GEOM.dy),
            (theta.A[::2, ::2], theta.B[::2, ::2], 2 * GEOM.dx, 2 * GEOM.dy),
            (N, N, GEOM.dx, 1j * GEOM.dy)]


def test_sweep_with_per_step_midpoints_is_byte_identical_to_precomputed_ones():
    for A, B, hx, hy in sweep_samples():
        assert _sweep_grid(A, B, hx, hy).tobytes() == reference_sweep(A, B, hx, hy).tobytes()


def test_midpoints_edge_rows_are_byte_identical_to_tensordot():
    # the sample arrays of the row, first-column, subgrid and complex sweeps
    w = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
    for A, B, *_ in sweep_samples():
        for M in (A, B[0][:, None]):
            first, *_, last = _step_midpoints(M)
            assert first.tobytes() == np.tensordot(w, M[:4], axes=(0, 0)).tobytes()
            assert last.tobytes() == np.tensordot(w, M[-1:-5:-1], axes=(0, 0)).tobytes()


def test_integrate_frame_peak_memory_is_within_its_bound():
    # tracemalloc peak of a warm 121^2 call with the path defect, in frames of
    # n * n * 25 * 8 bytes: 3.00 while the sweeps held every midpoint sample
    # and flatness and the symplectic defect were whole-grid expressions; 1.38
    # with per-step midpoints and both checks over blocks of 16 x-rows, S and
    # the subgrid's S2 the most of it.  The bound is 1.1x the last
    n = 121
    geom = sg.GridGeometry(n, n, 0.0, 0.0, 0.3 / (n - 1), 0.3 / (n - 1))
    theta = family_theta(p=1.0, geom=geom)[1]
    sg.integrate_frame(theta)
    tracemalloc.start()
    try:
        sg.integrate_frame(theta)
        peak = tracemalloc.get_traced_memory()[1] / (n * n * 25 * 8)
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 1.38, peak

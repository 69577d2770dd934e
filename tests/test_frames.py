import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import symplag as sg
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
    _decode,
    _gauge_matrix5,
    _omega_bar_coefficient,
    extract_invariants,
    numerical_maurer_cartan,
)
from symplag.grids import gradient


GEOM = sg.GridGeometry(61, 61, 0.0, 0.0, 0.005, 0.005)


def family_theta(p=1.0, geom=GEOM, lam=0.0):
    inv = sg.family_triple(sg.ConstantFamilyParams(p=p), geom, lam)
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
        return sg.reduction_pipeline(m, **kw)


def test_theta_matches_constant_coefficient_matrices():
    inv, theta = family_theta(p=1.0)
    A, B = sg.constant_ab(1.0)
    assert np.max(np.abs(theta.A[..., 1:, 1:] - A)) < 1e-12
    assert np.max(np.abs(theta.B[..., 1:, 1:] - B)) < 1e-12
    t = inv.t
    assert np.array_equal(theta.A[..., 1, 0], t.real)
    assert np.array_equal(theta.A[..., 2, 0], -t.imag)
    assert np.array_equal(theta.B[..., 1, 0], -t.imag)
    assert np.array_equal(theta.B[..., 2, 0], -t.real)


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


@pytest.mark.parametrize("path_defect", [False, True])
def test_integrate_rejects_non_finite_theta(path_defect):
    # NaN flatness raises no warning; unchecked, the sweep returns a finite
    # frame (path defect off) or raises IntegrationBlowup (path defect on)
    _, theta = family_theta(p=1.0)
    theta.B[30, 30, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sg.integrate_frame(theta, compute_path_defect=path_defect)


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
    d = quiet_integrate(theta, compute_path_defect=False).max_symplectic_defect()
    assert 1e-14 < d < 1e-12
    tight = sg.Tolerances().replace(tol_frame=1e-14)
    with pytest.raises(FrameDefect, match=f"symplectic defect {d:.3e} exceeds"):
        quiet_integrate(theta, tols=tight, compute_path_defect=False)


def test_integrated_frame_matches_exponential():
    inv, theta = family_theta(p=1.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    A, B = sg.constant_ab(1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        i, j = rng.integers(0, GEOM.nx), rng.integers(0, GEOM.ny)
        E = expm(GEOM.x[i] * A + GEOM.y[j] * B)
        assert np.max(np.abs(F.S[i, j, 1:, 1:] - E)) < 1e-10
    assert F.max_symplectic_defect() < 1e-8


def test_path_defect_small_when_flat():
    inv, theta = family_theta(p=0.0)
    F = quiet_integrate(theta)
    assert F.flatness_report < 1e-7
    assert F.path_defect < 1e-6


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


def test_numerical_maurer_cartan_inverts_integration():
    _, theta = family_theta(p=0.0)
    F = quiet_integrate(theta, compute_path_defect=False)
    mc = numerical_maurer_cartan(F)
    assert np.max(np.abs(mc.A - theta.A)) < 1e-6
    assert np.max(np.abs(mc.B - theta.B)) < 1e-6


@pytest.mark.parametrize("source", ["integrate", "reduction"])
def test_numerical_maurer_cartan_matches_lu_solve(source):
    # the closed-form inverse X^-1 = -J X^T J against the general 5x5 LU solve
    if source == "integrate":
        F = quiet_integrate(family_theta(p=1.0)[1], compute_path_defect=False)
    else:
        F = quiet_pipeline(sg.closed_form_immersion(sg.ConstantFamilyParams(p=-1.3), GEOM))[0]
    mc = numerical_maurer_cartan(F)
    for form, dS in zip((mc.A, mc.B), gradient(F.S, F.geometry)):
        ref = np.linalg.solve(F.S, dS)
        err = np.max(np.abs(form[..., 1:, :] - ref[..., 1:, :]))
        assert err <= 1e-12 * np.max(np.abs(dS))


def test_gauge_matrix5_is_symplectic():
    rng = np.random.default_rng(11)
    A2 = rng.normal(size=(500, 2, 2))
    A2 = A2[np.abs(np.linalg.det(A2)) > 0.1]
    b = rng.normal(size=A2.shape)
    for sym in (None, b + np.swapaxes(b, -1, -2)):
        Y = _gauge_matrix5(A2, sym)
        assert sg.symplectic_defect(Y[:, 1:, 1:]) <= 1e-13


def curve_immersion(geom):
    zz = geom.zmesh()
    curve = np.stack([zz, 0.5 * zz**2], axis=-1)
    return sg.curve_to_immersion(geom, curve)


def test_pipeline_on_complex_curve():
    geom = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
    m = curve_immersion(geom)
    F, inv, _ = quiet_pipeline(m, margin=8)
    assert np.max(np.abs(inv.h)) < 1e-8
    assert np.max(np.abs(inv.t - inv.t[0, 0])) < 1e-8


def test_pipeline_recovers_family_invariants():
    geom = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
    params = sg.ConstantFamilyParams(p=1.0)
    m = sg.closed_form_immersion(params, geom)
    F, inv, _ = quiet_pipeline(m, margin=8)
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
    _, inv, report = sg.reduction_pipeline(m)
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
    _, inv1, _ = quiet_pipeline(m, margin=8)
    _, inv2, _ = quiet_pipeline(moved, margin=8)
    assert np.max(np.abs(inv2.t**2 - inv1.t**2)) < 1e-7
    assert np.max(np.abs(inv2.h - inv1.h)) < 1e-7
    assert np.max(np.abs(inv2.p - inv1.p)) < 1e-7


def test_pipeline_rejects_non_lagrangian():
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.05, 0.05)
    xx, yy = geom.mesh()
    f = np.stack([xx, yy, np.zeros_like(xx), xx], axis=-1)  # Omega(f_x, f_y) = -1
    with pytest.raises(NotLagrangian):
        sg.reduction_pipeline(sg.ImmersionGrid(geom, f))


def test_congruence_defect_cases():
    geom = sg.GridGeometry(61, 61, -0.15, -0.15, 0.005, 0.005)
    m1 = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), geom)
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=size) * 0.3 for size in ((2, 2), 3, 3))
    g = affine_motion(rng.normal(size=4) * 0.5, a, b, c)
    moved = sg.ImmersionGrid(geom, g[1:, 0] + np.einsum("ij,...j->...i", g[1:, 1:], m1.f))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert sg.congruence_defect(m1, moved, margin=8) < 1e-8
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
        assert mat[i, j] == d  # bit-equal: same reductions, same motion
    assert np.all(mat[~np.eye(4, dtype=bool)] > 1e-3)


def test_congruence_matrix_does_not_reduce_a_lone_member():
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.05, 0.05)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, np.stack([xx, yy, np.zeros_like(xx), xx], axis=-1))
    with pytest.raises(NotLagrangian):  # what reducing it would raise
        sg.reduction_pipeline(m)
    assert np.array_equal(sg.congruence_matrix([m]), [[0.0]])


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


def _index_out_of_range(lines):
    lines[1 + 0 * 7 + 4] = "7" + lines[1 + 0 * 7 + 4][1:]  # node (0, 4) renamed (7, 4)


def _nan_frame_entry(lines):
    lines[1 + 2 * 7 + 5] = lines[1 + 2 * 7 + 5].rsplit(",", 1)[0] + ",nan\r\n"  # s44 of (2, 5)


@pytest.mark.parametrize("edit, message", [
    (_duplicate_row, r"duplicate node \(0, 1\)"),
    (_index_out_of_range, r"names node \(7\.0, 4\.0\), not a node of the 7x7 grid"),
    (_nan_frame_entry, r"row 20 \(node \(2, 5\)\) holds a non-finite value"),
])
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
    with pytest.raises(ValueError, match=message):
        sg.load_immersion(path)


@pytest.mark.parametrize("grad_phi, message", [
    # a Lagrangian plane: the frame is constant, so omega = 0 is no coframe
    (lambda x, y: (0 * x, 0 * y), "not a coframe"),
    # cubic graphs: omega is a coframe, but the trace of gamma has |l| >= 1
    (lambda x, y: (3 * x**2, 3 * y**2), r"\|l\| >= 1"),
    (lambda x, y: (2 * x * y, x**2), r"\|l\| >= 1"),
], ids=["plane", "x3+y3", "x2y"])
def test_pipeline_rejects_non_elliptic(grad_phi, message):
    # the Lagrangian graph f = (x, y, phi_x, phi_y)
    geom = sg.GridGeometry(41, 41, 0.1, 0.1, 0.01, 0.01)
    xx, yy = geom.mesh()
    f = np.stack([xx, yy, *grad_phi(xx, yy)], axis=-1)
    with pytest.raises(NotElliptic, match=message):
        sg.reduction_pipeline(sg.ImmersionGrid(geom, f))


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
        sg.reduction_pipeline(sg.ImmersionGrid(geom, f))


def test_pipeline_checks_margin_before_any_stage():
    # a non-Lagrangian input: the margin check must come before the Lagrangian test
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.05, 0.05)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, np.stack([xx, yy, np.zeros_like(xx), xx], axis=-1))
    for margin in (-1, 9, 2.5):
        with pytest.raises(ValueError, match="margin"):
            sg.reduction_pipeline(m, margin=margin)


@pytest.mark.parametrize("kind", ["family", "umbilic"])
def test_decode_recovers_theta_encoding(kind):
    if kind == "family":
        inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0, a1=0.2, m2=0.1), GEOM, 0.5)
    else:
        zz = GEOM.zmesh()
        inv = sg.InvariantTriple(GEOM, 2.0 + 0.3 * zz, 0.0, 0.5 * zz)
    theta = sg.theta_from_invariants(inv)
    x, y = _decode(theta.A), _decode(theta.B)
    t, h, p = inv.t, inv.h, inv.p
    habs2 = np.abs(h) ** 2
    # the derivative terms of h sit in the trace of beta, which rho does not read
    for got, want in ((x.omega, 1.0), (y.omega, 1j), (x.gamma_trace, 0.0),
                      (y.gamma_trace, 0.0), (x.w, 0.0), (y.w, 0.0),
                      (x.eta, h), (y.eta, 1j * h), (x.tau, t), (y.tau, 1j * t),
                      (x.rho, p + habs2), (y.rho, 1j * (p - habs2))):
        assert np.max(np.abs(got - want)) < 1e-12

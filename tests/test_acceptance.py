"""End-to-end acceptance checks.

Each test covers one headline capability of the toolkit and prints a single
pass/fail line with the measured value, so the whole battery reads as a
ten-line scoreboard under `pytest -v -s`.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import symplag as sg
from symplag.frames import FrameField, extract_invariants


FINE = sg.GridGeometry(61, 61, 0.0, 0.0, 0.005, 0.005)


def _report(name, value, tol, ok=None):
    ok = (value <= tol) if ok is None else ok
    print(f"[{'pass' if ok else 'FAIL'}] {name}: {value:.3e} (tol {tol:.1e})")
    assert ok


def _max_abs(values):
    return float(np.max(np.abs(values)))


def quiet(fn, *a, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*a, **kw)


def _integrated_vs_closed_form(geom):
    params = sg.ConstantFamilyParams(p=0.0)
    inv = sg.family_triple(params, geom)
    F = quiet(sg.integrate_frame, sg.theta_from_invariants(inv),
              compute_path_defect=False)
    m = sg.immersion_from_frame(F)
    fc = sg.closed_form_immersion(params, geom)
    diff = m.f - fc.f
    diff = diff - diff[0, 0]  # one fitted additive constant
    return F, float(np.max(np.abs(diff)))


def test_criterion_01_closed_form_reconstruction():
    start = time.perf_counter()
    geom = sg.GridGeometry(101, 101, 0.0, 0.0, 0.01, 0.01)
    _, err = _integrated_vs_closed_form(geom)
    half = sg.GridGeometry(201, 201, 0.0, 0.0, 0.005, 0.005)
    _, err2 = _integrated_vs_closed_form(half)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-6 and err / err2 >= 12.0 and elapsed <= 10.0
    print(f"[{'pass' if ok else 'FAIL'}] criterion 1 reconstruction: "
          f"sup {err:.3e} (tol 1e-06), halving ratio {err / err2:.1f} (>= 12), "
          f"{elapsed:.2f}s (<= 10s)")
    assert ok


def test_criterion_02_group_fidelity():
    geom = sg.GridGeometry(101, 101, 0.0, 0.0, 0.01, 0.01)
    F, _ = _integrated_vs_closed_form(geom)
    sdef = F.max_symplectic_defect()
    A, B = sg.constant_ab(0.0)
    rng = np.random.default_rng(11)
    col_err = 0.0
    for _ in range(5):
        x, y = rng.uniform(0.0, 1.0, size=2)
        E = expm(x * A + y * B)
        X1, X2 = sg.frame_columns(0.0, x, y)
        col_err = max(col_err, float(np.max(np.abs(E[:, 0] - X1))),
                      float(np.max(np.abs(E[:, 1] - X2))))
    ok = sdef <= 1e-8 and col_err <= 1e-10
    print(f"[{'pass' if ok else 'FAIL'}] criterion 2 group fidelity: "
          f"symplectic defect {sdef:.3e} (tol 1e-08), "
          f"frame columns {col_err:.3e} (tol 1e-10)")
    assert ok


def test_criterion_03_lagrangian_property():
    worst = 0.0
    for p in (0.0, 1.0, 3.0):
        m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=p), FINE)
        worst = max(worst, float(np.max(sg.lagrangian_defect(m))))
    zz = FINE.zmesh()
    curve = np.stack([zz, 0.5 * zz**2], axis=-1)
    mc = sg.curve_to_immersion(FINE, curve)
    worst = max(worst, float(np.max(sg.lagrangian_defect(mc))))
    _report("criterion 3 lagrangian defect", worst, 1e-8)


def _umbilic_triple(geom):
    zz = geom.zmesh()
    return sg.InvariantTriple(geom, 2.0 + 0.3 * zz, 0.0, 0.5 * zz)


def test_criterion_04_integrability_suite():
    worst = 0.0
    for p in (0.0, 1.0, 3.0):
        inv = sg.family_triple(sg.ConstantFamilyParams(p=p), FINE)
        worst = max(worst, *(_max_abs(r) for r in sg.inteq_residual(inv)))
    worst = max(worst, *(_max_abs(r)
                         for r in sg.inteq_residual(_umbilic_triple(FINE))))
    viol = sg.InvariantTriple(FINE, 1.0, 1.0, 0.0)
    r1, _, _ = sg.inteq_residual(viol)
    flagged = _max_abs(r1 + 1.0)
    ok = worst <= 1e-8 and flagged <= 1e-12
    print(f"[{'pass' if ok else 'FAIL'}] criterion 4 integrability: "
          f"residual {worst:.3e} (tol 1e-08), violation r1+1 {flagged:.1e}")
    assert ok


def _roundtrip_error(inv):
    F = quiet(sg.integrate_frame, sg.theta_from_invariants(inv),
              compute_path_defect=False)
    out, _ = extract_invariants(F)
    # the adapted frame is defined up to a global sign that flips t
    et = min(_max_abs(out.t - inv.t), _max_abs(out.t + inv.t))
    return max(et, _max_abs(out.h - inv.h), _max_abs(out.p - inv.p))


def test_criterion_05_invariant_roundtrip():
    err = _roundtrip_error(sg.family_triple(sg.ConstantFamilyParams(p=1.0), FINE))
    err = max(err, _roundtrip_error(_umbilic_triple(FINE)))
    _report("criterion 5 roundtrip", err, 1e-6)


def test_criterion_06_applicability_family():
    base = sg.family_triple(sg.ConstantFamilyParams(p=1.0), FINE)
    members, inteq = [], 0.0
    for lam in (-1.0, 0.0, 1.0):
        inv = sg.shift_family(base, lam)
        assert np.array_equal(inv.t**2, base.t**2)
        inteq = max(inteq, *(_max_abs(r) for r in sg.inteq_residual(inv)))
        F = quiet(sg.integrate_frame, sg.theta_from_invariants(inv),
                  compute_path_defect=False)
        members.append(sg.immersion_from_frame(F))
    sep = min(quiet(sg.congruence_defect, members[i], members[j], margin=8)
              for i in range(3) for j in range(i + 1, 3))
    # a random affine symplectic motion: expm of an affine-algebra matrix
    rng = np.random.default_rng(3)
    a, b, c = (rng.normal(size=size) * 0.3 for size in ((2, 2), 3, 3))
    M = np.zeros((5, 5))
    M[1:3, 1:3] = a
    M[1:3, 3:5] = [[b[0], b[1]], [b[1], b[2]]]
    M[3:5, 1:3] = [[c[0], c[1]], [c[1], c[2]]]
    M[3:5, 3:5] = -a.T
    M[1:, 0] = rng.normal(size=4) * 0.5
    g = expm(M)
    m = members[1]
    moved = sg.ImmersionGrid(m.geometry,
                             g[1:, 0] + np.einsum("ij,...j->...i", g[1:, 1:], m.f))
    gdef = quiet(sg.congruence_defect, m, moved, margin=8)
    ok = inteq <= 1e-8 and sep > 1e-2 and gdef <= 1e-8
    print(f"[{'pass' if ok else 'FAIL'}] criterion 6 family: "
          f"inteq {inteq:.3e} (tol 1e-08), pairwise separation {sep:.3e} "
          f"(> 1e-02), moved-copy defect {gdef:.3e} (tol 1e-08)")
    assert ok


def test_criterion_07_fubini_identity():
    geom = sg.GridGeometry(61, 61, 0.0, 0.0, 0.002, 0.002)
    worst = 0.0
    for p in (0.0, 1.0, 3.0):
        inv = sg.family_triple(sg.ConstantFamilyParams(p=p), geom)
        assert max(_max_abs(r) for r in sg.inteq_residual(inv)) <= 1e-8
        worst = max(worst, _max_abs(sg.dbar_fubini_residual(inv)))
    umb = _umbilic_triple(geom)
    assert max(_max_abs(r) for r in sg.inteq_residual(umb)) <= 1e-8
    worst = max(worst, _max_abs(sg.dbar_fubini_residual(umb)))
    _report("criterion 7 fubini identity", worst, 1e-8)


def test_criterion_08_genericity_logic():
    from symplag.errors import UmbilicPoint
    # degenerate cases: P2 vanishes identically
    geom_off = sg.GridGeometry(41, 41, 0.1, 0.1, 0.005, 0.005)
    z_off = geom_off.zmesh()
    p2_degen = max(_max_abs(sg.genericity_ops(2.0, FINE)[2]),
                   _max_abs(sg.genericity_ops(np.exp(z_off + np.conj(z_off)), geom_off)[2]))
    # operator accuracy against symbolic differentiation of h = 1 + x^2
    op_errs = []
    for n, d in ((41, 0.01), (81, 0.005)):
        geom = sg.GridGeometry(n, n, 0.1, 0.1, d, d)
        xx, _ = geom.mesh()
        hv = 1.0 + xx**2
        d2, d3, p2, d4 = sg.genericity_ops(hv, geom)
        want_d3 = 2.0 * xx * (1j - 1.0)
        want_d4 = -2j * (1.0 + 2.0 * xx**2 / hv)
        op_errs.append(max(_max_abs(d2), _max_abs(d3 - want_d3),
                           _max_abs(p2), _max_abs(d4 - want_d4)))
    # s/p recovery round trip on h = exp(i x^2), where P2 = -i everywhere
    n, d = 81, 0.005
    geom = sg.GridGeometry(n, n, -(n - 1) * d / 2, -(n - 1) * d / 2, d, d)
    xx, _ = geom.mesh()
    s, p = sg.recover_p(np.exp(1j * xx**2), geom)
    e = np.exp(2j * xx**2)
    s_want = np.real(((-10 - 16j) * xx**2 * e + (-10 + 16j) * xx**2
                      + (-4 + 3j) * e - 4 - 3j) * np.exp(-1j * xx**2) / 4.0)
    p_want = ((-2 - 4j) * xx**2 * e + (-3 + 4j) * xx**2
              + (-1 + 0.5j) * e - 1 - 1j)
    sl = slice(10, -10)  # one-sided stencils pollute a boundary band
    rt = max(float(np.max(np.abs(s - s_want)[sl, sl])),
             float(np.max(np.abs(p - p_want)[sl, sl])))
    ok = p2_degen <= 1e-8 and max(op_errs) <= 1e-6 and rt <= 1e-6
    print(f"[{'pass' if ok else 'FAIL'}] criterion 8 genericity: "
          f"degenerate P2 {p2_degen:.3e} (tol 1e-08), operator oracle "
          f"{max(op_errs):.3e} (tol 1e-06), recovery roundtrip {rt:.3e} "
          f"(tol 1e-06)")
    assert ok


def test_criterion_09_umbilic_correspondence():
    geom = sg.GridGeometry(81, 81, -0.2, -0.2, 0.005, 0.005)
    zz = geom.zmesh()
    curve = np.stack([zz, 0.5 * zz**2], axis=-1)
    m = sg.curve_to_immersion(geom, curve)
    _, inv, _ = quiet(sg.reduction_pipeline, m, margin=8)
    h_err = _max_abs(inv.h)
    flex = float(np.max(np.abs(sg.flex_defect(geom, curve) - 1.0)))
    # lambda-family from p = 0: pairwise distinct surfaces, shared Fubini data
    small = sg.GridGeometry(61, 61, -0.3, -0.3, 0.01, 0.01)
    members, fubinis = [], []
    for lam in (-1.0, 0.0, 1.0):
        spec = sg.UmbilicCurveSpec(small, 0.0, lam)
        members.append(quiet(sg.umbilic_immersion, spec))
        tri = sg.InvariantTriple(small, 2.0, 0.0, -lam)
        fubinis.append(sg.form_coefficients(tri).fubini)
    assert np.array_equal(fubinis[0], fubinis[1])
    assert np.array_equal(fubinis[1], fubinis[2])
    sep = min(quiet(sg.congruence_defect, members[i], members[j], margin=8)
              for i in range(3) for j in range(i + 1, 3))
    ok = h_err <= 1e-8 and flex <= 1e-10 and sep > 1e-2
    print(f"[{'pass' if ok else 'FAIL'}] criterion 9 umbilic: "
          f"pipeline h {h_err:.3e} (tol 1e-08), flex defect {flex:.3e} "
          f"(tol 1e-10), family separation {sep:.3e} (> 1e-02)")
    assert ok


def test_criterion_10_path_independence():
    cases = [sg.family_triple(sg.ConstantFamilyParams(p=0.0), FINE),
             _umbilic_triple(FINE)]
    worst_flat, worst_path = 0.0, 0.0
    for inv in cases:
        F = quiet(sg.integrate_frame, sg.theta_from_invariants(inv))
        worst_flat = max(worst_flat, F.flatness_report)
        worst_path = max(worst_path, F.path_defect)
    ok = worst_flat <= 1e-8 and worst_path <= 1e-6
    print(f"[{'pass' if ok else 'FAIL'}] criterion 10 path independence: "
          f"flatness {worst_flat:.3e} (tol 1e-08), transposed-sweep defect "
          f"{worst_path:.3e} (tol 1e-06)")
    assert ok

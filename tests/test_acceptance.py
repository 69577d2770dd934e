"""End-to-end acceptance checks.

Each test covers one headline capability of the toolkit and prints a single
pass/fail line with the measured value, so the whole battery reads as a
nine-line scoreboard under `pytest -v -s`.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import symplag as sg

from closed_forms import constant_ab, frame_columns


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
    sdef = F.symplectic_defect
    A, B = constant_ab(0.0)
    rng = np.random.default_rng(11)
    col_err = 0.0
    for _ in range(5):
        x, y = rng.uniform(0.0, 1.0, size=2)
        E = expm(x * A + y * B)
        X1, X2 = frame_columns(0.0, x, y)
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


def _roundtrip_error(inv, margin=8):
    F = quiet(sg.integrate_frame, sg.theta_from_invariants(inv),
              compute_path_defect=False)
    out, _ = sg.invariants_from_immersion(sg.immersion_from_frame(F), margin=margin)
    t, h, p = (v[margin:-margin, margin:-margin] for v in (inv.t, inv.h, inv.p))
    # the adapted frame is defined up to a global sign that flips t
    et = min(_max_abs(out.t - t), _max_abs(out.t + t))
    return max(et, _max_abs(out.h - h), _max_abs(out.p - p))


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


def test_criterion_09_umbilic_correspondence():
    geom = sg.GridGeometry(81, 81, -0.2, -0.2, 0.005, 0.005)
    zz = geom.zmesh()
    curve = np.stack([zz, 0.5 * zz**2], axis=-1)
    m = sg.curve_to_immersion(geom, curve)
    inv, _ = sg.invariants_from_immersion(m, margin=8)
    h_err = _max_abs(inv.h)
    flex = float(np.max(np.abs(sg.flex_defect(geom, curve) - 1.0)))
    # lambda-family from p = 0: pairwise distinct surfaces, shared Fubini data
    small = sg.GridGeometry(61, 61, -0.3, -0.3, 0.01, 0.01)
    members, fubinis = [], []
    for lam in (-1.0, 0.0, 1.0):
        spec = sg.UmbilicCurveSpec(small, 0.0, lam)
        members.append(quiet(sg.umbilic_immersion, spec))
        tri = sg.InvariantTriple(small, 2.0, 0.0, -lam)
        fubinis.append(tri.t**2)
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
    # flatness makes the frame integral path-independent; the step-doubling
    # estimate bounds the RK4 error of the one path swept
    cases = [sg.family_triple(sg.ConstantFamilyParams(p=0.0), FINE),
             _umbilic_triple(FINE)]
    frames = [quiet(sg.integrate_frame, sg.theta_from_invariants(inv)) for inv in cases]
    worst_flat = max(F.flatness_report for F in frames)
    worst_est = np.max([F.error_estimate for F in frames])  # a NaN fails
    ok = worst_flat <= 1e-8 and worst_est <= 1e-6
    print(f"[{'pass' if ok else 'FAIL'}] criterion 10 path independence: "
          f"flatness {worst_flat:.3e} (tol 1e-08), step-doubling error estimate "
          f"{worst_est:.3e} (tol 1e-06)")
    assert ok

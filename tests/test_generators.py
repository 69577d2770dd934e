import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import symplag as sg
from symplag.errors import IntegrationBlowup, NotHolomorphic, ParameterDomain
from symplag.grids import diff4


def test_constant_ab_commute():
    for p in (-1.0, 0.0, 1.0, 3.0):
        A, B = sg.constant_ab(p)
        assert np.max(np.abs(A @ B - B @ A)) < 1e-12


def test_parameter_domain_gate():
    with pytest.raises(ParameterDomain):
        sg.ConstantFamilyParams(p=2.0)
    with pytest.raises(ParameterDomain):
        sg.frame_columns(-2.0, 0.0, 0.0)


def test_separated_t_solves_its_equation():
    geom = sg.GridGeometry(41, 41, 0.0, 0.0, 0.005, 0.005)
    xx, yy = geom.mesh()
    for params in (sg.ConstantFamilyParams(p=0.0),
                   sg.ConstantFamilyParams(p=1.0, c1=0.5, c2=2.0, m1=0.3, m2=-0.2)):
        t = sg.separated_t(params, xx, yy)
        t1, t2 = t.real, t.imag
        r1 = diff4(t1, geom.dx, 0) - diff4(t2, geom.dy, 1) - 2.0 * t1
        r2 = diff4(t2, geom.dx, 0) + diff4(t1, geom.dy, 1) + 2.0 * t2
        assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-8


def test_frame_columns_match_exponential():
    rng = np.random.default_rng(4)
    for p in (0.0, 1.0, 3.0, -1.5):
        A, B = sg.constant_ab(p)
        for _ in range(3):
            x, y = rng.uniform(-0.5, 0.5, size=2)
            E = expm(x * A + y * B)
            X1, X2 = sg.frame_columns(p, x, y)
            assert np.max(np.abs(X1 - E[:, 0])) < 1e-12
            assert np.max(np.abs(X2 - E[:, 1])) < 1e-12


@pytest.mark.parametrize("p", [1.0, -2.5, 3.0])
def test_closed_form_immersion_matches_integration(p):
    params = sg.ConstantFamilyParams(p=p)
    geom = sg.GridGeometry(61, 61, 0.0, 0.0, 0.005, 0.005)
    inv = sg.family_triple(params, geom)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = sg.integrate_frame(sg.theta_from_invariants(inv), compute_path_defect=False)
    m = sg.immersion_from_frame(F)
    fc = sg.closed_form_immersion(params, geom)
    diff = m.f - fc.f
    diff = diff - diff[0, 0]  # frames agree up to one translation
    assert np.max(np.abs(diff)) < 1e-8


def test_closed_form_requires_pure_exponential():
    with pytest.raises(ParameterDomain):
        sg.closed_form_immersion(
            sg.ConstantFamilyParams(p=0.0, a1=0.5),
            sg.GridGeometry(11, 11, 0.0, 0.0, 0.1, 0.1))


def test_family_triple_constant_h_p():
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.01, 0.01)
    inv = sg.family_triple(sg.ConstantFamilyParams(p=3.0), geom, lam=0.5)
    assert np.all(inv.h == 1.0)
    assert np.all(inv.p == 2.5)


def test_family_triple_with_vanishing_t_raises():
    # c1 = c2 = 0, with no offsets, makes the separated ansatz t identically zero
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.01, 0.01)
    with pytest.raises(ValueError, match="t must be never zero"):
        sg.family_triple(sg.ConstantFamilyParams(p=0, c1=0, c2=0), geom)


def umbilic_setup(fn, n=41, d=0.01, lam=0.0):
    geom = sg.GridGeometry(n, n, -(n - 1) * d / 2, -(n - 1) * d / 2, d, d)
    return geom, sg.UmbilicCurveSpec(geom, fn(geom.zmesh()), lam)


@pytest.mark.parametrize("bad, message", [(np.zeros((41, 40)), "p has shape"),
                                          (np.nan, "p must be finite")])
def test_umbilic_spec_rejects_bad_datum(bad, message):
    geom = sg.GridGeometry(41, 41, -0.2, -0.2, 0.01, 0.01)
    with pytest.raises(ValueError, match=message):
        sg.UmbilicCurveSpec(geom, bad)


def test_umbilic_curve_unit_determinant():
    geom, spec = umbilic_setup(lambda z: z)
    _, frame = sg.umbilic_curve(spec)
    assert np.max(np.abs(np.linalg.det(frame) - 1.0)) < 1e-10


def test_umbilic_curve_rejects_antiholomorphic_datum():
    geom, spec = umbilic_setup(np.conj)
    with pytest.raises(NotHolomorphic):
        sg.umbilic_curve(spec)


def test_umbilic_curve_blowup_guard():
    # the frame grows like e^{1000 |z|}; unguarded, the sweep returns curve
    # values near 3.7e185
    geom, spec = umbilic_setup(lambda z: 1e6 + 0 * z, n=61, d=0.005)
    with pytest.raises(IntegrationBlowup, match="sweep step 7"):
        sg.umbilic_curve(spec)


def test_umbilic_immersion_is_lagrangian():
    geom, spec = umbilic_setup(lambda z: z * z, lam=0.3)
    m = sg.umbilic_immersion(spec)
    assert np.max(sg.lagrangian_defect(m)) < 1e-8


def test_umbilic_invariant_roundtrip():
    geom, spec = umbilic_setup(lambda z: z, n=61, d=0.01)
    m = sg.umbilic_immersion(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, inv, _ = sg.reduction_pipeline(m, margin=8)
    zz = inv.geometry.zmesh()
    assert np.max(np.abs(inv.h)) < 1e-8
    assert np.max(np.abs(inv.p - zz)) < 1e-6


def test_flex_defect_on_exact_curve():
    geom = sg.GridGeometry(41, 41, -0.2, -0.2, 0.01, 0.01)
    zz = geom.zmesh()
    curve = np.stack([zz, 0.5 * zz**2], axis=-1)
    fd = sg.flex_defect(geom, curve)
    assert np.max(np.abs(fd - 1.0)) < 1e-10
    # a flexed curve: (z, z^3/6) has f_z wedge f_zz = z -> 0 at the origin
    curve2 = np.stack([zz, zz**3 / 6.0], axis=-1)
    fd2 = sg.flex_defect(geom, curve2)
    assert np.max(np.abs(fd2 - np.abs(zz))) < 1e-10

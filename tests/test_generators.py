import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

import symplag as sg
from symplag.errors import IntegrationBlowup, NotHolomorphic, ParameterDomain
from symplag.generators import _closed_form_at
from symplag.grids import diff4

from closed_forms import constant_ab, frame_columns


def test_constant_ab_commute():
    for p in (-1.0, 0.0, 1.0, 3.0):
        A, B = constant_ab(p)
        assert np.max(np.abs(A @ B - B @ A)) < 1e-12


def test_parameter_domain_gate():
    with pytest.raises(ParameterDomain):
        sg.ConstantFamilyParams(p=2.0)
    with pytest.raises(ParameterDomain):
        frame_columns(-2.0, 0.0, 0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "0.5"])
@pytest.mark.parametrize("name", ["p", "c1", "c2", "m1", "m2"])
def test_family_params_refuse_what_is_no_finite_number(name, value):
    # refused where it is given, not later as a non-finite t or immersion
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        sg.ConstantFamilyParams(**{"p": 0.5, name: value})


def test_lam_is_a_finite_number_where_the_family_moves():
    geom = sg.GridGeometry(41, 41, -0.2, -0.2, 0.01, 0.01)
    inv = sg.family_triple(sg.ConstantFamilyParams(p=0.5), geom)
    for lam in (float("nan"), float("inf"), True, "0.5"):
        with pytest.raises(ValueError, match="^lam must be a finite number"):
            sg.UmbilicCurveSpec(geom, 0.0, lam)
        with pytest.raises(ValueError, match="^lam must be a finite number"):
            sg.shift_family(inv, lam)


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
        A, B = constant_ab(p)
        for _ in range(3):
            x, y = rng.uniform(-0.5, 0.5, size=2)
            E = expm(x * A + y * B)
            X1, X2 = frame_columns(p, x, y)
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


signed = lambda lo, hi: st.floats(lo, hi) | st.floats(-hi, -lo)
# p anywhere, or within 1e-6 of a pole +-2 (ConstantFamilyParams refuses 1e-12)
poles = st.builds(lambda pole, d: pole + d, st.sampled_from([-2.0, 2.0]), signed(2e-12, 1e-6))


@settings(max_examples=300)
@given(st.floats(-50.0, 50.0) | poles, signed(0.0, 100.0), signed(0.0, 100.0),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(1e-3, 0.5))
def test_closed_form_imaginary_part_is_exactly_zero(p, c1, c2, x0, y0, d):
    # every factor is real or purely imaginary, so no rounding reaches the
    # imaginary part: closed_form_immersion drops it without a check
    assume(min(abs(p - 2.0), abs(p + 2.0)) > 1e-12)
    xx, yy = sg.GridGeometry(6, 6, x0, y0, d, d).mesh()
    f = _closed_form_at(sg.ConstantFamilyParams(p=p, c1=c1, c2=c2), xx, yy)
    finite = np.isfinite(f.real)
    assert np.all(f.imag[finite] == 0.0)


@pytest.mark.parametrize("n", [61, 121, 241])
def test_closed_form_on_its_axes_is_byte_identical_to_the_mesh(n):
    # every factor depends on one coordinate only, so the broadcast products are
    # the mesh's per-element operations; f holds no view of a complex buffer
    geom = sg.GridGeometry(n, n, -0.1, 0.05, 0.3 / (n - 1), 0.3 / (n - 1))
    for params in (sg.ConstantFamilyParams(p=1.0), sg.ConstantFamilyParams(p=-1.3, c1=0.5, c2=2.0),
                   sg.ConstantFamilyParams(p=3.2, c1=1.7, c2=0.6)):
        f = sg.closed_form_immersion(params, geom).f
        held = f if f.base is None else f.base
        assert f.flags.c_contiguous and held.dtype == float and held.nbytes == f.nbytes
        assert f.tobytes() == _closed_form_at(params, *geom.mesh()).real.tobytes()


def test_closed_form_requires_pure_exponential():
    with pytest.raises(ParameterDomain):
        sg.closed_form_immersion(
            sg.ConstantFamilyParams(p=0.0, m1=0.5),
            sg.GridGeometry(11, 11, 0.0, 0.0, 0.1, 0.1))


def test_family_triple_constant_h_p():
    geom = sg.GridGeometry(21, 21, 0.0, 0.0, 0.01, 0.01)
    inv = sg.shift_family(sg.family_triple(sg.ConstantFamilyParams(p=3.0), geom), 0.5)
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
                                          (np.nan, "p must be finite")],
                         ids=["wrong-shape", "nan"])
def test_umbilic_spec_rejects_bad_datum(bad, message):
    geom = sg.GridGeometry(41, 41, -0.2, -0.2, 0.01, 0.01)
    with pytest.raises(ValueError, match=message):
        sg.UmbilicCurveSpec(geom, bad)


def test_umbilic_curve_unit_determinant():
    geom, spec = umbilic_setup(lambda z: z)
    _, frame = sg.umbilic_curve(spec)
    assert np.max(np.abs(np.linalg.det(frame) - 1.0)) < 1e-10


def test_umbilic_frame_drift_is_judged_against_tol_frame():
    # |det X - 1|, the 2x2 frame's symplectic defect, is about 1e-13 here
    geom, spec = umbilic_setup(lambda z: z * z, lam=0.3)
    sg.umbilic_curve(spec)  # silent at the defaults: warnings are errors here
    with pytest.warns(UserWarning, match=r"^frame determinant drifted by \S+ > "
                                         r"tol_frame 1\.000e-16$"):
        sg.umbilic_curve(spec, sg.DEFAULT_TOLS.replace(tol_frame=1e-16))


def test_umbilic_curve_rejects_antiholomorphic_datum():
    geom, spec = umbilic_setup(np.conj)
    with pytest.raises(NotHolomorphic):
        sg.umbilic_curve(spec)


def test_umbilic_curve_blowup_guard():
    # the frame grows like e^{1000 |z|}; unguarded, the sweep returns curve
    # values near 3.7e185
    geom, spec = umbilic_setup(lambda z: 1e6 + 0 * z, n=61, d=0.005)
    with pytest.raises(IntegrationBlowup, match="at first-column sweep step 7$"):
        sg.umbilic_curve(spec)


def test_umbilic_immersion_is_lagrangian():
    geom, spec = umbilic_setup(lambda z: z * z, lam=0.3)
    m = sg.umbilic_immersion(spec)
    assert np.max(sg.lagrangian_defect(m)) < 1e-8


def test_umbilic_invariant_roundtrip():
    geom, spec = umbilic_setup(lambda z: z, n=61, d=0.01)
    m = sg.umbilic_immersion(spec)
    inv, _ = sg.invariants_from_immersion(m, margin=8)
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

import numpy as np
import pytest

import symplag as sg
from symplag.errors import NonRealH, NotClosed, NotGeneric, UmbilicPoint
from symplag.grids import cumquad, diff4


GEOM = sg.GridGeometry(41, 41, 0.0, 0.0, 0.005, 0.005)


def const_triple(t=1.0, h=0.0, p=0.0, geom=GEOM):
    return sg.InvariantTriple(geom, t, h, p)


def max_abs(values):
    return float(np.max(np.abs(values)))


def test_inteq_trivial_flat_case():
    r1, r2, r3 = sg.inteq_residual(const_triple(1.0, 0.0, 0.0))
    assert max(max_abs(r) for r in (r1, r2, r3)) < 1e-12


def test_inteq_violation_flagged():
    r1, _, _ = sg.inteq_residual(const_triple(1.0, 1.0, 0.0))
    assert np.max(np.abs(r1 + 1.0)) < 1e-12


def test_inteq_exponential_family():
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), GEOM)
    r1, r2, r3 = sg.inteq_residual(inv)
    assert max(max_abs(r) for r in (r1, r2, r3)) < 1e-8


def test_triple_requires_nonzero_t():
    with pytest.raises(ValueError):
        const_triple(0.0)


@pytest.mark.parametrize("name", ["t", "h", "p"])
def test_triple_rejects_non_finite(name):
    fields = {k: np.ones((41, 41), dtype=complex) for k in ("t", "h", "p")}
    fields[name][3, 4] = np.nan
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sg.InvariantTriple(GEOM, **fields)


@pytest.mark.parametrize("name", ["t", "h", "p"])
def test_triple_rejects_off_grid_shape(name):
    fields = {k: 1.0 for k in ("t", "h", "p")}
    fields[name] = np.ones((41, 40), dtype=complex)
    with pytest.raises(ValueError, match=f"{name} has shape"):
        sg.InvariantTriple(GEOM, **fields)


@pytest.mark.parametrize("call, name", [
    (lambda f: sg.diffeq_residual(1.0, f, 0.0, GEOM), "h"),
    (lambda f: sg.p1_from_p2(f, 1.0, GEOM), "p2"),
    (lambda f: sg.genericity_ops(f, GEOM), "h"),
    (lambda f: sg.recover_p(f, GEOM), "h"),
    (lambda f: sg.applicability_residual(1.0, f, GEOM), "w"),
])
def test_operators_reject_a_field_off_their_grid(call, name):
    # a field sampled on a coarser grid is refused, not differenced with GEOM's spacing
    with pytest.raises(ValueError, match=f"{name} has shape"):
        call(np.ones((21, 21), dtype=complex))


def test_triple_fields_are_read_only_grid_arrays():
    t = np.full((41, 41), 2.0 + 1.0j)
    inv = sg.InvariantTriple(GEOM, t, 0.5, 0)
    for v in (inv.t, inv.h, inv.p):
        assert v.shape == (41, 41) and v.dtype == complex and not v.flags.writeable
    assert np.all(inv.h == 0.5) and np.all(inv.p == 0.0)
    assert t.flags.writeable  # the caller's array is not frozen


def test_diffeq_constant_h():
    xx, yy = GEOM.mesh()
    t = sg.separated_t(sg.ConstantFamilyParams(p=0.0), xx, yy)
    r1, r2, r3 = sg.diffeq_residual(t, 1.0, 0.0, GEOM)
    assert max_abs(r1) < 1e-8
    assert np.max(np.abs(r2)) < 1e-12
    assert np.max(np.abs(r3)) < 1e-12


def test_diffeq_rejects_complex_h():
    with pytest.raises(NonRealH):
        sg.diffeq_residual(1.0, 1.0 + 0.5j, 0.0, GEOM)


def test_p1_from_p2_trivial_and_linear():
    assert np.max(np.abs(sg.p1_from_p2(0.0, 1.0, GEOM))) < 1e-12
    # h^2 = x: dp1 = 2 dx, so p1 = 2x - 2x0
    geom = sg.GridGeometry(41, 41, 1.0, 0.0, 0.005, 0.005)
    xx, _ = geom.mesh()
    p1 = sg.p1_from_p2(0.0, np.sqrt(xx), geom)
    assert np.max(np.abs(p1 - 2.0 * (xx - 1.0))) < 1e-6


def test_p1_from_p2_two_path_oracle():
    # closedness of the 1-form needs lap(p2) + 4(h^2)_xy = 0: harmonic p2, h const
    xx, yy = GEOM.mesh()
    p2 = xx**2 - yy**2 + 0.5 * xx * yy
    p1 = sg.p1_from_p2(p2, 1.0, GEOM)
    # independent path: rows first, then columns
    h2 = np.ones((41, 41))
    F = diff4(p2, GEOM.dy, 1) + 2.0 * diff4(h2, GEOM.dx, 0)
    G = -(diff4(p2, GEOM.dx, 0) + 2.0 * diff4(h2, GEOM.dy, 1))
    alt = cumquad(F[:, 0], GEOM.dx)[:, None] + cumquad(G, GEOM.dy, axis=1)
    assert np.max(np.abs(p1 - alt)) < 1e-6


def test_p1_from_p2_rejects_non_closed():
    xx, yy = GEOM.mesh()
    with pytest.raises(NotClosed):
        sg.p1_from_p2(xx * yy**2, np.exp(xx + yy), GEOM)


def test_form_coefficients_direct_values():
    fc = sg.form_coefficients(const_triple(2.0, 1.0, 0.0))
    assert np.max(np.abs(fc.fubini - 4.0)) < 1e-12
    assert np.max(np.abs(fc.hopf - 2.0 ** (2.0 / 3.0))) < 1e-12
    assert np.max(np.abs(fc.thomsen - 1.0)) < 1e-12
    assert np.max(np.abs(fc.nform - 4.0)) < 1e-12
    fc0 = sg.form_coefficients(const_triple(1.0, 0.0, 0.0))
    assert max_abs(fc0.hopf) < 1e-12 and max_abs(fc0.thomsen) < 1e-12


def test_dbar_fubini_zero_and_nonzero():
    geom = sg.GridGeometry(41, 41, 1.0, 1.0, 0.005, 0.005)
    zz = geom.zmesh()
    inv = sg.InvariantTriple(geom, 1.0 + 0.3 * zz, 0.0, 0.0)
    assert max_abs(sg.dbar_fubini_residual(inv)) < 1e-10
    # t = conj(z) on a grid away from the origin: residual = 2 conj(z)
    inv2 = sg.InvariantTriple(geom, np.conj(zz), 0.0, 0.0)
    want = 2.0 * np.conj(zz)
    assert np.max(np.abs(sg.dbar_fubini_residual(inv2) - want)) < 1e-9


def test_genericity_constant_h_all_zero():
    ops = sg.genericity_ops(2.5, GEOM)
    # composed one-sided stencils leave a rounding floor well above 1e-8
    assert max(max_abs(o) for o in ops) < 1e-6


def test_genericity_log_derivative_degeneracy():
    zz = GEOM.zmesh()
    _, _, p2, _ = sg.genericity_ops(np.exp(zz + np.conj(zz)), GEOM)
    assert max_abs(p2) < 1e-8


def test_genericity_umbilic_gate():
    xx, _ = GEOM.mesh()
    with pytest.raises(UmbilicPoint):
        sg.genericity_ops(xx, GEOM)  # vanishes on the first column


def _oracle_ops_one_plus_x2(xx, h):
    # closed forms from symbolic Wirtinger differentiation of h = 1 + x^2
    d2 = np.zeros_like(h, dtype=complex)
    d3 = 2.0 * xx * (1j - 1.0)
    p2 = np.zeros_like(h, dtype=complex)
    d4 = -2j * (1.0 + 2.0 * xx**2 / h)
    return d2, d3, p2, d4


def test_genericity_ops_match_symbolic_oracle():
    errs = []
    for n, d in ((41, 0.01), (81, 0.005)):
        geom = sg.GridGeometry(n, n, 0.1, 0.1, d, d)
        xx, _ = geom.mesh()
        hv = 1.0 + xx**2
        got = sg.genericity_ops(hv, geom)
        want = _oracle_ops_one_plus_x2(xx, hv)
        # no truncation error on this datum; composed stencils still leave
        # a rounding floor scaling like eps / spacing^4
        for g, w in zip((got[0], got[1], got[3]), (want[0], want[1], want[3])):
            assert np.max(np.abs(g - w)) < 1e-6
        errs.append(np.max(np.abs(got[2] - want[2])))
    # P2 vanishes identically for real h, so both runs sit at the rounding
    # floor (which grows as the spacing shrinks) rather than converging
    assert max(errs) < 1e-9


def test_is_generic_detects_degeneracies():
    inv = sg.family_triple(sg.ConstantFamilyParams(p=0.0), GEOM)  # h = 1
    assert not sg.is_generic(inv).any()
    umb = const_triple(1.0, 0.0, 0.0)
    assert not sg.is_generic(umb).any()


def _recover_oracles(xx):
    # frozen closed forms for h = exp(i x^2) from symbolic differentiation
    e = np.exp(2j * xx**2)
    s = ((-10 - 16j) * xx**2 * e + (-10 + 16j) * xx**2
         + (-4 + 3j) * e - 4 - 3j) * np.exp(-1j * xx**2) / 4.0
    p = ((-2 - 4j) * xx**2 * e + (-3 + 4j) * xx**2
         + (-1 + 0.5j) * e - 1 - 1j)
    return s, p


def test_recover_p_roundtrip_against_oracle():
    n, d = 81, 0.005
    geom = sg.GridGeometry(n, n, -(n - 1) * d / 2, -(n - 1) * d / 2, d, d)
    xx, _ = geom.mesh()
    h = np.exp(1j * xx**2)
    s, p = sg.recover_p(h, geom)
    s_want, p_want = _recover_oracles(xx)
    # one-sided stencil composition pollutes a boundary band; compare inside it
    sl = slice(10, -10)
    assert np.max(np.abs(s - s_want.real)[sl, sl]) < 1e-6
    assert np.max(np.abs(p - p_want)[sl, sl]) < 1e-6
    # s = -D4/P2 is real by construction: both operators are purely imaginary
    _, _, p2, d4 = sg.genericity_ops(h, geom)
    assert not (p2.real.any() or d4.real.any())


def test_recover_p_refuses_degenerate_h():
    xx, _ = GEOM.mesh()
    with pytest.raises(NotGeneric):
        sg.recover_p(1.0 + xx**2, GEOM)  # P2 == 0


def test_shift_family_preserves_residuals():
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), GEOM)
    shifted = sg.shift_family(inv, 0.7)
    assert shifted.geometry == inv.geometry
    assert np.array_equal(shifted.t, inv.t)
    assert np.array_equal(shifted.h, inv.h)
    r = sg.inteq_residual(inv)
    rs = sg.inteq_residual(shifted)
    for a, b in zip(r, rs):
        assert np.max(np.abs(a - b)) < 1e-10  # h real: all three stable
    ident = sg.shift_family(inv, 0.0)
    assert np.array_equal(ident.p, inv.p)


def test_applicability_residual_cases():
    assert np.max(sg.applicability_residual(1.0, 1.0, GEOM)) < 1e-12
    _, yy = GEOM.mesh()
    assert np.max(np.abs(sg.applicability_residual(1.0, GEOM.zmesh(), GEOM)
                         - np.abs(yy))) < 1e-10

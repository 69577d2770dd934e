import numpy as np
import pytest

import symplag as sg
from symplag.errors import NonRealH, NotClosed, NotGeneric, UmbilicPoint
from symplag.grids import cumquad, diff4


GEOM = sg.GridGeometry(41, 41, 0.0, 0.0, 0.005, 0.005)


def const_triple(t=1.0, h=0.0, p=0.0, geom=GEOM):
    return sg.InvariantTriple(
        sg.ComplexGrid.constant(geom, t),
        sg.ComplexGrid.constant(geom, h),
        sg.ComplexGrid.constant(geom, p),
    )


def test_inteq_trivial_flat_case():
    r1, r2, r3 = sg.inteq_residual(const_triple(1.0, 0.0, 0.0))
    assert max(r.max_abs() for r in (r1, r2, r3)) < 1e-12


def test_inteq_violation_flagged():
    r1, _, _ = sg.inteq_residual(const_triple(1.0, 1.0, 0.0))
    assert np.max(np.abs(r1.values + 1.0)) < 1e-12


def test_inteq_exponential_family():
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), GEOM)
    r1, r2, r3 = sg.inteq_residual(inv)
    assert max(r.max_abs() for r in (r1, r2, r3)) < 1e-8


def test_triple_requires_nonzero_t():
    with pytest.raises(ValueError):
        const_triple(0.0)


@pytest.mark.parametrize("name", ["t", "h", "p"])
def test_triple_rejects_non_finite(name):
    fields = {k: sg.ComplexGrid.constant(GEOM, 1.0) for k in ("t", "h", "p")}
    values = fields[name].values.copy()
    values[3, 4] = np.nan
    fields[name] = fields[name].with_values(values)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sg.InvariantTriple(**fields)


def test_triple_requires_shared_geometry():
    other = sg.GridGeometry(41, 41, 1.0, 0.0, 0.005, 0.005)
    with pytest.raises(ValueError):
        sg.InvariantTriple(
            sg.ComplexGrid.constant(GEOM, 1.0),
            sg.ComplexGrid.constant(other, 0.0),
            sg.ComplexGrid.constant(GEOM, 0.0),
        )


def test_diffeq_constant_h():
    xx, yy = GEOM.mesh()
    t = sg.ComplexGrid(GEOM, sg.separated_t(sg.ConstantFamilyParams(p=0.0), xx, yy))
    h = sg.ComplexGrid.constant(GEOM, 1.0)
    p2 = sg.ComplexGrid.constant(GEOM, 0.0)
    r1, r2, r3 = sg.diffeq_residual(t, h, p2)
    assert r1.max_abs() < 1e-8
    assert np.max(np.abs(r2)) < 1e-12
    assert np.max(np.abs(r3)) < 1e-12


def test_diffeq_rejects_complex_h():
    t = sg.ComplexGrid.constant(GEOM, 1.0)
    h = sg.ComplexGrid.constant(GEOM, 1.0 + 0.5j)
    with pytest.raises(NonRealH):
        sg.diffeq_residual(t, h, sg.ComplexGrid.constant(GEOM, 0.0))


def test_p1_from_p2_trivial_and_linear():
    h = sg.ComplexGrid.constant(GEOM, 1.0)
    p2 = sg.ComplexGrid.constant(GEOM, 0.0)
    assert np.max(np.abs(sg.p1_from_p2(p2, h))) < 1e-12
    # h^2 = x: dp1 = 2 dx, so p1 = 2x - 2x0
    xx, _ = GEOM.mesh()
    geom = sg.GridGeometry(41, 41, 1.0, 0.0, 0.005, 0.005)
    xx, _ = geom.mesh()
    h = sg.ComplexGrid(geom, np.sqrt(xx))
    p1 = sg.p1_from_p2(sg.ComplexGrid.constant(geom, 0.0), h)
    assert np.max(np.abs(p1 - 2.0 * (xx - 1.0))) < 1e-6


def test_p1_from_p2_two_path_oracle():
    # closedness of the 1-form needs lap(p2) + 4(h^2)_xy = 0: harmonic p2, h const
    xx, yy = GEOM.mesh()
    p2 = sg.ComplexGrid(GEOM, xx**2 - yy**2 + 0.5 * xx * yy)
    h = sg.ComplexGrid.constant(GEOM, 1.0)
    p1 = sg.p1_from_p2(p2, h)
    # independent path: rows first, then columns
    h2 = np.real(h.values) ** 2
    F = diff4(p2.values.real, GEOM.dy, 1) + 2.0 * diff4(h2, GEOM.dx, 0)
    G = -(diff4(p2.values.real, GEOM.dx, 0) + 2.0 * diff4(h2, GEOM.dy, 1))
    alt = cumquad(F[:, 0], GEOM.dx)[:, None] + cumquad(G, GEOM.dy, axis=1)
    assert np.max(np.abs(p1 - alt)) < 1e-6


def test_p1_from_p2_rejects_non_closed():
    xx, yy = GEOM.mesh()
    p2 = sg.ComplexGrid(GEOM, xx * yy**2)
    h = sg.ComplexGrid(GEOM, np.exp(xx + yy))
    with pytest.raises(NotClosed):
        sg.p1_from_p2(p2, h)


def test_form_coefficients_direct_values():
    fc = sg.form_coefficients(const_triple(2.0, 1.0, 0.0))
    assert np.max(np.abs(fc.fubini.values - 4.0)) < 1e-12
    assert np.max(np.abs(fc.hopf.values - 2.0 ** (2.0 / 3.0))) < 1e-12
    assert np.max(np.abs(fc.thomsen.values - 1.0)) < 1e-12
    assert np.max(np.abs(fc.nform.values - 4.0)) < 1e-12
    fc0 = sg.form_coefficients(const_triple(1.0, 0.0, 0.0))
    assert fc0.hopf.max_abs() < 1e-12 and fc0.thomsen.max_abs() < 1e-12


def test_dbar_fubini_zero_and_nonzero():
    geom = sg.GridGeometry(41, 41, 1.0, 1.0, 0.005, 0.005)
    t = sg.ComplexGrid.from_function(geom, lambda z: 1.0 + 0.3 * z)
    inv = sg.InvariantTriple(t, sg.ComplexGrid.constant(geom, 0.0),
                             sg.ComplexGrid.constant(geom, 0.0))
    assert sg.dbar_fubini_residual(inv).max_abs() < 1e-10
    # t = conj(z) on a grid away from the origin: residual = 2 conj(z)
    tbar = sg.ComplexGrid.from_function(geom, np.conj)
    inv2 = sg.InvariantTriple(tbar, sg.ComplexGrid.constant(geom, 0.0),
                              sg.ComplexGrid.constant(geom, 0.0))
    want = 2.0 * np.conj(geom.zmesh())
    assert np.max(np.abs(sg.dbar_fubini_residual(inv2).values - want)) < 1e-9


def test_genericity_constant_h_all_zero():
    h = sg.ComplexGrid.constant(GEOM, 2.5)
    ops = sg.genericity_ops(h)
    # composed one-sided stencils leave a rounding floor well above 1e-8
    assert max(o.max_abs() for o in ops) < 1e-6


def test_genericity_log_derivative_degeneracy():
    h = sg.ComplexGrid.from_function(GEOM, lambda z: np.exp(z + np.conj(z)))
    _, _, p2, _ = sg.genericity_ops(h)
    assert p2.max_abs() < 1e-8


def test_genericity_umbilic_gate():
    xx, _ = GEOM.mesh()
    h = sg.ComplexGrid(GEOM, xx + 0j)  # vanishes on the first column
    with pytest.raises(UmbilicPoint):
        sg.genericity_ops(h)


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
        got = sg.genericity_ops(sg.ComplexGrid(geom, hv))
        want = _oracle_ops_one_plus_x2(xx, hv)
        # no truncation error on this datum; composed stencils still leave
        # a rounding floor scaling like eps / spacing^4
        for g, w in zip((got[0], got[1], got[3]), (want[0], want[1], want[3])):
            assert np.max(np.abs(g.values - w)) < 1e-6
        errs.append(np.max(np.abs(got[2].values - want[2])))
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
    h = sg.ComplexGrid(geom, np.exp(1j * xx**2))
    s, p = sg.recover_p(h)
    s_want, p_want = _recover_oracles(xx)
    # one-sided stencil composition pollutes a boundary band; compare inside it
    sl = slice(10, -10)
    assert np.max(np.abs(s - s_want.real)[sl, sl]) < 1e-6
    assert np.max(np.abs(p.values - p_want)[sl, sl]) < 1e-6
    # s = -D4/P2 is real by construction: both operators are purely imaginary
    _, _, p2, d4 = sg.genericity_ops(h)
    assert not (p2.values.real.any() or d4.values.real.any())


def test_recover_p_refuses_degenerate_h():
    h = sg.ComplexGrid.from_function(GEOM, lambda z: 1.0 + z.real**2)  # P2 == 0
    with pytest.raises(NotGeneric):
        sg.recover_p(h)


def test_shift_family_preserves_residuals():
    inv = sg.family_triple(sg.ConstantFamilyParams(p=1.0), GEOM)
    shifted = sg.shift_family(inv, 0.7)
    assert np.array_equal(shifted.t.values, inv.t.values)
    assert np.array_equal(shifted.h.values, inv.h.values)
    r = sg.inteq_residual(inv)
    rs = sg.inteq_residual(shifted)
    for a, b in zip(r, rs):
        assert np.max(np.abs(a.values - b.values)) < 1e-10  # h real: all three stable
    ident = sg.shift_family(inv, 0.0)
    assert np.array_equal(ident.p.values, inv.p.values)


def test_applicability_residual_cases():
    h = sg.ComplexGrid.constant(GEOM, 1.0)
    w1 = sg.ComplexGrid.constant(GEOM, 1.0)
    assert np.max(sg.applicability_residual(h, w1)) < 1e-12
    wz = sg.ComplexGrid.from_function(GEOM, lambda z: z)
    _, yy = GEOM.mesh()
    assert np.max(np.abs(sg.applicability_residual(h, wz) - np.abs(yy))) < 1e-10
    other = sg.ComplexGrid.constant(sg.GridGeometry(41, 41, 1.0, 0.0, 0.005, 0.005), 1.0)
    with pytest.raises(ValueError):
        sg.applicability_residual(h, other)

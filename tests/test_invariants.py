import numpy as np
import pytest

import symplag as sg


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
    # the records of save_grid and save_immersion hold read-only arrays too
    f = np.zeros((41, 41, 4))
    records = [(sg.ComplexGrid(GEOM, t).values, t), (sg.ImmersionGrid(GEOM, f).f, f)]
    for held, given in records:
        assert np.array_equal(held, given) and not held.flags.writeable
        assert given.flags.writeable


def test_dbar_fubini_zero_and_nonzero():
    geom = sg.GridGeometry(41, 41, 1.0, 1.0, 0.005, 0.005)
    zz = geom.zmesh()
    inv = sg.InvariantTriple(geom, 1.0 + 0.3 * zz, 0.0, 0.0)
    assert max_abs(sg.dbar_fubini_residual(inv)) < 1e-10
    # t = conj(z) on a grid away from the origin: residual = 2 conj(z)
    inv2 = sg.InvariantTriple(geom, np.conj(zz), 0.0, 0.0)
    want = 2.0 * np.conj(zz)
    assert np.max(np.abs(sg.dbar_fubini_residual(inv2) - want)) < 1e-9


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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symplag as sg
from symplag.errors import GridTooSmall
from symplag.grids import cumquad, diff4, gradient


GEOM = sg.GridGeometry(21, 17, -0.5, 0.25, 0.05, 0.04)


def _diff4_pair(values, geom):
    return diff4(values, geom.dx, 0), diff4(values, geom.dy, 1)


def test_diff4_exact_on_quartics():
    xx, yy = GEOM.mesh()
    f = 2.0 + xx - 3.0 * xx**2 * yy**2 + 0.5 * xx**4 + yy**3
    fx = 1.0 - 6.0 * xx * yy**2 + 2.0 * xx**3
    fy = -6.0 * xx**2 * yy + 3.0 * yy**2
    # real, complex and per-node (5, 5) matrix values
    C = np.arange(25.0).reshape(5, 5) / 25.0 - 0.5
    cases = [(f, fx, fy), ((1.0 - 2.0j) * f, (1.0 - 2.0j) * fx, (1.0 - 2.0j) * fy),
             (f[..., None, None] * C, fx[..., None, None] * C, fy[..., None, None] * C)]
    for partials in (_diff4_pair, gradient):
        for values, want_x, want_y in cases:
            got_x, got_y = partials(values, GEOM)
            assert got_x.shape == got_y.shape == values.shape
            assert np.max(np.abs(got_x - want_x)) < 1e-10
            assert np.max(np.abs(got_y - want_y)) < 1e-10


def test_diff4_order_four_convergence():
    # analytic oracle: d/dx sin(x)cosh(y), d/dy sin(x)cosh(y)
    errs = []
    for n in (41, 81):
        geom = sg.GridGeometry(n, n, 0.0, 0.0, 1.0 / (n - 1), 1.0 / (n - 1))
        xx, yy = geom.mesh()
        f = np.sin(xx) * np.cosh(yy)
        ex = np.max(np.abs(diff4(f, geom.dx, 0) - np.cos(xx) * np.cosh(yy)))
        ey = np.max(np.abs(diff4(f, geom.dy, 1) - np.sin(xx) * np.sinh(yy)))
        errs.append(max(ex, ey))
    assert errs[0] / errs[1] > 12.0


def test_wirtinger_on_holomorphic_and_analytic_field():
    f = sg.ComplexGrid.from_function(GEOM, lambda z: z)
    assert np.max(np.abs(sg.d_z(f).values - 1.0)) < 1e-12
    assert np.max(np.abs(sg.d_zbar(f).values)) < 1e-12
    g = sg.ComplexGrid.constant(GEOM, 3.0 - 1j)
    assert sg.d_z(g).max_abs() < 1e-12
    xx, yy = GEOM.mesh()
    trig = sg.ComplexGrid(GEOM, np.sin(xx) * np.cosh(yy))
    want = 0.5 * (np.cos(xx) * np.cosh(yy) - 1j * np.sin(xx) * np.sinh(yy))
    assert np.max(np.abs(sg.d_z(trig).values - want)) < 1e-5


def test_diff4_needs_five_nodes():
    with pytest.raises(GridTooSmall):
        diff4(np.zeros((4, 8)), 0.1, 0)
    # each axis is checked: the values have four nodes along x, then along y
    for shape in ((4, 8), (8, 4)):
        with pytest.raises(GridTooSmall):
            gradient(np.zeros(shape), GEOM)


def test_cumquad_exact_on_cubics():
    x = GEOM.x
    f = 1.0 + 2.0 * x - x**2 + 0.25 * x**3
    F = x + x**2 - x**3 / 3.0 + x**4 / 16.0
    got = cumquad(f, GEOM.dx)
    assert np.max(np.abs(got - (F - F[0]))) < 1e-12


def test_cumquad_convergence():
    errs = []
    for n in (41, 81):
        x = np.linspace(0.0, 1.0, n)
        got = cumquad(np.exp(x), x[1] - x[0])
        errs.append(np.max(np.abs(got - (np.exp(x) - 1.0))))
    assert errs[0] / errs[1] > 12.0


def test_geometry_validation():
    with pytest.raises(GridTooSmall):
        sg.GridGeometry(4, 10, 0.0, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        sg.GridGeometry(10, 10, 0.0, 0.0, -0.1, 0.1)
    d = GEOM.as_dict()
    assert sg.GridGeometry.from_dict(d) == GEOM
    # integral sizes of another type are stored as int
    geom = sg.GridGeometry(np.int64(21), 17.0, -0.5, 0.25, 0.05, 0.04)
    assert geom == GEOM and type(geom.nx) is int and type(geom.ny) is int


@pytest.mark.parametrize("name", ["x0", "y0", "dx", "dy"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), None])
def test_geometry_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        sg.GridGeometry.from_dict(dict(GEOM.as_dict(), **{name: value}))


@pytest.mark.parametrize("name, value", [("nx", 61.7), ("ny", 7.5), ("nx", float("nan")),
                                         ("ny", float("inf")), ("nx", "61"), ("ny", None)])
def test_geometry_rejects_non_integral_size(name, value):
    d = dict(GEOM.as_dict(), **{name: value})
    for build in (sg.GridGeometry.from_dict, lambda d: sg.GridGeometry(**d)):
        with pytest.raises(ValueError, match=f"grid {name} must be an integer"):
            build(d)


def test_complexgrid_shape_check():
    with pytest.raises(ValueError):
        sg.ComplexGrid(GEOM, np.zeros((3, 3)))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    f = sg.ComplexGrid(GEOM, rng.normal(size=(21, 17)) + 1j * rng.normal(size=(21, 17)))
    path = tmp_path / "field.csv"
    sg.save_grid(f, path)
    g = sg.load_grid(path)
    assert g.geometry == GEOM
    assert np.array_equal(g.values, f.values)  # 17 significant digits round-trip


def test_load_grid_rejects_swapped_rows(tmp_path):
    f = sg.ComplexGrid(GEOM, np.arange(21 * 17).reshape(21, 17) * (1.0 + 0.5j))
    path = tmp_path / "field.csv"
    sg.save_grid(f, path)
    with open(path, newline="") as fh:
        lines = fh.readlines()
    lines[5], lines[6] = lines[6], lines[5]  # nodes (0, 4) and (0, 5)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    with pytest.raises(ValueError, match=r"row 5 .* is not node \(0, 4\)"):
        sg.load_grid(path)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_diff4_linearity(a, b):
    xx, yy = GEOM.mesh()
    f, g = np.sin(xx + yy), xx * np.exp(yy)
    lhs = diff4(a * f + b * g, GEOM.dx, 0)
    rhs = a * diff4(f, GEOM.dx, 0) + b * diff4(g, GEOM.dx, 0)
    assert np.max(np.abs(lhs - rhs)) < 1e-9

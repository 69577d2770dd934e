import os
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symplag as sg
from symplag import grids
from symplag.errors import GridTooSmall
from symplag.grids import _EDGE0, _EDGE1, diff4, gradient


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
    zz = GEOM.zmesh()
    assert np.max(np.abs(sg.d_z(zz, GEOM) - 1.0)) < 1e-12
    assert np.max(np.abs(sg.d_zbar(zz, GEOM))) < 1e-12
    assert np.max(np.abs(sg.d_z(np.full(zz.shape, 3.0 - 1j), GEOM))) < 1e-12
    xx, yy = GEOM.mesh()
    trig = np.sin(xx) * np.cosh(yy)
    want = 0.5 * (np.cos(xx) * np.cosh(yy) - 1j * np.sin(xx) * np.sinh(yy))
    assert np.max(np.abs(sg.d_z(trig, GEOM) - want)) < 1e-5


def test_wirtinger_on_stacked_components():
    zz = GEOM.zmesh()
    u = np.stack([np.exp(zz), zz * np.conj(zz)], axis=-1)
    for op in (sg.d_z, sg.d_zbar):
        stacked = op(u, GEOM)
        assert stacked.shape == u.shape
        for k in range(2):
            one = op(u[..., k], GEOM)
            assert np.max(np.abs(stacked[..., k] - one)) <= 1e-14 * np.max(np.abs(one))


def test_wirtinger_conjugation_identity():
    # d_z(conj u) = conj(d_zbar u), checked where u is far from holomorphic
    zz = GEOM.zmesh()
    u = np.exp(zz) + 0.3 * np.conj(zz) ** 2 + np.sin(zz.real) * zz.imag
    u_zbar = sg.d_zbar(u, GEOM)
    scale = np.max(np.abs(u_zbar))
    assert scale > 0.1
    assert np.max(np.abs(sg.d_z(np.conj(u), GEOM) - np.conj(u_zbar))) <= 1e-12 * scale


def test_diff4_needs_five_nodes():
    with pytest.raises(GridTooSmall):
        diff4(np.zeros((4, 8)), 0.1, 0)
    # each axis is checked: the values have four nodes along x, then along y
    for shape in ((4, 8), (8, 4)):
        with pytest.raises(GridTooSmall):
            gradient(np.zeros(shape), GEOM)


def test_geometry_validation():
    with pytest.raises(GridTooSmall):
        sg.GridGeometry(4, 10, 0.0, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        sg.GridGeometry(10, 10, 0.0, 0.0, -0.1, 0.1)
    d = GEOM.as_dict()
    assert sg.GridGeometry.from_dict(d) == GEOM
    with pytest.raises(ValueError, match=r"unknown keys \['extra'\]"):
        sg.GridGeometry.from_dict(dict(d, extra=1))
    # integral sizes of another type are stored as int
    geom = sg.GridGeometry(np.int64(21), 17.0, -0.5, 0.25, 0.05, 0.04)
    assert geom == GEOM and type(geom.nx) is int and type(geom.ny) is int


@pytest.mark.parametrize("name", ["x0", "y0", "dx", "dy"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), None, True])
def test_geometry_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        sg.GridGeometry.from_dict(dict(GEOM.as_dict(), **{name: value}))


@pytest.mark.parametrize("name, value", [("nx", 61.7), ("ny", 7.5), ("nx", float("nan")),
                                         ("ny", float("inf")), ("nx", "61"), ("ny", None),
                                         ("nx", True),
                                         pytest.param("ny", 10**400, id="ny-past-float-range")])
def test_geometry_rejects_non_integral_size(name, value):
    d = dict(GEOM.as_dict(), **{name: value})
    for build in (sg.GridGeometry.from_dict, lambda d: sg.GridGeometry(**d)):
        with pytest.raises(ValueError, match=f"grid {name} must be an integer"):
            build(d)


def test_complexgrid_shape_check():
    with pytest.raises(ValueError):
        sg.ComplexGrid(GEOM, np.zeros((3, 3)))


def test_complexgrid_names_its_first_non_finite_node():
    values = np.zeros((21, 17), dtype=complex)
    values[7, 3] = values[9, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match=r"values must be finite: node \(7, 3\) holds"):
        sg.ComplexGrid(GEOM, values)


@pytest.mark.parametrize("values", [np.full((5, 5, 4), 1 + 2j), np.zeros((5, 5, 4), dtype=complex),
                                    1j, [[[1 + 2j] * 4] * 5] * 5],
                         ids=["array", "zero-imaginary", "scalar", "list"])
def test_real_field_refuses_complex_values(values):
    # a cast to float would drop the imaginary part with only a ComplexWarning
    geom = sg.GridGeometry(5, 5, 0.0, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="immersion values must be real, got complex values"):
        sg.ImmersionGrid(geom, values)


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


def test_load_grid_rejects_immersion_csv(tmp_path):
    xx, yy = GEOM.mesh()
    path = tmp_path / "imm.csv"
    sg.save_immersion(sg.ImmersionGrid(GEOM, np.stack([xx, yy, xx * yy, xx - yy], -1)), path)
    with pytest.raises(ValueError, match=r"imm\.csv: header x,y,f1,f2,f3,f4 is not x,y,re,im$"):
        sg.load_grid(path)


def test_save_grid_rejects_non_finite_value(tmp_path):
    values = np.ones((21, 17), dtype=complex)
    values[3, 4] = complex(1.0, np.inf)
    values[5, 0] = np.nan
    path = tmp_path / "field.csv"
    with pytest.raises(ValueError, match=r"node \(3, 4\) holds a non-finite value"):
        sg.save_grid(sg.ComplexGrid(GEOM, values), path)
    assert not path.exists()


forks = pytest.mark.skipif(not hasattr(os, "fork"),
                           reason="rows are formatted and parsed in one process")


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks
def test_save_grid_leaves_no_child_process(tmp_path):
    f = sg.ComplexGrid(GEOM, np.ones((21, 17), dtype=complex))
    sg.save_grid(f, tmp_path / "field.csv")
    assert_no_child_process()
    with pytest.raises(FileNotFoundError):  # raised by open, before any fork
        sg.save_grid(f, tmp_path / "missing" / "field.csv")
    assert_no_child_process()


def _spied_forks(monkeypatch) -> tuple[list, list]:
    """Patch os.fork and grids._in_two_processes to record, in this process,
    each fork and each value the helper returns."""
    fork, helper, forked, values = os.fork, grids._in_two_processes, [], []

    def counted_fork():
        forked.append(1)
        return fork()

    def spied(mine, theirs):
        values.append(helper(mine, theirs))
        return values[-1]

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(grids, "_in_two_processes", spied)
    return forked, values


@forks
def test_save_grid_forks_once_and_joins_two_halves(tmp_path, monkeypatch):
    forked, values = _spied_forks(monkeypatch)
    sg.save_grid(sg.ComplexGrid(GEOM, np.ones((21, 17), dtype=complex)), tmp_path / "field.csv")
    assert len(forked) == 1 and values == [True]  # not the one-process fallback
    assert_no_child_process()


@forks
def test_in_two_processes_kills_the_child_when_mine_fails(monkeypatch):
    # the child's half is not needed once this process's fails: waiting for it
    # would hold up the error for as long as the child takes.  The error is
    # mine's own: where mine's half comes first, it is what one process raises
    forked, values = _spied_forks(monkeypatch)

    def mine(pipe):
        raise RuntimeError("refused")

    def theirs():
        time.sleep(30.0)
        return [b"too late"]

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="^refused$"):
        grids._in_two_processes(mine, theirs)
    assert time.perf_counter() - start < 5.0
    assert len(forked) == 1 and values == []  # the helper returned nothing
    assert_no_child_process()


@forks
def test_save_grid_writes_the_bytes_of_one_process_when_the_child_fails(tmp_path,
                                                                         monkeypatch):
    grid_rows, parent, calls = grids._grid_rows, os.getpid(), []

    def failing_in_the_child(geom, values, rows):
        if os.getpid() != parent:
            raise RuntimeError("cannot format")
        calls.append(rows)
        return grid_rows(geom, values, rows)

    monkeypatch.setattr(grids, "_grid_rows", failing_in_the_child)
    path = tmp_path / "field.csv"
    write = partial(sg.save_grid, sg.ComplexGrid(GEOM, np.ones((21, 17), dtype=complex)))
    write(path)
    assert_no_child_process()
    assert calls == [range(10), range(21)]  # this process's half, then every row
    with monkeypatch.context() as one_process:
        one_process.delattr(os, "fork")
        write(tmp_path / "one.csv")
    assert path.read_bytes() == (tmp_path / "one.csv").read_bytes()


def _split(data: bytes) -> int:
    """The byte at which the loaders split the rows of the CSV `data`: the
    first line start past its midpoint."""
    return data.index(b"\n", len(data) // 2) + 1


@forks
def test_load_grid_reads_as_one_process_when_the_child_fails(tmp_path, monkeypatch):
    parse_rows, parent = grids._parse_rows, os.getpid()

    def failing_in_the_child(fh):
        if os.getpid() != parent:
            raise RuntimeError("cannot parse")
        return parse_rows(fh)

    path = tmp_path / "field.csv"
    values = np.arange(21 * 17).reshape(21, 17) * (1.0 + 0.5j) / 7.0
    sg.save_grid(sg.ComplexGrid(GEOM, values), path)
    monkeypatch.setattr(grids, "_parse_rows", failing_in_the_child)
    assert grids._rows_in_two_processes(path) is None
    assert_no_child_process()
    loaded = sg.load_grid(path).values
    assert_no_child_process()
    with monkeypatch.context() as one_process:
        one_process.delattr(os, "fork")
        assert loaded.tobytes() == sg.load_grid(path).values.tobytes() == values.tobytes()


def _immersion_lines(path):
    """The lines of the 7x7 immersion CSV with an identity frame that
    test_frames' refusal tests edit, written to `path`."""
    geom = sg.GridGeometry(7, 7, 0.0, 0.0, 0.1, 0.1)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, np.stack([xx, yy, xx * yy, xx - yy], axis=-1))
    sg.save_immersion(m, path, frame=sg.FrameField(geom, np.broadcast_to(np.eye(5), (7, 7, 5, 5))))
    with open(path, newline="") as fh:
        return fh.readlines()


def _set_cell(lines, r, column, text):
    cells = lines[r].rstrip("\r\n").split(",")
    cells[column] = text
    lines[r] = ",".join(cells) + "\r\n"


def _duplicate_row(lines, r):
    lines[r] = lines[2]  # a copy of node (0, 1)


def _swapped_rows(lines, r):
    lines[r], lines[r + 1] = lines[r + 1], lines[r]


def _short_row(lines, r):
    lines[r] = lines[r].rsplit(",", 1)[0] + "\r\n"


def _loaded(path):
    """What load_immersion makes of `path`: its refusal's text, or the bytes
    of the arrays it read, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m, frame = sg.load_immersion(path)
            read = m.f.tobytes() + frame.S.tobytes()
        except ValueError as e:
            read = str(e)
    return read, [str(w.message) for w in caught]


def assert_loads_as_in_one_process(path, monkeypatch):
    """The forked loader reads `path` as the one-process loader does, and
    leaves no child; returns what it read."""
    forked = _loaded(path)
    assert_no_child_process()
    with monkeypatch.context() as one_process:
        one_process.delattr(os, "fork")
        assert _loaded(path) == forked
    return forked[0]


@forks
@pytest.mark.parametrize("node", [(1, 3), (5, 3)], ids=["child-half", "parent-half"])
@pytest.mark.parametrize("edit", [
    _duplicate_row, _swapped_rows, _short_row, partial(_set_cell, column=0, text="123"),
    partial(_set_cell, column=1, text="nan"), partial(_set_cell, column=21, text="nan"),
    partial(_set_cell, column=4, text="abc"),
], ids=["duplicate-row", "swapped-rows", "short-row", "x-off-node", "nan-y", "nan-frame-entry",
        "non-numeric-cell"])
def test_load_refusals_read_as_in_one_process(tmp_path, monkeypatch, edit, node):
    # the edits of test_load_immersion_rejects_misplaced_rows, in either half
    path = tmp_path / "imm.csv"
    lines = _immersion_lines(path)
    r = 1 + node[0] * 7 + node[1]
    assert (sum(map(len, lines[:r])) < _split(path.read_bytes())) == (node[0] < 3)
    edit(lines, r)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    refusal = assert_loads_as_in_one_process(path, monkeypatch)
    assert isinstance(refusal, str) and refusal.startswith(f"{path}: ")


def _as_written(lines):
    pass


def _narrower_from_the_split(lines):
    # every row from the split on loses its last column; blanks keep each
    # line's length, so that the split stays where it was
    split, at = _split("".join(lines).encode()), 0
    for k, line in enumerate(lines):
        if at >= split:
            body = line.rstrip("\r\n")
            cut = body.rindex(",")
            lines[k] = body[:cut] + " " * (len(body) - cut) + line[len(body):]
        at += len(line)


def _blank_line_in_the_parent_half(lines):
    lines.insert(1 + 5 * 7, "\r\n")  # before node (5, 0)


def _blank_lines_before_the_rows(lines):
    lines[1:1] = ["\r\n"] * 5000  # more bytes than the rows: the child's half is blank


def _blank_lines_after_the_rows(lines):
    lines += ["\r\n"] * 5000  # more bytes than the rows: the loader's own half is blank


def _lf_only(lines):
    lines[:] = [line.replace("\r\n", "\n") for line in lines]


def _cr_only(lines):
    lines[:] = [line.replace("\r\n", "\r") for line in lines]


def _no_final_newline(lines):
    lines[-1] = lines[-1].rstrip("\r\n")


def _one_row(lines):
    del lines[2:]


def _no_rows(lines):
    lines[1:] = ["\r\n"] * 5000  # refused, after numpy's warning of no data


@forks
@pytest.mark.parametrize("form", [_as_written, _narrower_from_the_split,
                                  _blank_line_in_the_parent_half,
                                  _blank_lines_before_the_rows, _blank_lines_after_the_rows,
                                  _lf_only, _cr_only, _no_final_newline, _one_row, _no_rows],
                         ids=["as-written", "narrower-from-the-split",
                              "blank-line-in-the-parent-half",
                              "blank-child-half", "blank-parent-half", "lf-only", "cr-only",
                              "no-final-newline", "one-row", "no-rows"])
@pytest.mark.parametrize("node", [None, (6, 2), (6, 6)], ids=["rows-on-nodes", "x-off-6-2",
                                                              "x-off-6-6"])
def test_load_file_forms_read_as_in_one_process(tmp_path, monkeypatch, form, node):
    path = tmp_path / "imm.csv"
    lines = _immersion_lines(path)
    if node is not None:
        _set_cell(lines, 1 + node[0] * 7 + node[1], 0, "123")
    form(lines)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    read = assert_loads_as_in_one_process(path, monkeypatch)
    refused = node is not None or form in (_narrower_from_the_split, _one_row, _no_rows)
    assert isinstance(read, str) == refused
    # these forms are parsed in two processes; the others fall back to one
    joined = form in (_as_written, _blank_line_in_the_parent_half, _lf_only, _no_final_newline)
    assert (grids._rows_in_two_processes(path) is not None) == joined
    assert_no_child_process()


@pytest.mark.parametrize("column", [2, 3], ids=["re", "im"])
def test_load_grid_rejects_non_finite_value(tmp_path, column):
    path = tmp_path / "field.csv"
    sg.save_grid(sg.ComplexGrid(GEOM, np.ones((21, 17), dtype=complex)), path)
    with open(path, newline="") as fh:
        lines = fh.readlines()
    cells = lines[1 + 2 * 17 + 9].split(",")  # node (2, 9)
    cells[column] = "nan" if column == 2 else "-inf\r\n"
    lines[1 + 2 * 17 + 9] = ",".join(cells)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    with pytest.raises(ValueError, match=r"row 44 \(node \(2, 9\)\) holds a non-finite value"):
        sg.load_grid(path)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_diff4_linearity(a, b):
    xx, yy = GEOM.mesh()
    f, g = np.sin(xx + yy), xx * np.exp(yy)
    lhs = diff4(a * f + b * g, GEOM.dx, 0)
    rhs = a * diff4(f, GEOM.dx, 0) + b * diff4(g, GEOM.dx, 0)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def _reference_diff4(values, h, axis):
    """diff4 as one interior expression and np.tensordot edge rows."""
    v = np.moveaxis(np.asarray(values), axis, 0)
    out = np.empty_like(v, dtype=np.result_type(v.dtype, float))
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    out[0] = np.tensordot(_EDGE0, v[:5], axes=(0, 0)) / h
    out[1] = np.tensordot(_EDGE1, v[:5], axes=(0, 0)) / h
    out[-1] = -np.tensordot(_EDGE0, v[-1:-6:-1], axes=(0, 0)) / h
    out[-2] = -np.tensordot(_EDGE1, v[-1:-6:-1], axes=(0, 0)) / h
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape", [(61, 61), (61, 61, 4), (61, 61, 5, 5)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("axis", [0, 1])
def test_diff4_is_byte_identical_to_reference(shape, dtype, axis):
    # the in-place interior and the np.dot edge rows must reproduce every bit,
    # signed zeros included (tobytes, not np.array_equal), on contiguous
    # fields and on a cropped view such as a reduction's frame
    rng = np.random.default_rng(3)
    big = rng.normal(size=(65, 65) + shape[2:]).astype(dtype)
    if dtype is complex:
        big += 1j * rng.normal(size=big.shape)
    big[rng.random(big.shape) < 0.05] = -0.0
    for values in (big[:61, :61].copy(), big[2:63, 2:63]):
        got = diff4(values, 0.005, axis)
        expected = _reference_diff4(values, 0.005, axis)
        assert got.dtype == expected.dtype and got.strides == expected.strides
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("part", [(), (slice(1, None), slice(1, 3))], ids=["whole", "tangent"])
@pytest.mark.parametrize("axis", [0, 1])
def test_diff4_interior_matches_plain_formula(dtype, part, axis):
    # a real field's interior is accumulated scaled by 1/8 and rescaled, which
    # must round as the plain formula does; half of each component is a planted
    # +0.0 or -0.0, so that whole stencils of zeros test the signed zeros, and
    # a complex product with 8 = 8 + 0j does not scale those exactly.  The
    # tangent block is passed as a strided view of the whole field.
    rng = np.random.default_rng(5)
    shape = (23, 19, 5, 5)
    values = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=shape)
    for component in (values.real, values.imag) if dtype is complex else (values,):
        zero = rng.random(shape) < 0.5
        component[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    h = 0.007
    block = values[(slice(None), slice(None), *part)]
    u = np.moveaxis(block, axis, 0)
    plain = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    got = np.moveaxis(diff4(block, h, axis), axis, 0)[2:-2]
    assert got.tobytes() == np.ascontiguousarray(plain).tobytes()

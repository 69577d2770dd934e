"""Rectangular grids in the complex parameter z = x + iy and Wirtinger calculus.

A scalar field lives on a uniform nx-by-ny grid; values[i, j] is the value at
(x0 + i*dx, y0 + j*dy).  Derivatives use 4th-order central differences in the
interior and 4th-order one-sided stencils at the boundary, so they are exact
on polynomials of total degree <= 4.

A field is a plain array of node values, passed with its GridGeometry: here
and in the invariants and frame layers, operators take `(values, geom)` and
return arrays.  `gradient` is the one operator that takes both partials of a
field, and `wirtinger` the one statement of the convention that turns x and y
coefficients into dz and dzbar coefficients.
`ComplexGrid` is only the record that `save_grid` writes and `load_grid` reads.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import _number
from .errors import GridTooSmall

# 4th-order first-derivative stencils (rows: node 0 and node 1 from the edge).
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def diff4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative along `axis` with one-sided boundary closure.

    Works on arrays with trailing dimensions (e.g. per-node matrices); only
    `axis` is differenced.
    """
    u = np.moveaxis(np.asarray(values), axis, 0)
    n = u.shape[0]
    if n < 5:
        raise GridTooSmall(f"need at least 5 nodes along axis {axis}, got {n}")
    out = np.empty_like(u, dtype=np.result_type(u.dtype, float))
    # (-u[4:] + 8 u[3:-1] - 8 u[1:-3] + u[:-4]) / 12h, in this order, in place.
    # A real field takes the first three terms scaled by 1/8 and rescales them,
    # with no temporary: scaling by a power of two rounds nothing unless a value
    # is subnormal.  A complex product with 8 = 8 + 0j does not scale a signed
    # zero exactly, so a complex field, a small scalar one, keeps 8 u.
    mid = out[2:-2]
    if np.iscomplexobj(mid):
        np.negative(u[4:], out=mid)
        mid += 8.0 * u[3:-1]
        mid -= 8.0 * u[1:-3]
    else:
        np.multiply(u[4:], -0.125, out=mid)
        mid += u[3:-1]
        mid -= u[1:-3]
        mid *= 8.0
    mid += u[:-4]
    mid /= 12.0 * h
    # Each edge row is one BLAS product of a stencil with the whole 5-node
    # slab, the call np.tensordot makes.  Its last bits depend on the slab's
    # width and layout, so differencing a sub-block of a field is not the same
    # as cutting the derivative of the whole field.
    rest = u.shape[1:]
    head, tail = u[:5].reshape(5, -1), u[-1:-6:-1].reshape(5, -1)
    out[0] = np.dot(_EDGE0, head).reshape(rest) / h
    out[1] = np.dot(_EDGE1, head).reshape(rest) / h
    out[-1] = -np.dot(_EDGE0, tail).reshape(rest) / h
    out[-2] = -np.dot(_EDGE1, tail).reshape(rest) / h
    return np.moveaxis(out, 0, axis)


def gradient(values: np.ndarray, geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Partials (f_x, f_y) of node values whose leading axes are the grid's
    (nx, ny); trailing dimensions (e.g. per-node matrices) ride along."""
    return diff4(values, geom.dx, axis=0), diff4(values, geom.dy, axis=1)


def wirtinger(ux, uy) -> tuple:
    """dz and dzbar coefficients (ux - i uy)/2 and (ux + i uy)/2 of the 1-form
    ux dx + uy dy (entries may be complex)."""
    iuy = 1j * uy
    return 0.5 * (ux - iuy), 0.5 * (ux + iuy)


def d_z(values: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Wirtinger derivative (f_x - i f_y) / 2 of node values, as in `gradient`."""
    return wirtinger(*gradient(values, geom))[0]


def d_zbar(values: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Conjugate Wirtinger derivative (f_x + i f_y) / 2 of node values, as in `gradient`."""
    return wirtinger(*gradient(values, geom))[1]


@dataclass(frozen=True)
class GridGeometry:
    nx: int
    ny: int
    x0: float
    y0: float
    dx: float
    dy: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _number(f"grid {f.name}", getattr(self, f.name),
                                                     integer=f.name in ("nx", "ny")))
        if self.nx < 5 or self.ny < 5:
            raise GridTooSmall(f"grid must be at least 5x5, got {self.nx}x{self.ny}")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacings must be positive")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y, indexing="ij")

    def zmesh(self) -> np.ndarray:
        xx, yy = self.mesh()
        return xx + 1j * yy

    def as_dict(self) -> dict:
        return {"nx": self.nx, "ny": self.ny, "x0": self.x0, "y0": self.y0,
                "dx": self.dx, "dy": self.dy}

    @staticmethod
    def from_dict(d: dict) -> "GridGeometry":
        """Geometry from an `as_dict` record; a record that is not a mapping,
        lacks a field or holds a key of no field is a ValueError naming it."""
        if not isinstance(d, dict):
            raise ValueError(f"grid record must be a mapping, got {d!r}")
        names = [f.name for f in fields(GridGeometry)]
        for name in names:
            if name not in d:
                raise ValueError(f"grid record lacks {name}")
        unknown = sorted(set(d) - set(names))
        if unknown:
            raise ValueError(f"grid record has unknown keys {unknown}")
        return GridGeometry(**d)


def _non_finite_node(values: np.ndarray) -> tuple[int, int] | None:
    """The first grid node (i, j), in C order, of (nx, ny, ...) node values
    that holds a non-finite value; None when every value is finite."""
    bad = ~np.isfinite(values).reshape(values.shape[:2] + (-1,)).all(axis=-1)
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def _node_values(geom: GridGeometry, values, name: str, dtype=complex,
                 trailing: tuple = ()) -> np.ndarray:
    """Field `name` as a read-only (nx, ny, *trailing) array of `dtype`, a scalar
    broadcast to the grid; ValueError naming it on complex values for a real
    `dtype` (before any cast), a wrong shape or a non-finite node."""
    v = np.asarray(values)
    if v.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise ValueError(f"{name} must be real, got complex values")
    v = np.asarray(v, dtype=dtype)
    shape = (geom.nx, geom.ny, *trailing)
    v = np.full(shape, v) if v.ndim == 0 else v.view()
    if v.shape != shape:
        raise ValueError(f"{name} has shape {v.shape}, not the grid's {shape}")
    node = _non_finite_node(v)
    if node is not None:
        raise ValueError(f"{name} must be finite: node {node} holds a non-finite value")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ComplexGrid:
    """Read-only complex scalar field on a GridGeometry: the record of `save_grid`
    and `load_grid`."""

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values(self.geometry, self.values, "values"))

    def with_values(self, values: np.ndarray) -> "ComplexGrid":
        return ComplexGrid(self.geometry, values)


# -- serialization: CSV per field with a JSON geometry sidecar ----------------


def _grid_rows(geom: GridGeometry, values: np.ndarray, rows: range):
    """The CSV lines of grid rows `rows` of `_save_table`'s (nx, ny, k) node
    values, as ASCII bytes: one `%` per grid row, each node coordinate
    formatted once."""
    cell = ",".join(["%.17g"] * values.shape[-1]) + "\r\n"
    tails = ["%.17g," % y + cell for y in geom.y.tolist()]
    xs = geom.x.tolist()
    for i in rows:
        head = "%.17g," % xs[i]
        yield ("".join([head + t for t in tails]) % tuple(values[i].ravel().tolist())).encode()


def _recorded(work):
    """work() and the warnings it raised, as `warnings.warn_explicit` arguments."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = work()
    return value, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _in_two_processes(first, second):
    """(first(), second()), with the values, warnings and refusals of one
    process that calls first() and then second().

    Where `os.fork` exists, a forked child runs second() under `_recorded`
    and pickles its value and warnings down a pipe while this process runs
    first(); the child's warnings are raised here after first()'s.  When
    first() raises, the child is killed, since its half is no longer needed,
    and the error is raised.  When `os.fork` does not exist, or the child
    exits non-zero or sends no whole pickle, this process calls second()
    itself: only that half is redone.  The pipe is closed before the child is
    reaped, so that a child blocked on a full pipe fails on the broken pipe;
    the child is reaped on every path.
    """
    if not hasattr(os, "fork"):
        return first(), second()
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads (an idle BLAS pool
            # is one) forks.  The child only runs `second`, writes the pipe and
            # calls _exit.  `second` formats or parses CSV rows, or integrates
            # `family` members with BLAS matrix products: no BLAS call is in
            # flight at the fork, and OpenBLAS's fork handler stops its pool first.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                pickle.dump(_recorded(second), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            mine = first()
            try:
                sent = pickle.load(pipe)
            except Exception:  # nothing, or a truncated pickle
                sent = None
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # so the error does not wait for its half
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or sent is None:
        return mine, second()
    theirs, caught = sent
    for message in caught:  # as one process raises them, after first()'s
        warnings.warn_explicit(*message)
    return mine, theirs


def _save_table(path: str | Path, geom: GridGeometry, header: list[str],
                values: np.ndarray) -> None:
    """Write one `x,y,<header>` CSV row per node at 17 significant digits plus
    a .json sidecar.

    `values` is the (nx, ny, k) float array of the nodes' k value columns,
    named by `header`.  Rows go out in C order, one grid row per `%`, and end
    in CRLF, the RFC 4180 line ending that the csv module writes.  A
    non-finite value raises ValueError naming its node, before anything is
    written.

    Two processes format the rows (`_in_two_processes`): once the header is
    written, a child formats grid rows nx//2 .. nx-1 into one bytes object
    while this process writes the rows before them, then writes the child's
    after them.  Where the child fails, this process formats its rows
    itself.  Both use `_grid_rows`, so the bytes are those one process
    writes.
    """
    path = Path(path)
    node = _non_finite_node(values)
    if node is not None:
        raise ValueError(f"{path}: node {node} holds a non-finite value")
    mid = geom.nx // 2
    with open(path, "wb") as fh:
        fh.write((",".join(["x", "y", *header]) + "\r\n").encode())
        _, tail = _in_two_processes(
            lambda: fh.writelines(_grid_rows(geom, values, range(mid))),
            lambda: b"".join(_grid_rows(geom, values, range(mid, geom.nx))))
        fh.write(tail)
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(geom.as_dict(), fh, indent=2)


def _parse_rows(fh) -> np.ndarray:
    """`np.loadtxt` of the CSV rows of the text file `fh`, called as the
    one-process parse of `_load_table` calls it, for either half of a table;
    a half without rows is an empty array, without numpy's warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _child_rows(path: Path, split: int) -> np.ndarray:
    """The rows of `path` before byte `split`, parsed in the child of
    `_rows_in_two_processes`."""
    with open(path, "rb") as fh:
        text = io.TextIOWrapper(io.BytesIO(fh.read(split)))
    text.readline()  # the header, read as `_load_table` reads it
    return _parse_rows(text)


def _rows_in_two_processes(path: Path) -> np.ndarray | None:
    """The rows under the header of the CSV `path`, as one `np.loadtxt` call
    returns them, parsed in two processes; None where one process must
    parse them.

    The split is the first line start past the file's byte midpoint.  A
    child forked by `_in_two_processes` parses the rows before it, and this
    process those after it, straight from the file, so it never holds the
    file's text; the child's rows go in front of its own.  Where the child
    fails, this process parses its rows too.  None when no line starts past
    the midpoint, `np.loadtxt` refuses either half, the child's half holds
    no rows, or the halves differ in width: the one-process parse then words
    any refusal with the row numbers of the whole file.
    """
    with open(path, "rb") as fh, io.TextIOWrapper(fh) as rest:
        size = os.fstat(fh.fileno()).st_size
        fh.seek(size // 2)
        fh.readline()
        split = fh.tell()
        if split >= size:
            return None
        try:  # this process parses from fh's position, the split
            mine, theirs = _in_two_processes(lambda: _parse_rows(rest),
                                             lambda: _child_rows(path, split))
        except ValueError:
            return None
    if not len(theirs) or theirs.shape[1] != mine.shape[1]:
        return None
    return np.concatenate([theirs, mine])


def _load_table(path: str | Path,
                *headers: list[str]) -> tuple[GridGeometry, list[str], np.ndarray]:
    """Read a CSV written by `_save_table`: geometry, value header and node values.

    The header must be `x,y` followed by one of `headers`, the value columns
    the caller accepts.  Rows are placed in C order: row r (the header is row
    0) must be node (i, j) = divmod(r - 1, ny).  Its `x, y` columns must lie
    within a quarter grid step of the node (a NaN counts as off), and its
    value columns must be finite numbers.  A malformed sidecar is a
    ValueError naming the sidecar; any other header, a cell that is no
    number, a wrong row count, or a row that breaks the rule is a ValueError
    naming the CSV, and the row and node where there is one.  `values` is the
    (nx, ny, k) array of the k value columns.

    Two processes parse the rows (`_rows_in_two_processes`), through the
    `_in_two_processes` that `_save_table` uses too; where the child fails,
    this process parses its half as well.  Where the halves are not joined,
    one `np.loadtxt` call parses them all; the arrays, and the text of every
    refusal, are those of that call.
    """
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    with open(sidecar) as fh:
        try:
            geom = GridGeometry.from_dict(json.load(fh))
        except ValueError as e:
            raise ValueError(f"{sidecar}: {e}") from e
    try:
        with open(path) as fh:
            names = fh.readline().rstrip("\r\n").split(",")
            header = names[2:]
            if names[:2] != ["x", "y"] or header not in headers:
                wanted = " or ".join(",".join(["x", "y", *h]) for h in headers)
                raise ValueError(f"header {','.join(names)} is not {wanted}")
            data = _rows_in_two_processes(path)
            if data is None:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.size == 0 or data.shape[1] != 2 + len(header):
            raise ValueError(f"expected rows of {2 + len(header)} values under the header")
        nx, ny = geom.nx, geom.ny
        if len(data) != nx * ny:
            raise ValueError(f"expected {nx * ny} rows, got {len(data)}")
        nodes = data.reshape(nx, ny, -1)
        off = np.maximum(np.abs(nodes[..., 0] - geom.x[:, None]) / geom.dx,
                         np.abs(nodes[..., 1] - geom.y) / geom.dy)
        bad = ~(off <= 0.25)  # a NaN coordinate counts as off
        if np.any(bad):
            r = int(np.argmax(bad))
            coords = "%.17g, %.17g" % tuple(data[r, :2].tolist())
            raise ValueError(f"row {r + 1} at (x, y) = ({coords}) is not node {divmod(r, ny)}")
        values = nodes[..., 2:]
        bad = ~np.all(np.isfinite(values), axis=-1)
        if np.any(bad):
            r = int(np.argmax(bad))
            raise ValueError(f"row {r + 1} (node {divmod(r, ny)}) holds a non-finite value")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return geom, header, values


def save_grid(f: ComplexGrid, path: str | Path) -> None:
    """Write `x,y,re,im` rows (17 significant digits) plus a .json sidecar."""
    values = np.stack([f.values.real, f.values.imag], axis=-1)
    _save_table(path, f.geometry, ["re", "im"], values)


def load_grid(path: str | Path) -> ComplexGrid:
    """Read a `save_grid` CSV back; `_load_table` states which files it rejects."""
    geom, _, values = _load_table(path, ["re", "im"])
    z = np.empty((geom.nx, geom.ny), dtype=complex)
    z.real, z.imag = values[..., 0], values[..., 1]
    return ComplexGrid(geom, z)

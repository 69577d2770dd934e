"""Rectangular grids in the complex parameter z = x + iy and Wirtinger calculus.

A scalar field lives on a uniform nx-by-ny grid; values[i, j] is the value at
(x0 + i*dx, y0 + j*dy).  Derivatives use 4th-order central differences in the
interior and 4th-order one-sided stencils at the boundary, so they are exact
on polynomials of total degree <= 4.

A field is a plain array of node values, passed with its GridGeometry: here
and in the invariants and frame layers, operators take `(values, geom)` and
return arrays.  `gradient` is the one operator that takes both partials of a
field, and `wirtinger` the one statement of the convention that turns x and y
coefficients into dz and dzbar coefficients.  `ComplexGrid` is only the record
that `save_grid` writes and `load_grid` reads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import GridTooSmall

# 4th-order first-derivative stencils (rows: node 0 and node 1 from the edge).
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def diff4(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative along `axis` with one-sided boundary closure.

    Works on arrays with trailing dimensions (e.g. per-node matrices); only
    `axis` is differenced.
    """
    v = np.moveaxis(np.asarray(values), axis, 0)
    n = v.shape[0]
    if n < 5:
        raise GridTooSmall(f"need at least 5 nodes along axis {axis}, got {n}")
    out = np.empty_like(v, dtype=np.result_type(v.dtype, float))
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    out[0] = np.tensordot(_EDGE0, v[:5], axes=(0, 0)) / h
    out[1] = np.tensordot(_EDGE1, v[:5], axes=(0, 0)) / h
    out[-1] = -np.tensordot(_EDGE0, v[-1:-6:-1], axes=(0, 0)) / h
    out[-2] = -np.tensordot(_EDGE1, v[-1:-6:-1], axes=(0, 0)) / h
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


def cumquad(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Cumulative integral along `axis` from the first node, 4th-order accurate.

    Each panel integral uses the cubic through the four nearest nodes.
    """
    v = np.moveaxis(np.asarray(values), axis, 0)
    n = v.shape[0]
    if n < 5:
        raise GridTooSmall(f"need at least 5 nodes along axis {axis}, got {n}")
    panels = np.empty_like(v[:-1], dtype=np.result_type(v.dtype, float))
    # interior panels [k, k+1] from nodes k-1..k+2
    panels[1:-1] = (h / 24.0) * (-v[:-3] + 13.0 * v[1:-2] + 13.0 * v[2:-1] - v[3:])
    panels[0] = (h / 24.0) * (9.0 * v[0] + 19.0 * v[1] - 5.0 * v[2] + v[3])
    panels[-1] = (h / 24.0) * (9.0 * v[-1] + 19.0 * v[-2] - 5.0 * v[-3] + v[-4])
    out = np.zeros_like(v, dtype=panels.dtype)
    np.cumsum(panels, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class GridGeometry:
    nx: int
    ny: int
    x0: float
    y0: float
    dx: float
    dy: float

    def __post_init__(self):
        for name in ("nx", "ny"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v)):
                raise ValueError(f"grid {name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.nx < 5 or self.ny < 5:
            raise GridTooSmall(f"grid must be at least 5x5, got {self.nx}x{self.ny}")
        for name in ("x0", "y0", "dx", "dy"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ValueError(f"grid {name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
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
        """Geometry from an `as_dict` record; a record that is not a mapping or
        lacks a field is a ValueError naming it."""
        if not isinstance(d, dict):
            raise ValueError(f"grid record must be a mapping, got {d!r}")
        names = [f.name for f in fields(GridGeometry)]
        for name in names:
            if name not in d:
                raise ValueError(f"grid record lacks {name}")
        return GridGeometry(**{name: d[name] for name in names})


def _node_values(geom: GridGeometry, values, name: str) -> np.ndarray:
    """Field `name` as a read-only complex (nx, ny) array, a scalar broadcast to the
    grid; ValueError naming the field on a wrong shape or a non-finite value."""
    v = np.asarray(values, dtype=complex)
    shape = (geom.nx, geom.ny)
    v = np.full(shape, v) if v.ndim == 0 else v.view()
    if v.shape != shape:
        raise ValueError(f"{name} has shape {v.shape}, not the grid's {shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ComplexGrid:
    """Complex scalar field on a GridGeometry: the record of `save_grid` and `load_grid`."""

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.geometry.nx, self.geometry.ny):
            raise ValueError(f"values shape {v.shape} does not match geometry "
                             f"({self.geometry.nx}, {self.geometry.ny})")
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "ComplexGrid":
        return ComplexGrid(self.geometry, values)


# -- serialization: CSV per field with a JSON geometry sidecar ----------------


def _save_table(path: str | Path, geom: GridGeometry, header: list[str],
                lead, values: np.ndarray) -> None:
    """Write one CSV row per node at 17 significant digits plus a .json sidecar.

    `values` is the (nx, ny, k) float array of the nodes' k value columns;
    `lead` yields, for each grid row i, the ny nodes' comma-terminated
    coordinate text that precedes them.  Rows go out in C order, one grid row
    per `%`, and end in CRLF, the RFC 4180 line ending that the csv module
    writes.  A non-finite value raises ValueError naming its node, before
    anything is written.
    """
    path = Path(path)
    bad = ~np.all(np.isfinite(values), axis=-1)
    if np.any(bad):
        node = tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(f"{path}: node {node} holds a non-finite value")
    cell = ",".join(["%.17g"] * values.shape[-1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row, lead_i in zip(values, lead):
            fh.write("".join([s + cell for s in lead_i]) % tuple(row.ravel().tolist()))
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(geom.as_dict(), fh, indent=2)


def _axis_text(coords: np.ndarray) -> list[str]:
    """Comma-terminated `%.17g` text of each coordinate, as `_save_table` writes it."""
    return ["%.17g," % c for c in coords.tolist()]


def _load_table(path: str | Path) -> tuple[GridGeometry, list[str], np.ndarray]:
    """Read a CSV written by `_save_table`: geometry, header and (rows, columns) values."""
    path = Path(path)
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        geom = GridGeometry.from_dict(json.load(fh))
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0 or data.shape[1] != len(header):
        raise ValueError(f"{path}: expected rows of {len(header)} values under the header")
    return geom, header, data


def save_grid(f: ComplexGrid, path: str | Path) -> None:
    """Write `x,y,re,im` rows (17 significant digits) plus a .json sidecar."""
    geom = f.geometry
    ys = _axis_text(geom.y)
    lead = ([x + y for y in ys] for x in _axis_text(geom.x))
    values = np.stack([f.values.real, f.values.imag], axis=-1)
    _save_table(path, geom, ["x", "y", "re", "im"], lead, values)


def load_grid(path: str | Path) -> ComplexGrid:
    """Read a `save_grid` CSV back.

    Rows are placed in C order; a row whose (x, y) lies more than a quarter
    grid step off its node, or whose re or im is not finite, raises
    ValueError naming the row and node.
    """
    geom, _, data = _load_table(path)
    n = geom.nx * geom.ny
    if len(data) != n:
        raise ValueError(f"{path}: expected {n} rows, got {len(data)}")
    xx, yy = geom.mesh()
    off = np.maximum(np.abs(data[:, 0] - xx.ravel()) / geom.dx,
                     np.abs(data[:, 1] - yy.ravel()) / geom.dy)
    bad = ~(off <= 0.25)  # a NaN coordinate counts as off
    if np.any(bad):
        r = int(np.argmax(bad))
        raise ValueError(f"{path}: row {r + 1} at (x, y) = ({data[r, 0]:.17g}, "
                         f"{data[r, 1]:.17g}) is not node {divmod(r, geom.ny)}")
    bad = ~np.all(np.isfinite(data[:, 2:]), axis=1)
    if np.any(bad):
        r = int(np.argmax(bad))
        raise ValueError(f"{path}: row {r + 1} (node {divmod(r, geom.ny)}) "
                         f"holds a non-finite value")
    values = np.empty(n, dtype=complex)
    values.real = data[:, 2]
    values.imag = data[:, 3]
    return ComplexGrid(geom, values.reshape(geom.nx, geom.ny))

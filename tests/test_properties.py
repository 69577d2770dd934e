"""Property tests: CSV round trips and constructor validation on drawn inputs."""

import dataclasses
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import symplag as sg

finite = st.floats(allow_nan=False, allow_infinity=False)
# what a hand-written formatter is likeliest to get wrong: signed zero, integers
csv_values = st.one_of(finite, st.just(-0.0), st.integers(-10**17, 10**17).map(float))
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
non_positive = st.floats(max_value=0.0, allow_nan=False)
GEOM = {"nx": 5, "ny": 5, "x0": 0.0, "y0": 0.0, "dx": 0.1, "dy": 0.1}


@st.composite
def geometries(draw):
    return sg.GridGeometry(draw(st.integers(5, 8)), draw(st.integers(5, 8)),
                           draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6)),
                           draw(st.floats(1e-6, 1e3)), draw(st.floats(1e-6, 1e3)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=25)  # each example writes and reads two files
@given(st.data())
def test_grid_csv_roundtrip_is_bit_exact(data):
    geom = data.draw(geometries())
    values = np.empty((geom.nx, geom.ny), dtype=complex)
    values.real = data.draw(arrays(float, values.shape, elements=finite))
    values.imag = data.draw(arrays(float, values.shape, elements=finite))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        sg.save_grid(sg.ComplexGrid(geom, values), path)
        back = sg.load_grid(path)
    assert back.geometry == geom
    assert same_bits(back.values, values)


@settings(max_examples=25)
@given(st.data(), st.booleans())
def test_immersion_csv_roundtrip_is_bit_exact(data, with_frame):
    geom = data.draw(geometries())
    m = sg.ImmersionGrid(geom, data.draw(arrays(float, (geom.nx, geom.ny, 4), elements=finite)))
    frame = None
    if with_frame:
        S = np.zeros((geom.nx, geom.ny, 5, 5))
        S[..., 0, 0] = 1.0
        S[..., 1:, 0] = m.f
        S[..., 1:, 1:] = data.draw(arrays(float, (geom.nx, geom.ny, 4, 4), elements=finite))
        frame = sg.FrameField(geom, S)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        sg.save_immersion(m, path, frame=frame)
        back, back_frame = sg.load_immersion(path)
    assert back.geometry == geom
    assert same_bits(back.f, m.f)
    if with_frame:
        assert same_bits(back_frame.S, frame.S)
    else:
        assert back_frame is None


def savetxt_bytes(path: Path, header: list[str], table: np.ndarray) -> bytes:
    """The bytes np.savetxt writes for a (rows, columns) table, the CSV
    writers' former implementation and the oracle of their format."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", newline="\r\n",
               header=",".join(header), comments="")
    return path.read_bytes()


@settings(max_examples=25)
@given(st.data())
def test_grid_csv_bytes_match_savetxt(data):
    geom = data.draw(geometries())
    values = np.empty((geom.nx, geom.ny), dtype=complex)  # re + 1j * im would lose -0.0
    values.real = data.draw(arrays(float, values.shape, elements=csv_values))
    values.imag = data.draw(arrays(float, values.shape, elements=csv_values))
    xx, yy = geom.mesh()
    table = np.stack([xx, yy, values.real, values.imag], axis=-1).reshape(-1, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        sg.save_grid(sg.ComplexGrid(geom, values), path)
        want = savetxt_bytes(Path(tmp) / "oracle.csv", ["x", "y", "re", "im"], table)
        assert path.read_bytes() == want


@settings(max_examples=25)
@given(st.data(), st.booleans())
def test_immersion_csv_bytes_match_savetxt(data, with_frame):
    geom = data.draw(geometries())
    f = data.draw(arrays(float, (geom.nx, geom.ny, 4), elements=csv_values))
    header = ["x", "y", "f1", "f2", "f3", "f4"]
    xx, yy = geom.mesh()
    cols = [np.stack([xx, yy], axis=-1), f]
    frame = None
    if with_frame:
        S = np.zeros((geom.nx, geom.ny, 5, 5))
        S[..., 0, 0] = 1.0
        S[..., 1:, 0] = f
        S[..., 1:, 1:] = data.draw(arrays(float, (geom.nx, geom.ny, 4, 4), elements=csv_values))
        frame = sg.FrameField(geom, S)
        header += [f"s{r}{c}" for r in range(1, 5) for c in range(1, 5)]
        cols.append(S[..., 1:, 1:].reshape(geom.nx, geom.ny, 16))
    table = np.concatenate(cols, axis=-1).reshape(-1, len(header))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        sg.save_immersion(sg.ImmersionGrid(geom, f), path, frame=frame)
        assert path.read_bytes() == savetxt_bytes(Path(tmp) / "oracle.csv", header, table)


def _past_a_full_pipe():
    """A 41x37 frame of extreme and special values: odd nx, and each half of
    its CSV's rows far over a pipe's 64 KiB, so the process formatting or
    parsing a half blocks on the pipe until the other half is done."""
    geom = sg.GridGeometry(41, 37, -0.5, 1e-3, 1.0 / 3.0, 2.5e-2)
    rng = np.random.default_rng(7)
    S = np.zeros((41, 37, 5, 5))
    S[..., 0, 0] = 1.0
    scale = 10.0 ** rng.integers(-300, 300, (41, 37, 4, 5))
    S[..., 1:, :] = rng.standard_normal((41, 37, 4, 5)) * scale
    specials = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                1e17, -1e17, 99999999999999999.0, -12345678901234567.0, 0.0, 1.0]
    S[0, 0, 1:, 0] = specials[:4]
    S[40, 36, 1:, 1:] = np.array(specials * 2)[:16].reshape(4, 4)
    S[25, :, 1:, 1:] = rng.integers(-10**17, 10**17, (37, 4, 4)).astype(float)
    return geom, S


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "one-process"])
def test_immersion_csv_bytes_match_savetxt_past_a_full_pipe(tmp_path, monkeypatch, fork):
    geom, S = _past_a_full_pipe()
    f = S[..., 1:, 0]
    if not fork:
        monkeypatch.delattr(os, "fork")
    path = tmp_path / "m.csv"
    sg.save_immersion(sg.ImmersionGrid(geom, f), path, frame=sg.FrameField(geom, S))
    header = ["x", "y", "f1", "f2", "f3", "f4"]
    header += [f"s{r}{c}" for r in range(1, 5) for c in range(1, 5)]
    xx, yy = geom.mesh()
    cols = [np.stack([xx, yy], axis=-1), f, S[..., 1:, 1:].reshape(41, 37, 16)]
    table = np.concatenate(cols, axis=-1).reshape(-1, len(header))
    want = savetxt_bytes(tmp_path / "oracle.csv", header, table)
    assert len(want[want.index(b"\n%.17g," % geom.x[20]):]) > 4 * 65536
    assert path.read_bytes() == want


def test_immersion_csv_loads_byte_identically_past_a_full_pipe(tmp_path, monkeypatch):
    geom, S = _past_a_full_pipe()
    path = tmp_path / "m.csv"
    sg.save_immersion(sg.ImmersionGrid(geom, S[..., 1:, 0]), path, frame=sg.FrameField(geom, S))
    data = path.read_bytes()
    split = data.index(b"\n", len(data) // 2) + 1  # where the loader splits the rows
    assert min(split, len(data) - split) > 4 * 65536
    forked = sg.load_immersion(path)[1].S
    monkeypatch.delattr(os, "fork")
    one_process = sg.load_immersion(path)[1].S
    assert forked.tobytes() == one_process.tobytes() == S.tobytes()


@given(st.sampled_from(["x0", "y0", "dx", "dy"]), non_finite)
def test_geometry_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError):
        sg.GridGeometry(**dict(GEOM, **{name: value}))


@given(st.sampled_from(["dx", "dy"]), non_positive)
def test_geometry_rejects_non_positive_spacing(name, value):
    with pytest.raises(ValueError):
        sg.GridGeometry(**dict(GEOM, **{name: value}))


@given(st.sampled_from([f.name for f in dataclasses.fields(sg.Tolerances)]),
       st.one_of(non_finite, non_positive))
def test_tolerances_reject_non_finite_and_non_positive(name, value):
    with pytest.raises(ValueError, match=name):
        sg.Tolerances(**{name: value})
    with pytest.raises(ValueError, match=name):
        sg.Tolerances().replace(**{name: value})

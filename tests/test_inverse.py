"""`invariants_from_immersion`: the closed forms in f's 4-jet, on exact jets,
against the moving-frame reduction, under refinement, and on the constant
family composed with holomorphic changes of coordinate."""

import math
import tracemalloc

import numpy as np
import pytest

import symplag as sg
from symplag.errors import NotAdapted
from symplag.frames import (
    _FIT_DEGREE,
    _FIT_RADIUS,
    _closed_forms,
    _ellipticity,
    _fit_operator,
    _fit_weights,
    _fitted_blocks,
)
from symplag.generators import _closed_form_at

from closed_forms import MAPS, reparametrized_at, reparametrized_closed_form
from reduction import reduction_pipeline

PARAMS = sg.ConstantFamilyParams(p=0.5, c1=1.3, c2=0.7)


def square(n: int) -> sg.GridGeometry:
    """The n x n grid of side 0.3 from the origin."""
    h = 0.3 / (n - 1)
    return sg.GridGeometry(n, n, 0.0, 0.0, h, h)


def joined_partials(m, order=4) -> dict:
    """f's fitted partials on the whole grid: `_fitted_blocks`' column blocks,
    one per y band of the fit operator, joined along the columns."""
    blocks = list(_fitted_blocks(m, order))
    assert [b[:2] for b in blocks] == [b[:2] for b in _fit_operator(m.geometry.ny, m.geometry.dy)]
    return {k: np.concatenate([P[k] for *_, P in blocks], axis=-1) for k in blocks[0][2]}


def errors(inv, t, h, p, margin=8):
    """Max |error| of inv's t (up to the frame's sign), h and p against exact
    fields on the uncropped grid."""
    t, h, p = (v[margin:-margin, margin:-margin] for v in (t, h, p))
    et = min(np.max(np.abs(inv.t - t)), np.max(np.abs(inv.t + t)))
    return et, np.max(np.abs(inv.h - h)), np.max(np.abs(inv.p - p))


def exact_partials(f_at, x0, y0, r=0.3, n=40) -> dict:
    """{(i, j): d_x^i d_y^j f at (x0, y0)} for 1 <= i + j <= 4, from f's values
    at complex points of the polycircle |x - x0| = |y - y0| = r: the Taylor
    coefficients c_ij r^(i + j) are one 2-D FFT of them, divided by n^2."""
    ring = r * np.exp(2j * np.pi * np.arange(n) / n)
    xx, yy = np.meshgrid(x0 + ring, y0 + ring, indexing="ij")
    c = np.fft.fft2(f_at(xx, yy), axes=(0, 1)) / n**2
    return {(i, j): (c[i, j] * math.factorial(i) * math.factorial(j) / r ** (i + j)).real
            for i in range(5) for j in range(5 - i) if i + j}


@pytest.mark.parametrize("params", [PARAMS, sg.ConstantFamilyParams(p=-1.5, c1=0.8, c2=1.2),
                                    sg.ConstantFamilyParams(p=3.0, c1=1.0, c2=2.0)],
                         ids=["p0.5", "p-1.5", "p3"])
@pytest.mark.parametrize("node", [(0.1, 0.1), (0.15, 0.2)])
def test_closed_forms_read_the_constant_family_from_its_exact_jet(params, node):
    P = exact_partials(lambda x, y: _closed_form_at(params, x, y), *node)
    t2, h, p, conformal = _closed_forms(P)
    t = sg.separated_t(params, *node)
    assert abs(t2 - t * t) <= 1e-12 * abs(t * t)
    assert abs(h - 1.0) <= 1e-12
    assert abs(p - params.p) <= 1e-12
    assert conformal <= 1e-12


@pytest.mark.parametrize("name", ["quad", "rotation"])
def test_closed_forms_read_a_reparametrized_surface_from_its_exact_jet(name):
    # a complex h and a non-constant p: the law of reparametrized_closed_form
    g, dg = MAPS[name]
    node = (0.1, 0.15)
    P = exact_partials(lambda x, y: reparametrized_at(PARAMS, g, x, y), *node)
    t2, h, p, conformal = _closed_forms(P)
    geom = sg.GridGeometry(5, 5, node[0], node[1], 0.01, 0.01)  # exact values at node (0, 0)
    _, t, h_want, p_want = reparametrized_closed_form(PARAMS, g, dg, geom)
    assert abs(t2 - t[0, 0] ** 2) <= 1e-12 * abs(t[0, 0]) ** 2
    assert abs(h - h_want[0, 0]) <= 1e-12
    assert abs(p - p_want[0, 0]) <= 1e-12
    assert conformal <= 1e-12


@pytest.mark.parametrize("n, bounds", [(61, (1e-7, 1e-8, 1e-6)), (121, (1e-8, 1e-7, 1e-5))])
def test_closed_forms_agree_with_the_moving_frame_reduction(n, bounds):
    # within the reduction's own error, which it grows from eps / h^4: it reads
    # t, h, p to 2.1e-8, 3.2e-9, 3.1e-7 at 61^2 and 1.4e-9, 1.8e-8, 5.5e-6 at 121^2
    m = sg.closed_form_immersion(PARAMS, square(n))
    inv, _ = sg.invariants_from_immersion(m)
    _, frame_inv, _ = reduction_pipeline(m)
    assert inv.geometry == frame_inv.geometry
    et = min(np.max(np.abs(inv.t - frame_inv.t)), np.max(np.abs(inv.t + frame_inv.t)))
    got = (et, np.max(np.abs(inv.h - frame_inv.h)), np.max(np.abs(inv.p - frame_inv.p)))
    assert all(e <= bound for e, bound in zip(got, bounds)), got


@pytest.mark.parametrize("name, n", [("quad", 61), ("rotation", 121)])
def test_closed_forms_agree_with_the_reduction_on_a_complex_h(name, n):
    # the reduction's stage 1 differences f with diff4, whose truncation fails
    # these Lagrangian surfaces at tol_frame, and its gauge gates fail at
    # tol_gauge, on these grids, so only it takes loose tolerances; the
    # agreement read 2.8e-7, 2.3e-8, 3.4e-7 (quad) and 1.1e-9, 1.7e-8, 5.3e-6
    # (rotation)
    loose = sg.Tolerances(tol_frame=1.0, tol_gauge=1e-3)
    m, *_ = reparametrized_closed_form(PARAMS, *MAPS[name], square(n))
    inv, _ = sg.invariants_from_immersion(m)
    _, frame_inv, _ = reduction_pipeline(m, loose)
    et = min(np.max(np.abs(inv.t - frame_inv.t)), np.max(np.abs(inv.t + frame_inv.t)))
    assert et <= 1e-6
    assert np.max(np.abs(inv.h - frame_inv.h)) <= 1e-7
    assert np.max(np.abs(inv.p - frame_inv.p)) <= 1e-5


@pytest.mark.parametrize("name", ["quad", "cubic", "rotation"])
@pytest.mark.parametrize("n", [61, 121, 241])
def test_reparametrized_surfaces_at_default_tolerances(n, name):
    # worst over the three maps: t 6.5e-11, h 1.6e-10, p 1.25e-6 (cubic, 241^2);
    # the bounds are 4x those.  The fitted f_x and f_y read these surfaces as
    # Lagrangian to 5e-11; diff4's read 6.2e-7 (quad), 1.4e-6 (cubic) and
    # 4.1e-8 (rotation) at 61^2, above tol_frame
    m, t, h, p = reparametrized_closed_form(PARAMS, *MAPS[name], square(n))
    inv, gates = sg.invariants_from_immersion(m)
    et, eh, ep = errors(inv, t, h, p)
    assert et <= 2.6e-10 and eh <= 6.4e-10 and ep <= 5e-6
    assert np.max(gates["conformal"]) <= 1e-9


def h0_immersion(geom):
    """The integrated h = 0 surface of t = 1 + 0.3 z, p = 0.5 + 0.2 z^2, and
    its triple."""
    z = geom.zmesh()
    inv = sg.InvariantTriple(geom, 1.0 + 0.3 * z, 0.0, 0.5 + 0.2 * z**2)
    F = sg.integrate_frame(sg.theta_from_invariants(inv), compute_path_defect=False)
    return sg.immersion_from_frame(F), inv


def closed_form(geom):
    xx, yy = geom.mesh()
    return sg.closed_form_immersion(PARAMS, geom), sg.InvariantTriple(
        geom, sg.separated_t(PARAMS, xx, yy), 1.0, PARAMS.p)


@pytest.mark.parametrize("surface", [closed_form, h0_immersion], ids=["closed-form", "h0"])
def test_p_error_stays_bounded_under_refinement(surface):
    # The fits have a fixed physical half-width, 0.025, so their round-off
    # does not grow as h falls; the reduction's grows like eps / h^4, and it
    # raises NotAdapted at 481^2.  On the 8-node crop the error grows only
    # where the kept nodes near the edge come closer to it (6.9x and 7.5x
    # from 121^2 to 481^2); 0.025 from the edge it does not grow at all.
    err, inner = [], []
    for n in (121, 481):
        m, exact = surface(square(n))
        inv, _ = sg.invariants_from_immersion(m)
        e = np.abs(inv.p - exact.p[8:-8, 8:-8])
        k = round(0.025 / inv.geometry.dx) - 8
        err.append(np.max(e))
        inner.append(np.max(e[k:-k, k:-k]))
    assert err[0] <= 1e-7 and err[1] <= 10.0 * err[0]
    assert inner[1] <= 1.5 * inner[0]


def test_ellipticity_reads_one_on_adapted_cubics():
    # a conformal coordinate makes the cubic form apolar, Re(A dz^3)
    for params in (PARAMS, sg.ConstantFamilyParams(p=-1.5, c1=0.8, c2=1.2)):
        q = _ellipticity(joined_partials(sg.closed_form_immersion(params, square(61))))
        assert np.max(np.abs(q - 1.0)) <= 1e-9


def test_a_one_percent_shear_fails_the_conformal_gate():
    geom = square(121)
    xx, yy = geom.mesh()
    m = sg.ImmersionGrid(geom, _closed_form_at(PARAMS, xx + 0.01 * yy, yy).real)
    with pytest.raises(NotAdapted, match="conformal") as err:
        sg.invariants_from_immersion(m)
    assert 1e-3 < err.value.value < 1e-2


def test_the_lagrangian_defect_is_read_one_way():
    # the invariants report, the library function and the gates all read the
    # fitted partials, and f_x and f_y are the same numbers at any order
    m, *_ = reparametrized_closed_form(PARAMS, *MAPS["quad"], square(61))
    _, gates = sg.invariants_from_immersion(m)
    assert gates["lagrangian_defect"].tobytes() == sg.lagrangian_defect(m)[8:-8, 8:-8].tobytes()
    first, whole = joined_partials(m, 1), joined_partials(m)
    assert sorted(first) == [(0, 1), (1, 0)]
    for k in first:
        assert first[k].tobytes() == whole[k].tobytes()


def test_a_wide_margin_reads_the_same_numbers():
    # at 61^2 with margin 20, the kept columns 20 .. 40 leave the y bands of
    # columns 0 .. 15 and 48 .. 60 with no kept node; every output is the
    # margin-8 run's, cut by 12 more nodes per side.  t's phase is unwrapped
    # from each crop's own corner, so t is compared by its modulus
    m, *_ = reparametrized_closed_form(PARAMS, *MAPS["quad"], square(61))
    (inv, gates), (wide, wide_gates) = (sg.invariants_from_immersion(m, margin=k) for k in (8, 20))
    assert wide.t.shape == (21, 21)
    pairs = [(wide.h, inv.h), (wide.p, inv.p), (np.abs(wide.t), np.abs(inv.t))]
    pairs += [(wide_gates[k], gates[k]) for k in ("conformal", "lagrangian_defect")]
    for got, want in pairs:
        assert got.tobytes() == want[12:-12, 12:-12].tobytes()


def test_the_fit_operator_is_read_only():
    blocks = _fit_operator(61, 0.005)
    assert [b[:2] for b in blocks] == [(0, 16), (16, 32), (32, 48), (48, 61)]
    for *_, W in blocks:
        with pytest.raises(ValueError, match="read-only"):
            W[0, 0, 0] = 1.0


def dense_partials(m) -> dict:
    """f's partials from whole (5, n, n) fit matrices, one `_fit_weights` row
    per node: the x fits, then the y fits, as (4, nx, ny) arrays; and the
    max row sums of |weights| per derivative order on each axis."""
    g, out, norms = m.geometry, {}, []
    Wx, Wy = (np.stack([_fit_weights(n, k, max(2, round(_FIT_RADIUS / h)), _FIT_DEGREE, h, 4)
                        for k in range(n)], axis=1) for n, h in ((g.nx, g.dx), (g.ny, g.dy)))
    for i in range(5):
        G = np.tensordot(Wx[i], m.f, axes=(1, 0))
        for j in range(i == 0, 5 - i):
            out[i, j] = np.tensordot(Wy[j], G, axes=(1, 1)).transpose(2, 1, 0)
    return out, [np.max(np.sum(np.abs(W), axis=-1), axis=-1) for W in (Wx, Wy)]


@pytest.mark.parametrize("geom", [square(61), square(121), square(241),
                                  sg.GridGeometry(121, 97, 0.0, 0.0, 0.0025, 0.003),
                                  sg.GridGeometry(7, 61, 0.0, 0.0, 0.001, 0.005)],
                         ids=["61", "121", "241", "121x97", "7x61"])
def test_the_banded_fits_match_whole_fit_matrices(geom):
    # in units of the round-off of one fit product, eps max |f| |Wx[i]| |Wy[j]|
    # with |W| the max row sum of |weights|, the worst per order i + j over
    # these grids read 0.20, 0.16, 0.12, 0.15; the bounds are about twice
    # those.  The 7-node axis lies in one window, which spans it whole
    bounds = {1: 0.4, 2: 0.4, 3: 0.25, 4: 0.3}
    m = sg.closed_form_immersion(PARAMS, geom)
    P, (want, (nx, ny)) = joined_partials(m), dense_partials(m)
    assert sorted(P) == sorted(want)
    scale = np.finfo(float).eps * np.max(np.abs(m.f))
    for (i, j), v in P.items():
        assert v.shape == (4, geom.nx, geom.ny)
        err = np.max(np.abs(v - want[i, j])) / (scale * nx[i] * ny[j])
        assert err <= bounds[i + j], ((i, j), err)


def test_a_non_square_anisotropic_grid_recovers_the_closed_form():
    # nx != ny and dx != dy, at the 121^2 bounds of
    # test_closed_forms_agree_with_the_moving_frame_reduction; it read t, h, p
    # to 7.7e-12, 1.8e-11, 1.1e-7
    geom = sg.GridGeometry(121, 97, 0.0, 0.0, 0.0025, 0.003)
    xx, yy = geom.mesh()
    inv, _ = sg.invariants_from_immersion(sg.closed_form_immersion(PARAMS, geom))
    assert (inv.geometry.nx, inv.geometry.ny) == (105, 81)
    et, eh, ep = errors(inv, sg.separated_t(PARAMS, xx, yy), np.ones_like(xx),
                        np.full_like(xx, PARAMS.p))
    assert et <= 1e-8 and eh <= 1e-7 and ep <= 1e-5, (et, eh, ep)


def test_the_inverse_path_peak_memory_is_within_its_bound():
    # tracemalloc peak of one 241^2 call, its fit weights cached, in units of
    # f's own size: 16.16 (30.0 MB) while the fits were whole (n, n) matrices
    # and the crop of each partial was copied; 17.31 (32.2 MB) with banded
    # fits, 14 whole-grid partials, a cropped view and closed forms over blocks
    # of 16 kept rows (17.89 over blocks of 32); 9.03 (16.8 MB) with one pass
    # over the y bands, 5 of them the buffer of the whole-grid x fits.  The
    # bound is 1.1x the last
    m = sg.closed_form_immersion(sg.ConstantFamilyParams(p=1.0), square(241))
    sg.invariants_from_immersion(m)
    tracemalloc.start()
    try:
        sg.invariants_from_immersion(m)
        peak = tracemalloc.get_traced_memory()[1] / m.f.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 9.03, peak

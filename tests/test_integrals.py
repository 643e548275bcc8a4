import ast
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import restrictlab as rl
from restrictlab import cli, integrals, spherical
from restrictlab.errors import DomainError, ResourceError
from restrictlab.hecke import enumerate_norm_n
from restrictlab.integrals import _bilinear_sums, _window_values, modulated_gaussian

from conftest import (ALPHA_CANTOR, beta_scaling_experiment, cached_algebra,
                      cached_kernel, cached_weight, conjugated_element,
                      rapid_decay_experiment, run_runner, sampled)


def _phi_w_sampled(lam: float, alpha: float = 0.9, depth: int = 8,
                   modulated: bool = True):
    w = cached_weight(alpha, depth, lam)
    phi_fn = (lambda x: modulated_gaussian(x, lam)) if modulated \
        else (lambda x: np.exp(-0.5 * x ** 2))
    grid3, phi, f, _ = integrals._phi_w_on_window_grid(w, phi_fn, lam)
    return w, grid3, phi, f


# ---------------------------------------------------------------- windows

def test_window_supports():
    win = rl.TestWindow()
    assert win.b(0.0) == 1.0 and win.b(2.4) == 1.0
    assert win.b(3.0) == 0.0 and win.b(3.5) == 0.0


def _embedded_phi_w(w, phi_fn):
    """Oracle: phi*w as once built, on the grid -3 + h k spanning [-3, 3]
    with w's step h, w zero-extended onto it (w's nodes must lie on it)."""
    h = w.grid_step
    k0 = int(round((w.grid_min + 3.0) / h))
    assert abs(-3.0 + k0 * h - w.grid_min) <= 1e-9 * h
    n3 = int(round(6.0 / h))
    grid3 = -3.0 + h * np.arange(n3 + 1)
    wext = np.zeros(n3 + 1, dtype=complex)
    wext[k0:k0 + w.values.size] = w.values
    phi = np.asarray(phi_fn(grid3), dtype=complex)
    return grid3, rl.SampledFunction(-3.0, h, phi * wext.real)


@pytest.mark.parametrize("spw", [8, 16])
@pytest.mark.parametrize("lam", [10.0, 100.0, 200.0, 1000.0])
def test_window_grid_is_the_embedded_weight_grid(lam, spw):
    # for integer lam x spw, the padded weight grid starts on -3 and gives
    # the same phi*w, bit for bit, as the oracle
    w = cached_weight(0.9, 4, lam, spw)
    phi_fn = lambda x: modulated_gaussian(x, lam)
    grid, _, f, _ = integrals._phi_w_on_window_grid(w, phi_fn, lam)
    grid3, f3 = _embedded_phi_w(w, phi_fn)
    assert f.grid_min == f3.grid_min == -3.0 and f.grid_step == f3.grid_step
    assert np.array_equal(grid, grid3)
    assert np.array_equal(f.values, f3.values)


def test_window_grid_pads_a_weight_grid_off_the_edge():
    # lam x spw = 802.4: no node falls on -3, and the weight's own grid is
    # extended by whole steps until it covers [-3, 3]
    lam = 100.3
    w = cached_weight(0.9, 4, lam)
    h = w.grid_step
    assert h == pytest.approx(1.0 / (8 * lam), rel=1e-15)
    grid, phi, f, wpad = integrals._phi_w_on_window_grid(
        w, lambda x: modulated_gaussian(x, lam), lam)
    assert f.grid_step == h and f.grid_min == grid[0]
    assert -3.0 - h < grid[0] <= -3.0 and 3.0 - 1e-9 * h <= grid[-1] < 3.0 + h
    k0 = int(round((w.grid_min - grid[0]) / h))
    assert np.allclose(grid[k0:k0 + w.values.size], w.grid(), rtol=0, atol=1e-12)
    assert np.array_equal(wpad[k0:k0 + w.values.size], w.values)
    assert not wpad[:k0].any() and not wpad[k0 + w.values.size:].any()
    assert np.array_equal(f.values, phi * wpad)


# ---------------------------------------------------------------- banded sum

def _dense_dist(x, g, row_chunk=256):
    """Oracle distances d(a(x1) i, g a(x2) i) over the full n x n grid,
    yielded as (first row, row_chunk full rows)."""
    a, b, c, d = g.m.ravel()
    ex = np.exp(x)
    den = c * 1j * ex + d
    z2 = (a * 1j * ex + b) / den
    r2, i2 = z2.real, z2.imag
    for i0 in range(0, x.size, row_chunk):
        e1 = ex[i0:i0 + row_chunk][:, None]
        dr = r2[None, :]
        di = i2[None, :] - e1
        yield i0, 2.0 * np.arcsinh(np.sqrt(dr * dr + di * di)
                                   / (2.0 * np.sqrt(e1 * i2[None, :])))


def _dense_bilinear_sum(kernel, u1, u2, x, h, g):
    """Oracle: the full n x n distance matrix with the spline on every entry."""
    supp = kernel.support_radius + 2 * kernel.x_step
    total = 0.0 + 0.0j
    for i0, dist in _dense_dist(x, g):
        K = np.where(dist <= supp, kernel.radial(dist), 0.0)
        total += np.conj(u1[i0:i0 + dist.shape[0]]) @ (K @ u2)
    return total * h * h


def _oracle_element(name: str):
    g0 = rl.GroupElement.diag_flow(0.17) @ rl.GroupElement.rotation(0.387)
    if name == "e":
        return rl.GroupElement.identity()
    if name == "-e":
        # GroupElement canonicalises the sign away; the sum only reads .m
        return SimpleNamespace(m=-np.eye(2))
    if name.startswith("shear"):
        return rl.GroupElement.lower_shear(float(name[5:]))
    if name == "diag_rot":
        return g0
    if name.startswith("rot"):
        return rl.GroupElement.rotation(float(name[3:]))
    if name == "norm12":
        alg = cached_algebra()
        gamma = enumerate_norm_n(alg, 12, g0)[0][0]
        return conjugated_element(alg, gamma, 12, g0)
    raise ValueError(name)


def _oracle_inputs(grid: str):
    """(u, x, h) at lam=100: the full window, its even entries ("half"), its
    slice x in [-1.25, 0.25] ("small"), where some bands run off the grid's
    ends, or that slice shifted by one node ("odd"), which starts at an odd
    index and has an odd length."""
    _, _, _, f = _phi_w_sampled(100.0)
    u, x, h = _window_values(rl.TestWindow(), f), f.grid(), f.grid_step
    if grid == "half":
        u, x, h = u[::2], x[::2], 2 * h
    if grid in ("small", "odd"):
        cut = slice(1400, 2601) if grid == "small" else slice(1401, 2602)
        u, x = u[cut], x[cut]
    return u, x, h


def _assert_agree(banded, dense, scale):
    # relative agreement, with a floor far below every value the cases reach
    assert abs(banded - dense) <= 1e-12 * max(abs(dense), 1e-9 * scale)


@pytest.mark.parametrize("grid", ["full", "small", "odd"])
@pytest.mark.parametrize("name", ["e", "-e", "shear0.01", "shear0.5", "diag_rot",
                                  "norm12"])
def test_banded_sum_matches_dense(kernel100, name, grid):
    # one pass gives the sum on the grid and on its even entries
    u, x, h = _oracle_inputs(grid)
    g = _oracle_element(name)
    full, half = _bilinear_sums(kernel100, u, u, x, h, g)
    dense = _dense_bilinear_sum(kernel100, u, u, x, h, g)
    dense_half = _dense_bilinear_sum(kernel100, u[::2], u[::2], x[::2], 2 * h, g)
    assert dense != 0 and dense_half != 0
    _assert_agree(full, dense, h * h * np.abs(u).sum() ** 2)
    _assert_agree(half, dense_half, 4 * h * h * np.abs(u[::2]).sum() ** 2)


@pytest.mark.parametrize("name", ["shear0.01", "shear0.5", "diag_rot", "norm12"])
def test_band_form_matches_moebius_distance(name):
    # the closed form against the complex Moebius image it replaced, on a
    # 64 x 64 sample of cells, most within 0.75 of the diagonal: cosh d from
    # (A t2 + B / t2) / 2, and sinh^2(d/2) from the sum of two squares that
    # the banded sum evaluates, both within 1e-12 relative
    _, x, _ = _oracle_inputs("full")
    g = _oracle_element(name)
    t, A, B, C = integrals._band_form(g.m, x)
    assert np.allclose(A * B - C * C, 1.0, rtol=0, atol=1e-12 * (A * B).max())
    rng = np.random.default_rng(3)
    rows = rng.integers(0, x.size, 64)
    cols = np.clip(rows[:, None] + rng.integers(-600, 601, (64, 64)), 0, x.size - 1)
    cols[:, :8] = rng.integers(0, x.size, (64, 8))
    p, q, e = np.sqrt(A) / 2, np.sqrt(B) / 2, C * C / (2 * (np.sqrt(A * B) + 1))
    for i, row in zip(rows, cols):
        for j in row:
            d = rl.dist_hyp(1j * np.exp(x[i]), rl.act(g, 1j * np.exp(x[j])))
            cosh = 0.5 * (A[i] * t[j] + B[i] / t[j])
            assert abs(cosh - np.cosh(d)) <= 1e-12 * np.cosh(d)
            sinh2 = (p[i] * t[j] - q[i]) ** 2 / t[j] + e[i]
            assert abs(sinh2 - np.sinh(d / 2) ** 2) <= 1e-12 * np.sinh(d / 2) ** 2


def test_banded_sum_far_element_is_exactly_zero(kernel100):
    # a(8) moves every window point about 8 away: no row has an in-band pair
    u, x, h = _oracle_inputs("full")
    g = rl.GroupElement.diag_flow(8.0)
    assert _bilinear_sums(kernel100, u, u, x, h, g) == (0, 0)
    assert _dense_bilinear_sum(kernel100, u, u, x, h, g) == 0
    lo, hi = integrals._row_bands(g.m, x, h, kernel100.reach)
    assert (hi < lo).all()


@pytest.mark.parametrize("t", [1e20, 1e200, 1e308])
def test_huge_shear_is_exactly_zero_without_warnings(kernel100, t):
    # the band coefficients A (and at 1e308 the coordinates) overflow; every
    # band is empty, so the value is exactly 0 and no numpy warning is raised
    _, _, _, f = _phi_w_sampled(100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = rl.eval_I(kernel100, rl.TestWindow(), f, rl.GroupElement.lower_shear(t))
    assert rep.value == 0 and rep.error_estimate == 0 and rep.converged


@pytest.mark.parametrize("grid", ["full", "half", "small", "odd"])
@pytest.mark.parametrize("name", ["e", "-e", "shear0.01", "shear0.5", "diag_rot",
                                  "norm12"])
def test_banded_sum_matches_dense_sesquilinear(kernel100, name, grid):
    u1, x, h = _oracle_inputs(grid)
    u2 = u1 * np.exp(-(x - 0.4) ** 2) * np.exp(-3j * x)
    g = _oracle_element(name)
    full, half = _bilinear_sums(kernel100, u1, u2, x, h, g)
    for value, step in ((full, 1), (half, 2)):
        v1, v2, hh = u1[::step], u2[::step], h * step
        dense = _dense_bilinear_sum(kernel100, v1, v2, x[::step], hh, g)
        _assert_agree(value, dense, hh * hh * np.abs(v1).sum() * np.abs(v2).sum())


def _full_band_sums(kernel, u1, u2, x, h, g):
    """Oracle: the banded sums as they read the whole band before the
    symmetric half band, every row chunk one full rectangle of
    `check_band_budget`'s sesquilinear count; real parts at a^2 = d^2 for
    u1 is u2."""
    real = u1 is u2 and g.m[0, 0] ** 2 == g.m[1, 1] ** 2
    full = half = 0j
    bands = integrals.check_band_budget(g, x, h, kernel.reach)
    if bands is not None:
        first, start, widths = bands
        t, A, B, C = integrals._band_form(g.m, x)
        p, q, e = np.sqrt(A) / 2, np.sqrt(B) / 2, C * C / (2 * (np.sqrt(A * B) + 1))
        pad = (0, int(widths.max()))
        t, u2 = np.pad(t, pad, constant_values=1.0), np.pad(u2, pad)
        for c0, width in zip(range(0, start.size, integrals.ROW_CHUNK), widths):
            cols = start[c0:c0 + integrals.ROW_CHUNK, None] + np.arange(width)
            rows = slice(first + c0, first + c0 + cols.shape[0])
            tc = t[cols]
            s = np.square(p[rows, None] * tc - q[rows, None]) / tc + e[rows, None]
            terms = kernel.radial(2.0 * np.arcsinh(np.sqrt(s))) * u2[cols]
            full += np.conj(u1[rows]) @ terms.sum(axis=1)
            half += np.conj(u1[rows][::2]) @ terms[::2, ::2].sum(axis=1)
        full, half = full * h * h, half * (2 * h) * (2 * h)
    return (complex(full.real), complex(half.real)) if real else (full, half)


@pytest.mark.parametrize("grid", ["full", "small", "odd"])
@pytest.mark.parametrize("name", ["shear0.01", "shear0.5", "diag_rot", "rot0.4", "rot1.0"])
def test_half_band_matches_full_band(kernel100, name, grid):
    # the quadratic sum of a shear or a rotation reads only the cells on and
    # above the diagonal; against the whole band it replaced, to 1e-12
    # relative, on grids of even and odd length (the odd grid also starts at
    # an odd index); diag_rot (a^2 != d^2) still reads the whole band, so
    # there the two agree bit for bit
    u, x, h = _oracle_inputs(grid)
    g = _oracle_element(name)
    sums = _bilinear_sums(kernel100, u, u, x, h, g)
    oracle = _full_band_sums(kernel100, u, u, x, h, g)
    if name == "diag_rot":
        assert sums == oracle
    for value, full, step in zip(sums, oracle, (1, 2)):
        assert full != 0 and (value.imag == 0) == (name != "diag_rot")
        _assert_agree(value, full, (h * step) ** 2 * np.abs(u[::step]).sum() ** 2)


def test_half_band_cases_reach_past_the_diagonal(kernel100):
    # the half-band cases above include rows whose band starts past their
    # diagonal column, rows whose band ends before it, and (rotation 1.0) a
    # chunk in which every band ends before its diagonal, so it reads no cell
    u, x, h = _oracle_inputs("full")
    i = np.arange(x.size)
    for name, empty_chunk in (("rot0.4", False), ("rot1.0", True)):
        g = _oracle_element(name)
        lo, hi = integrals._row_bands(g.m, x, h, kernel100.reach)
        filled = hi >= lo
        assert (filled & (lo > i)).any() and (filled & (hi < i)).any()
        _, _, widths = integrals.check_band_budget(g, x, h, kernel100.reach, True)
        assert (widths == 0).any() == empty_chunk


@pytest.mark.parametrize("name", ["shear0.3", "rot0.4", "diag_rot", "norm12"])
@pytest.mark.parametrize("quadratic", [True, False])
def test_band_budget_counts_the_cells_the_sum_reads(kernel100, name, quadratic):
    # check_band_budget's count is the number of cells the sum passes to the
    # kernel spline: the half band for a quadratic sum of a shear or a
    # rotation, the whole band otherwise
    u, x, h = _oracle_inputs("full")
    u2 = u if quadratic else u * np.exp(-3j * x)
    g = _oracle_element(name)
    first, start, widths = integrals.check_band_budget(g, x, h, kernel100.reach, quadratic)
    rows = np.diff(np.arange(0, start.size, integrals.ROW_CHUNK), append=start.size)
    read = []

    def radial(d):
        read.append(d.size)
        return kernel100.radial(d)

    counted = SimpleNamespace(reach=kernel100.reach, radial=radial)
    _bilinear_sums(counted, u, u2, x, h, g)
    assert sum(read) == rows @ widths > 0
    full = integrals.check_band_budget(g, x, h, kernel100.reach)
    half = quadratic and name in ("shear0.3", "rot0.4")
    assert (rows @ widths < rows @ full[2]) == half


@pytest.mark.parametrize("name", ["norm12", "random"])
def test_inverse_integral_is_the_conjugate(kernel100, name):
    # K(g^-1) is K(g) transposed and real, so with one function in both slots
    # I(g^-1) = conj I(g): the sums on the grid and on its even entries each
    # to 1e-12 relative, so the error estimate, their difference, to 1e-12
    # of the value
    _, _, _, f = _phi_w_sampled(100.0)
    u, x, h = _window_values(rl.TestWindow(), f), f.grid(), f.grid_step
    if name == "norm12":
        g = _oracle_element("norm12")
    else:
        from scipy.linalg import expm
        x1, x2, x3 = np.random.default_rng(4).uniform(-0.3, 0.3, 3)
        g = rl.GroupElement(expm(np.array([[x1, x2], [x3, -x1]])))
    assert g.m[0, 0] ** 2 != g.m[1, 1] ** 2
    for value, inverse in zip(_bilinear_sums(kernel100, u, u, x, h, g),
                              _bilinear_sums(kernel100, u, u, x, h, g.inv())):
        assert value.imag != 0
        assert abs(inverse - value.conjugate()) <= 1e-12 * abs(value)
    rep = rl.eval_I(kernel100, rl.TestWindow(), f, g)
    inv = rl.eval_I(kernel100, rl.TestWindow(), f, g.inv())
    assert abs(inv.value - rep.value.conjugate()) <= 1e-12 * abs(rep.value)
    assert abs(inv.error_estimate - rep.error_estimate) <= 1e-12 * abs(rep.value)


@pytest.mark.parametrize("grid", ["full", "small", "half"])
@pytest.mark.parametrize("name", ["e", "-e", "shear0.01", "shear0.5", "diag_rot",
                                  "norm12"])
def test_closed_band_contains_dense_support(kernel100, name, grid):
    _, x, h = _oracle_inputs("full" if grid == "half" else grid)
    if grid == "half":
        x, h = x[::2], 2 * h
    g = _oracle_element(name)
    supp = kernel100.reach
    lo, hi = integrals._row_bands(g.m, x, h, supp)
    cols = np.arange(x.size)
    inside_any = False
    for i0, dist in _dense_dist(x, g):
        rows = slice(i0, i0 + dist.shape[0])
        band = (cols >= lo[rows, None]) & (cols <= hi[rows, None])
        inside = dist <= supp
        inside_any |= inside.any()
        assert not (inside & ~band).any()
        # so every pair the kernel does not send to exactly 0 is in the band
        assert not ((kernel100.radial(dist) != 0) & ~band).any()
    assert inside_any


@pytest.mark.parametrize("lam", [10.0, 99.97, 100.03, 200.0, 777.7])
def test_radial_is_exactly_zero_past_band_support(lam):
    # the band rectangles' cells outside the bands lie past this radius, so
    # they add exactly 0; checked up to the kernel's x_max = 1, past its table
    kernel = cached_kernel(lam)
    supp = kernel.reach
    nodes = kernel.x_grid()
    d = np.concatenate([np.linspace(supp, 1.0, 200001), nodes])
    assert not kernel.radial(d[d >= supp]).any()


def test_sampling_minimum_has_one_owner(kernel100, monkeypatch):
    # raising measures' minimum to 16 refuses an 8-per-wavelength grid in the
    # weight budget, in eval_I and in the integral runs' schema alike
    _, _, _, f = _phi_w_sampled(100.0)
    assert f.grid_step == pytest.approx(1.0 / 800.0, rel=1e-15)
    rl.eval_I(kernel100, rl.TestWindow(), f, rl.GroupElement.identity())
    monkeypatch.setattr(rl.measures, "MIN_SAMPLES_PER_WAVELENGTH", 16)
    with pytest.raises(DomainError, match="at least 16 samples"):
        rl.measures.check_weight_budget(256, 100.0, 8)
    with pytest.raises(DomainError, match="under-resolves"):
        rl.eval_I(kernel100, rl.TestWindow(), f, rl.GroupElement.identity())
    with pytest.raises(DomainError, match="resolution_per_wavelength"):
        cli.load_config(experiment="integrals", overrides={"resolution_per_wavelength": 8})


def test_band_budget_refuses_lambda_16000_shear(monkeypatch):
    # counted on the lam = 16000 window grid (step 1/(8 lam) over [-3, 3])
    # at shear 0.3, with the kernel's reach at lam; no kernel is built
    lam = 16000.0
    h = 1.0 / (8.0 * lam)
    x = h * np.arange(-384000, 384001)
    reach = spherical._kernel_reach(lam)
    g = rl.GroupElement.lower_shear(0.3)
    with pytest.raises(ResourceError, match="band cells"):
        integrals.check_band_budget(g, x, h, reach)
    budget = integrals.BAND_BUDGET
    assert budget == 1 << 30
    with pytest.raises(ResourceError, match="band cells"):
        integrals.check_band_budget(g, x, h, reach, quadratic=True)
    monkeypatch.setattr(integrals, "BAND_BUDGET", 1 << 62)
    first, start, widths = integrals.check_band_budget(g, x, h, reach)
    rows = np.diff(np.arange(0, start.size, integrals.ROW_CHUNK), append=start.size)
    assert first % 2 == 0 and not (start % 2).any()
    assert rows @ widths > 10 * budget
    # the quadratic sum's half band: even rows still start on even columns
    first, start, widths = integrals.check_band_budget(g, x, h, reach, quadratic=True)
    assert first % 2 == 0 and not (start[::2] % 2).any()
    assert 5 * budget < rows @ widths < 7 * budget


def _direct_toeplitz_sums(kernel, u1, u2, h):
    """Oracle: the g = +-e sums by one direct np.convolve of u2 with the
    symmetric lag profile, as `_toeplitz_sums` computed them before the FFT."""
    supp = kernel.support_radius + 2 * kernel.x_step
    lag = h * np.arange(min(int(supp / h), u2.size - 1) + 1)
    k = kernel.radial(lag)

    def convolved(v1, v2, k, h):
        m = k.size - 1
        rows = np.convolve(v2, np.concatenate([k[:0:-1], k]))[m:m + v2.size]
        return np.sum(np.conj(v1) * rows) * h * h

    return convolved(u1, u2, k, h), convolved(u1[::2], u2[::2], k[::2], 2 * h)


@pytest.mark.parametrize("lam", [100.0, 800.0])
def test_toeplitz_sums_match_direct_convolution(lam):
    # the FFT convolution against the direct one, full and half sums, for a
    # quadratic (u1 is u2) and a sesquilinear pair
    kernel = cached_kernel(lam)
    _, _, _, f = _phi_w_sampled(lam)
    u, x, h = _window_values(rl.TestWindow(), f), f.grid(), f.grid_step
    u2 = u * np.exp(-(x - 0.4) ** 2) * np.exp(-3j * x)
    radial_max = np.abs(kernel.values).max()
    for v2 in (u, u2):
        sums = integrals._toeplitz_sums(kernel, u, v2, h)
        oracle = _direct_toeplitz_sums(kernel, u, v2, h)
        for value, direct, step in zip(sums, oracle, (1, 2)):
            hh = h * step
            scale = hh * hh * np.abs(u[::step]).sum() * np.abs(v2[::step]).sum() * radial_max
            assert abs(value - direct) <= 1e-15 * scale
            assert direct != 0


def test_quadratic_sum_at_identity_is_exactly_real(kernel100):
    # a Hermitian form of a real symmetric matrix, Toeplitz at +-e and banded
    # at a shear or a rotation (a^2 = d^2): its rounding-level imaginary part
    # is not reported
    _, _, _, f = _phi_w_sampled(100.0)
    u = _window_values(rl.TestWindow(), f)
    for g in (*map(_oracle_element, ("e", "-e", "shear0.01", "shear0.5")),
              rl.GroupElement.rotation(0.387)):
        full, half = _bilinear_sums(kernel100, u, u, f.grid(), f.grid_step, g)
        assert full.imag == 0.0 and half.imag == 0.0 and full.real != 0
    rep = rl.eval_I(kernel100, rl.TestWindow(), f, rl.GroupElement.identity())
    assert rep.value.imag == 0.0 and rep.value.real != 0


def test_identity_sum_takes_toeplitz_path(kernel100, monkeypatch):
    def no_bands(*args):
        raise AssertionError("_row_bands called")

    monkeypatch.setattr(integrals, "_row_bands", no_bands)
    u, x, h = _oracle_inputs("full")
    for name in ("e", "-e"):
        assert 0 not in _bilinear_sums(kernel100, u, u, x, h, _oracle_element(name))
    # every other element still takes the banded path
    with pytest.raises(AssertionError, match="_row_bands"):
        _bilinear_sums(kernel100, u, u, x, h, _oracle_element("shear0.01"))


# ---------------------------------------------------------------- eval_I

def test_eval_I_zero_function(kernel100):
    win = rl.TestWindow()
    w, grid3, phi, f = _phi_w_sampled(100.0)
    z = rl.SampledFunction(f.grid_min, f.grid_step, np.zeros_like(f.values))
    rep = rl.eval_I(kernel100, win, z, rl.GroupElement.identity())
    assert rep.value == 0


def test_eval_I_quadratic_scaling(kernel100):
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    rep1 = rl.eval_I(kernel100, win, f, rl.GroupElement.identity())
    f3 = rl.SampledFunction(f.grid_min, f.grid_step, 3.0j * f.values)
    rep3 = rl.eval_I(kernel100, win, f3, rl.GroupElement.identity())
    assert rep3.value == pytest.approx(9.0 * rep1.value, rel=1e-12)


def test_eval_I_real_for_symmetric_real_input(kernel100):
    # real input, even kernel, g = e: the bilinear sum is real
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0, modulated=False)
    rep = rl.eval_I(kernel100, win, f, rl.GroupElement.identity())
    assert abs(rep.value.imag) <= max(rep.error_estimate, 1e-12 * abs(rep.value))


def test_eval_I_sesquilinearity(kernel100):
    win = rl.TestWindow()
    _, grid3, _, f = _phi_w_sampled(100.0)
    rng = np.random.default_rng(21)
    g = rl.GroupElement.identity()
    f2 = rl.SampledFunction(f.grid_min, f.grid_step,
                            f.values * np.exp(-(grid3 - 0.4) ** 2))
    a, b = 0.7 - 0.2j, -0.3 + 1.1j
    combo = rl.SampledFunction(f.grid_min, f.grid_step, a * f.values + b * f2.values)
    lhs = rl.eval_I(kernel100, win, combo, g).value
    rhs = (abs(a) ** 2 * rl.eval_I_pair(kernel100, win, f, f, g).value
           + np.conj(a) * b * rl.eval_I_pair(kernel100, win, f, f2, g).value
           + np.conj(b) * a * rl.eval_I_pair(kernel100, win, f2, f, g).value
           + abs(b) ** 2 * rl.eval_I_pair(kernel100, win, f2, f2, g).value)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_eval_I_underresolved_grid(kernel100):
    win = rl.TestWindow()
    f = sampled(lambda x: np.exp(-x ** 2), -3.0, 3.0, 0.01)
    with pytest.raises(DomainError):
        rl.eval_I(kernel100, win, f, rl.GroupElement.identity())


def test_eval_I_error_estimate_reported(kernel100):
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    rep = rl.eval_I(kernel100, win, f, rl.GroupElement.identity())
    assert rep.error_estimate >= 0
    assert rep.converged
    assert rep.error_estimate <= 0.01 * abs(rep.value)


def test_band_split_reassembly(kernel100):
    # I(f) = I(pass) + cross terms + I(complement), and each route is within
    # twice the doubling error of the direct value
    win = rl.TestWindow()
    lam, beta = 100.0, 10.0
    _, _, _, f = _phi_w_sampled(lam)
    p = rl.band_project(lam, beta, f, "pass")
    c = rl.band_project(lam, beta, f, "complement")
    g = rl.GroupElement.identity()
    direct = rl.eval_I(kernel100, win, f, g)
    parts = (rl.eval_I_pair(kernel100, win, p, p, g).value
             + rl.eval_I_pair(kernel100, win, p, c, g).value
             + rl.eval_I_pair(kernel100, win, c, p, g).value
             + rl.eval_I_pair(kernel100, win, c, c, g).value)
    assert abs(parts - direct.value) <= max(2 * direct.error_estimate,
                                            1e-9 * abs(direct.value))


def test_uniform_bound_constant_stable_in_lambda():
    # max over a small grid of g near e of |I|/(lam^(1/2) ||phi||^2) moves by
    # less than a factor 2 between lam = 50 and lam = 100
    win = rl.TestWindow()
    rng = np.random.default_rng(9)
    consts = []
    for lam in (50.0, 100.0):
        kern = cached_kernel(lam)
        w = cached_weight(ALPHA_CANTOR, 6, lam)
        _, phi, f, wpad = integrals._phi_w_on_window_grid(
            w, lambda x: modulated_gaussian(x, lam), lam)
        fp = rl.band_project(lam, lam ** 0.5, f, "pass")
        norm_sq = float(np.sum(np.abs(phi) ** 2 * wpad) * w.grid_step)
        best = 0.0
        gs = [rl.GroupElement.identity()]
        for _ in range(7):
            x1, x2, x3 = rng.uniform(-0.3, 0.3, 3)
            from scipy.linalg import expm
            gs.append(rl.GroupElement(expm(np.array([[x1, x2], [x3, -x1]]))))
        for g in gs:
            rep = rl.eval_I(kern, win, fp, g)
            best = max(best, abs(rep.value) / (lam ** 0.5 * norm_sq))
        consts.append(best)
    assert 0.5 <= consts[0] / consts[1] <= 2.0


# ---------------------------------------------------------------- amplified sum

def test_amplified_rhs_zero_amplifier(kernel100):
    alg = cached_algebra()
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    amp = rl.Amplifier(coeffs={2: 0.0})
    total, rows, flags = rl.amplified_rhs(alg, amp, kernel100, win, f,
                                          rl.GroupElement.identity())
    assert total == 0.0


def test_amplified_rhs_identity_amplifier(kernel100):
    # only the identity unit sits within distance 1, so the sum collapses
    alg = cached_algebra()
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    amp = rl.Amplifier(coeffs={1: 1.0})
    g0 = rl.GroupElement.identity()
    total, rows, flags = rl.amplified_rhs(alg, amp, kernel100, win, f, g0)
    direct = rl.eval_I(kernel100, win, f, g0)
    assert len(rows) == 1
    assert total == pytest.approx(abs(direct.value), rel=1e-12)


def _amplified_rhs_every_row(alg, amp, kernel, window, phi, g0):
    """Oracle: amplified_rhs with a fresh eval_I for every (m, n, d, gamma)."""
    support = amp.support()
    total, rows, flags = 0.0, [], []
    for m in support:
        for n in support:
            amn = abs(amp.coeffs[m] * amp.coeffs[n])
            if amn == 0:
                continue
            for d in range(1, min(m, n) + 1):
                if m % d or n % d:
                    continue
                v = m * n // (d * d)
                weight = amn * d / np.sqrt(m * n)
                for gamma, _ in enumerate_norm_n(alg, v, g0):
                    rep = rl.eval_I(kernel, window, phi,
                                    conjugated_element(alg, gamma, v, g0))
                    if not rep.converged:
                        flags.append((m, n, d, gamma, rep.error_estimate))
                    term = weight * abs(rep.value)
                    total += term
                    rows.append({"m": m, "n": n, "d": d, "gamma": str(gamma),
                                 "term": term, "abs_I": abs(rep.value),
                                 "error": rep.error_estimate})
    return total, rows, flags


def _assert_pairs_match_oracle(alg, g0, got, expected, evaluated):
    """amplified_rhs's (total, rows, flags) against the one-eval-per-row
    oracle.  A row whose element was integrated (its matrix bytes in
    `evaluated`) equals the oracle's row exactly.  Any other row took its
    inverse partner's report: its abs_I and error equal the partner row's
    bit for bit, and agree with the oracle's to 1e-12 relative (the error,
    a difference of two sums of about |I|, to 1e-12 of abs_I).  Returns the
    number of paired rows."""
    (total, rows, flags), (e_total, e_rows, e_flags) = got, expected
    assert len(rows) == len(e_rows) and len(flags) == len(e_flags)
    by_key = {(r["m"], r["n"], r["d"], r["gamma"]): r for r in rows}
    paired = 0
    for row, e_row in zip(rows, e_rows):
        gamma = ast.literal_eval(row["gamma"])
        v = row["m"] * row["n"] // row["d"] ** 2
        if conjugated_element(alg, gamma, v, g0).m.tobytes() in evaluated:
            assert row == e_row
            continue
        paired += 1
        bar = integrals._conjugate_coords(alg, gamma)
        assert bar != gamma
        partner = by_key[(row["m"], row["n"], row["d"], str(bar))]
        assert conjugated_element(alg, bar, v, g0).m.tobytes() in evaluated
        assert (row["abs_I"], row["error"]) == (partner["abs_I"], partner["error"])
        assert row["term"] == partner["term"]
        assert [row[k] for k in ("m", "n", "d", "gamma")] == \
            [e_row[k] for k in ("m", "n", "d", "gamma")]
        for key in ("abs_I", "term"):
            assert row[key] == pytest.approx(e_row[key], rel=1e-12, abs=0)
        assert abs(row["error"] - e_row["error"]) <= 1e-12 * e_row["abs_I"]
    assert total == pytest.approx(e_total, rel=1e-12, abs=0)
    for flag, e_flag in zip(flags, e_flags):
        assert flag[:4] == e_flag[:4]
        assert flag[4] == pytest.approx(e_flag[4], rel=1e-12, abs=0)
    return paired


def _recorded_evaluations(monkeypatch):
    """(calls, bands): the matrix bytes of every element amplified_rhs
    integrates, and the (matrix bytes, grid size) of every band it reads."""
    calls, bands = [], []
    eval_I, row_bands = integrals.eval_I, integrals._row_bands

    def counted(kernel, window, phi, g):
        calls.append(g.m.tobytes())
        return eval_I(kernel, window, phi, g)

    def recorded(m, x, h, supp):
        bands.append((m.tobytes(), x.size))
        return row_bands(m, x, h, supp)

    monkeypatch.setattr(integrals, "eval_I", counted)
    monkeypatch.setattr(integrals, "_row_bands", recorded)
    return calls, bands


def test_amplified_rhs_evaluates_each_element_once(kernel100, monkeypatch):
    alg = cached_algebra()
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    g0 = rl.GroupElement.diag_flow(0.17) @ rl.GroupElement.rotation(0.387)
    amp = rl.build_amplifier(9, rl.random_hecke_eigenvalues(9, np.random.default_rng(1)))
    expected = _amplified_rhs_every_row(alg, amp, kernel100, win, f, g0)

    calls, bands = _recorded_evaluations(monkeypatch)
    got = integrals.amplified_rhs(alg, amp, kernel100, win, f, g0)
    assert len(calls) == len(set(calls)) >= 2
    assert len(got[1]) > len(calls)
    # the two non-central elements, (3, 0, -1, -1) and (3, 0, 1, 1) of norm
    # 12, are mutual inverses: the first is integrated, the second conjugated
    assert _assert_pairs_match_oracle(alg, g0, got, expected, set(calls)) > 0
    # the central element is exactly e and takes the Toeplitz path; the one
    # other integrated element reaches the band once, on the full grid only
    central = np.eye(2).tobytes()
    others = [m for m in calls if m != central]
    assert central in calls and len(others) == 1
    assert bands == [(others[0], f.n)]


@pytest.mark.parametrize("maximal", [False, True], ids=["default", "maximal"])
@pytest.mark.parametrize("N, eig_seed, y, theta", [(9, 1, 0.17, 0.387), (16, 5, 0.3, 1.1)],
                         ids=["N9", "N16"])
def test_amplified_rhs_conjugates_each_norm_once(kernel100, monkeypatch, maximal,
                                                 N, eig_seed, y, theta):
    # each distinct norm mn/d^2 is enumerated once, its survivors'
    # conjugates coming with it; each inverse pair reaches the band once, and
    # the rows built from them match the one-element oracle
    alg = cached_algebra(maximal)
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    g0 = rl.GroupElement.diag_flow(y) @ rl.GroupElement.rotation(theta)
    amp = rl.build_amplifier(N, rl.random_hecke_eigenvalues(N, np.random.default_rng(eig_seed)))
    expected = _amplified_rhs_every_row(alg, amp, kernel100, win, f, g0)

    norms = []
    enumerate_norms = integrals.enumerate_norm_n

    def counted(alg, n, g0):
        norms.append(n)
        return enumerate_norms(alg, n, g0)

    calls, bands = _recorded_evaluations(monkeypatch)
    monkeypatch.setattr(integrals, "enumerate_norm_n", counted)
    got = integrals.amplified_rhs(alg, amp, kernel100, win, f, g0)
    paired = _assert_pairs_match_oracle(alg, g0, got, expected, set(calls))
    assert len(calls) == len(set(calls))
    assert sorted(bands) == sorted((m, f.n) for m in set(calls) - {np.eye(2).tobytes()})
    support = amp.support()
    assert sorted(norms) == sorted({m * n // (d * d) for m in support for n in support
                                    for d in range(1, math.gcd(m, n) + 1)
                                    if math.gcd(m, n) % d == 0})
    assert expected[1]
    # N = 9 reaches norm 12, whose two non-central elements are inverses
    assert (paired > 0) == (N == 9)


@pytest.mark.parametrize("maximal", [False, True], ids=["default", "maximal"])
def test_conjugate_coords_pair_inverses(maximal):
    # tr(gamma) - gamma, reduced to enumerate_norm_n's +- representative, is
    # an involution on each norm's survivors (closed under it at every
    # radius) whose conjugated element is the inverse to rounding; a pure
    # gamma (trace 0) and a central one (h = e) are their own partners, and
    # no other is.  Radius 2 reaches pure elements, which ||log h|| >= pi/2
    # keeps out of the amplified sum's radius 1
    alg = cached_algebra(maximal)
    g0 = rl.GroupElement.diag_flow(0.17) @ rl.GroupElement.rotation(0.387)
    pure = 0
    for n in (1, 2, 3, 5, 6, 12, 25):
        elements = dict(enumerate_norm_n(alg, n, g0, radius=2.0))
        for gamma, hm in elements.items():
            bar = integrals._conjugate_coords(alg, gamma)
            assert bar in elements and integrals._conjugate_coords(alg, bar) == gamma
            trace = 2 * sum(b * v for b, v in zip(alg.basis[0], gamma))
            assert (bar == gamma) == (trace == 0 or np.array_equal(hm, np.eye(2)))
            pure += trace == 0
            m = hm @ elements[bar]
            assert min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max()) <= 1e-12
    assert pure > 0


def test_amplified_rhs_dominates_identity_term():
    # keeping more terms can only grow the absolute sum
    lam = 50.0
    kern = cached_kernel(lam)
    alg = cached_algebra()
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(lam, alpha=0.9, depth=6)
    g0 = rl.GroupElement.identity()
    eigs = {2: 0.9, 4: -0.19, 3: 0.8, 9: -0.36}
    amp = rl.build_amplifier(9, eigs, q=1)
    total, rows, flags = rl.amplified_rhs(alg, amp, kern, win, f, g0)
    assert total >= 0.0
    assert all(r["term"] >= 0 for r in rows)
    partial = sum(r["term"] for r in rows[: max(1, len(rows) // 2)])
    assert total >= partial


# ---------------------------------------------------------------- experiments

def _integral_run_inputs(lam: float, alpha: float = 0.9):
    """(kernel, weight) as an integral run at lam builds them, at its
    derived depth max(8, ceil(alpha log2 lam))."""
    depth = max(8, math.ceil(alpha * math.log2(lam)))
    return cached_kernel(lam), cached_weight(alpha, depth, lam)


@pytest.mark.parametrize("lam", [100.0, 400.0])
def test_beta_scaling_runner_matches_removed_driver(lam):
    rows, summary = run_runner("beta-scaling", {"lambda": lam})
    kern, w = _integral_run_inputs(lam)
    exponents = cli.load_config(experiment="beta-scaling").params["beta_exponents"]
    ref_rows, slope, norm_sq = beta_scaling_experiment(
        kern, rl.TestWindow(), w, [lam ** e for e in exponents])
    assert rows == ref_rows
    assert summary["slope"] == slope and summary["phi_norm_sq"] == norm_sq
    assert summary["slope_ok"] == (slope <= -(0.9 - 0.5) + 0.15)


@pytest.mark.parametrize("lam", [100.0, 400.0])
def test_rapid_decay_runner_matches_removed_driver(lam):
    rows, summary = run_runner("rapid-decay", {"lambda": lam})
    kern, w = _integral_run_inputs(lam)
    p = cli.load_config(experiment="rapid-decay").params
    beta = lam ** p["beta_exponent"]
    t_star, shears = integrals.rapid_decay_shears(lam, beta, p["epsilon0"], p["t_factors"])
    ref_rows, contrast = rapid_decay_experiment(kern, rl.TestWindow(), w, beta, shears)
    assert rows == ref_rows
    assert summary["contrast"] == contrast and summary["threshold_t"] == t_star


def test_beta_scaling_smoke():
    rows, summary = run_runner("beta-scaling", {"lambda": 100.0, "beta_exponents": [0.3, 0.5]})
    assert len(rows) == 2
    assert all(np.isfinite(r["normalized"]) for r in rows)
    assert summary["phi_norm_sq"] > 0


def test_rapid_decay_t0_matches_eval(kernel100):
    rows, summary = run_runner("rapid-decay", {"lambda": 100.0, "t_factors": [0.0, 4.0]})
    lam = 100.0
    w = cached_weight(0.9, 8, lam)
    _, _, f, _ = integrals._phi_w_on_window_grid(
        w, lambda x: modulated_gaussian(x, lam), lam)
    fpass = rl.band_project(lam, 10.0, f, "pass")
    direct = rl.eval_I(kernel100, rl.TestWindow(), fpass, rl.GroupElement.identity())
    assert rows[0]["abs_I"] == pytest.approx(abs(direct.value), rel=1e-12)
    assert summary["contrast"] < 1.0


def test_rapid_decay_monotone_trend():
    rows, _ = run_runner("rapid-decay", {"lambda": 100.0})
    vals = [r["abs_I"] for r in rows]
    near = vals[1:3]
    far = vals[4:]
    assert np.median(far) <= np.median(near)


def test_rapid_decay_shears_negative_factor_keeps_its_distance():
    # conjugation by diag(1, -1) maps exp(tE) to exp(-tE) and fixes A, so a
    # negative shear is as far from A as its mirror; t = 0 is on A
    _, shears = integrals.rapid_decay_shears(100.0, 10.0, 0.1, (-1.0, 0.0, 1.0))
    (_, t_neg, d_neg), (_, _, d_0), (_, t_pos, d_pos) = shears
    assert t_neg == -t_pos and d_0 == 0.0
    assert d_neg == d_pos > 0


def test_integral_report_row(kernel100):
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    rep = rl.eval_I(kernel100, win, f, rl.GroupElement.identity())
    # the positional field order that callers building a report rely on
    assert rep == rl.IntegralReport(rep.value, rep.error_estimate, 100.0,
                                    f.values.size, rep.converged)
    assert rep.converged in (True, False)

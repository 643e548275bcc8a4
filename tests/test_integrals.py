import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import restrictlab as rl
from restrictlab import integrals
from restrictlab.errors import DomainError
from restrictlab.hecke import conjugated_element, enumerate_norm_n
from restrictlab.integrals import _bilinear_sum, _window_values, modulated_gaussian

from conftest import ALPHA_CANTOR, cached_algebra, cached_kernel, cached_weight, sampled


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
    if name == "norm12":
        alg = cached_algebra()
        gamma = enumerate_norm_n(alg, 12, g0)[0]
        return conjugated_element(alg, gamma, 12, g0)
    raise ValueError(name)


def _oracle_inputs(grid: str):
    """(u, x, h) at lam=100: the full window, or its slice x in [-1.25, 0.25],
    where some bands run off the grid's end."""
    _, _, _, f = _phi_w_sampled(100.0)
    u, x = _window_values(rl.TestWindow(), f), f.grid()
    if grid == "small":
        u, x = u[1400:2601], x[1400:2601]
    return u, x, f.grid_step


def _assert_agree(banded, dense, scale):
    # relative agreement, with a floor far below every value the cases reach
    assert abs(banded - dense) <= 1e-12 * max(abs(dense), 1e-9 * scale)


@pytest.mark.parametrize("grid", ["full", "small"])
@pytest.mark.parametrize("name", ["e", "-e", "shear0.01", "shear0.5", "diag_rot",
                                  "norm12"])
def test_banded_sum_matches_dense(kernel100, name, grid):
    u, x, h = _oracle_inputs(grid)
    g = _oracle_element(name)
    banded = _bilinear_sum(kernel100, u, u, x, h, g)
    dense = _dense_bilinear_sum(kernel100, u, u, x, h, g)
    assert dense != 0
    _assert_agree(banded, dense, h * h * np.abs(u).sum() ** 2)


def test_banded_sum_far_element_is_exactly_zero(kernel100):
    # a(8) moves every window point about 8 away: no row has an in-band pair
    u, x, h = _oracle_inputs("full")
    g = rl.GroupElement.diag_flow(8.0)
    assert _bilinear_sum(kernel100, u, u, x, h, g) == 0
    assert _dense_bilinear_sum(kernel100, u, u, x, h, g) == 0
    supp = kernel100.support_radius + 2 * kernel100.x_step
    lo, hi = integrals._row_bands(g.m, x, h, supp)
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


@pytest.mark.parametrize("step", [1, 2], ids=["full", "half"])
@pytest.mark.parametrize("name", ["shear0.01", "norm12", "e"])
def test_banded_sum_matches_dense_sesquilinear(kernel100, name, step):
    u1, x, h = _oracle_inputs("full")
    u2 = u1 * np.exp(-(x - 0.4) ** 2) * np.exp(-3j * x)
    u1, u2, x, h = u1[::step], u2[::step], x[::step], h * step
    g = _oracle_element(name)
    banded = _bilinear_sum(kernel100, u1, u2, x, h, g)
    dense = _dense_bilinear_sum(kernel100, u1, u2, x, h, g)
    _assert_agree(banded, dense, h * h * np.abs(u1).sum() * np.abs(u2).sum())


@pytest.mark.parametrize("grid", ["full", "small", "half"])
@pytest.mark.parametrize("name", ["e", "-e", "shear0.01", "shear0.5", "diag_rot",
                                  "norm12"])
def test_closed_band_contains_dense_support(kernel100, name, grid):
    _, x, h = _oracle_inputs("full" if grid == "half" else grid)
    if grid == "half":
        x, h = x[::2], 2 * h
    g = _oracle_element(name)
    supp = kernel100.support_radius + 2 * kernel100.x_step
    inside = np.concatenate([dist <= supp for _, dist in _dense_dist(x, g)])
    lo, hi = integrals._row_bands(g.m, x, h, supp)
    cols = np.arange(x.size)
    band = (cols >= lo[:, None]) & (cols <= hi[:, None])
    assert inside.any()
    assert not (inside & ~band).any()


def test_identity_sum_takes_toeplitz_path(kernel100, monkeypatch):
    def no_bands(*args):
        raise AssertionError("_row_bands called")

    monkeypatch.setattr(integrals, "_row_bands", no_bands)
    u, x, h = _oracle_inputs("full")
    for name in ("e", "-e"):
        assert _bilinear_sum(kernel100, u, u, x, h, _oracle_element(name)) != 0
    # every other element still takes the banded path
    with pytest.raises(AssertionError, match="_row_bands"):
        _bilinear_sum(kernel100, u, u, x, h, _oracle_element("shear0.01"))


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
                for gamma in enumerate_norm_n(alg, v, g0):
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


def test_amplified_rhs_evaluates_each_element_once(kernel100, monkeypatch):
    alg = cached_algebra()
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    g0 = rl.GroupElement.diag_flow(0.17) @ rl.GroupElement.rotation(0.387)
    amp = rl.build_amplifier(9, rl.random_hecke_eigenvalues(9, np.random.default_rng(1)))
    expected = _amplified_rhs_every_row(alg, amp, kernel100, win, f, g0)

    calls = []
    eval_I = integrals.eval_I

    def counted(kernel, window, phi, g):
        calls.append(g.m.tobytes())
        return eval_I(kernel, window, phi, g)

    monkeypatch.setattr(integrals, "eval_I", counted)
    total, rows, flags = integrals.amplified_rhs(alg, amp, kernel100, win, f, g0)
    assert len(calls) == len(set(calls)) >= 2
    assert len(rows) > len(calls)
    assert (total, rows, flags) == expected


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

def test_beta_scaling_smoke(kernel100):
    win = rl.TestWindow()
    w = cached_weight(0.9, 8, 100.0)
    rows, slope, norm_sq = rl.beta_scaling_experiment(
        kernel100, win, w, [100.0 ** 0.3, 100.0 ** 0.5])
    assert len(rows) == 2
    assert all(np.isfinite(r["normalized"]) for r in rows)
    assert norm_sq > 0


def test_beta_scaling_range_guard(kernel100):
    win = rl.TestWindow()
    w = cached_weight(0.9, 8, 100.0)
    with pytest.raises(DomainError):
        rl.beta_scaling_experiment(kernel100, win, w, [2.0])


def test_rapid_decay_t0_matches_eval(kernel100):
    win = rl.TestWindow()
    w = cached_weight(0.9, 8, 100.0)
    _, shears = integrals.rapid_decay_shears(100.0, 10.0, 0.1, (0.0, 4.0))
    rows, contrast = rl.rapid_decay_experiment(kernel100, win, w, 10.0, shears)
    lam = 100.0
    _, _, f, _ = integrals._phi_w_on_window_grid(
        w, lambda x: modulated_gaussian(x, lam), lam)
    fpass = rl.band_project(lam, 10.0, f, "pass")
    direct = rl.eval_I(kernel100, win, fpass, rl.GroupElement.identity())
    assert rows[0]["abs_I"] == pytest.approx(abs(direct.value), rel=1e-12)
    assert contrast < 1.0


def test_rapid_decay_monotone_trend(kernel100):
    win = rl.TestWindow()
    w = cached_weight(0.9, 8, 100.0)
    _, shears = integrals.rapid_decay_shears(100.0, 10.0, 0.1, (0.0, 0.25, 0.5, 1.0, 2.0, 4.0))
    rows, contrast = rl.rapid_decay_experiment(kernel100, win, w, 10.0, shears)
    vals = [r["abs_I"] for r in rows]
    near = vals[1:3]
    far = vals[4:]
    assert np.median(far) <= np.median(near)


def test_integral_report_row(kernel100):
    win = rl.TestWindow()
    _, _, _, f = _phi_w_sampled(100.0)
    rep = rl.eval_I(kernel100, win, f, rl.GroupElement.identity())
    # the positional field order that callers building a report rely on
    assert rep == rl.IntegralReport(rep.value, rep.error_estimate, 100.0,
                                    f.values.size, rep.converged)
    assert rep.converged in (True, False)

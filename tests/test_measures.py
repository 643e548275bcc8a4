import numpy as np
import pytest

import restrictlab as rl
from restrictlab.errors import DomainError, GridMismatchError, ResourceError

from conftest import (ALPHA_CANTOR, cached_bump, cached_weight, decade_sweep,
                      l2_weighted_norm, uniform_weight, weighted_energy)


def standard_test_functions(grid: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """A fixed family of ten test profiles."""
    x = np.asarray(grid, dtype=float)
    return [
        ("gauss_0.3", np.exp(-0.5 * (x / 0.3) ** 2).astype(complex)),
        ("gauss_0.5", np.exp(-0.5 * (x / 0.5) ** 2).astype(complex)),
        ("gauss_1.0", np.exp(-0.5 * x ** 2).astype(complex)),
        ("gauss_shift", np.exp(-0.5 * ((x - 0.5) / 0.5) ** 2).astype(complex)),
        ("mod3_gauss", np.exp(3j * x) * np.exp(-0.5 * x ** 2)),
        ("mod10_gauss", np.exp(10j * x) * np.exp(-0.5 * x ** 2)),
        ("poly_bump2", np.where(np.abs(x) < 2, (1 - (x / 2) ** 2) ** 2, 0.0).astype(complex)),
        ("poly_bump4", np.where(np.abs(x) < 2, (1 - (x / 2) ** 2) ** 4, 0.0).astype(complex)),
        ("poly_bump8", np.where(np.abs(x) < 2, (1 - (x / 2) ** 2) ** 8, 0.0).astype(complex)),
        ("cos_bump", (np.cos(np.pi * np.clip(x / 4, -0.5, 0.5)) ** 2).astype(complex)),
    ]


def truncated_riesz(w: rl.WeightFunction, x: float, s: float, delta: float) -> float:
    """int over |x-y| <= delta of w(y) |x-y|^(-s) dy, exact per grid cell."""
    if not 0 < s < w.frostman_alpha:
        raise DomainError(f"s must lie in (0, alpha={w.frostman_alpha}), got {s}")
    if not 0 < delta <= 100:
        raise DomainError("delta must lie in (0, 100]")
    g = w.grid()
    h = w.grid_step
    lo = np.maximum(g - h / 2, x - delta)
    hi = np.minimum(g + h / 2, x + delta)
    lo, hi = lo - x, hi - x

    def anti(t):
        return np.sign(t) * np.abs(t) ** (1.0 - s) / (1.0 - s)

    seg = np.where(hi > lo, anti(hi) - anti(lo), 0.0)
    return float(np.dot(w.values, seg))


# ---------------------------------------------------------------- cantor

def test_cantor_depth0_base_case():
    m = rl.make_cantor_measure(ALPHA_CANTOR, 0)
    assert m.atoms.tolist() == [0.5]
    assert m.weights.tolist() == [1.0]


def test_cantor_depth1_middle_thirds():
    m = rl.make_cantor_measure(ALPHA_CANTOR, 1)
    assert np.allclose(m.atoms, [1.0 / 6.0, 5.0 / 6.0], atol=1e-15)
    assert np.allclose(m.weights, [0.5, 0.5])


@pytest.mark.parametrize("depth", [2, 5, 6])
def test_cantor_alpha1_is_midpoint_lebesgue(depth):
    m = rl.make_cantor_measure(1.0, depth)
    n = 2 ** depth
    expect = (2 * np.arange(n) + 1) / (2 * n)
    assert np.allclose(m.atoms, expect, atol=1e-14)
    # interval-count oracle: an interval of radius r centered on an atom holds
    # 1 + 2 floor(r n) atoms, so the ratio is at most 2 + 1/(r n)
    ratio = max(rl.frostman_ratio(m, r) for r in [0.1, 0.2, 0.3, 0.4, 0.5])
    assert ratio <= 2.0 + 1.0 / (0.1 * n) + 1e-12
    if depth == 6:
        assert ratio <= 2.0 + 2.0 / n + 1e-12


@pytest.mark.parametrize("alpha,depth", [(0.4, 3), (ALPHA_CANTOR, 8), (1.0, 10)])
def test_probability_normalization(alpha, depth):
    m = rl.make_cantor_measure(alpha, depth)
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    assert m.atoms.size == 2 ** depth
    assert np.all(np.diff(m.atoms) > 0)


def test_cantor_domain_errors():
    with pytest.raises(DomainError):
        rl.make_cantor_measure(0.0, 2)
    with pytest.raises(DomainError):
        rl.make_cantor_measure(1.2, 2)
    with pytest.raises(ResourceError):
        rl.make_cantor_measure(0.8, 30)


def test_duplicate_atoms_rejected():
    with pytest.raises(DomainError):
        rl.FractalMeasure(np.array([0.3, 0.3]), np.array([0.5, 0.5]), 0.7)


# ---------------------------------------------------------------- frostman

def test_frostman_single_atom_formula():
    m = rl.FractalMeasure(np.array([0.5]), np.array([1.0]), 0.7)
    # direct formula: mass 1 over r^alpha
    assert rl.frostman_ratio(m, 0.5) == pytest.approx(0.5 ** -0.7, rel=1e-12)
    assert rl.frostman_ratio(m, 0.5) == pytest.approx(1.6245, abs=1e-4)


def test_frostman_radius_outside_unit_rejected():
    m = rl.make_cantor_measure(0.7, 2)
    for r in (float("nan"), 0.0, -0.5, 1.5, float("inf")):
        with pytest.raises(DomainError):
            rl.frostman_ratio(m, r)


def test_frostman_depth_stability():
    # exhaustive scan over atoms at two depths: the measured constants agree
    # within a factor of 2 (exact self-similarity keeps them depth-stable)
    c6, c8 = (max(rl.frostman_ratio(rl.make_cantor_measure(ALPHA_CANTOR, depth), r)
                  for r in np.geomspace(3.0 ** -depth, 1.0, 64)) for depth in (6, 8))
    assert 0.5 <= c6 / c8 <= 2.0


# ---------------------------------------------------------------- energy

def test_energy_uniform_analytic():
    # oracle: int_0^1 int_0^1 |x-y|^(-1/2) = 2 int_0^1 2 sqrt(x) dx = 8/3
    w = uniform_weight(1e-3)
    ones = np.ones(w.values.size)
    assert weighted_energy(w, ones, 0.5).real == pytest.approx(8.0 / 3.0, abs=1e-4)


def test_energy_monotone_in_s():
    m = rl.make_cantor_measure(ALPHA_CANTOR, 5)
    vals = [rl.energy(m, s) for s in (0.2, 0.4, 0.6, 0.8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_energy_dichotomy_converges_below_dimension():
    e6 = rl.energy(rl.make_cantor_measure(ALPHA_CANTOR, 6), 0.3)
    e8 = rl.energy(rl.make_cantor_measure(ALPHA_CANTOR, 8), 0.3)
    assert e8 / e6 <= 1.10


def test_energy_dichotomy_diverges_above_dimension():
    e6 = rl.energy(rl.make_cantor_measure(ALPHA_CANTOR, 6), 0.8)
    e8 = rl.energy(rl.make_cantor_measure(ALPHA_CANTOR, 8), 0.8)
    assert e8 / e6 > 1.5
    # growth-rate shape: per two depths, at least half the self-similar rate
    rate = 2.0 ** ((0.8 - ALPHA_CANTOR) * 2 * np.log(3.0) / np.log(2.0))
    assert e8 / e6 >= rate / 2.0


def test_energy_domain_errors():
    m = rl.make_cantor_measure(0.7, 3)
    for s in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(DomainError):
            rl.energy(m, s)


# ---------------------------------------------------------------- weighted energy

def test_weighted_energy_zero_function():
    w = cached_weight(ALPHA_CANTOR, 5, 50.0)
    z = np.zeros(w.values.size, dtype=complex)
    assert weighted_energy(w, z, 0.55) == 0


def test_weighted_energy_real_for_real_phi():
    w = cached_weight(ALPHA_CANTOR, 5, 50.0)
    phi = np.exp(-0.5 * w.grid() ** 2)
    val = weighted_energy(w, phi, 0.55)
    assert abs(complex(val).imag) <= 1e-10


def test_weighted_energy_grid_mismatch():
    w = cached_weight(ALPHA_CANTOR, 5, 50.0)
    with pytest.raises(GridMismatchError):
        weighted_energy(w, np.ones(w.values.size - 1), 0.55)


def test_weighted_energy_constant_stable_under_grid_doubling():
    # same measure, doubled grid resolution: the measured constant
    # |I_s(phi w)| / ||phi||^2_{L2(w)} moves by less than a factor 2
    nu = rl.make_cantor_measure(ALPHA_CANTOR, 6)
    bump = cached_bump()
    ratios = []
    for spw in (8, 16):
        w = rl.build_weight(nu, 50.0, bump, samples_per_wavelength=spw)
        phi = np.exp(-0.5 * w.grid() ** 2)
        c = abs(complex(weighted_energy(w, phi, 0.55))) / l2_weighted_norm(w, phi) ** 2
        ratios.append(c)
    assert 0.5 <= ratios[0] / ratios[1] <= 2.0


def test_energy_bound_over_test_family():
    # one measured constant valid across the whole family
    w = cached_weight(ALPHA_CANTOR, 6, 50.0)
    consts = []
    for name, phi in standard_test_functions(w.grid()):
        nrm = l2_weighted_norm(w, phi)
        if nrm == 0:
            continue
        consts.append(abs(complex(weighted_energy(w, phi, 0.55))) / nrm ** 2)
    assert max(consts) < np.inf
    assert max(consts) <= 20.0   # measured ~3; generous headroom


# ---------------------------------------------------------------- truncated riesz

def test_truncated_riesz_uniform_analytic():
    # oracle: int_{-delta}^{delta} |y|^(-1/2) dy = 4 sqrt(delta)
    w = uniform_weight(1e-3, lo=-2.0, hi=2.0)
    val = truncated_riesz(w, 0.0, 0.5, 0.25)
    assert val == pytest.approx(2.0, abs=1e-3)


def test_truncated_riesz_zero_weight():
    w = rl.WeightFunction(-2.0, 0.01, np.zeros(401), 0.8)
    assert truncated_riesz(w, 0.3, 0.5, 0.5) == 0.0


def test_truncated_riesz_scaling_sweep():
    # at support points the normalized value stays within a factor 4
    nu = rl.make_cantor_measure(ALPHA_CANTOR, 6)
    w = cached_weight(ALPHA_CANTOR, 6, 100.0)
    for x in (float(nu.atoms[0]), float(nu.atoms[21]), float(nu.atoms[40])):
        vals = [truncated_riesz(w, x, 0.5, 2.0 ** -k) / (2.0 ** -k) ** (ALPHA_CANTOR - 0.5)
                for k in range(1, 9)]
        assert max(vals) / min(vals) <= 4.0


def test_truncated_riesz_domain():
    w = cached_weight(ALPHA_CANTOR, 5, 50.0)
    with pytest.raises(DomainError):
        truncated_riesz(w, 0.0, 0.5, 101.0)
    with pytest.raises(DomainError):
        truncated_riesz(w, 0.0, 0.7, 0.5)   # s >= alpha


# ---------------------------------------------------------------- build_weight

def test_build_weight_support_exact():
    w = cached_weight(ALPHA_CANTOR, 6, 100.0)
    g = w.grid()
    assert np.all(w.values[np.abs(g) > 2.0] == 0.0)
    assert np.all(w.values >= 0.0)


def test_build_weight_zero_mass():
    nu = rl.FractalMeasure(np.array([]), np.array([]), 0.7)
    w = rl.build_weight(nu, 50.0, cached_bump())
    assert np.all(w.values == 0.0)


def test_build_weight_mass_stable_in_lambda():
    bump = cached_bump()
    nu = rl.make_cantor_measure(1.0, 6)
    masses = []
    for lam in (50.0, 100.0):
        w = rl.build_weight(nu, lam, bump)
        masses.append(float(np.sum(w.values) * w.grid_step))
    assert 0.5 <= masses[1] / masses[0] <= 1.5


def test_build_weight_frostman_sweep_single_lambda():
    w = cached_weight(ALPHA_CANTOR, 6, 100.0)
    sups = [s for (_, _, s) in decade_sweep(w, 1.0 / 100.0)]
    assert max(sups) / min(sups) < 2.0


def test_build_weight_grid_resolution_guard():
    nu = rl.make_cantor_measure(0.8, 2)
    with pytest.raises(DomainError):
        rl.build_weight(nu, 50.0, cached_bump(), samples_per_wavelength=4)
    with pytest.raises(ResourceError):
        rl.build_weight(nu, 1e6, cached_bump())


def test_weight_budget_refuses_overflowing_grid():
    # lam x spw = inf would make the step h = 0
    with pytest.raises(ResourceError):
        rl.measures.check_weight_budget(1, 1e308, 8)


def full_grid_weight(nu: rl.FractalMeasure, lam: float, bump,
                     samples_per_wavelength: int = 8) -> np.ndarray:
    """The weight with every atom evaluated on the whole grid, one atom at a
    time: the oracle of the windowed, blocked build_weight."""
    h, n = rl.measures.check_weight_budget(nu.atoms.size, lam, samples_per_wavelength)
    t = -2.0 + h * np.arange(n + 1)
    scale = 4.0 * rl.measures.C_ELL
    acc = np.zeros_like(t)
    for s0, w0 in zip(nu.atoms, nu.weights):
        kern = scale * bump.eta(scale * lam * (s0 - t))
        acc += w0 * np.sqrt((lam * kern) ** 2 + 1.0)
    vals = acc * bump.rho(t)
    vals[np.abs(t) > 2.0] = 0.0
    return vals


@pytest.mark.parametrize("case", ["whole-grid", "clipped-low", "clipped-high", "single",
                                  "empty", "depth8-100", "depth8-800", "blocks"])
def test_build_weight_matches_full_grid_oracle(case, monkeypatch):
    # at lam = 20 and 40 a window (1,604 points) is longer than the grid (641
    # and 1,281 points), and the windows of the atoms at 0 and 1 start below
    # -2 and end past 2; at lam = 60 the windows of the atoms near 1 end past
    # 2 and slide back inside the grid (a window cannot slide up from -2:
    # atoms lie in [0, 1], and a window that reaches -2 from 0 covers the
    # grid); "blocks" takes 3 atoms per block
    lam, nu = {
        "whole-grid": (20.0, rl.make_cantor_measure(0.9, 8)),
        "clipped-low": (40.0, rl.FractalMeasure(np.array([0.0, 0.01, 0.5, 1.0]),
                                                np.full(4, 0.25), 0.9)),
        "clipped-high": (60.0, rl.FractalMeasure(np.array([0.0, 0.99, 1.0]),
                                                 np.array([0.5, 0.25, 0.25]), 0.9)),
        "single": (100.0, rl.FractalMeasure(np.array([0.3]), np.array([1.0]), 0.5)),
        "empty": (100.0, rl.FractalMeasure(np.array([]), np.array([]), 0.5)),
        "depth8-100": (100.0, rl.make_cantor_measure(0.9, 8)),
        "depth8-800": (800.0, rl.make_cantor_measure(0.9, 8)),
        "blocks": (100.0, rl.make_cantor_measure(0.7, 5)),
    }[case]
    if case == "blocks":
        monkeypatch.setattr(rl.measures, "WEIGHT_BLOCK", 3 * 1604)
    bump = cached_bump()
    w = rl.build_weight(nu, lam, bump)
    oracle = full_grid_weight(nu, lam, bump)
    assert np.abs(w.values - oracle).max() <= 16 * np.finfo(float).eps * max(oracle.max(), 1.0)
    assert np.array_equal(w.values == 0.0, oracle == 0.0)


def test_weight_budget_counts_window_points():
    # 2^11 atoms at lam = 3200: 2^11 x 102,401 grid points exceeded the work
    # budget, 2^11 x 1,604 window points do not
    h, n = rl.measures.check_weight_budget(2 ** 11, 3200.0, 8)
    assert n + 1 == 102401 and 2 ** 11 * (n + 1) > rl.measures.WORK_BUDGET
    assert rl.measures._window_points(3200.0, h, n) == (800, 1604)
    # at lam = 20 a window is the whole 641-point grid
    h, n = rl.measures.check_weight_budget(1, 20.0, 8)
    assert rl.measures._window_points(20.0, h, n)[1] == n + 1 == 641


def test_build_weight_work_budget():
    # 2^22 atoms pass the atom budget and 3201 points the grid budget, but
    # their product is refused before the per-atom loop starts
    nu = rl.make_cantor_measure(0.9, 22)
    with pytest.raises(ResourceError) as exc:
        rl.build_weight(nu, 100.0, cached_bump())
    assert "work budget" in str(exc.value)

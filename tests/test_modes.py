from fractions import Fraction

import numpy as np
import pytest

try:
    from scipy.special import sph_harm_y

    def _sph_ref(l, theta):
        return sph_harm_y(l, 0, theta, 0.0).real
except ImportError:   # older scipy
    from scipy.special import sph_harm

    def _sph_ref(l, theta):
        return sph_harm(0, l, 0.0, theta).real

import restrictlab as rl
from restrictlab.errors import DomainError
from restrictlab.modes import dyadic_inner_integral

from conftest import cached_weight


# ---------------------------------------------------------------- exponents

def test_gamma_branch_values():
    assert rl.gamma_exponent(0.25) == pytest.approx(0.375)
    assert rl.gamma_exponent(0.75) == pytest.approx(0.25)
    assert rl.gamma_exponent(1.5) == pytest.approx(0.125)


def test_gamma_continuity_exact_rational():
    half = Fraction(1, 2)
    eps = Fraction(1, 10 ** 9)
    assert rl.gamma_exponent(half) == Fraction(1, 4)
    assert rl.gamma_exponent(half + eps) == Fraction(1, 4)
    assert rl.gamma_exponent(Fraction(1)) == Fraction(1, 4)
    assert rl.gamma_exponent(Fraction(1) + eps) == (2 - 1 - eps) / 4
    assert abs(rl.gamma_exponent(Fraction(1) + eps) - Fraction(1, 4)) == eps / 4


def test_delta_values_exact():
    assert rl.delta_exponent(Fraction(1)) == Fraction(1, 28)
    assert rl.delta_exponent(0.75) == pytest.approx(1.0 / 32.0)
    assert float(rl.delta_exponent(Fraction(3, 4))) == pytest.approx(0.03125)


def test_delta_dominates_marshall():
    # strict improvement except at alpha = 1
    grid = [Fraction(1, 2) + Fraction(k, 200) for k in range(1, 101)]
    for alpha in grid:
        d = rl.delta_exponent(alpha) - rl.marshall_exponent(alpha)
        if alpha == 1:
            assert d == 0
        else:
            assert d > 0


def test_exponent_domains():
    with pytest.raises(DomainError):
        rl.gamma_exponent(0.0)
    with pytest.raises(DomainError):
        rl.delta_exponent(0.5)
    with pytest.raises(DomainError):
        rl.delta_exponent(1.2)


def test_fit_exponent_exact_power_law():
    lams = [10.0, 30.0, 90.0, 270.0]
    slope, resid = rl.fit_exponent([(l, l ** 0.25) for l in lams])
    assert slope == pytest.approx(0.25, abs=1e-12)
    assert resid <= 1e-12


def test_fit_exponent_degenerate():
    with pytest.raises(DomainError):
        rl.fit_exponent([(10.0, 1.0), (10.0, 2.0), (10.0, 3.0)])
    with pytest.raises(DomainError):
        rl.fit_exponent([(10.0, 1.0), (20.0, 2.0)])


# ---------------------------------------------------------------- modes

def test_zonal_pole_value():
    for l in (8, 101):
        mode = rl.make_mode(rl.ModeSpec("sphere", "zonal", l))
        assert mode.value_angles(0.0, 0.0).real == pytest.approx(
            np.sqrt((2 * l + 1) / (4 * np.pi)), rel=1e-12)


def test_zonal_matches_scipy_oracle():
    mode = rl.make_mode(rl.ModeSpec("sphere", "zonal", 40))
    th = np.linspace(0.1, 3.0, 7)
    ref = _sph_ref(40, th)
    assert np.abs(mode.value_angles(th, 0.0).real - ref).max() <= 1e-10


def test_highest_weight_constant_on_equator():
    mode = rl.make_mode(rl.ModeSpec("sphere", "highest_weight", 64))
    phi = np.linspace(0, 2 * np.pi, 181)
    vals = np.abs(mode.value_angles(np.pi / 2, phi))
    assert vals.var() <= 1e-10


def test_modes_l2_normalized():
    for spec in (rl.ModeSpec("sphere", "zonal", 32),
                  rl.ModeSpec("sphere", "highest_weight", 64),
                  rl.ModeSpec("torus", "plane_wave_sum", freqs=((3, 4), (5, 0)))):
        mode = rl.make_mode(spec)
        assert mode.l2_norm() == pytest.approx(1.0, abs=1e-8)


def test_torus_plane_wave_modulus():
    mode = rl.make_mode(rl.ModeSpec("torus", "plane_wave_sum", freqs=((3, 4),)))
    x = np.linspace(0, 2 * np.pi, 13)
    assert np.abs(np.abs(mode.value_xy(x, x[::-1])) - 1 / (2 * np.pi)).max() <= 1e-14


def test_eigen_residuals():
    rng = np.random.default_rng(31)
    for spec in (rl.ModeSpec("sphere", "zonal", 32),
                  rl.ModeSpec("sphere", "highest_weight", 128),
                  rl.ModeSpec("torus", "plane_wave_sum", freqs=((3, 4),))):
        mode = rl.make_mode(spec)
        assert mode.eigen_residual(rng) <= 1e-5


def test_mode_validation():
    with pytest.raises(DomainError):
        rl.ModeSpec("sphere", "zonal", 2000)
    with pytest.raises(DomainError):
        rl.ModeSpec("klein", "zonal", 4)
    with pytest.raises(DomainError):   # frequency moduli differ
        rl.make_mode(rl.ModeSpec("torus", "plane_wave_sum", freqs=((1, 0), (2, 0))))


# ---------------------------------------------------------------- restriction

def restriction_norm_quadrature(mode, ell, n: int = 4096) -> float:
    """Dense uniform-measure reference value for the unit segment."""
    s = (np.arange(n) + 0.5) / n * ell.length
    vals = mode.value_xyz(ell.points(s))
    return float(np.sqrt(np.mean(np.abs(vals) ** 2) * ell.length))


def test_restriction_point_mass():
    mode = rl.make_mode(rl.ModeSpec("sphere", "zonal", 24))
    ell = rl.SphereGeodesic.meridian()
    s0 = 0.37
    mu = rl.FractalMeasure(np.array([s0]), np.array([1.0]), 0.7)
    expect = abs(mode.value_xyz(ell.points(np.array([s0])))[0])
    assert rl.restriction_norm(mode, ell, mu) == pytest.approx(expect, rel=1e-12)


def test_restriction_uniform_matches_quadrature():
    mode = rl.make_mode(rl.ModeSpec("sphere", "zonal", 24))
    ell = rl.SphereGeodesic.meridian()
    mu = rl.make_cantor_measure(1.0, 12)
    val = rl.restriction_norm(mode, ell, mu)
    ref = restriction_norm_quadrature(mode, ell, n=8192)
    assert val == pytest.approx(ref, abs=1e-4)


def test_restriction_highest_weight_equator_growth():
    # |Y_l^l| is constant on the equator, so any probability measure gives the
    # same value c_l; its growth exponent in lambda is 1/4
    mu = rl.make_cantor_measure(0.7, 8)
    ell = rl.SphereGeodesic.equator()
    pairs = []
    for l in (64, 128, 256, 512):
        mode = rl.make_mode(rl.ModeSpec("sphere", "highest_weight", l))
        val = rl.restriction_norm(mode, ell, mu)
        const = abs(mode.value_angles(np.pi / 2, 0.0))
        assert val == pytest.approx(const, rel=1e-10)
        pairs.append((mode.lam, val))
    slope, _ = rl.fit_exponent(pairs)
    assert abs(slope - 0.25) <= 0.02


# ---------------------------------------------------------------- tube norms

def test_kn_highest_weight_concentrates_on_equator():
    mode = rl.make_mode(rl.ModeSpec("sphere", "highest_weight", 64))
    rep = rl.kn_norm(mode)
    assert rep.s_kn >= 0.3
    assert rep.maximizer["axis_tilt"] <= rep.half_width
    assert rep.lam ** -0.5 / 10.0 <= rep.s_kn <= 1.0 + 1e-6


def test_kn_constant_mode_area_ratio():
    # for the constant density the tube mass is area(tube)/area(surface); the
    # maximizer is the longest closed line in the search family (length
    # 2 pi sqrt(5) for the (2,1)-type directions)
    mode = rl.TorusMode(freqs=((0, 0),))
    delta = 0.05
    rep = rl.kn_norm(mode, half_width=delta)
    d = rep.maximizer["direction"]
    assert float(np.hypot(*d)) == pytest.approx(np.sqrt(5.0))
    expect = (2 * delta * 2 * np.pi * np.sqrt(5.0)) / (2 * np.pi) ** 2
    assert rep.s_kn == pytest.approx(expect, rel=1e-2)


def test_kn_width_monotone():
    mode = rl.make_mode(rl.ModeSpec("sphere", "highest_weight", 64))
    narrow = rl.kn_norm(mode, half_width=mode.lam ** -0.5)
    wide = rl.kn_norm(mode, half_width=2 * mode.lam ** -0.5)
    assert wide.s_kn >= narrow.s_kn


def test_kn_budget_guard(monkeypatch):
    from restrictlab.errors import ResourceError
    mode = rl.make_mode(rl.ModeSpec("sphere", "highest_weight", 64))
    monkeypatch.setattr(rl.modes, "TUBE_BUDGET", 1000)
    with pytest.raises(ResourceError):
        rl.kn_norm(mode)


def test_kn_zonal_bounds():
    mode = rl.make_mode(rl.ModeSpec("sphere", "zonal", 48))
    rep = rl.kn_norm(mode)
    assert mode.lam ** -0.5 / 10.0 <= rep.s_kn <= 1.0 + 1e-6


def test_theorem_ratio_spread_small_family():
    mu = rl.make_cantor_measure(0.7, 8)
    modes = [rl.make_mode(rl.ModeSpec("sphere", "highest_weight", l))
             for l in (64, 128, 256)]
    rows, spread = rl.theorem_ratio_table(modes, mu, 0.7)
    assert spread <= 4.0
    assert all(np.isfinite(r["ratio"]) for r in rows)


def test_theorem_ratio_zonal_meridian_reported():
    mu = rl.make_cantor_measure(0.7, 8)
    modes = [rl.make_mode(rl.ModeSpec("sphere", "zonal", l)) for l in (32, 64)]
    rows, spread = rl.theorem_ratio_table(
        modes, mu, 0.7, geodesic_for=lambda m: rl.SphereGeodesic.meridian())
    assert np.isfinite(spread)


def test_theorem_ratio_log_loss_at_alpha_one():
    mu = rl.make_cantor_measure(1.0, 8)
    modes = [rl.make_mode(rl.ModeSpec("sphere", "highest_weight", l))
             for l in (64, 128)]
    rows, spread = rl.theorem_ratio_table(modes, mu, 1.0)
    for r in rows:
        assert r["bound"] == pytest.approx(
            r["lambda"] ** 0.25 * r["skn"] ** 0.5 * np.log(r["lambda"]), rel=1e-12)


def test_theorem_check_alpha_domain():
    mu = rl.make_cantor_measure(0.7, 4)
    with pytest.raises(DomainError):
        rl.theorem_ratio_table([], mu, 0.4)


# ---------------------------------------------------------------- dyadic

def lp_partition_sum(tau) -> np.ndarray:
    """sum over j in [-40, 40] of lp_bump(2^-j tau)."""
    tau = np.asarray(tau, dtype=float)
    total = np.zeros_like(tau)
    for j in range(-40, 41):
        total += rl.lp_bump(tau * 2.0 ** (-j))
    return total


def test_lp_partition_of_unity():
    lam = 128.0
    tau = np.geomspace(lam ** -0.5, 1.0, 400)
    assert np.abs(lp_partition_sum(tau) - 1.0).max() <= 1e-12


def test_lp_bump_support():
    assert rl.lp_bump(0.5) == 0.0
    assert rl.lp_bump(0.95) == 1.0
    assert rl.lp_bump(2.0) == 0.0


def test_dyadic_stationary_case():
    lam, k = 128.0, -2
    val, flagged = dyadic_inner_integral(lam, k, 0.3, 0.3)
    assert 0.1 <= abs(val) / 2.0 ** k <= 10.0
    assert not flagged


def test_dyadic_decay_and_bounds():
    lam = 128.0
    w = cached_weight(0.7, 6, lam)
    rep = rl.dyadic_kernel_check(lam, -1, w=w)
    assert rep["decay_slope"] <= -1.5
    assert np.isfinite(rep["sup_ratio"])
    assert rep["weighted_ratio"] <= 10.0
    assert not rep["any_flagged"]


def test_dyadic_k_range_guard():
    with pytest.raises(DomainError):
        rl.dyadic_kernel_check(128.0, 1)
    with pytest.raises(DomainError):
        rl.dyadic_kernel_check(128.0, -6)

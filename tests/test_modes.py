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

def l2_norm(mode) -> float:
    """L^2 norm on the sphere: Gauss-Legendre in cos(theta), uniform in phi."""
    n = max(64, 2 * mode.l + 16)
    xg, wg = np.polynomial.legendre.leggauss(n)
    theta = np.arccos(xg)
    n_phi = max(16, 2 * mode.l + 8)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    vals = np.abs(mode.value_angles(theta[:, None], phi[None, :])) ** 2
    return float(np.sqrt((vals.mean(axis=1) * wg).sum() * 2.0 * np.pi))


def eigen_residual(mode, rng: np.random.Generator) -> float:
    """max over 20 random points of |(Lap + lam^2) e| / (lam^2 sup|e|),
    via central differences in (theta, phi)."""
    l = mode.l
    h = max(1.2e-4 / l, 1e-7)
    theta = rng.uniform(0.6, np.pi - 0.6, 20)
    phi = rng.uniform(0.0, 2.0 * np.pi, 20)
    v = mode.value_angles(theta, phi)
    vtp = mode.value_angles(theta + h, phi)
    vtm = mode.value_angles(theta - h, phi)
    vpp = mode.value_angles(theta, phi + h)
    vpm = mode.value_angles(theta, phi - h)
    d2t = (vtp - 2 * v + vtm) / h ** 2
    dt = (vtp - vtm) / (2 * h)
    d2p = (vpp - 2 * v + vpm) / h ** 2
    lap = d2t + dt / np.tan(theta) + d2p / np.sin(theta) ** 2
    resid = np.abs(lap + l * (l + 1.0) * v)
    scale = l * (l + 1.0) * max(np.abs(v).max(), 1e-300)
    return float(resid.max() / scale)


def test_zonal_pole_value():
    for l in (8, 101):
        mode = rl.SphereMode("zonal", l)
        assert mode.value_angles(0.0, 0.0).real == pytest.approx(
            np.sqrt((2 * l + 1) / (4 * np.pi)), rel=1e-12)


def test_zonal_matches_scipy_oracle():
    mode = rl.SphereMode("zonal", 40)
    th = np.linspace(0.1, 3.0, 7)
    ref = _sph_ref(40, th)
    assert np.abs(mode.value_angles(th, 0.0).real - ref).max() <= 1e-10


def test_highest_weight_constant_on_equator():
    mode = rl.SphereMode("highest_weight", 64)
    phi = np.linspace(0, 2 * np.pi, 181)
    vals = np.abs(mode.value_angles(np.pi / 2, phi))
    assert vals.var() <= 1e-10


def test_modes_l2_normalized():
    for mode in (rl.SphereMode("zonal", 32), rl.SphereMode("highest_weight", 64)):
        assert l2_norm(mode) == pytest.approx(1.0, abs=1e-8)


def test_eigen_residuals():
    rng = np.random.default_rng(31)
    for mode in (rl.SphereMode("zonal", 32), rl.SphereMode("highest_weight", 128)):
        assert eigen_residual(mode, rng) <= 1e-5


def test_mode_validation():
    with pytest.raises(DomainError):
        rl.SphereMode("zonal", 2000)
    with pytest.raises(DomainError):
        rl.SphereMode("zonal", 0)
    with pytest.raises(DomainError):
        rl.SphereMode("klein", 4)


# ---------------------------------------------------------------- restriction

def restriction_norm_quadrature(mode, ell, n: int = 4096) -> float:
    """Dense uniform-measure reference value for the unit segment."""
    s = (np.arange(n) + 0.5) / n
    vals = mode.value_xyz(ell.points(s))
    return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def test_restriction_point_mass():
    mode = rl.SphereMode("zonal", 24)
    ell = rl.SphereGeodesic.meridian()
    s0 = 0.37
    mu = rl.FractalMeasure(np.array([s0]), np.array([1.0]), 0.7)
    expect = abs(mode.value_xyz(ell.points(np.array([s0])))[0])
    assert rl.restriction_norm(mode, ell, mu) == pytest.approx(expect, rel=1e-12)


def test_restriction_uniform_matches_quadrature():
    mode = rl.SphereMode("zonal", 24)
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
        mode = rl.SphereMode("highest_weight", l)
        val = rl.restriction_norm(mode, ell, mu)
        const = abs(mode.value_angles(np.pi / 2, 0.0))
        assert val == pytest.approx(const, rel=1e-10)
        pairs.append((mode.lam, val))
    slope, _ = rl.fit_exponent(pairs)
    assert abs(slope - 0.25) <= 0.02


# ---------------------------------------------------------------- tube norms

def test_kn_highest_weight_concentrates_on_equator():
    mode = rl.SphereMode("highest_weight", 64)
    rep = rl.kn_norm(mode)
    assert rep["s_kn"] >= 0.3
    assert rep["max_axis_tilt"] <= rep["half_width"]
    assert rep["lambda"] ** -0.5 / 10.0 <= rep["s_kn"] <= 1.0 + 1e-6


class _ConstantMode:
    """|e|^2 = 1/(4 pi) everywhere: L^2-normalized on the unit sphere."""

    def value_xyz(self, xyz):
        return np.full(xyz.shape[:-1], (4.0 * np.pi) ** -0.5, dtype=complex)


@pytest.mark.parametrize("delta", [0.05, 0.125])
@pytest.mark.parametrize("psi", [0.0, 0.7])
def test_tube_mass_constant_mode_is_collar_area(delta, psi):
    # the delta-collar of a great circle has area 4 pi sin(delta), so the
    # constant mode's tube mass is sin(delta) at every tilt
    mass = rl.modes._sphere_tube_mass(_ConstantMode(), psi, delta, 256)
    assert mass == pytest.approx(np.sin(delta), rel=1e-4)


def test_kn_width_monotone():
    mode = rl.SphereMode("highest_weight", 64)
    rep = rl.kn_norm(mode)
    psi = rep["max_axis_tilt"]
    delta = rep["half_width"]
    n_along = max(256, 4 * mode.l + 32)
    narrow = rl.modes._sphere_tube_mass(mode, psi, delta, n_along)
    wide = rl.modes._sphere_tube_mass(mode, psi, 2 * delta, n_along)
    assert narrow == pytest.approx(rep["s_kn"], rel=1e-12)
    assert wide >= narrow


def test_kn_budget_guard(monkeypatch):
    from restrictlab.errors import ResourceError
    mode = rl.SphereMode("highest_weight", 64)
    monkeypatch.setattr(rl.modes, "TUBE_BUDGET", 1000)
    with pytest.raises(ResourceError):
        rl.kn_norm(mode)


def test_kn_zonal_bounds():
    mode = rl.SphereMode("zonal", 48)
    rep = rl.kn_norm(mode)
    assert mode.lam ** -0.5 / 10.0 <= rep["s_kn"] <= 1.0 + 1e-6


def test_theorem_ratio_spread_small_family():
    mu = rl.make_cantor_measure(0.7, 8)
    modes = [rl.SphereMode("highest_weight", l)
             for l in (64, 128, 256)]
    rows, spread = rl.theorem_ratio_table(modes, mu, 0.7)
    assert spread <= 4.0
    assert all(np.isfinite(r["ratio"]) for r in rows)


def test_theorem_ratio_zonal_finite():
    mu = rl.make_cantor_measure(0.7, 8)
    modes = [rl.SphereMode("zonal", l) for l in (32, 64)]
    rows, spread = rl.theorem_ratio_table(modes, mu, 0.7)
    assert np.isfinite(spread)


def test_theorem_ratio_log_loss_at_alpha_one():
    mu = rl.make_cantor_measure(1.0, 8)
    modes = [rl.SphereMode("highest_weight", l)
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
    rep = rl.dyadic_kernel_check(lam, -1, w)
    assert rep["decay_slope"] <= -1.5
    assert np.isfinite(rep["sup_ratio"])
    assert rep["weighted_ratio"] <= 10.0
    assert not rep["any_flagged"]


def test_dyadic_k_range_guard():
    w = cached_weight(0.7, 6, 128.0)
    with pytest.raises(DomainError):
        rl.dyadic_kernel_check(128.0, 1, w)
    with pytest.raises(DomainError):
        rl.dyadic_kernel_check(128.0, -6, w)

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
from restrictlab.modes import _legendre_values, dyadic_inner_integral

from conftest import cached_weight, golden_min, run_runner, theorem_ratio_table


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

def value_angles(mode, theta, phi) -> np.ndarray:
    """The mode at the sphere point (theta, phi): the oracle of SphereMode.density."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if mode.kind == "zonal":
        return (np.sqrt((2 * mode.l + 1) / (4.0 * np.pi))
                * _legendre_values(mode.l, np.cos(theta))).astype(complex)
    st = np.clip(np.sin(theta), 0.0, 1.0)
    mag = np.where(st > 0, np.exp(mode._log_c + mode.l * np.log(np.maximum(st, 1e-300))), 0.0)
    return mag * np.exp(1j * mode.l * phi)


def l2_norm(mode) -> float:
    """L^2 norm on the sphere: Gauss-Legendre in cos(theta), uniform in phi."""
    n = max(64, 2 * mode.l + 16)
    xg, wg = np.polynomial.legendre.leggauss(n)
    theta = np.arccos(xg)
    n_phi = max(16, 2 * mode.l + 8)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    vals = np.abs(value_angles(mode, theta[:, None], phi[None, :])) ** 2
    return float(np.sqrt((vals.mean(axis=1) * wg).sum() * 2.0 * np.pi))


def eigen_residual(mode, rng: np.random.Generator) -> float:
    """max over 20 random points of |(Lap + lam^2) e| / (lam^2 sup|e|),
    via central differences in (theta, phi)."""
    l = mode.l
    h = max(1.2e-4 / l, 1e-7)
    theta = rng.uniform(0.6, np.pi - 0.6, 20)
    phi = rng.uniform(0.0, 2.0 * np.pi, 20)
    v = value_angles(mode, theta, phi)
    vtp = value_angles(mode, theta + h, phi)
    vtm = value_angles(mode, theta - h, phi)
    vpp = value_angles(mode, theta, phi + h)
    vpm = value_angles(mode, theta, phi - h)
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
        assert value_angles(mode, 0.0, 0.0).real == pytest.approx(
            np.sqrt((2 * l + 1) / (4 * np.pi)), rel=1e-12)


def test_zonal_matches_scipy_oracle():
    mode = rl.SphereMode("zonal", 40)
    th = np.linspace(0.1, 3.0, 7)
    ref = _sph_ref(40, th)
    assert np.abs(value_angles(mode, th, 0.0).real - ref).max() <= 1e-10


def test_highest_weight_constant_on_equator():
    mode = rl.SphereMode("highest_weight", 64)
    phi = np.linspace(0, 2 * np.pi, 181)
    vals = np.abs(value_angles(mode, np.pi / 2, phi))
    assert vals.var() <= 1e-10


def test_modes_l2_normalized():
    for mode in (rl.SphereMode("zonal", 32), rl.SphereMode("highest_weight", 64)):
        assert l2_norm(mode) == pytest.approx(1.0, abs=1e-8)


def test_eigen_residuals():
    rng = np.random.default_rng(31)
    for mode in (rl.SphereMode("zonal", 32), rl.SphereMode("highest_weight", 128)):
        assert eigen_residual(mode, rng) <= 1e-5


def test_legendre_overflow_refused():
    # 1e10 overflows past 1e250 and 1e200 to inf and then nan
    for x in (1e10, 1e200):
        with pytest.raises(DomainError):
            _legendre_values(40, np.array([0.5, x]))


def test_density_is_abs_value_squared():
    z = np.linspace(-1.0, 1.0, 41)
    for mode in (rl.SphereMode("zonal", 32), rl.SphereMode("highest_weight", 64)):
        ref = np.abs(value_angles(mode, np.arccos(z), 0.3)) ** 2
        assert np.allclose(mode.density(z), ref, rtol=1e-12, atol=0.0)


def test_mode_validation():
    with pytest.raises(DomainError):
        rl.SphereMode("zonal", 2000)
    with pytest.raises(DomainError):
        rl.SphereMode("zonal", 0)
    with pytest.raises(DomainError):
        rl.SphereMode("klein", 4)


# ---------------------------------------------------------------- restriction

def _value_xyz(mode, xyz):
    """The mode at points of the unit sphere given by their coordinates."""
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return value_angles(mode, theta, phi)


def restriction_norm_quadrature(mode, ell, n: int = 4096) -> float:
    """Dense uniform-measure reference value for the unit segment."""
    s = (np.arange(n) + 0.5) / n
    vals = _value_xyz(mode, ell.points(s))
    return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def test_restriction_point_mass():
    mode = rl.SphereMode("zonal", 24)
    ell = rl.SphereGeodesic.meridian()
    s0 = 0.37
    mu = rl.FractalMeasure(np.array([s0]), np.array([1.0]), 0.7)
    expect = abs(_value_xyz(mode, ell.points(np.array([s0])))[0])
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
        const = abs(value_angles(mode, np.pi / 2, 0.0))
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

    def density(self, z):
        return np.full(np.shape(z), 1.0 / (4.0 * np.pi))


@pytest.mark.parametrize("delta", [0.05, 0.125])
@pytest.mark.parametrize("psi", [0.0, 0.7])
def test_tube_mass_constant_mode_is_collar_area(delta, psi):
    # the delta-collar of a great circle has area 4 pi sin(delta), so the
    # constant mode's tube mass is sin(delta) at every tilt; the quarter of
    # the nodes the sum visits, times 4, must make up the whole collar
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


def _rotation_from_axis_angle(psi: float) -> np.ndarray:
    """Rotation about the y-axis tilting the north pole by psi."""
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _sphere_tube_mass_oracle(mode, psi: float, delta: float, n_along: int) -> float:
    """The tube mass from every node of the collar and the complex mode."""
    R = _rotation_from_axis_angle(psi)
    t = 2.0 * np.pi * (np.arange(n_along) + 0.5) / n_along
    u = delta * (np.arange(rl.modes.SAMPLES_ACROSS) + 0.5) / rl.modes.SAMPLES_ACROSS
    u = np.concatenate([-u[::-1], u])
    circ = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)
    pole = np.array([0.0, 0.0, 1.0])
    pts = (np.cos(u)[:, None, None] * circ[None, :, :]
           + np.sin(u)[:, None, None] * pole[None, None, :])
    pts = pts @ R.T
    vals = np.abs(_value_xyz(mode, pts)) ** 2
    du = u[1] - u[0]
    dt = 2.0 * np.pi / n_along
    return float((vals * np.cos(u)[:, None]).sum() * du * dt)


def _kn_norm_oracle(mode, tube_mass=_sphere_tube_mass_oracle) -> dict:
    """kn_norm's tilt search and the scalar golden section over tube_mass,
    by default the full-collar tube mass."""
    lam = mode.lam
    delta = lam ** -0.5
    step = delta / 4.0
    n_along = max(256, 4 * mode.l + 32)
    psis = np.arange(0.0, np.pi / 2 + step, step)
    masses = np.array([tube_mass(mode, p, delta, n_along) for p in psis])
    i = int(np.argmax(masses))
    lo, hi = psis[max(0, i - 1)], psis[min(len(psis) - 1, i + 1)]
    psi_star, neg = golden_min(lambda p: -tube_mass(mode, p, delta, n_along), lo, hi, tol=1e-6)
    return {"s_kn": float(-neg), "max_axis_tilt": float(psi_star)}


@pytest.mark.parametrize("l", [48, 64, 512])
@pytest.mark.parametrize("kind", ["highest_weight", "zonal"])
def test_tube_mass_matches_full_collar_oracle(kind, l):
    mode = rl.SphereMode(kind, l)
    n_along = max(256, 4 * l + 32)
    for psi in (0.0, 0.3, np.pi / 2):
        for width in (1.0, 2.0):
            delta = width * mode.lam ** -0.5
            ref = _sphere_tube_mass_oracle(mode, psi, delta, n_along)
            assert rl.modes._sphere_tube_mass(mode, psi, delta, n_along) == pytest.approx(
                ref, rel=1e-12)


@pytest.mark.parametrize("kind, l", [("highest_weight", 64), ("zonal", 48)])
def test_kn_norm_matches_full_collar_oracle(kind, l):
    mode = rl.SphereMode(kind, l)
    rep, ref = rl.kn_norm(mode), _kn_norm_oracle(mode)
    assert rep["s_kn"] == pytest.approx(ref["s_kn"], rel=1e-12)
    # the golden refinement's tolerance
    assert rep["max_axis_tilt"] == pytest.approx(ref["max_axis_tilt"], abs=1e-6)


@pytest.mark.parametrize("kind, l", [("highest_weight", 64), ("highest_weight", 256),
                                     ("highest_weight", 512), ("zonal", 64)])
def test_kn_norm_equals_scalar_golden_section(kind, l):
    # the elementwise golden section steps one bracket exactly as the scalar
    # loop does; perfbench pins kn.csv's max_axis_tilt at degree 256
    mode = rl.SphereMode(kind, l)
    rep, ref = rl.kn_norm(mode), _kn_norm_oracle(mode, rl.modes._sphere_tube_mass)
    assert rep["s_kn"] == ref["s_kn"]
    assert rep["max_axis_tilt"] == ref["max_axis_tilt"]


def test_kn_zonal_bounds():
    mode = rl.SphereMode("zonal", 48)
    rep = rl.kn_norm(mode)
    assert mode.lam ** -0.5 / 10.0 <= rep["s_kn"] <= 1.0 + 1e-6


def _theorem3_against_removed_table(alpha):
    """The theorem3 runner's rows and spread at alpha, default degrees and
    depth, asserted equal to those of the library table it replaced."""
    rows, summary = run_runner("theorem3", {"alpha": alpha})
    modes = [rl.SphereMode("highest_weight", l) for l in (64, 128, 256)]
    ref_rows, spread = theorem_ratio_table(modes, rl.make_cantor_measure(alpha, 8), alpha)
    assert rows == ref_rows and summary["ratio_spread"] == spread
    return rows, spread


def test_theorem_ratio_spread_small_family():
    rows, spread = _theorem3_against_removed_table(0.7)
    assert spread <= 4.0
    assert all(np.isfinite(r["ratio"]) for r in rows)


def test_theorem_ratio_log_loss_at_alpha_one():
    rows, _ = _theorem3_against_removed_table(1.0)
    for r in rows:
        assert r["bound"] == pytest.approx(
            r["lambda"] ** 0.25 * r["skn"] ** 0.5 * np.log(r["lambda"]), rel=1e-12)


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


def _dyadic_inner_integral_oracle(lam: float, k_index: int, s: float, sp: float):
    """dyadic_inner_integral with the mesh and the phase screen on every y1 row."""
    from restrictlab.modes import (_fermi_distance, _parametrix_amplitude,
                                   check_dyadic_budget, lp_bump)
    two_k = 2.0 ** k_index
    n_y1 = check_dyadic_budget(lam)
    y1 = np.linspace(min(s, sp) - 2.5, max(s, sp) + 2.5, n_y1)
    band = two_k * (0.5 + 1.5 * (np.arange(192) + 0.5) / 192)
    y2 = np.concatenate([-band[::-1], band])
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    d1 = _fermi_distance(s, Y1, Y2)
    d2 = _fermi_distance(sp, Y1, Y2)
    amp = _parametrix_amplitude(d1) * _parametrix_amplitude(d2)
    bk = lp_bump(np.abs(y2) / two_k) ** 2
    integrand = amp * np.exp(1j * lam * (d1 - d2)) * (bk * np.cos(y2))[None, :]
    h1 = y1[1] - y1[0]
    h2 = band[1] - band[0]
    value = complex(integrand.sum() * h1 * h2)
    dd = 1e-5
    ph_p = (_fermi_distance(s, Y1, Y2 + dd) - _fermi_distance(sp, Y1, Y2 + dd))
    ph_m = (_fermi_distance(s, Y1, Y2 - dd) - _fermi_distance(sp, Y1, Y2 - dd))
    dphase = np.abs(ph_p - ph_m) / (2 * dd)
    on_supp = amp > 1e-3
    expected = two_k * abs(s - sp)
    if expected > 0 and on_supp.any():
        frac_degenerate = float((dphase[on_supp] < 0.1 * expected).mean())
    else:
        frac_degenerate = 0.0
    return value, frac_degenerate > 0.10


@pytest.mark.parametrize("lam, k", [(128.0, -2), (128.0, -1), (64.0, -1), (512.0, -4)])
def test_dyadic_inner_integral_matches_all_rows_oracle(lam, k):
    # the (s, s') pairs of dyadic_kernel_check and the stationary pair; every
    # node's distance from the screen's threshold far exceeds the finite
    # difference's error, so the flags must agree exactly
    two_k = 2.0 ** k
    seps = np.geomspace(0.5, 24.0, 10) / (two_k ** 2 * lam)
    for s, sp in [(0.05, 0.05 + d) for d in seps if d <= 0.9] + [(0.3, 0.3)]:
        val, flagged = dyadic_inner_integral(lam, k, s, sp)
        ref, ref_flagged = _dyadic_inner_integral_oracle(lam, k, s, sp)
        assert flagged == ref_flagged
        assert abs(val - ref) <= 1e-12 * abs(ref) + 1e-15


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

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

import restrictlab as rl
from restrictlab.errors import DomainError
from restrictlab.frequency import eta_hat

from conftest import cached_weight, l2_weighted_norm, sampled, weighted_energy


# ---------------------------------------------------------------- bump pair

def _eta_mp(u: float) -> float:
    # eta(u) = (1/pi) [ sin(u/2)/u + int_{1/2}^1 hat(eta)(xi) cos(u xi) dxi ] in
    # 20 digits, on pieces of about 1.3 periods of the cosine
    with mpmath.workdps(20):
        u = mpmath.mpf(u)

        def hat(xi):
            t = 2 * (1 - xi)
            if t >= 1:
                return mpmath.mpf(1)
            if t <= 0:
                return mpmath.mpf(0)
            g1, g2 = mpmath.exp(-1 / t), mpmath.exp(-1 / (1 - t))
            return g1 / (g1 + g2)

        plateau = mpmath.mpf(1) / 2 if u == 0 else mpmath.sin(u / 2) / u
        pieces = mpmath.linspace(mpmath.mpf(1) / 2, 1, max(4, int(u / 16)) + 1)
        tail = mpmath.quad(lambda xi: hat(xi) * mpmath.cos(u * xi), pieces)
        return float((plateau + tail) / mpmath.pi)


def _eta_legendre(u: np.ndarray) -> np.ndarray:
    # the 2048-node Gauss-Legendre quadrature of the same integral that once
    # built the table, on [1/2, 1]
    xg, wg = roots_legendre(2048)
    xi = 0.5 + 0.25 * (xg + 1.0)
    w = 0.25 * wg * eta_hat(xi)
    out = np.empty_like(u)
    for i0 in range(0, u.size, 4096):
        uu = u[i0:i0 + 4096]
        out[i0:i0 + 4096] = 0.5 * np.sinc(uu / (2.0 * np.pi)) + np.cos(np.outer(uu, xi)) @ w
    return out / np.pi


# knots j/128 across the table, and three in its last 4 units
_MP_KNOTS = np.array([0, 64, 401, 1280, 3973, 8192, 12877, 32896, 64003,
                      101888, 102272, 102400]) / 128.0


def test_eta_table_matches_mpmath(bump):
    ref = np.array([_eta_mp(u) for u in _MP_KNOTS])
    assert np.abs(bump.eta(_MP_KNOTS) - ref).max() <= 1e-15
    # tail_floor bounds eta over the last 4 units, where the oracle is sampled
    tail = _MP_KNOTS >= bump.TABLE_MAX - 4.0
    assert np.abs(ref[tail]).max() <= bump.tail_floor


def test_eta_table_matches_legendre_quadrature(bump):
    # the knots of the old two-piece table; 5e-14 is twice the quadrature's
    # own error against mpmath
    u = np.concatenate([np.arange(0.0, 64.0, 1.0 / 128.0),
                        np.arange(64.0, bump.TABLE_MAX + 1e-9, 1.0 / 16.0)])
    assert u.size == 19969 and u[-1] == bump.TABLE_MAX
    oracle = _eta_legendre(u)
    assert np.abs(bump.eta(u) - oracle).max() <= 5e-14
    tail = u >= bump.TABLE_MAX - 4.0
    assert abs(bump.tail_floor - np.abs(oracle[tail]).max()) <= 5e-14


def test_bump_table_knobs_are_class_constants(bump):
    for knob in ({"table_max": 400.0}, {"quad_nodes": 512},
                 {"transition_sharpness": 2.0}):
        with pytest.raises(TypeError):
            rl.BumpPair(**knob)
    rl.BumpPair()


def test_eta_hat_plateau_and_support():
    assert eta_hat(0.0) == 1.0
    assert eta_hat(0.25) == 1.0
    assert eta_hat(-0.5) == 1.0
    assert eta_hat(1.0) == 0.0
    assert eta_hat(1.5) == 0.0
    xi = np.linspace(-2, 2, 1001)
    assert np.array_equal(eta_hat(xi), eta_hat(-xi))


def test_eta_hat_numerically_smooth():
    # sampled difference quotients stay bounded through both transition edges
    xi = np.linspace(0.4, 1.1, 20001)
    h = xi[1] - xi[0]
    d1 = np.diff(eta_hat(xi)) / h
    d2 = np.diff(d1) / h
    assert np.abs(d1).max() < 20.0
    assert np.abs(d2).max() < 2000.0


def test_eta_at_zero_range(bump):
    # eta(0) = (1/2pi) int eta_hat, and 1 < int eta_hat < 2
    assert 1.0 / (2 * np.pi) < bump.eta(0.0) < 1.0 / np.pi


def test_eta_real_even(bump):
    x = np.linspace(0, 30, 500)
    assert np.array_equal(bump.eta(x), bump.eta(-x))


# ---------------------------------------------------------------- band kernel

def _band_hat(lam, beta, xi):
    """The band mask band_project multiplies by."""
    return eta_hat((xi - lam) / beta) + eta_hat((xi + lam) / beta)


def _spatial(bump, lam, beta, x):
    """eta_beta(x) = 2 beta cos(lam x) eta(beta x), by direct inversion."""
    x = np.asarray(x, dtype=float)
    return 2.0 * beta * np.cos(lam * x) * bump.eta(beta * x)


def _decay_constant(bump, lam, beta, N):
    """Measured C_N = sup_x |eta_beta(x)| (1 + beta |x|)^N / beta, over
    beta |x| < 300."""
    u = np.arange(0.0, 300.0, 0.005)
    vals = np.abs(2.0 * np.cos(lam * u / beta) * bump.eta(u)) * (1.0 + u) ** N
    return float(vals.max())


def test_band_hat_plateau_at_center():
    for lam, beta in ((64.0, 8.0), (256.0, 16.0)):
        assert _band_hat(lam, beta, lam) == 1.0
        assert _band_hat(lam, beta, -lam) == 1.0


def test_eta_beta_at_zero(bump):
    # formula value cross-checked by direct quadrature of the band transform
    lam, beta = 128.0, 16.0
    val = _spatial(bump, lam, beta, 0.0)
    assert val == pytest.approx(2.0 * beta * bump.eta(0.0), rel=1e-12)
    xi = np.linspace(-lam - 2 * beta, lam + 2 * beta, 400001)
    quad = np.trapezoid(_band_hat(lam, beta, xi), xi) / (2 * np.pi)
    assert val == pytest.approx(quad, rel=1e-6)


def test_eta_beta_even_and_decay_finite(bump):
    lam = 256.0
    for beta in (8.0, 32.0, 128.0):
        x = 1.0 / beta
        v = _spatial(bump, lam, beta, x)
        assert np.isfinite(v / (beta * 2.0 ** -4))
        assert _spatial(bump, lam, beta, -x) == v


def test_band_project_requires_band_inside_center():
    # the grid resolves lam + beta in both cases, so only the band check refuses
    f = sampled(np.cos, -3.0, 3.0, 1.0 / 1024.0)
    with pytest.raises(DomainError, match="1 <= beta <= lam"):
        rl.band_project(64.0, 128.0, f)
    with pytest.raises(DomainError, match="1 <= beta <= lam"):
        rl.band_project(64.0, 0.5, f)


def test_decay_constant_stability(bump):
    # measured C_N varies by less than a factor 2 across bandwidths
    lam = 256.0
    for N in (2, 4):
        cs = [_decay_constant(bump, lam, beta, N)
              for beta in (8.0, 32.0, 128.0)]
        assert max(cs) / min(cs) < 2.0


def test_decay_constant_finite_n8(bump):
    assert np.isfinite(_decay_constant(bump, 256.0, 32.0, 8))


# ---------------------------------------------------------------- projections

def _band_mass_fraction(f, lo, hi):
    """Share of the spectral mass |fhat|^2 on the two bands +-[lo, hi]."""
    xi, fhat = rl.fourier_transform(f)
    p = np.abs(fhat) ** 2
    total = p.sum()
    if total == 0:
        return 0.0
    return float(p[(np.abs(xi) >= lo) & (np.abs(xi) <= hi)].sum() / total)


def _bump_profile(x, beta):
    # frequency width 1/sigma <= beta/4, and small enough spatially that the
    # grid-edge truncation sits below the leakage tolerances
    sigma = min(16.0 / beta, 0.5)
    return np.exp(-0.5 * (x / sigma) ** 2)


def test_band_project_passes_resonant_signal():
    lam, beta = 128.0, 16.0
    h = 1.0 / (8.0 * lam)
    f = sampled(
        lambda x: np.cos(lam * x) * _bump_profile(x, beta), -3.0, 3.0, h)
    p = rl.band_project(lam, beta, f, "pass")
    err = np.sqrt(np.sum(np.abs(p.values - f.values) ** 2)
                  / np.sum(np.abs(f.values) ** 2))
    assert err <= 1e-6


def test_band_project_kills_detuned_signal():
    lam = 128.0
    beta = lam / 4.0
    h = 1.0 / (8.0 * lam)
    f = sampled(
        lambda x: np.cos(lam / 2.0 * x) * _bump_profile(x, beta), -3.0, 3.0, h)
    p = rl.band_project(lam, beta, f, "pass")
    rel = np.sqrt(np.sum(np.abs(p.values) ** 2) / np.sum(np.abs(f.values) ** 2))
    assert rel <= 1e-6


def test_band_project_partition_of_identity():
    lam, beta = 64.0, 8.0
    h = 1.0 / (8.0 * lam)
    f = sampled(
        lambda x: np.exp(1j * lam * x) * np.exp(-x ** 2), -3.0, 3.0, h)
    p = rl.band_project(lam, beta, f, "pass")
    c = rl.band_project(lam, beta, f, "complement")
    assert np.abs(p.values + c.values - f.values).max() <= 1e-12


def test_band_project_underresolved_grid():
    f = sampled(np.cos, -3.0, 3.0, 0.05)
    with pytest.raises(DomainError):
        rl.band_project(128.0, 16.0, f)


@pytest.mark.parametrize("lam", [64.0, 256.0])
@pytest.mark.parametrize("beta_exp", [0.5, 0.75])
def test_band_support_statements(lam, beta_exp):
    # wide grid so the projection's spatial tails are not chopped at the edge
    beta = lam ** beta_exp
    h = 1.0 / (8.0 * lam)
    f = sampled(
        lambda x: np.exp(1j * lam * x) * np.exp(-2 * x ** 2)
        + 0.3 * np.exp(-3 * x ** 2), -6.0, 6.0, h)
    p = rl.band_project(lam, beta, f, "pass")
    assert 1.0 - _band_mass_fraction(p, lam - beta, lam + beta) <= 1e-8
    c = rl.band_project(lam, beta, f, "complement")
    assert _band_mass_fraction(c, lam - beta / 2.0, lam + beta / 2.0) <= 1e-8


def test_band_project_matches_spatial_convolution(bump):
    # independent route: direct spatial convolution with the band kernel
    # against the spectral implementation
    lam, beta = 64.0, 8.0
    h = 1.0 / (16.0 * lam)
    f = sampled(
        lambda x: np.exp(1j * lam * x) * np.exp(-4.0 * x ** 2), -2.0, 2.0, h)
    p = rl.band_project(lam, beta, f, "pass")
    x = f.grid()
    # eta_beta decays fast; a +-6 window around each point captures the tails
    m = int(round(6.0 / h))
    y = h * np.arange(-m, m + 1)
    kern = _spatial(bump, lam, beta, y)
    conv = h * np.convolve(f.values, kern, mode="full")[m:m + f.n]
    err = np.abs(conv - p.values).max() / np.abs(p.values).max()
    assert err <= 1e-6


def test_parseval_consistency():
    for name, profile in [("gauss", lambda x: np.exp(-x ** 2)),
                          ("mod", lambda x: np.exp(40j * x) * np.exp(-2 * x ** 2))]:
        f = sampled(profile, -3.0, 3.0, 1e-3)
        xi, fhat = rl.fourier_transform(f)
        lhs = f.grid_step * np.sum(np.abs(f.values) ** 2)
        rhs = np.sum(np.abs(fhat) ** 2) * (xi[1] - xi[0]) / (2 * np.pi)
        assert abs(lhs - rhs) <= 1e-8 * lhs


# ---------------------------------------------------------------- energy identity

def test_gamma_factor_at_half():
    assert rl.gamma_factor(0.5) == 1.0


def test_gamma_factor_domain():
    for s in (0.0, 1.0):
        with pytest.raises(DomainError):
            rl.gamma_factor(s)


def test_energy_identity_triangle():
    # triangle profile on [-1,1], phi = 1, s = 1/2
    h = 1e-3
    n = int(round(4.0 / h)) + 1
    x = -2.0 + h * np.arange(n)
    w = rl.WeightFunction(-2.0, h, np.maximum(1.0 - np.abs(x), 0.0), 1.0)
    lhs, rhs = rl.fourier_energy_identity(w, np.ones(n), 0.5)
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_energy_identity_modulated_gaussian():
    h = 1e-3
    n = int(round(4.0 / h)) + 1
    x = -2.0 + h * np.arange(n)
    w = rl.WeightFunction(-2.0, h, np.maximum(1.0 - np.abs(x), 0.0), 1.0)
    phi = np.exp(12j * x) * np.exp(-2 * x ** 2)
    lhs, rhs = rl.fourier_energy_identity(w, phi, 0.7)
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_mean_square_fourier_decay_bound():
    # spectral side bounded by the measured direct-energy constant
    for alpha in (0.7, 0.9):
        w = cached_weight(alpha, 6, 50.0)
        phi = np.exp(-0.5 * w.grid() ** 2)
        lhs, rhs = rl.fourier_energy_identity(w, phi, 0.5)
        c_meas = abs(complex(weighted_energy(w, phi, 0.5))) / l2_weighted_norm(w, phi) ** 2
        assert lhs <= c_meas * l2_weighted_norm(w, phi) ** 2 * 1.01

import tracemalloc

import mpmath
import numpy as np
import pytest

import restrictlab as rl
from restrictlab import spherical
from restrictlab.errors import DomainError
from restrictlab.sampling import dft_head
from restrictlab.spherical import _phi_integrand_nodes, phi_s_radial, spectral_truncation

from conftest import cached_kernel


def hc_inverse(H_eval, x: float, truncation: float = None) -> float:
    """Inverse transform at the radial point a(x):
    int_0^T H(s) phi_s(a(x)) s tanh(pi s) / (2 pi) ds, by a direct per-point
    quadrature (the oracle of make_kernel's FFT and circle table)."""
    if truncation is None:
        raise DomainError("truncation point is required")
    T = float(truncation)
    s = np.arange(0.0, T + 0.01, 0.01)
    Hs = np.asarray(H_eval(s), dtype=float)
    n_theta = max(64, int(1.3 * T * abs(x)) + 64)
    th = _phi_integrand_nodes(n_theta)
    u = np.cosh(x) - np.sinh(x) * np.cos(2.0 * th)
    lu = np.log(u)
    phis = (u[None, :] ** -0.5 * np.cos(np.outer(s, lu))).mean(axis=1)
    dens = s * np.tanh(np.pi * s) / (2.0 * np.pi)
    return float(np.trapezoid(Hs * phis * dens, s))


def padded_dft_head(c: np.ndarray, L: int, n: int) -> np.ndarray:
    """The first n terms of the length-L DFT of real c from one zero-padded
    rfft, mirrored past L/2 (the oracle of make_kernel's chirp-z Q)."""
    X = np.fft.rfft(c, L)
    if n > X.size:
        X = np.concatenate([X, X[-2:0:-1].conj()])
    return X[:n]


def demodulate_window(x: np.ndarray, vals: np.ndarray, s: float):
    """Least-squares split of samples into e^(+-i s x) components with
    window-linear amplitudes.

    Returns (f_plus, f_minus, residual, flagged); the flag marks an
    ill-conditioned design (near-parallel columns)."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean()
    e_p = np.exp(1j * s * x)
    e_m = np.exp(-1j * s * x)
    A = np.stack([e_p, xc * e_p, e_m, xc * e_m], axis=1)
    coef, _, rank, sv = np.linalg.lstsq(A, np.asarray(vals, dtype=complex), rcond=None)
    resid = float(np.abs(vals - A @ coef).max())
    flagged = bool(rank < 4 or sv[-1] < 1e-8 * sv[0])
    return complex(coef[0]), complex(coef[2]), resid, flagged


def asymptotic_check(lam: float, x_range=(0.5, 2.0)):
    """Demodulate phi_lam into e^(+-i lam x) amplitudes on x_range.

    Reports, for 40 windows of 12 samples each, per-window |f+| and fit
    residuals, the scaled sup |f+| (lam x)^(1/2), and ill-conditioning flags.
    """
    s = float(lam)
    h = 0.4 / s
    lo, hi = x_range
    out = {"x": [], "f_plus": [], "residual": [], "flagged": []}
    for x0 in np.linspace(lo, hi - 12 * h, 40):
        x = x0 + h * np.arange(12)
        vals = phi_s_radial(s, x)
        fp, _, resid, flagged = demodulate_window(x, vals, s)
        out["x"].append(float(x.mean()))
        out["f_plus"].append(abs(fp))
        out["residual"].append(resid)
        out["flagged"].append(flagged)
    out = {k: np.asarray(v) for k, v in out.items()}
    out["sup_scaled_plus"] = float((out["f_plus"] * np.sqrt(s * out["x"])).max())
    return out


# ---------------------------------------------------------------- phi_s

def test_phi_at_identity_is_one():
    for s in (0.0, 3.7, 50.0):
        v = rl.phi_s(s, rl.GroupElement.identity())
        assert v.real == pytest.approx(1.0, abs=1e-12)
        assert abs(v.imag) <= 1e-12


@pytest.mark.parametrize("s,x", [(10.0, 0.4), (50.0, 1.1)])
def test_phi_weyl_symmetry_and_realness(s, x):
    g = rl.GroupElement.diag_flow(x)
    vp = rl.phi_s(s, g)
    vm = rl.phi_s(-s, g)
    assert abs(vp - vm) <= 1e-10
    assert abs(vp.imag) <= 1e-10


def test_phi_nonconvergence_error(monkeypatch):
    from restrictlab.errors import NonConvergenceError
    monkeypatch.setattr(rl.spherical, "PHI_MAX_NODES", 256)
    with pytest.raises(NonConvergenceError):
        rl.phi_s(200.0, rl.GroupElement.diag_flow(1.5))


def test_phi_legendre_oracle():
    # independent integral representation via mpmath's Legendre function
    s, x = 5.0, 0.3
    mine = rl.phi_s(s, rl.GroupElement.diag_flow(x))
    ref = complex(mpmath.legenp(-0.5 + 1j * s, 0, mpmath.cosh(x)))
    assert abs(mine - ref) <= 1e-8


def test_phi_bounded_by_phi0():
    xs = np.array([0.2, 0.7, 1.5])
    p0 = phi_s_radial(0.0, xs)
    for s in (3.0, 12.0, 40.0):
        ps = phi_s_radial(s, xs)
        assert np.all(np.abs(ps) <= p0 + 1e-8)
        assert np.all(np.abs(ps) <= 1.0 + 1e-8)


@pytest.mark.parametrize("s", [10.0, 50.0])
def test_phi_eigen_equation(s):
    # radial hyperbolic Laplacian via second-order differences
    h = 5e-4
    r = np.arange(0.1, 2.0, h)
    v = phi_s_radial(s, r)
    lap = ((v[2:] - 2 * v[1:-1] + v[:-2]) / h ** 2
           + (v[2:] - v[:-2]) / (2 * h) / np.tanh(r[1:-1]))
    resid = np.abs(lap + (0.25 + s * s) * v[1:-1])
    assert resid.max() / (0.25 + s * s) <= 1e-4


# ---------------------------------------------------------------- transforms

def test_hc_forward_zero_and_evenness():
    assert rl.hc_forward(lambda r: np.zeros_like(r), 5.0, support_radius=1.0) == 0.0

    def f(r):
        return np.exp(-40.0 * r ** 2) * (r < 0.5)

    for s in (3.0, 17.0):
        assert abs(rl.hc_forward(f, s, support_radius=0.5)
                   - rl.hc_forward(f, -s, support_radius=0.5)) <= 1e-9


def test_hc_forward_requires_support():
    with pytest.raises(TypeError):
        rl.hc_forward(lambda r: np.zeros_like(r), 5.0)


def test_hc_inverse_zero_and_truncation_required():
    assert hc_inverse(lambda s: np.zeros_like(s), 0.3, truncation=50.0) == 0.0
    with pytest.raises(DomainError):
        hc_inverse(lambda s: np.zeros_like(s), 0.3)


def test_kernel_positive_at_origin(kernel100):
    # k(e) = int h0^2 d(plancherel) > 0
    assert kernel100.values[0] > 0
    assert kernel100.values[0] == pytest.approx(
        hc_inverse(kernel100.h0_squared, 0.0,
                   truncation=kernel100.lam + spectral_truncation(kernel100.h_width)), rel=1e-6)


def test_kernel_table_matches_direct_inverse(kernel100):
    # two organizations of the same spectral integral: the FFT+circle table
    # against a direct per-point inverse transform
    T = kernel100.lam + spectral_truncation(kernel100.h_width)
    for x in (0.02, 0.05, 0.11):
        direct = hc_inverse(kernel100.h0_squared, x, truncation=T)
        assert kernel100.radial(x) == pytest.approx(direct, rel=1e-5, abs=1e-4)


def test_kernel_roundtrip(kernel100):
    lam = kernel100.lam
    for s in (lam - 1.0, lam, lam + 1.0):
        fwd = rl.hc_forward(kernel100.radial, s,
                            support_radius=kernel100.support_radius + 0.05)
        assert fwd == pytest.approx(kernel100.h0_squared(s), rel=1e-5)


def test_kernel_table_shape(kernel100):
    # center value dominates the table within a factor 2
    assert np.abs(kernel100.values).max() <= 2.0 * kernel100.values[0]
    assert kernel100.verify_residual <= 1e-6


def test_kernel_spectral_nonnegativity(kernel100):
    s = np.linspace(0, kernel100.lam * 2, 10001)
    assert kernel100.h0_squared(s).min() >= 0.0


def test_kernel_support_vanishing(kernel100):
    x = kernel100.x_grid()
    beyond = x > kernel100.support_radius + 0.02
    assert np.abs(kernel100.values[beyond]).max() <= 1e-6 * kernel100.values[0]


def test_kernel_decay_constant_stability():
    consts = [rl.kernel_decay_constant(cached_kernel(lam))
              for lam in (50.0, 100.0, 200.0)]
    assert max(consts) / min(consts) < 2.0


def test_kernel_h_profile_properties(kernel100):
    u = np.linspace(-200, 200, 4001)
    h = kernel100.h_profile(u)
    assert h.min() >= 0.0
    assert kernel100.h_profile(0.0) == 1.0
    assert np.array_equal(h, kernel100.h_profile(-u))


@pytest.mark.parametrize("L, M, n", [(256, 40, 100), (256, 40, 200), (256, 40, 256),
                                     (256, 1, 256), (256, 1, 1), (4096, 1500, 900)])
def test_dft_head_matches_fft(L, M, n):
    # n <= L/2, the old mirror range n > L/2 + 1, n = L and a single coefficient
    c = np.random.default_rng(M + n).standard_normal(M)
    assert np.abs(dft_head(c, L, n) - np.fft.fft(c, L)[:n]).max() <= 1e-13 * np.abs(c).sum()


@pytest.mark.parametrize("lam, x_max", [(100.0, 1.0), (200.0, 1.0), (100.0, 4.0)])
def test_kernel_matches_padded_rfft_oracle(monkeypatch, lam, x_max):
    # the chirp-z Q and the kernel built from it against the zero-padded rfft
    # that computed Q before
    heads = []

    def recorded(c, L, n):
        heads.append((c, L, n))
        return dft_head(c, L, n)

    monkeypatch.setattr(spherical, "dft_head", recorded)
    kern = rl.make_kernel(lam, x_max=x_max)
    monkeypatch.setattr(spherical, "dft_head", padded_dft_head)
    oracle = rl.make_kernel(lam, x_max=x_max)
    scale = np.abs(oracle.values).max()
    (c, L, n), = heads
    assert np.abs(dft_head(c, L, n).real - padded_dft_head(c, L, n).real).max() <= 1e-12 * scale
    assert np.abs(kern.values - oracle.values).max() <= 1e-12 * scale
    assert kern.verify_residual == pytest.approx(oracle.verify_residual, abs=1e-12)


def test_kernel_memory_independent_of_padded_length():
    # at lam = 800 the padded rfft alone was a 2^24-point transform, 135 MB peak
    tracemalloc.start()
    try:
        rl.make_kernel(800.0, x_max=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        rl.make_kernel(5.0)
    with pytest.raises(DomainError):
        rl.make_kernel(100.0, h_width=0.2)


def test_spectral_truncation_bound(kernel100):
    T = spectral_truncation(kernel100.h_width)
    assert kernel100.h_profile(T) ** 2 < 1e-12


# ---------------------------------------------------------------- asymptotics

def test_demodulate_zero_function():
    x = 0.5 + 0.01 * np.arange(12)
    fp, fm, resid, flagged = demodulate_window(x, np.zeros(12), 40.0)
    assert fp == 0 and fm == 0 and resid == 0.0


def test_demodulate_recovers_pure_wave():
    s = 60.0
    x = 0.5 + (0.4 / s) * np.arange(12)
    vals = 0.37 * np.exp(1j * s * x) - 0.11 * np.exp(-1j * s * x)
    fp, fm, resid, flagged = demodulate_window(x, vals, s)
    assert fp == pytest.approx(0.37, abs=1e-10)
    assert fm == pytest.approx(-0.11, abs=1e-10)
    assert not flagged


def test_asymptotic_amplitudes_stable_and_residual_small():
    sups = []
    for s in (50.0, 200.0):
        rep = asymptotic_check(s, x_range=(0.5, 2.0))
        assert not rep["flagged"].any()
        # residual after removing both oscillatory terms
        assert np.all(rep["residual"] <= 10.0 * (s * rep["x"]) ** -2.0)
        sups.append(rep["sup_scaled_plus"])
    assert max(sups) / min(sups) <= 2.0

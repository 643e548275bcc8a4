"""Spherical functions on the hyperbolic plane, the spherical (Harish-Chandra)
transform, and the band-limited radial kernel (its Plancherel inverse) used
by the geometric-integral experiments.

Conventions: Haar measure on G extends the hyperbolic area by mass 1 on the
rotation subgroup, so for radial f the forward transform is
2 pi int_0^inf f(r) phi_s(r) sinh r dr and the inverse density is
s tanh(pi s) ds / (2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError, ResourceError
from .geometry import GroupElement, dist_to_identity
from .sampling import dft_head, even_table

SPECTRAL_FLOOR = 1e-12   # truncate spectral integrands below this level
PHI_MAX_NODES = 1 << 21   # circle nodes at which phi_s gives up doubling
TABLE_BUDGET = 1 << 21   # radial and spectral nodes of one kernel table
SAMPLES_PER_WAVELENGTH = 16   # radial nodes per wavelength 1/lam of the kernel table
SPECTRAL_STEP = 0.01   # step ds of the kernel's uniform s-grid
H_WIDTH = 0.05   # default Paley-Wiener width h_width of the kernel profile


def _phi_integrand_nodes(n: int) -> np.ndarray:
    # midpoint nodes on [0, pi); the integrand is pi-periodic and smooth,
    # so the equal-weight rule converges spectrally
    return (np.arange(n) + 0.5) * np.pi / n


def _circle_mean(x, n_theta: int, F) -> np.ndarray:
    """Mean over n_theta circle nodes of u^(-1/2) F(ln u), u = cosh x -
    sinh x cos 2 theta, for each x (the last axis runs over the circle)."""
    x = np.asarray(x, dtype=float)[..., None]
    u = np.cosh(x) - np.sinh(x) * np.cos(2.0 * _phi_integrand_nodes(n_theta))
    return (u ** -0.5 * F(np.log(u))).mean(axis=-1)


def phi_s_radial(s: float, x) -> np.ndarray:
    """phi_s at the diagonal point a(x): the circle mean of
    u(theta)^(-1/2) cos(s ln u)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_theta = max(64, int(16.0 * abs(s) * float(np.abs(x).max())) + 64)
    return _circle_mean(x, n_theta, lambda v: np.cos(s * v))


def phi_s(s: float, g: GroupElement) -> complex:
    """Spherical function phi_s(g) = int_K e^((is+1/2) A(kg)) dk.

    Adaptive doubling of the circle rule until successive refinements agree
    to 1e-8 relative; raises NonConvergenceError at PHI_MAX_NODES nodes.
    """
    m = g.m
    n = max(64, int(16.0 * abs(s) * dist_to_identity(g)) + 64)

    def quad(n_nodes: int) -> complex:
        th = _phi_integrand_nodes(n_nodes)
        c, sn = np.cos(th), np.sin(th)
        # bottom row of k_theta g
        row_c = sn * m[0, 0] + c * m[1, 0]
        row_d = sn * m[0, 1] + c * m[1, 1]
        A = -np.log(row_c ** 2 + row_d ** 2)   # Iwasawa height A(k_theta g)
        return complex(np.mean(np.exp((1j * s + 0.5) * A)))

    prev = quad(n)
    while n < PHI_MAX_NODES:
        n *= 2
        cur = quad(n)
        if abs(cur - prev) <= 1e-8 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise NonConvergenceError("phi_s quadrature did not converge below 1e-8"
                              f" within {PHI_MAX_NODES} nodes")


def hc_forward(f_eval, s: float, support_radius: float) -> float:
    """Spherical transform of a radial function supported in r <= R:
    2 pi int_0^R f(r) phi_s(r) sinh r dr (composite Simpson)."""
    # imported here: scipy.integrate adds about 16 ms to start-up (2-core
    # machine), and no experiment calls this, only the tests
    from scipy.integrate import simpson
    R = float(support_radius)
    per_unit = max(8192, int(64.0 * (abs(s) + 1.0)))
    n = max(256, int(per_unit * R))
    n += n % 2
    r = np.linspace(0.0, R, n + 1)
    fv = np.asarray(f_eval(r), dtype=float)
    pv = phi_s_radial(s, r)
    return float(2.0 * np.pi * simpson(fv * pv * np.sinh(r), x=r))


def _h_profile(h_width: float, u) -> np.ndarray:
    """The sinc^4 Paley-Wiener profile, transform supported in [-2 h_width, 2 h_width]."""
    return np.sinc(h_width * np.asarray(u, dtype=float) / (2.0 * np.pi)) ** 4


def _h0_squared(h_width: float, lam: float, s) -> np.ndarray:
    """h0(s)^2 = (h(s - lam) + h(-s - lam))^2 for the sinc^4 profile h."""
    s = np.asarray(s, dtype=float)
    return (_h_profile(h_width, s - lam) + _h_profile(h_width, -s - lam)) ** 2


@dataclass(frozen=True)
class SphericalKernel:
    """Radial table of the band kernel k at spectral center lam.

    Built from the nonnegative Paley-Wiener profile h (here sinc^4, transform
    supported in [-2 h_width, 2 h_width]) via h0(s) = h(s-lam) + h(-s-lam);
    k is the inverse spherical transform of h0^2, hence positive on the
    spectral side and compactly supported in radius <= 4 h_width.
    """

    lam: float
    h_width: float
    x_step: float
    values: np.ndarray = field(repr=False)
    verify_residual: float
    radial: Callable = field(repr=False)   # k at radial distance |x|; 0 beyond the table

    @property
    def support_radius(self) -> float:
        return 4.0 * self.h_width

    def h_profile(self, u) -> np.ndarray:
        return _h_profile(self.h_width, u)

    def h0_squared(self, s) -> np.ndarray:
        return _h0_squared(self.h_width, self.lam, s)

    def x_grid(self) -> np.ndarray:
        return self.x_step * np.arange(self.values.size)


def spectral_truncation(h_width: float) -> float:
    """Offset beyond which h^2 stays under SPECTRAL_FLOOR.

    h(u) <= (2/(h_width u))^4, so h^2 < floor once u > 2 floor^(-1/8) / h_width.
    """
    return 2.0 * SPECTRAL_FLOOR ** (-1.0 / 8.0) / h_width


def check_kernel_budget(lam: float, x_max: float, h_width: float) -> tuple[int, int]:
    """(radial nodes on [0, x_max], spectral nodes on [0, lam + T]) of the
    kernel table at lam; ResourceError past TABLE_BUDGET, radial nodes first,
    before anything is built."""
    n_x = np.round(x_max * SAMPLES_PER_WAVELENGTH * lam) + 1   # inf past float range
    if n_x > TABLE_BUDGET:
        raise ResourceError(f"{n_x:.0f} radial nodes exceed budget {TABLE_BUDGET}")
    n_s = np.ceil((lam + spectral_truncation(h_width)) / SPECTRAL_STEP) + 1
    if n_s > TABLE_BUDGET:
        raise ResourceError(f"{n_s:.0f} spectral nodes exceed budget {TABLE_BUDGET}")
    return int(n_x), int(n_s)


def make_kernel(lam: float, h_width: float = H_WIDTH, x_max: float = 4.0) -> SphericalKernel:
    """Tabulate the radial band kernel on [0, x_max].

    The spectral integral is reduced to Q(t) = int H(s) cos(s t) s tanh(pi s)
    ds / (2 pi) on a uniform s-grid of step ds = SPECTRAL_STEP with M nodes.
    Q on the t-grid is the first n_t terms of the length-L DFT of those
    coefficients, from one chirp-z convolution whose cost and memory depend
    on M + n_t and not on L.  Each radial value is then a circle average of
    u^(-1/2) Q(ln u).  One node-doubling spot check per table guards the
    circle rule.
    """
    if lam < 10:
        raise DomainError("lam must be >= 10")
    if not 0 < h_width <= 0.05:
        raise DomainError("h_width must lie in (0, 0.05] so the kernel support"
                          " radius 4*h_width stays within 0.2")
    n_x, M = check_kernel_budget(lam, x_max, h_width)
    if n_x < 2:
        raise DomainError(f"x_max = {x_max} gives fewer than 2 radial nodes")

    ds = SPECTRAL_STEP
    s_max = lam + spectral_truncation(h_width)
    s = np.arange(M) * ds
    coef = _h0_squared(h_width, lam, s) * s * np.tanh(np.pi * s) * (ds / (2.0 * np.pi))
    coef[0] *= 0.5
    coef[-1] *= 0.5
    dt_target = 1.0 / (2.0 * SAMPLES_PER_WAVELENGTH * lam)
    L = 1 << int(np.ceil(np.log2(2.0 * np.pi / (ds * dt_target))))
    dt = 2.0 * np.pi / (L * ds)
    n_t = min(L, int(x_max / dt) + 8)
    Q = dft_head(coef, L, n_t).real
    q = even_table(dt * np.arange(n_t), Q)

    xs = np.linspace(0.0, x_max, n_x)
    vals = np.zeros(n_x)
    supp = 4.0 * h_width + 2.0 * dt

    def circle_average(xx: float, refine: int = 1) -> float:
        return float(_circle_mean(xx, refine * max(64, int(1.3 * s_max * xx) + 64), q))

    for i, xx in enumerate(xs):
        if xx > supp:
            break
        vals[i] = circle_average(xx)
    # beyond the Paley-Wiener support the kernel vanishes; spot-verify on a
    # sparse set instead of densely tabulating noise
    i_supp = int(np.searchsorted(xs, supp))
    spot = xs[i_supp::max(1, (n_x - i_supp) // 32)] if i_supp < n_x else np.array([])
    beyond = max((abs(circle_average(xx)) for xx in spot), default=0.0)

    rng = np.random.default_rng(7)
    check_idx = rng.choice(max(i_supp, 1), size=min(16, max(i_supp, 1)), replace=False)
    resid = 0.0
    for i in check_idx:
        v2 = circle_average(xs[i], refine=2)
        resid = max(resid, abs(v2 - vals[i]))
    scale = float(np.abs(vals).max())
    resid = max(resid, beyond)
    if resid > 1e-6 * scale:
        raise NonConvergenceError(
            f"kernel circle rule residual {resid:.2e} exceeds 1e-6 * {scale:.2e}")
    x_step = xs[1] - xs[0]
    return SphericalKernel(lam, h_width, x_step, vals, resid / scale,
                           even_table(x_step * np.arange(n_x), vals))


def kernel_decay_constant(kernel: SphericalKernel) -> float:
    """sup_x |k(x)| (1 + lam |x|)^(1/2) / lam over the radial table."""
    x = kernel.x_grid()
    return float((np.abs(kernel.values) * np.sqrt(1.0 + kernel.lam * x)).max()
                 / kernel.lam)

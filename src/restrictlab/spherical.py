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

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, NonConvergenceError, ResourceError
from .geometry import GroupElement, dist_to_identity

SPECTRAL_FLOOR = 1e-12   # truncate spectral integrands below this level
PHI_MAX_NODES = 1 << 21   # circle nodes at which phi_s gives up doubling
TABLE_BUDGET = 1 << 21   # radial nodes of one kernel table
SAMPLES_PER_WAVELENGTH = 16   # radial nodes per wavelength 1/lam of the kernel table


def _phi_integrand_nodes(n: int) -> np.ndarray:
    # midpoint nodes on [0, pi); the integrand is pi-periodic and smooth,
    # so the equal-weight rule converges spectrally
    return (np.arange(n) + 0.5) * np.pi / n


def phi_s_radial(s: float, x) -> np.ndarray:
    """phi_s at the diagonal point a(x): mean over the circle of
    u(theta)^(-1/2) cos(s ln u), u = cosh x - sinh x cos 2 theta."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_theta = max(64, int(16.0 * abs(s) * float(np.abs(x).max())) + 64)
    th = _phi_integrand_nodes(n_theta)
    cos2t = np.cos(2.0 * th)
    u = np.cosh(x)[:, None] - np.sinh(x)[:, None] * cos2t[None, :]
    return (u ** -0.5 * np.cos(s * np.log(u))).mean(axis=1)


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

    @property
    def support_radius(self) -> float:
        return 4.0 * self.h_width

    def h_profile(self, u) -> np.ndarray:
        return _h_profile(self.h_width, u)

    def h0(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self.h_profile(s - self.lam) + self.h_profile(-s - self.lam)

    def h0_squared(self, s) -> np.ndarray:
        return self.h0(s) ** 2

    def x_grid(self) -> np.ndarray:
        return self.x_step * np.arange(self.values.size)

    def radial(self, x) -> np.ndarray:
        """k at radial distance |x|; zero beyond the table."""
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        xmax = self.x_step * (self.values.size - 1)
        inside = x <= xmax
        out[inside] = self._spline()(x[inside])
        return out

    def _spline(self):
        sp = getattr(self, "_spline_obj", None)
        if sp is None:
            sp = CubicSpline(self.x_grid(), self.values)
            object.__setattr__(self, "_spline_obj", sp)
        return sp


def spectral_truncation(h_width: float) -> float:
    """Offset beyond which h^2 stays under SPECTRAL_FLOOR.

    h(u) <= (2/(h_width u))^4, so h^2 < floor once u > 2 floor^(-1/8) / h_width.
    """
    return 2.0 * SPECTRAL_FLOOR ** (-1.0 / 8.0) / h_width


def check_kernel_budget(lam: float, x_max: float) -> int:
    """Radial nodes of the kernel table on [0, x_max] at lam; ResourceError
    past TABLE_BUDGET, before anything is built."""
    n_x = int(round(x_max * SAMPLES_PER_WAVELENGTH * lam)) + 1
    if n_x > TABLE_BUDGET:
        raise ResourceError(f"{n_x} radial nodes exceed budget {TABLE_BUDGET}")
    return n_x


def make_kernel(lam: float, h_width: float = 0.05, x_max: float = 4.0) -> SphericalKernel:
    """Tabulate the radial band kernel on [0, x_max].

    The spectral integral is reduced to Q(t) = int H(s) cos(s t) s tanh(pi s)
    ds / (2 pi) (a single FFT on a uniform s-grid of step ds = 0.01), after
    which each radial value is a circle average of u^(-1/2) Q(ln u).  One
    node-doubling spot check per table guards the circle rule.
    """
    if lam < 10:
        raise DomainError("lam must be >= 10")
    if not 0 < h_width <= 0.05:
        raise DomainError("h_width must lie in (0, 0.05] so the kernel support"
                          " radius 4*h_width stays within 0.2")
    n_x = check_kernel_budget(lam, x_max)
    if n_x < 2:
        raise DomainError(f"x_max = {x_max} gives fewer than 2 radial nodes")

    ds = 0.01
    T = spectral_truncation(h_width)
    s_max = lam + T
    M = int(np.ceil(s_max / ds)) + 1
    s = np.arange(M) * ds
    H = (_h_profile(h_width, s - lam) + _h_profile(h_width, -s - lam)) ** 2
    coef = H * s * np.tanh(np.pi * s) * (ds / (2.0 * np.pi))
    coef[0] *= 0.5
    coef[-1] *= 0.5
    dt_target = 1.0 / (2.0 * SAMPLES_PER_WAVELENGTH * lam)
    L = 1 << int(np.ceil(np.log2(2.0 * np.pi / (ds * dt_target))))
    dt = 2.0 * np.pi / (L * ds)
    n_t = min(L, int(x_max / dt) + 8)
    # coef is real, so the half spectrum carries Q; past t = pi / ds (only
    # for x_max beyond that) the periodic Q mirrors about it
    Q = np.fft.rfft(coef, L).real
    if n_t > Q.size:
        Q = np.concatenate([Q, Q[-2:0:-1]])
    q_spline = CubicSpline(dt * np.arange(n_t), Q[:n_t])

    xs = np.linspace(0.0, x_max, n_x)
    vals = np.zeros(n_x)
    supp = 4.0 * h_width + 2.0 * dt

    def circle_average(xx: float, n_th: int) -> float:
        th = _phi_integrand_nodes(n_th)
        u = np.cosh(xx) - np.sinh(xx) * np.cos(2.0 * th)
        return float(np.mean(u ** -0.5 * q_spline(np.abs(np.log(u)))))

    def n_nodes(xx: float) -> int:
        return max(64, int(1.3 * s_max * xx) + 64)

    for i, xx in enumerate(xs):
        if xx > supp:
            break
        vals[i] = circle_average(xx, n_nodes(xx))
    # beyond the Paley-Wiener support the kernel vanishes; spot-verify on a
    # sparse set instead of densely tabulating noise
    i_supp = int(np.searchsorted(xs, supp))
    spot = xs[i_supp::max(1, (n_x - i_supp) // 32)] if i_supp < n_x else np.array([])
    beyond = max((abs(circle_average(xx, n_nodes(xx))) for xx in spot), default=0.0)

    rng = np.random.default_rng(7)
    check_idx = rng.choice(max(i_supp, 1), size=min(16, max(i_supp, 1)), replace=False)
    resid = 0.0
    for i in check_idx:
        v2 = circle_average(xs[i], 2 * n_nodes(xs[i]))
        resid = max(resid, abs(v2 - vals[i]))
    scale = float(np.abs(vals).max())
    resid = max(resid, beyond)
    if resid > 1e-6 * scale:
        raise NonConvergenceError(
            f"kernel circle rule residual {resid:.2e} exceeds 1e-6 * {scale:.2e}")
    return SphericalKernel(lam, h_width, xs[1] - xs[0], vals, resid / scale)


def kernel_decay_constant(kernel: SphericalKernel) -> float:
    """sup_x |k(x)| (1 + lam |x|)^(1/2) / lam over the radial table."""
    x = kernel.x_grid()
    return float((np.abs(kernel.values) * np.sqrt(1.0 + kernel.lam * x)).max()
                 / kernel.lam)

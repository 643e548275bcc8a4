"""The compactly band-limited bump and its two uses: the exact transform
eta_hat masks the bands around +-lambda in spectral band projections, and the
profile eta, tabulated as the head of one DFT of eta_hat's samples, with the
plateau cutoff rho (BumpPair) mollifies measures; plus the Fourier-side
energy identity.

Fourier convention: fhat(xi) = int f(x) e^(-i x xi) dx, inverse carries 1/2pi.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DomainError
from .measures import WeightFunction, _grid_energy
from .sampling import SampledFunction, dft_head, even_table


def smooth_step(t) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) glue."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1] = 1.0
    mid = (t > 0) & (t < 1)
    tm = t[mid]
    g1 = np.exp(-1.0 / tm)
    g2 = np.exp(-1.0 / (1.0 - tm))
    out[mid] = g1 / (g1 + g2)
    return out


def rho_cutoff(t) -> np.ndarray:
    """Plateau cutoff: 1 on |t| <= 3/2, 0 on |t| >= 2, smooth in between."""
    return smooth_step(2.0 * (2.0 - np.abs(np.asarray(t, dtype=float))))


def eta_hat(xi) -> np.ndarray:
    """The bump's exact transform: even, 1 on |xi| <= 1/2, 0 on |xi| >= 1."""
    axi = np.abs(np.asarray(xi, dtype=float))
    return smooth_step(2.0 * (1.0 - axi))


class BumpPair:
    """An even bump eta with hat(eta) = 1 on [-1/2,1/2] and = 0 outside (-1,1).

    hat(eta) is the module function eta_hat.  eta is tabulated once on the
    uniform knots u_j = j TABLE_STEP up to TABLE_MAX by the trapezoid rule of
    eta(u) = (1/pi) int_0^1 hat(eta)(xi) cos(u xi) dxi at step
    dxi = 2 pi / (DFT_LENGTH TABLE_STEP), which makes the sum over all knots
    the head of one length-DFT_LENGTH DFT.  hat(eta) is smooth with compact
    support, so the rule is exact to rounding wherever its first alias, at
    u = DFT_LENGTH TABLE_STEP, lies far past the table.  Beyond the last knot
    the spatial tail is below tail_floor and eta is 0.
    """

    TABLE_MAX = 800.0
    TABLE_STEP = 1.0 / 128.0
    DFT_LENGTH = 1 << 20   # first alias at u = 8192, ten times TABLE_MAX

    rho = staticmethod(rho_cutoff)   # the companion plateau cutoff

    def __init__(self):
        n = int(self.TABLE_MAX / self.TABLE_STEP) + 1
        dxi = 2.0 * np.pi / (self.DFT_LENGTH * self.TABLE_STEP)
        c = dxi * eta_hat(dxi * np.arange(int(1.0 / dxi) + 1))
        c[0] *= 0.5
        u = self.TABLE_STEP * np.arange(n)
        vals = dft_head(c, self.DFT_LENGTH, n).real / np.pi
        self.eta = even_table(u, vals)
        self.tail_floor = float(np.abs(vals[u >= self.TABLE_MAX - 4.0]).max())


def band_project(lam: float, beta: float, f: SampledFunction,
                 mode: str = "pass") -> SampledFunction:
    """Spectral band projection: transform, multiply by the band mask
    eta_hat((xi - lam)/beta) + eta_hat((xi + lam)/beta), invert.

    mode="pass" keeps the bands +-[lam-beta, lam+beta] (transform of the
    result is exactly supported there); mode="complement" returns f - pass,
    whose spectrum vanishes on +-[lam-beta/2, lam+beta/2].
    """
    if mode not in ("pass", "complement"):
        raise DomainError(f"unknown mode {mode!r}")
    if not 1.0 <= beta <= lam:
        raise DomainError(f"need 1 <= beta <= lam, got beta={beta}, lam={lam}")
    h = f.grid_step
    shortest_period = 2.0 * np.pi / (lam + beta)
    if h > shortest_period / 4.0 + 1e-15:
        raise DomainError(
            f"grid step {h} under-resolves frequency lam+beta (need <= {shortest_period / 4.0})")
    L = 1 << int(np.ceil(np.log2(4 * f.n)))
    F = np.fft.fft(f.values, L)
    xi = 2.0 * np.pi * np.fft.fftfreq(L, h)
    mask = eta_hat((xi - lam) / beta) + eta_hat((xi + lam) / beta)
    passed = np.fft.ifft(F * mask)[:f.n]
    if mode == "pass":
        return SampledFunction(f.grid_min, h, passed)
    return SampledFunction(f.grid_min, h, f.values - passed)


def fourier_transform(f: SampledFunction, pad_factor: int = 4):
    """Continuous-convention transform on the padded DFT grid.

    Returns (xi, fhat) with xi ascending; fhat(xi) = h e^(-i x0 xi) DFT(f).
    """
    h = f.grid_step
    L = 1 << int(np.ceil(np.log2(pad_factor * f.n)))
    F = np.fft.fft(f.values, L)
    xi = 2.0 * np.pi * np.fft.fftfreq(L, h)
    fhat = h * np.exp(-1j * f.grid_min * xi) * F
    return np.fft.fftshift(xi), np.fft.fftshift(fhat)


def gamma_factor(s: float) -> float:
    """gamma(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2); gamma(1/2) = 1."""
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0,1), got {s}")
    return float(np.pi ** (s - 0.5) * _gamma((1.0 - s) / 2.0) / _gamma(s / 2.0))


def fourier_energy_identity(w: WeightFunction, phi, s: float):
    """Both sides of the spectral energy identity, by independent quadratures.

    lhs = (gamma(s)/(2 pi)^s) int |hat(phi w)(xi)|^2 |xi|^(s-1) dxi  (transform
    route, with the singular frequency cell integrated exactly); rhs is the
    direct double integral I_s(phi w).  The two should agree to the grid's
    resolution.
    """
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0,1), got {s}")
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != w.values.shape:
        raise DomainError("phi must be sampled on the weight's grid")
    f = SampledFunction(w.grid_min, w.grid_step, phi * w.values)
    xi, fhat = fourier_transform(f, 16)
    dxi = xi[1] - xi[0]
    # exact cell weights for |xi|^(s-1): antiderivative sign(xi)|xi|^s / s
    lo, hi = xi - dxi / 2, xi + dxi / 2

    def anti(t):
        return np.sign(t) * np.abs(t) ** s / s

    cell = anti(hi) - anti(lo)
    lhs = gamma_factor(s) / (2.0 * np.pi) ** s * float(np.dot(np.abs(fhat) ** 2, cell))
    rhs = _grid_energy(phi * w.values, w.grid_step, s)
    return lhs, rhs.real

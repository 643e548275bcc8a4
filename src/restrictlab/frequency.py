"""The compactly band-limited bump and its two uses: the exact transform
eta_hat masks spectral band projections, which transform only the bands
around +-lambda; and the profile eta, the head of one DFT of eta_hat's
samples, with the plateau cutoff rho (BumpPair) mollifies measures.

Fourier convention: fhat(xi) = int f(x) e^(-i x xi) dx, inverse carries 1/2pi.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .measures import ETA_REACH, WEIGHT_EDGE
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
    """Plateau cutoff: 1 on |t| <= WEIGHT_EDGE - 1/2, 0 on |t| >= WEIGHT_EDGE."""
    return smooth_step((WEIGHT_EDGE - np.abs(np.asarray(t, dtype=float))) / 0.5)


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
    eta is 0; the tail dropped there is below eta's largest value over the
    table's last 4 units, about 4e-15.
    """

    TABLE_MAX = ETA_REACH   # the weight's windows end where the table does
    TABLE_STEP = 1.0 / 128.0
    DFT_LENGTH = 1 << 20   # first alias at u = 8192, ten times TABLE_MAX

    rho = staticmethod(rho_cutoff)   # the companion plateau cutoff

    def __init__(self):
        n = int(self.TABLE_MAX / self.TABLE_STEP) + 1
        dxi = 2.0 * np.pi / (self.DFT_LENGTH * self.TABLE_STEP)
        c = dxi * eta_hat(dxi * np.arange(int(1.0 / dxi) + 1))
        c[0] *= 0.5
        vals = dft_head(c, self.DFT_LENGTH, n).real / np.pi
        self.eta = even_table(self.TABLE_STEP, vals)


def band_project(lam: float, beta: float, f: SampledFunction,
                 mode: str = "pass") -> SampledFunction:
    """Spectral band projection: transform, multiply by the band mask
    eta_hat((xi - lam)/beta) + eta_hat((xi + lam)/beta), invert.

    mode="pass" keeps the bands +-[lam-beta, lam+beta] (transform of the
    result is exactly supported there); mode="complement" returns f - pass,
    whose spectrum vanishes on +-[lam-beta/2, lam+beta/2].  The result is
    ifft(fft(f, L) * mask)[:n] at the period L = n + ceil(ETA_REACH/(beta h))
    past the reach of the mask's filter, computed only where the mask is not
    0: the K DFT indices k0.. of the band around +lam are one dft_head of f
    shifted by k0, taken back to the grid by one more; the band around -lam
    is conj f's, conjugated.  h <= pi/(2(lam + beta)) and beta <= lam give
    K <= n/4 + 256.  L is only a modulus, and the int64 phases (k0 j) mod L
    are exact on any window grid (at most 1.5 GRID_BUDGET points).
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
    L = f.n + int(np.ceil(ETA_REACH / (beta * h)))
    dxi = 2.0 * np.pi / (L * h)
    k0 = int(np.ceil((lam - beta) / dxi))
    K = int(np.floor((lam + beta) / dxi)) - k0 + 1
    shift = np.exp(2j * np.pi * ((k0 * np.arange(f.n, dtype=np.int64)) % L) / L)
    mask = eta_hat((dxi * np.arange(k0, k0 + K) - lam) / beta) / L

    def upper(g):   # g's band around +lam
        F = dft_head(g * shift.conj(), L, K) * mask
        return shift * dft_head(F.conj(), L, f.n).conj()

    passed = upper(f.values) + upper(f.values.conj()).conj()
    if mode == "pass":
        return SampledFunction(f.grid_min, h, passed)
    return SampledFunction(f.grid_min, h, f.values - passed)

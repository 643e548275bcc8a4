"""The band-limited radial kernel on the hyperbolic plane (the inverse
spherical, or Harish-Chandra, transform of a Paley-Wiener profile), tabulated
by a circle rule and used by the geometric-integral experiments.

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
from .sampling import dft_head, even_table

SPECTRAL_FLOOR = 1e-12   # truncate spectral integrands below this level
TABLE_BUDGET = 1 << 21   # radial and spectral nodes of one kernel table
SAMPLES_PER_WAVELENGTH = 16   # radial nodes per wavelength 1/lam of the kernel table
MIN_LAMBDA = 10   # the least spectral center make_kernel tabulates
# step ds of the kernel's uniform s-grid.  The s-integrand H(s) s tanh(pi s)
# cos(s t) is even and smooth, so the trapezoid rule's error at t is the
# aliases Q(t +- 2 pi k / ds), and Q decays like e^(-|t|/2), since
# s tanh(pi s) has poles at +-i/2.  The t-table is Q to within those aliases
# for t well below pi / ds ~ 78.5, and the kernel's values read t at most
# its support radius plus two t-steps, where the first alias, from
# 2 pi / ds ~ 157, is below e^(-78) of Q's peak.  Only the spot checks past
# the support read t beyond it, up to SPOT_RADIUS, far below pi / ds.
# Scaling ds by a power of two scales the DFT length L inversely and leaves
# the t-step 2 pi / (L ds) bit for bit.
SPECTRAL_STEP = 0.04
H_WIDTH = 0.05   # Paley-Wiener width of the kernel profile h
# offset past which h^2 stays under SPECTRAL_FLOOR: h(u) <= (2/(H_WIDTH u))^4,
# so h^2 < floor once u > 2 floor^(-1/8) / H_WIDTH (about 1,265)
SPECTRAL_TRUNCATION = 2.0 * SPECTRAL_FLOOR ** (-1.0 / 8.0) / H_WIDTH
# circle points _circle_mean evaluates at once: about 3 MB of temporaries
CIRCLE_BLOCK = 1 << 15
# radius up to which make_kernel tabulates Q and runs its spot checks past the
# support, at the table's circle count: a fixed radius, so that x_max moves
# no bit of the build.  The table itself reads Q only on the support
SPOT_RADIUS = 1.0


def _circle_mean(x, n_theta, F) -> np.ndarray:
    """Mean over n_theta[i] midpoint circle nodes of u^(-1/2) F(ln u),
    u = cosh x_i - sinh x_i cos 2 theta, for each x_i; n_theta is one count
    per x, or one count for all.

    The nodes theta_k = (k + 0.5) pi / n and theta_(n-1-k) = pi - theta_k
    give the same u, so only the first ceil(n/2) nodes are evaluated: each
    with weight 2 for its mirror pair, and weight 1 for the middle node of an
    odd n.  The ragged set of evaluated circle points is taken in blocks of
    whole nodes holding at most CIRCLE_BLOCK points (a node with more is a
    block of its own), and each node's sum is one segment of np.add.reduceat.
    """
    x = np.asarray(x, dtype=float)
    counts = np.broadcast_to(np.asarray(n_theta, dtype=np.intp), x.shape).ravel()
    halves = (counts + 1) // 2
    xf = x.ravel()
    ends = np.cumsum(halves)
    out = np.empty(xf.size)
    i = 0
    while i < xf.size:
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - halves[i] + CIRCLE_BLOCK,
                                           side="right")))
        n, m = counts[i:j], halves[i:j]
        starts = np.concatenate(([0], np.cumsum(m[:-1])))
        node = np.repeat(np.arange(j - i), m)
        # the integrand is pi-periodic and smooth, so the equal-weight
        # midpoint rule on [0, pi) converges spectrally
        th = (np.arange(starts[-1] + m[-1]) - starts[node] + 0.5) * np.pi / n[node]
        u = np.cosh(xf[i:j])[node] - np.sinh(xf[i:j])[node] * np.cos(2.0 * th)
        f = u ** -0.5 * F(np.log(u))
        # halving the unpaired middle node, then doubling the sum, weighs
        # every other node twice; both scalings are exact
        f[(starts + m - 1)[n % 2 == 1]] *= 0.5
        out[i:j] = 2.0 * np.add.reduceat(f, starts) / n
        i = j
    return out.reshape(x.shape)


def _h_profile(u) -> np.ndarray:
    """The sinc^4 Paley-Wiener profile, transform supported in [-2 H_WIDTH, 2 H_WIDTH]."""
    h = np.sinc(H_WIDTH * np.asarray(u, dtype=float) / (2.0 * np.pi))
    h = h * h   # two products: pow(h, 4) is far slower on negative h
    return h * h


def _h0_squared(lam: float, s) -> np.ndarray:
    """h0(s)^2 = (h(s - lam) + h(-s - lam))^2 for the sinc^4 profile h."""
    s = np.asarray(s, dtype=float)
    return (_h_profile(s - lam) + _h_profile(-s - lam)) ** 2


@dataclass(frozen=True)
class SphericalKernel:
    """Radial table of the band kernel k at spectral center lam.

    Built from the nonnegative Paley-Wiener profile h (here sinc^4, transform
    supported in [-2 H_WIDTH, 2 H_WIDTH]) via h0(s) = h(s-lam) + h(-s-lam);
    k is the inverse spherical transform of h0^2, hence positive on the
    spectral side and compactly supported in radius <= 4 H_WIDTH.  `values`
    holds k on the radial nodes up to the first past the support, where k is
    0; `radial` is the spline through them, and exactly 0 beyond.
    """

    lam: float
    values: np.ndarray = field(repr=False)
    verify_residual: float
    radial: Callable = field(repr=False)   # k at radial distance |x|; 0 past the reach

    support_radius = 4.0 * H_WIDTH

    x_step = property(lambda self: _radial_step(self.lam))
    reach = property(lambda self: _kernel_reach(self.lam))   # k is 0 past it

    def x_grid(self) -> np.ndarray:
        return self.x_step * np.arange(self.values.size)


def _radial_step(lam: float) -> float:
    """Step of the kernel table's radial nodes at lam, whatever its x_max."""
    return 1.0 / (SAMPLES_PER_WAVELENGTH * lam)


def _kernel_reach(lam: float) -> float:
    """Radius past which the kernel at lam is exactly 0 (see make_kernel)."""
    return SphericalKernel.support_radius + 2 * _radial_step(lam)


def _radial_nodes(lam: float, x: float) -> float:
    """Radial nodes of the kernel table at lam on [0, x]; inf past float range."""
    return np.floor(x * SAMPLES_PER_WAVELENGTH * lam) + 1


def check_kernel_budget(lam: float, x_max: float) -> tuple[int, int]:
    """(radial nodes on [0, x_max], spectral nodes on [0, lam + T]) of the
    kernel table at lam; ResourceError past TABLE_BUDGET, first for the radial
    nodes on [0, max(x_max, SPOT_RADIUS)], which bound those make_kernel
    builds, before anything is built."""
    n_x = _radial_nodes(lam, max(x_max, SPOT_RADIUS))
    if n_x > TABLE_BUDGET:
        raise ResourceError(f"{n_x:.0f} radial nodes exceed budget {TABLE_BUDGET}")
    n_s = np.ceil((lam + SPECTRAL_TRUNCATION) / SPECTRAL_STEP) + 1
    if n_s > TABLE_BUDGET:
        raise ResourceError(f"{n_s:.0f} spectral nodes exceed budget {TABLE_BUDGET}")
    return int(_radial_nodes(lam, x_max)), int(n_s)


def make_kernel(lam: float, x_max: float = 4.0) -> SphericalKernel:
    """Tabulate the radial band kernel up to its support; x_max bounds only
    the radial budget, and the build is the same bit for bit whatever x_max.

    The spectral integral is reduced to Q(t) = int H(s) cos(s t) s tanh(pi s)
    ds / (2 pi) on the uniform s-grid of [0, lam + T] of step ds =
    SPECTRAL_STEP, M = ceil((lam + T) / ds) + 1 nodes.  Q on the t-grid up
    to SPOT_RADIUS is the first n_t terms of the length-L DFT of those
    coefficients, from one chirp-z convolution whose cost and memory depend
    on M + n_t and not on L.  Each radial value is then a circle average of
    u^(-1/2) Q(ln u) over n = max(64, 1.3 (lam + T) x + 64) midpoint nodes
    at x, of which the mirror pairs leave ceil(n/2) to evaluate.  The nodes
    up to the support, 32 spot checks on the nodes past it up to
    SPOT_RADIUS and 16 node-doubled checks inside it, which guard the circle
    rule, are one ragged _circle_mean call.
    """
    if lam < MIN_LAMBDA:
        raise DomainError(f"lam must be >= {MIN_LAMBDA}")
    _, M = check_kernel_budget(lam, x_max)

    x_step = _radial_step(lam)
    ds = SPECTRAL_STEP
    s_max = lam + SPECTRAL_TRUNCATION
    s = np.arange(M) * ds
    coef = _h0_squared(lam, s) * s * np.tanh(np.pi * s) * (ds / (2.0 * np.pi))
    coef[0] *= 0.5
    coef[-1] *= 0.5
    L = 1 << int(np.ceil(np.log2(2.0 * np.pi / (ds * x_step / 2))))
    dt = 2.0 * np.pi / (L * ds)   # at most x_step / 2
    supp = SphericalKernel.support_radius + 2.0 * dt
    q = even_table(dt, dft_head(coef, L, int(SPOT_RADIUS / dt) + 8).real)

    # the nodes up to SPOT_RADIUS, which lies past the reach (see below)
    xs = x_step * np.arange(int(_radial_nodes(lam, SPOT_RADIUS)))
    i_supp = int(np.searchsorted(xs, supp, side="right"))   # first node past supp
    # beyond the Paley-Wiener support the kernel vanishes; spot-verify on a
    # sparse set instead of densely tabulating noise
    spot = xs[i_supp::max(1, (xs.size - i_supp) // 32)]
    rng = np.random.default_rng(7)
    check_idx = rng.choice(i_supp, size=16, replace=False)
    x_all = np.concatenate([xs[:i_supp], spot, xs[check_idx]])
    n_all = np.maximum(64, (1.3 * s_max * x_all).astype(np.intp) + 64)
    n_all[-16:] *= 2   # the node-doubled checks
    vals, beyond, refined = np.split(_circle_mean(x_all, n_all, q),
                                     [i_supp, i_supp + spot.size])
    # np.max keeps a NaN, which then fails the check below
    resid = float(np.abs(np.concatenate([refined - vals[check_idx], beyond])).max())
    scale = float(np.abs(vals).max())
    if not resid <= 1e-6 * scale:
        raise NonConvergenceError(
            f"kernel circle rule residual {resid:.2e} exceeds 1e-6 * {scale:.2e}")
    # the table ends at the first node past supp, where k is 0, so the spline
    # is exactly 0 beyond that node, at most supp + x_step <= the reach
    vals = np.append(vals, 0.0)
    return SphericalKernel(lam, vals, resid / scale, even_table(x_step, vals))


def kernel_decay_constant(kernel: SphericalKernel) -> float:
    """sup_x |k(x)| (1 + lam |x|)^(1/2) / lam over the radial table."""
    x = kernel.x_grid()
    return float((np.abs(kernel.values) * np.sqrt(1.0 + kernel.lam * x)).max()
                 / kernel.lam)

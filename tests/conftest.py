"""Shared fixtures; heavy objects (bump tables, kernel tables, weights) are
built once per session and reused across module and acceptance tests."""

from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

import restrictlab as rl
from restrictlab.errors import DomainError, GridMismatchError
from restrictlab.measures import _grid_energy
from restrictlab.sampling import _FOURTH_DIFFERENCE, _Z, PREFILTER_HALF_WIDTH

ALPHA_CANTOR = np.log(2.0) / np.log(3.0)


@lru_cache(maxsize=None)
def cached_bump() -> rl.BumpPair:
    return rl.BumpPair()


@lru_cache(maxsize=None)
def cached_kernel(lam: float, x_max: float = 1.0) -> rl.SphericalKernel:
    return rl.make_kernel(lam, x_max=x_max)


@lru_cache(maxsize=None)
def cached_weight(alpha: float, depth: int, lam: float,
                  spw: int = 8) -> rl.WeightFunction:
    nu = rl.make_cantor_measure(alpha, depth)
    return rl.build_weight(nu, lam, cached_bump(), samples_per_wavelength=spw)


@lru_cache(maxsize=None)
def cached_algebra(maximal: bool = False) -> rl.QuatAlgebra:
    if maximal:
        return rl.QuatAlgebra(2, 3, basis=rl.MAXIMAL_ORDER_2_3, q=6)
    return rl.QuatAlgebra(2, 3, q=6)


@pytest.fixture(scope="session")
def bump():
    return cached_bump()


@pytest.fixture(scope="session")
def kernel100():
    return cached_kernel(100.0)


@pytest.fixture(scope="session")
def algebra():
    return cached_algebra()


@pytest.fixture(scope="session")
def algebra_maximal():
    return cached_algebra(True)


def uniform_weight(level_h: float = 1e-3, lo: float = 0.0, hi: float = 1.0,
                   alpha: float = 1.0) -> rl.WeightFunction:
    """Density-1 weight whose piecewise-constant cells tile [lo, hi] exactly."""
    h = level_h
    n_tot = int(round(4.0 / h))
    grid_min = -2.0 + h / 2.0
    x = grid_min + h * np.arange(n_tot)
    vals = np.where((x > lo) & (x < hi), 1.0, 0.0)
    return rl.WeightFunction(grid_min, h, vals, frostman_alpha=alpha)


def sampled(fn, grid_min: float, grid_max: float, grid_step: float) -> rl.SampledFunction:
    """fn sampled at grid_min + k * grid_step up to grid_max."""
    n = int(round((grid_max - grid_min) / grid_step)) + 1
    x = grid_min + grid_step * np.arange(n)
    return rl.SampledFunction(grid_min, grid_step, np.asarray(fn(x), dtype=complex))


def weighted_energy(w: rl.WeightFunction, phi, s: float) -> complex:
    """I_s(phi w): double integral of phi(x) conj(phi(y)) w(x) w(y) |x-y|^(-s)."""
    if not 0 < s < w.frostman_alpha:
        raise DomainError(f"s must lie in (0, alpha={w.frostman_alpha}), got {s}")
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != w.values.shape:
        raise GridMismatchError("phi must be sampled on the weight's grid")
    return _grid_energy(phi * w.values, w.grid_step, s)


def l2_weighted_norm(w: rl.WeightFunction, phi) -> float:
    """||phi||_{L^2(w dx)} on the grid."""
    phi = np.asarray(phi)
    if phi.shape != w.values.shape:
        raise GridMismatchError("phi must be sampled on the weight's grid")
    return float(np.sqrt(w.grid_step * np.sum(np.abs(phi) ** 2 * w.values)))


def cubic_spline_table(knots: np.ndarray, values: np.ndarray):
    """The even function through a radial table as scipy's not-a-knot
    CubicSpline (the oracle of sampling.even_table): the spline for
    |x| <= knots[-1], and 0 beyond the last knot."""
    spline = CubicSpline(knots, values)
    x_max = knots[-1]

    def f(x) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        inside = x <= x_max
        out[inside] = spline(x[inside])
        return out

    return f


def masked_even_table(step: float, values: np.ndarray):
    """sampling.even_table with its earlier evaluator (the oracle of the
    gathered one): the per-interval cubics as rows of one (n - 1, 4) array,
    and only the points inside the last knot evaluated, through a mask."""
    v = np.asarray(values, dtype=float)
    n = v.size
    w = PREFILTER_HALF_WIDTH
    taps = np.sqrt(3.0) * _Z ** np.abs(np.arange(-w, w + 1))
    c = np.convolve(np.pad(v, w, mode="reflect"), taps, "valid")
    c = np.concatenate((c[1:2], c, c[-2:-1]))
    g, p = (1.0 - _Z) ** 4, _Z ** (n - 3)
    r0, r1 = _FOURTH_DIFFERENCE @ c[:5], _FOURTH_DIFFERENCE @ c[-5:]
    a = (p * r1 - r0) / (g * (1.0 - p * p))
    b = (p * r0 - r1) / (g * (1.0 - p * p))
    decay = _Z ** np.arange(min(n + 2, w + 1))
    c[:decay.size] += a * decay
    c[-decay.size:] += b * decay[::-1]
    cm, c0, c1, c2 = c[:-3], c[1:-2], c[2:-1], c[3:]
    coef = np.stack([v[:-1], 0.5 * (c1 - cm), 0.5 * (cm + c1) - c0,
                     (c2 - cm + 3.0 * (c0 - c1)) / 6.0], axis=1)
    x_max = step * (n - 1)

    def f(x) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        inside = x <= x_max
        u = x[inside] / step
        k = np.minimum(u.astype(np.intp), n - 2)
        t = u - k
        ck = coef[k]
        out[inside] = ((ck[:, 3] * t + ck[:, 2]) * t + ck[:, 1]) * t + ck[:, 0]
        return out

    return f


def hc_forward(f_eval, s: float, support_radius: float) -> float:
    """Spherical transform of a radial function supported in r <= R:
    2 pi int_0^R f(r) phi_s(r) sinh r dr (composite Simpson)."""
    R = float(support_radius)
    per_unit = max(8192, int(64.0 * (abs(s) + 1.0)))
    n = max(256, int(per_unit * R))
    n += n % 2
    r = np.linspace(0.0, R, n + 1)
    fv = np.asarray(f_eval(r), dtype=float)
    pv = rl.phi_s_radial(s, r)
    return float(2.0 * np.pi * simpson(fv * pv * np.sinh(r), x=r))

"""The geometric bilinear integral I(lam, phi, g) against the band kernel,
its amplified sum over conjugated lattice elements, and the shears of the
rapid-decay run."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import DomainError, ResourceError
from .frequency import smooth_step
from .geometry import GroupElement, dist_to_diag
from .hecke import Amplifier, QuatAlgebra, enumerate_norm_n
from .sampling import SampledFunction, convolve_valid
from .spherical import SphericalKernel


class TestWindow:
    """Real cutoff b: 1 on [-PLATEAU, PLATEAU], 0 outside [-SUPPORT, SUPPORT]."""

    PLATEAU = 2.5
    SUPPORT = 3.0

    def b(self, x) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=float))
        return smooth_step((self.SUPPORT - x) / (self.SUPPORT - self.PLATEAU))


@dataclass(frozen=True)
class IntegralReport:
    """Value of one bilinear integral plus its resolution-doubling error."""

    value: complex
    error_estimate: float
    lam: float
    resolution: int
    converged: bool


def _window_values(window: TestWindow, f: SampledFunction) -> np.ndarray:
    return window.b(f.grid()) * f.values


ROW_CHUNK = 64   # rows whose band rectangle is evaluated together
BAND_BUDGET = 1 << 30   # band-rectangle cells of one eval_I_pair


def _band_form(m: np.ndarray, x: np.ndarray):
    """(t, A, B, C): t = e^x and, per row x1 of x, the Gram matrix [[A, C], [C, B]]
    of a(-x1) g's columns, g = m of det 1: A = a^2/t1 + c^2 t1, B = b^2/t1 + d^2 t1,
    C = ab/t1 + cd t1, AB - C^2 = 1.  So 2 cosh d(a(x1) i, g a(x2) i) = A t2 + B / t2
    (= ||a(-x1) g a(x2)||_F^2) and sinh^2(d/2) = (sqrt(A) t2 - sqrt(B))^2 / (4 t2)
    + C^2 / (2 (sqrt(AB) + 1)), two terms >= 0: d stays accurate near 0."""
    (a, b), (c, d) = m
    t = np.exp(x)
    return t, a * a / t + c * c * t, b * b / t + d * d * t, a * b / t + c * d * t


def _row_bands(m: np.ndarray, x: np.ndarray, h: float, supp: float):
    """Per row i of the uniform grid x (step h), a column interval [lo, hi]
    that contains every j with d(a(x_i) i, g a(x_j) i) <= supp (hi < lo when
    there is none): the root interval in t = e^(x_j) of A t^2 - K t + B <= 0,
    K = 2 cosh(supp), widened by one column on each side against rounding."""
    _, A, B, _ = _band_form(m, x)
    K = 2.0 * np.cosh(supp)
    disc = K * K - 4.0 * A * B
    root = K + np.sqrt(np.maximum(disc, 0.0))
    # the stable roots t- = 2B / root and t+ = root / (2A), as grid columns
    lo = np.ceil((np.log(2.0 * B / root) - x[0]) / h) - 1
    hi = np.floor((np.log(root / (2.0 * A)) - x[0]) / h) + 1
    empty = (disc < 0) | (hi < 0) | (lo > x.size - 1)
    lo = np.clip(lo, 0, x.size - 1).astype(np.intp)
    hi = np.clip(hi, 0, x.size - 1).astype(np.intp)
    return lo, np.where(empty, lo - 1, hi)


def _is_central(g: GroupElement) -> bool:
    """g = +-e exactly: the bilinear sum's matrix is Toeplitz."""
    a, b, c, d = g.m.ravel()
    return b == 0 and c == 0 and a == d


def check_band_budget(g: GroupElement, x: np.ndarray, h: float, reach: float):
    """(first, start, widths): g's kernel band on the uniform grid x (step h),
    for a kernel exactly 0 past radius `reach`, as chunks of ROW_CHUNK rows
    from the even row `first`; row first + i starts at the even column
    start[i] at or before its `_row_bands` interval, and chunk c's rows are
    widths[c] wide, enough for all of its intervals.  None when no row has a
    band or g = +-e, whose Toeplitz sum the weight's grid budget bounds (see
    `_toeplitz_sums`).  ResourceError past BAND_BUDGET cells."""
    if _is_central(g):
        return None
    # a huge shear overflows A or B: that row's band is empty
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo, hi = _row_bands(g.m, x, h, reach)
    filled = np.flatnonzero(hi >= lo)
    if filled.size == 0:
        return None
    first, end = filled[0] & ~1, filled[-1] + 1
    start = lo[first:end] & ~1
    chunks = np.arange(0, end - first, ROW_CHUNK)
    widths = np.maximum.reduceat(hi[first:end] - start, chunks) + 1
    cells = int(np.dot(np.diff(chunks, append=end - first), widths))
    if cells > BAND_BUDGET:
        raise ResourceError(f"{cells} band cells exceed budget {BAND_BUDGET}")
    return first, start, widths


def _toeplitz_sums(kernel: SphericalKernel, u1: np.ndarray, u2: np.ndarray,
                   h: float):
    """(full, half): the bilinear sums at g = +-e on a uniform grid of step h
    and on its even entries.

    d(a(x1) i, a(x2) i) = |x1 - x2| = h |i - j|, so the spline runs once per
    lag inside the support and the row sums are the `convolve_valid` of the
    symmetric lag profile (2m + 1 taps) with u2 zero-padded by m on each
    side; the half grid's lags are the even ones.  On the window grid of n
    points the transform length smooth_length(n + 2m) is about 1.08 n
    (1.12 n at lam = 10, the least make_kernel accepts, where the kernel's
    node step widens the support).
    The window grid spans 1.5 times the weight's, whose points GRID_BUDGET
    bounds, so the transform stays under 1.7 GRID_BUDGET, and below the
    4 n of band_project on the same grid: the existing budgets bound it.
    """
    lag = h * np.arange(min(int(kernel.reach / h), u2.size - 1) + 1)
    k = kernel.radial(lag)

    def convolved(v1, v2, k, h):
        m = k.size - 1
        rows = convolve_valid(np.concatenate([k[:0:-1], k]), np.pad(v2, m))
        return np.sum(np.conj(v1) * rows) * h * h

    return convolved(u1, u2, k, h), convolved(u1[::2], u2[::2], k[::2], 2 * h)


def _bilinear_sums(kernel: SphericalKernel, u1: np.ndarray, u2: np.ndarray,
                   x: np.ndarray, h: float, g: GroupElement):
    """(full, half): h^2 sum over the grid of conj(u1(x1)) u2(x2)
    k(d(g a(x2) i, a(x1) i)), and the same sum on the grid's even entries.

    Each row chunk of `check_band_budget` is one dense rectangle of pairs,
    measured by `_band_form`.  k is exactly 0 past its reach, so pairs
    outside the bands add nothing.  Chunks start on even rows and rows on
    even columns, so the half sum takes the rectangles' even entries, each
    summed in a fixed order.  For g = +-e the matrix is Toeplitz and
    `_toeplitz_sums` takes over; for a^2 = d^2 (+-e, a shear, a rotation) it
    is real symmetric, so for u1 is u2 the real parts are returned.
    """
    real = u1 is u2 and g.m[0, 0] ** 2 == g.m[1, 1] ** 2
    full = half = 0j
    if _is_central(g):
        full, half = _toeplitz_sums(kernel, u1, u2, h)
    elif (bands := check_band_budget(g, x, h, kernel.reach)) is not None:
        first, start, widths = bands
        t, A, B, C = _band_form(g.m, x)
        p, q, e = np.sqrt(A) / 2, np.sqrt(B) / 2, C * C / (2 * (np.sqrt(A * B) + 1))
        # past the grid's end, t = 1 keeps the distance finite and u2 = 0
        pad = (0, int(widths.max()))
        t, u2 = np.pad(t, pad, constant_values=1.0), np.pad(u2, pad)
        for c0, width in zip(range(0, start.size, ROW_CHUNK), widths):
            cols = start[c0:c0 + ROW_CHUNK, None] + np.arange(width)
            rows = slice(first + c0, first + c0 + cols.shape[0])
            tc = t[cols]
            s = np.square(p[rows, None] * tc - q[rows, None]) / tc + e[rows, None]
            terms = kernel.radial(2.0 * np.arcsinh(np.sqrt(s))) * u2[cols]
            full += np.conj(u1[rows]) @ terms.sum(axis=1)
            half += np.conj(u1[rows][::2]) @ terms[::2, ::2].sum(axis=1)
        full, half = full * h * h, half * (2 * h) * (2 * h)
    return (complex(full.real), complex(half.real)) if real else (full, half)


def eval_I_pair(kernel: SphericalKernel, window: TestWindow,
                f1: SampledFunction, f2: SampledFunction,
                g: GroupElement) -> IntegralReport:
    """Sesquilinear integral of b(x1) b(x2) conj(f1(x1)) f2(x2) k(a(-x1) g a(x2))
    with a half-resolution re-evaluation as the error estimate.

    Away from g = +-e, ResourceError when the kernel band's rectangles hold
    more than BAND_BUDGET cells, counted before any pair is evaluated.
    """
    f1.require_same_grid(f2)
    h = f1.grid_step
    lam = kernel.lam
    step = 1.0 / (measures.MIN_SAMPLES_PER_WAVELENGTH * lam)
    if h > step + 1e-15:
        raise DomainError(f"grid step {h} under-resolves 1/lambda (need <= {step})")
    x = f1.grid()
    u1 = _window_values(window, f1)
    u2 = u1 if f2 is f1 else _window_values(window, f2)
    value, value_half = _bilinear_sums(kernel, u1, u2, x, h, g)
    err = abs(value - value_half)
    scale = max(abs(value), 1e-12 * (abs(value_half) + np.abs(u1).max() * np.abs(u2).max() + 1.0))
    return IntegralReport(value=complex(value), error_estimate=float(err),
                          lam=lam, resolution=x.size,
                          converged=bool(err <= 0.01 * scale))


def eval_I(kernel: SphericalKernel, window: TestWindow, phi: SampledFunction,
           g: GroupElement) -> IntegralReport:
    """Quadratic integral I(lam, phi, g); phi enters as both test slots."""
    return eval_I_pair(kernel, window, phi, phi, g)


def amplified_rhs(alg: QuatAlgebra, amp: Amplifier, kernel: SphericalKernel,
                  window: TestWindow, phi: SampledFunction, g0: GroupElement):
    """Geometric side of the amplified bound: sum over m, n of |alpha_m alpha_n|
    times the divisor-weighted sums of |I| over conjugated norm-(mn/d^2)
    elements h with ||log h|| <= 1, enumerate_norm_n's radius.  The cut is
    that radius, not where h's kernel band meets the window: an element
    just past it can still have |I| > 0, and it is left out.

    Returns (total, rows, flags); rows carry one line per (m, n, d, gamma).
    Each distinct norm is enumerated, with its conjugates, and each distinct
    conjugated element integrated, once per call: the rows and flags of
    every (m, n, d, gamma) landing on it share one report.
    """
    support = amp.support()
    elements = {}   # norm -> its enumerate_norm_n (coords, conjugate) pairs
    reports = {}   # conjugated element's matrix bytes -> its IntegralReport
    total = 0.0
    rows = []
    flags = []
    for m in support:
        for n in support:
            amn = abs(amp.coeffs[m] * amp.coeffs[n])
            if amn == 0:
                continue
            for d in range(1, min(m, n) + 1):
                if m % d or n % d:
                    continue
                v = m * n // (d * d)
                if v not in elements:
                    elements[v] = enumerate_norm_n(alg, v, g0)
                weight = amn * d / np.sqrt(m * n)
                for gamma, hm in elements[v]:
                    h = GroupElement(hm)
                    key = h.m.tobytes()
                    if key not in reports:
                        reports[key] = eval_I(kernel, window, phi, h)
                    rep = reports[key]
                    if not rep.converged:
                        flags.append((m, n, d, gamma, rep.error_estimate))
                    term = weight * abs(rep.value)
                    total += term
                    rows.append({"m": m, "n": n, "d": d, "gamma": str(gamma),
                                 "term": term, "abs_I": abs(rep.value),
                                 "error": rep.error_estimate})
    return total, rows, flags


def modulated_gaussian(grid: np.ndarray, lam: float) -> np.ndarray:
    """e^(i lam x) e^(-x^2/2), the oscillatory member of the test family."""
    return np.exp(1j * lam * grid) * np.exp(-0.5 * grid ** 2)


def _window_grid(grid_min: float, h: float, size: int):
    """(left, grid): the grid grid_min + h * arange(size) extended by whole
    steps, `left` of them before it, until it covers the window's support
    [-SUPPORT, SUPPORT]."""
    edge = TestWindow.SUPPORT
    # whole steps past the edge, less a rounding slack, so an edge that falls
    # on a node ends the grid there
    left = int(np.ceil((grid_min + edge) / h - 1e-6))
    right = int(np.ceil((edge - grid_min) / h - 1e-6)) + 1 - size
    return left, (grid_min - left * h) + h * np.arange(left + size + right)


def _phi_w_on_window_grid(w: measures.WeightFunction, phi_fn, lam: float):
    """(grid, phi, phi*w, w) on the window grid of w's grid, with w
    zero-padded."""
    left, grid = _window_grid(w.grid_min, w.grid_step, w.values.size)
    wpad = np.pad(w.values, (left, grid.size - left - w.values.size))
    phi = np.asarray(phi_fn(grid), dtype=complex)
    return grid, phi, SampledFunction(grid[0], w.grid_step, phi * wpad), wpad


def rapid_decay_shears(lam: float, beta: float, epsilon0: float, t_factors):
    """t* = lam^(-1/2+eps0) beta^(1/2) and (factor, t = factor t*, d(exp(tE), A))
    for each factor in increasing order; DomainError for a distance that is
    not finite or that dist_to_diag flags (minimizer at its bracket edge)."""
    t_star = lam ** (-0.5 + epsilon0) * beta ** 0.5
    facs = np.array(sorted(t_factors), dtype=float)
    m = np.tile(np.eye(2), (facs.size, 1, 1))
    # t may overflow to inf, and a huge t overflows in dist_to_diag; both are refused
    with np.errstate(over="ignore", invalid="ignore"):
        ts = m[:, 1, 0] = facs * t_star
        d_A, _, flagged = dist_to_diag(m)
    bad = np.flatnonzero(flagged | ~np.isfinite(d_A))
    if bad.size:
        raise DomainError(f"shear t = {ts[bad[0]]} = {facs[bad[0]]} t* is too large for the"
                          " distance to the diagonal subgroup")
    return t_star, list(zip(facs.tolist(), ts.tolist(), d_A.tolist()))

"""The geometric bilinear integral I(lam, phi, g) against the band kernel,
its amplified sum over conjugated lattice elements, and the bandwidth-scaling
and rapid-decay experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .frequency import band_project, smooth_step
from .geometry import GroupElement, dist_to_diag
from .hecke import Amplifier, QuatAlgebra, conjugated_element, enumerate_norm_n
from .measures import WeightFunction
from .sampling import SampledFunction
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


ROW_CHUNK = 256   # rows whose in-band pairs are evaluated together


def _pair_dist(e1: np.ndarray, r2: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """d(e1 i, r2 + i i2), elementwise."""
    di = i2 - e1
    return 2.0 * np.arcsinh(np.sqrt(r2 * r2 + di * di) / (2.0 * np.sqrt(e1 * i2)))


def _row_bands(m: np.ndarray, x: np.ndarray, h: float, supp: float):
    """Per row i of the uniform grid x (step h), a column interval [lo, hi]
    that contains every j with d(a(x_i) i, g a(x_j) i) <= supp (hi < lo when
    there is none).

    With det g = 1, 2 cosh d = ||a(-x1) g a(x2)||_F^2 = A t + B / t with
    t = e^(x2), A = a^2 e^(-x1) + c^2 e^(x1) and B = b^2 e^(-x1) + d^2 e^(x1),
    so the band is the root interval of A t^2 - C t + B <= 0, C = 2 cosh(supp),
    widened by one column on each side against rounding.
    """
    (a, b), (c, d) = m
    ex = np.exp(x)
    A = a * a / ex + c * c * ex
    B = b * b / ex + d * d * ex
    C = 2.0 * np.cosh(supp)
    disc = C * C - 4.0 * A * B
    root = C + np.sqrt(np.maximum(disc, 0.0))
    # the stable roots t- = 2B / root and t+ = root / (2A), as grid columns
    lo = np.ceil((np.log(2.0 * B / root) - x[0]) / h) - 1
    hi = np.floor((np.log(root / (2.0 * A)) - x[0]) / h) + 1
    empty = (disc < 0) | (hi < 0) | (lo > x.size - 1)
    lo = np.clip(lo, 0, x.size - 1).astype(np.intp)
    hi = np.clip(hi, 0, x.size - 1).astype(np.intp)
    return lo, np.where(empty, lo - 1, hi)


def _toeplitz_sum(kernel: SphericalKernel, u1: np.ndarray, u2: np.ndarray,
                  h: float) -> complex:
    """The bilinear sum at g = +-e on a uniform grid of step h.

    d(a(x1) i, a(x2) i) = |x1 - x2| = h |i - j|, so the spline runs once per
    lag inside the support and each row sum is one entry of a direct 1-D
    convolution of u2 with the symmetric lag profile.
    """
    supp = kernel.support_radius + 2 * kernel.x_step
    lag = h * np.arange(min(int(supp / h), u2.size - 1) + 1)
    k = kernel.radial(lag)
    m = lag.size - 1
    rows = np.convolve(u2, np.concatenate([k[:0:-1], k]))[m:m + u2.size]
    return np.sum(np.conj(u1) * rows) * h * h


def _bilinear_sum(kernel: SphericalKernel, u1: np.ndarray, u2: np.ndarray,
                  x: np.ndarray, h: float, g: GroupElement) -> complex:
    """h^2 sum over the grid of conj(u1(x1)) u2(x2) k(d(g a(x2) i, a(x1) i)).

    Only the kernel band is visited: each row's pairs within the support
    radius form one column interval, which `_row_bands` contains; the
    `dist <= supp` mask keeps exactly those pairs, and the spline runs on them
    alone.  Rows are taken ROW_CHUNK at a time and each chunk's pairs are
    summed in a fixed order, so results are reproducible.  For g = +-e the
    matrix is Toeplitz and `_toeplitz_sum` takes over.
    """
    a, b, c, d = g.m.ravel()
    if b == 0 and c == 0 and a == d:
        return _toeplitz_sum(kernel, u1, u2, h)
    ex = np.exp(x)
    supp = kernel.support_radius + 2 * kernel.x_step
    # a huge shear overflows den here and A or B in _row_bands; a row whose A
    # or B overflows has an empty band, so no pair reads those values
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = c * 1j * ex + d
        z2 = (a * 1j * ex + b) / den
        lo, hi = _row_bands(g.m, x, h, supp)
    r2, i2 = z2.real, z2.imag
    counts = np.maximum(hi - lo + 1, 0)
    total = 0.0 + 0.0j
    for i0 in range(0, x.size, ROW_CHUNK):
        cnt = counts[i0:i0 + ROW_CHUNK]
        if not cnt.any():
            continue
        rows = np.repeat(np.arange(i0, i0 + cnt.size), cnt)
        starts = np.cumsum(cnt) - cnt
        cols = lo[rows] + np.arange(rows.size) - np.repeat(starts, cnt)
        dist = _pair_dist(ex[rows], r2[cols], i2[cols])
        keep = dist <= supp
        kept = np.bincount(rows[keep] - i0, minlength=cnt.size)
        filled = kept > 0
        row_sums = np.add.reduceat(kernel.radial(dist[keep]) * u2[cols[keep]],
                                   (np.cumsum(kept) - kept)[filled])
        total += np.sum(np.conj(u1[i0:i0 + cnt.size][filled]) * row_sums)
    return total * h * h


def eval_I_pair(kernel: SphericalKernel, window: TestWindow,
                f1: SampledFunction, f2: SampledFunction,
                g: GroupElement) -> IntegralReport:
    """Sesquilinear integral of b(x1) b(x2) conj(f1(x1)) f2(x2) k(a(-x1) g a(x2))
    with a half-resolution re-evaluation as the error estimate."""
    f1.require_same_grid(f2)
    h = f1.grid_step
    lam = kernel.lam
    if h > 1.0 / (8.0 * lam) + 1e-15:
        raise DomainError(f"grid step {h} under-resolves 1/lambda (need <= {1 / (8 * lam)})")
    x = f1.grid()
    u1 = _window_values(window, f1)
    u2 = _window_values(window, f2)
    value = _bilinear_sum(kernel, u1, u2, x, h, g)
    value_half = _bilinear_sum(kernel, u1[::2], u2[::2], x[::2], 2 * h, g)
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
    elements within distance 1 of the identity.

    Returns (total, rows, flags); rows carry one line per (m, n, d, gamma).
    Each distinct conjugated element is integrated once per call: the rows
    and flags of every (m, n, d, gamma) landing on it share one report.
    """
    support = amp.support()
    elements = {}   # norm -> its enumerate_norm_n list
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
                for gamma in elements[v]:
                    h = conjugated_element(alg, gamma, v, g0)
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


def _phi_w_on_window_grid(w: WeightFunction, phi_fn, lam: float):
    """(grid, phi, phi*w, w) on w's grid extended by whole steps until it
    covers the window's support [-SUPPORT, SUPPORT], with w zero-padded."""
    h, edge = w.grid_step, TestWindow.SUPPORT
    # whole steps past the edge, less a rounding slack, so an edge that falls
    # on a node ends the grid there
    left = int(np.ceil((w.grid_min + edge) / h - 1e-6))
    right = int(np.ceil((edge - w.grid_min) / h - 1e-6)) + 1 - w.values.size
    wpad = np.pad(w.values, (left, right))
    start = w.grid_min - left * h
    grid = start + h * np.arange(wpad.size)
    phi = np.asarray(phi_fn(grid), dtype=complex)
    return grid, phi, SampledFunction(start, h, phi * wpad), wpad


def beta_scaling_experiment(kernel: SphericalKernel, window: TestWindow,
                            w: WeightFunction, beta_list):
    """I(lam, complement-projection of phi w, e) against beta, with phi the
    modulated Gaussian at lam.

    Rows: (beta, |I|, |I| / (lam^(1/2) beta^(-(alpha-1/2)) ||phi||^2_L2(w)));
    also returns the fitted log-log slope.
    """
    lam = kernel.lam
    alpha = w.frostman_alpha
    _, phi, fw, wpad = _phi_w_on_window_grid(
        w, lambda x: modulated_gaussian(x, lam), lam)
    phi_norm_sq = float(np.sum(np.abs(phi) ** 2 * wpad) * w.grid_step)
    rows = []
    for beta in sorted(beta_list):
        if not (lam ** 0.2 <= beta <= lam ** 0.8):
            raise DomainError(f"beta={beta} outside [lam^0.2, lam^0.8]")
        fperp = band_project(lam, beta, fw, "complement")
        rep = eval_I(kernel, window, fperp, GroupElement.identity())
        bound = lam ** 0.5 * beta ** (-(alpha - 0.5)) * phi_norm_sq
        rows.append({"beta": beta, "abs_I": abs(rep.value),
                     "normalized": abs(rep.value) / bound if bound > 0 else 0.0,
                     "error": rep.error_estimate, "converged": rep.converged})
    lb = np.log([r["beta"] for r in rows])
    lv = np.log([max(r["abs_I"], 1e-300) for r in rows])
    slope = float(np.polyfit(lb, lv, 1)[0]) if len(rows) >= 2 else float("nan")
    return rows, slope, phi_norm_sq


def rapid_decay_shears(lam: float, beta: float, epsilon0: float, t_factors):
    """t* = lam^(-1/2+eps0) beta^(1/2) and (factor, t = factor t*, d(exp(tE), A))
    for each factor in increasing order; DomainError for a distance that is
    not finite or that dist_to_diag flags (minimizer at its bracket edge)."""
    t_star = lam ** (-0.5 + epsilon0) * beta ** 0.5
    shears = []
    for fac in sorted(t_factors):
        t = fac * t_star
        # a huge t overflows inside dist_to_diag; the check below refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            d_A, _, flagged = dist_to_diag(GroupElement.lower_shear(t)) if t > 0 else (0.0, 0.0, False)
        if flagged or not np.isfinite(d_A):
            raise DomainError(f"shear t = {t} = {fac} t* is too large for the distance"
                              " to the diagonal subgroup")
        shears.append((fac, t, d_A))
    return t_star, shears


def rapid_decay_experiment(kernel: SphericalKernel, window: TestWindow,
                           w: WeightFunction, beta: float, shears):
    """I(lam, pass-projection of phi w, exp(t E)) at the shears of
    rapid_decay_shears in the lower-shear direction, with phi the modulated
    Gaussian at lam.

    Rows: (t, d(g, A), |I|); returns (rows, contrast), the contrast being
    |I|(largest t) / |I|(t=0).
    """
    lam = kernel.lam
    _, _, fw, _ = _phi_w_on_window_grid(w, lambda x: modulated_gaussian(x, lam), lam)
    fpass = band_project(lam, beta, fw, "pass")
    rows = []
    for fac, t, d_A in shears:
        rep = eval_I(kernel, window, fpass, GroupElement.lower_shear(t))
        rows.append({"t": t, "factor": fac, "dist_A": d_A, "abs_I": abs(rep.value),
                     "error": rep.error_estimate, "converged": rep.converged})
    base = rows[0]["abs_I"] if rows and rows[0]["factor"] == 0.0 else None
    contrast = rows[-1]["abs_I"] / base if base else float("nan")
    return rows, contrast

"""Shared fixtures; heavy objects (bump tables, kernel tables, weights) are
built once per session and reused across module and acceptance tests.  Also
the oracles that more than one test module reads: the Fourier-side energy
identity, the weight's interval sweeps, the spherical function phi_s, the
amplifier's parameter choices, the one-element geometry (one conjugate,
one log distance) that the stacked paths are checked against, and the
library drivers of the beta-scaling, rapid-decay and Theorem-3 runs that the
CLI runners replaced; and the band kernel from the Selberg inversion, an
oracle of make_kernel that shares none of its steps."""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

import restrictlab as rl
from restrictlab import cli, spherical
from restrictlab.errors import DomainError, GridMismatchError, NonConvergenceError
from restrictlab.geometry import _log_norm
from restrictlab.hecke import _conjugates
from restrictlab.integrals import _phi_w_on_window_grid, modulated_gaussian
from restrictlab.sampling import _FOURTH_DIFFERENCE, _Z, PREFILTER_HALF_WIDTH, smooth_length
from restrictlab.spherical import _circle_mean

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


def conjugated_element(alg: rl.QuatAlgebra, coords, n: int,
                       g0: rl.GroupElement) -> rl.GroupElement:
    """g0^(-1) iota(gamma)/sqrt(n) g0 as one PSL(2,R) element, e for central
    gamma: the one-row conjugation the stacked rows must equal bit for bit."""
    return rl.GroupElement(_conjugates(alg, coords, n, g0))


def dist_to_identity(g: rl.GroupElement) -> float:
    """||log g|| of one element (the norm _log_norm takes elementwise)."""
    return float(_log_norm(g.m))


def run_runner(experiment: str, params: dict):
    """(rows, summary) of one CLI experiment's runner on the config that
    load_config fills from params, without writing its CSV."""
    cfg = cli.load_config(experiment=experiment, overrides=params)
    return cli._EXPERIMENTS[experiment][0](cfg)


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


def _riesz_cell_kernel(n_cells: int, h: float, s: float) -> np.ndarray:
    """G[k] = exact integral of |x-y|^(-s) over a cell pair at offset k.

    Cells have width h; G[k] = int (h - |u - k h|) |u|^(-s) du over the
    triangular overlap.  Exact antiderivatives up to k=256, then a fourth-order
    Taylor form that avoids catastrophic cancellation.
    """
    G = np.empty(n_cells)
    G[0] = 2.0 * h ** (2.0 - s) / ((1.0 - s) * (2.0 - s))
    k_exact = min(n_cells - 1, 256)
    if k_exact >= 1:
        k = np.arange(1, k_exact + 1, dtype=float)
        A, B, C = (k - 1) * h, k * h, (k + 1) * h

        def F1(u):
            return u ** (1.0 - s) / (1.0 - s)

        def F2(u):
            return u ** (2.0 - s) / (2.0 - s)

        G[1:k_exact + 1] = ((F2(B) - F2(A)) - A * (F1(B) - F1(A))
                            + C * (F1(C) - F1(B)) - (F2(C) - F2(B)))
    if n_cells - 1 > k_exact:
        k = np.arange(k_exact + 1, n_cells, dtype=float)
        G[k_exact + 1:] = h * h * (k * h) ** (-s) * (1.0 + s * (s + 1.0) / (12.0 * k * k))
    return G


def _grid_energy(values: np.ndarray, h: float, s: float) -> complex:
    """Double integral of f(x) conj(f(y)) |x-y|^(-s) for piecewise-constant f."""
    f = np.asarray(values, dtype=complex)
    n = f.size
    G = _riesz_cell_kernel(n, h, s)
    L = smooth_length(2 * n - 1)   # corr's lags -(n-1) .. n-1 do not wrap
    F = np.fft.fft(f, L)
    corr = np.fft.ifft(F * np.conj(F))[:n]   # corr[k] = sum_i f[i+k] conj(f[i])
    total = G[0] * corr[0].real + 2.0 * np.dot(G[1:], corr[1:].real)
    return complex(total)


def fourier_transform(f: rl.SampledFunction, pad_factor: int = 4):
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
    return float(np.pi ** (s - 0.5) * math.gamma((1.0 - s) / 2.0) / math.gamma(s / 2.0))


def fourier_energy_identity(w: rl.WeightFunction, phi, s: float):
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
    f = rl.SampledFunction(w.grid_min, w.grid_step, phi * w.values)
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


def cumulative(w: rl.WeightFunction):
    """Cell-boundary grid and cumulative integral of the piecewise-constant weight."""
    h = w.grid_step
    bounds = np.concatenate([w.grid() - h / 2, [w.grid()[-1] + h / 2]])
    cum = np.concatenate([[0.0], np.cumsum(w.values) * h])
    return bounds, cum


def frostman_weight_sweep(w: rl.WeightFunction, r_values) -> np.ndarray:
    """sup over centers a in [-2.3, 2.3] of (int_{a-r}^{a+r} w) / r^alpha,
    for each radius r."""
    r_values = np.asarray(r_values, dtype=float)
    a_grid = np.linspace(-2.3, 2.3, 4001)
    bounds, cum = cumulative(w)
    out = np.empty(r_values.size)
    for i, r in enumerate(r_values):
        mass = np.interp(a_grid + r, bounds, cum) - np.interp(a_grid - r, bounds, cum)
        out[i] = mass.max() / r ** w.frostman_alpha
    return out


def decade_sweep(w: rl.WeightFunction, r_min: float) -> list[tuple[float, float, float]]:
    """Per-decade suprema of the interval ratio over r in [r_min, 1].

    Returns (r_lo, r_hi, sup) triples for log10-equal bins of 16 radii each.
    """
    n_dec = max(1, int(np.ceil(np.log10(1.0 / r_min))))
    edges = np.logspace(np.log10(r_min), 0.0, n_dec + 1)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        rs = np.logspace(np.log10(lo), np.log10(hi), 16)
        sup = float(frostman_weight_sweep(w, rs).max())
        out.append((float(lo), float(hi), sup))
    return out


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
    pv = phi_s_radial(s, r)
    return float(2.0 * np.pi * simpson(fv * pv * np.sinh(r), x=r))


PHI_MAX_NODES = 1 << 21   # circle nodes at which phi_s gives up doubling


def _phi_integrand_nodes(n: int) -> np.ndarray:
    # midpoint nodes on [0, pi); the integrand is pi-periodic and smooth,
    # so the equal-weight rule converges spectrally
    return (np.arange(n) + 0.5) * np.pi / n


def phi_s_radial(s: float, x) -> np.ndarray:
    """phi_s at the diagonal point a(x): the circle mean of
    u(theta)^(-1/2) cos(s ln u)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_theta = max(64, int(16.0 * abs(s) * float(np.abs(x).max())) + 64)
    return _circle_mean(x, n_theta, lambda v: np.cos(s * v))


def phi_s(s: float, g: rl.GroupElement) -> complex:
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


def _cubic_b_spline(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M4(x), M4'(x)) of the centred cubic B-spline, supported on |x| <= 2."""
    a = np.abs(x)
    inner, outer = a <= 1.0, np.clip(2.0 - a, 0.0, None)
    m = np.where(inner, (4.0 - 6.0 * a * a + 3.0 * a ** 3) / 6.0, outer ** 3 / 6.0)
    dm = np.sign(x) * np.where(inner, 1.5 * a * a - 2.0 * a, -0.5 * outer ** 2)
    return m, dm


def _gauss_pieces(knots: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, n a piece, on the pieces between
    consecutive knots along the last axis: shape (..., knots - 1, n)."""
    t, w = np.polynomial.legendre.leggauss(n)
    lo = knots[..., :-1, None]
    half = 0.5 * (knots[..., 1:, None] - lo)
    return lo + half * (t + 1.0), half * w


def _selberg_g_prime(lam: float, r: np.ndarray, n: int = 24) -> np.ndarray:
    """g'(r) at r >= 0 of g = G0 * G0, G0(r) = 2 cos(lam r) b(r) and
    b(r) = M4(r/H)/H with H = H_WIDTH: b is the Fourier preimage of the
    sinc^4 profile h, so G0's is h0(s) = h(s - lam) + h(-s - lam) and g's is
    h0^2, supported on |r| <= 4H.  g'(r) = int G0(s) G0'(r - s) ds, by
    Gauss-Legendre on the pieces between the knots of b(s) and of b(r - s)."""
    H = spherical.H_WIDTH
    r = np.asarray(r, dtype=float)[:, None]
    grid = H * np.arange(-2, 3)
    knots = np.sort(np.clip(np.concatenate([np.broadcast_to(grid, (r.size, 5)), r + grid],
                                           axis=1), r - 2.0 * H, 2.0 * H), axis=1)
    s, w = _gauss_pieces(knots, n)
    v = r[:, :, None] - s
    b_s, _ = _cubic_b_spline(s / H)
    b_v, db_v = _cubic_b_spline(v / H)
    g0 = 2.0 * np.cos(lam * s) * b_s / H
    g0_prime = 2.0 * (db_v * np.cos(lam * v) / H - lam * b_v * np.sin(lam * v)) / H
    return (w * g0 * g0_prime).sum(axis=(1, 2))


def selberg_kernel(lam: float, d, n: int = 24) -> np.ndarray:
    """The band kernel k at radial distances d from the Selberg inversion of
    g = G0 * G0 (Iwaniec, Spectral Methods of Automorphic Forms, 1.8):
    k(d) = -(sqrt 2 / pi) int_0^Y g'(r) / sinh r dy with cosh r = cosh d + y^2
    and Y^2 = cosh 4H - cosh d, split where r crosses a multiple of H, n
    Gauss-Legendre nodes a piece; an oracle of make_kernel that shares no
    step with its spherical transform, Q table or circle rule.  The sinh^2
    forms keep r and the knots accurate near r = d = 0."""
    H = spherical.H_WIDTH
    sd2 = np.sinh(0.5 * np.asarray(d, dtype=float))[:, None] ** 2
    # y at r = 0, H, ..., 4H, and 0 for the multiples of H below d
    y_knots = np.sqrt(2.0 * np.clip(np.sinh(0.5 * H * np.arange(5)) ** 2 - sd2, 0.0, None))
    y, w = _gauss_pieces(y_knots, n)
    r = 2.0 * np.arcsinh(np.sqrt(sd2[:, :, None] + 0.5 * y * y))
    # blocks of r keep the g' temporaries near 4 MB
    gp = np.concatenate([_selberg_g_prime(lam, block, n)
                         for block in np.array_split(r.ravel(), r.size // 2048 + 1)])
    return -(np.sqrt(2.0) / np.pi) * (w * gp.reshape(r.shape) / np.sinh(r)).sum(axis=(1, 2))


def optimal_bandwidth(lam: float, alpha: float) -> float:
    """beta = lam^(1/(1 + 12 (alpha - 1/2))), the band split balancing the
    two restriction estimates."""
    if not 0.5 < alpha <= 1:
        raise DomainError("alpha must lie in (1/2, 1]")
    return float(lam ** (1.0 / (1.0 + 12.0 * (alpha - 0.5))))


def optimal_amplifier_length(lam: float, beta: float) -> float:
    """N = lam^(1/6) beta^(-1/6), the amplifier length matching the bandwidth."""
    return float(lam ** (1.0 / 6.0) * beta ** (-1.0 / 6.0))


def golden_min(f, a: float, b: float, tol: float = 1e-10, max_iter: int = 200):
    """Scalar golden-section minimum of f on [a, b], one bracket at a time:
    the loop geometry._golden_min runs elementwise over arrays of brackets."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def beta_scaling_experiment(kernel: rl.SphericalKernel, window: rl.TestWindow,
                            w: rl.WeightFunction, beta_list):
    """I(lam, complement-projection of phi w, e) against beta, with phi the
    modulated Gaussian at lam (the library driver the beta-scaling runner
    replaced).

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
        fperp = rl.band_project(lam, beta, fw, "complement")
        rep = rl.eval_I(kernel, window, fperp, rl.GroupElement.identity())
        bound = lam ** 0.5 * beta ** (-(alpha - 0.5)) * phi_norm_sq
        rows.append({"beta": beta, "abs_I": abs(rep.value),
                     "normalized": abs(rep.value) / bound if bound > 0 else 0.0,
                     "error": rep.error_estimate, "converged": rep.converged})
    lb = np.log([r["beta"] for r in rows])
    lv = np.log([max(r["abs_I"], 1e-300) for r in rows])
    slope = float(np.polyfit(lb, lv, 1)[0]) if len(rows) >= 2 else float("nan")
    return rows, slope, phi_norm_sq


def rapid_decay_experiment(kernel: rl.SphericalKernel, window: rl.TestWindow,
                           w: rl.WeightFunction, beta: float, shears):
    """I(lam, pass-projection of phi w, exp(t E)) at the shears of
    rapid_decay_shears in the lower-shear direction, with phi the modulated
    Gaussian at lam (the library driver the rapid-decay runner replaced).

    Rows: (t, d(g, A), |I|); returns (rows, contrast), the contrast being
    |I|(largest t) / |I|(t=0).
    """
    lam = kernel.lam
    _, _, fw, _ = _phi_w_on_window_grid(w, lambda x: modulated_gaussian(x, lam), lam)
    fpass = rl.band_project(lam, beta, fw, "pass")
    rows = []
    for fac, t, d_A in shears:
        rep = rl.eval_I(kernel, window, fpass, rl.GroupElement.lower_shear(t))
        rows.append({"t": t, "factor": fac, "dist_A": d_A, "abs_I": abs(rep.value),
                     "error": rep.error_estimate, "converged": rep.converged})
    base = rows[0]["abs_I"] if rows and rows[0]["factor"] == 0.0 else None
    contrast = rows[-1]["abs_I"] / base if base else float("nan")
    return rows, contrast


def theorem_ratio_table(modes, mu: rl.FractalMeasure, alpha: float):
    """Restriction norm on the equator against the tube-norm bound
    lam^(1/4) s_KN^(alpha-1/2) (the library driver the theorem3 runner
    replaced).

    Rows: {lambda, lhs, skn, bound, ratio}; at alpha = 1 the bound carries the
    additional log(lam) factor.
    """
    if not 0.5 < alpha <= 1.0:
        raise DomainError("alpha must lie in (1/2, 1]")
    rows = []
    for mode in modes:
        lhs = rl.restriction_norm(mode, mu)
        s_kn = rl.kn_norm(mode)["s_kn"]
        bound = mode.lam ** 0.25 * s_kn ** (alpha - 0.5)
        if alpha == 1.0:
            bound *= max(np.log(mode.lam), 1.0)
        rows.append({"lambda": mode.lam, "lhs": lhs, "skn": s_kn,
                     "bound": bound, "ratio": lhs / bound})
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("inf")
    return rows, spread

"""Eigenfunctions of the round sphere, restriction norms against fractal
measures, Kakeya-Nikodym tube norms with a rotation search, the dyadic
oscillatory-kernel check in Fermi coordinates, and the closed-form exponent
tables with log-log fitting."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, ResourceError
from .frequency import smooth_step
from .geometry import _golden_min
from .measures import FractalMeasure, WeightFunction

MAX_DEGREE = 1000
TUBE_BUDGET = 1 << 26   # candidate tubes x nodes per tube of one sphere kn_norm
SAMPLES_ACROSS = 17     # nodes across each half of a tube
# nodes of one dyadic inner integral, (3 lam + 64) x 384; the default
# lam = 128 uses 172,032
DYADIC_BUDGET = 1 << 22


# ---------------------------------------------------------------------------
# exponent tables

def gamma_exponent(alpha):
    """Piecewise restriction exponent: (1-alpha)/2 on (0,1/2], 1/4 on
    (1/2,1], (2-alpha)/4 on (1,2]. Exact on Fraction inputs."""
    half = Fraction(1, 2) if isinstance(alpha, Fraction) else 0.5
    one = 1 if isinstance(alpha, Fraction) else 1.0
    if alpha <= 0 or alpha > 2:
        raise DomainError("alpha must lie in (0, 2]")
    if alpha <= half:
        return half - alpha / 2
    if alpha <= one:
        return half / 2
    return (2 - alpha) / 4


def delta_exponent(alpha):
    """Power saving delta(alpha) = (alpha-1/2) / (24 (alpha-1/2) + 2) on (1/2, 1]."""
    half = Fraction(1, 2) if isinstance(alpha, Fraction) else 0.5
    if not half < alpha <= 1:
        raise DomainError("alpha must lie in (1/2, 1]")
    t = alpha - half
    return t / (24 * t + 2)


def marshall_exponent(alpha):
    """(alpha - 1/2)/14: the saving the unweighted geodesic bound already gives."""
    half = Fraction(1, 2) if isinstance(alpha, Fraction) else 0.5
    return (alpha - half) / 14


def exponent_table(alpha_grid) -> list[dict]:
    rows = []
    for alpha in alpha_grid:
        half = Fraction(1, 2) if isinstance(alpha, Fraction) else 0.5
        row = {"alpha": alpha, "gamma": gamma_exponent(alpha),
               "delta": delta_exponent(alpha) if half < alpha <= 1 else None,
               "marshall": marshall_exponent(alpha) if half < alpha <= 1 else None}
        rows.append(row)
    return rows


def fit_exponent(pairs):
    """Least-squares slope of log(value) against log(lam); returns (slope, residual)."""
    pairs = [(float(l), float(v)) for l, v in pairs]
    if len(pairs) < 3:
        raise DomainError("need at least 3 data points")
    ls = np.log([p[0] for p in pairs])
    vs = np.log([p[1] for p in pairs])
    if np.ptp(ls) == 0:
        raise DomainError("degenerate fit: identical lambda values")
    coef = np.polyfit(ls, vs, 1)
    fit = np.polyval(coef, ls)
    return float(coef[0]), float(np.sqrt(np.mean((vs - fit) ** 2)))


# ---------------------------------------------------------------------------
# model-surface modes

def _legendre_values(l: int, x: np.ndarray) -> np.ndarray:
    """P_l(x) by the standard three-term recurrence; |P_l| <= 1 keeps it
    stable, with an overflow guard for pathological inputs."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if l == 0:
        return p_prev
    p = x.copy()
    for k in range(1, l):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
        if np.any(np.abs(p) > 1e250):
            raise DomainError("Legendre recurrence overflow")
    return p


def _highest_weight_log_c(l: int) -> float:
    # |Y_l^l| on the equator: sqrt((2l+1)(2l)!/(4 pi)) / (2^l l!)
    return (0.5 * (np.log(2 * l + 1.0) - np.log(4.0 * np.pi))
            + 0.5 * gammaln(2 * l + 1.0) - l * np.log(2.0) - gammaln(l + 1.0))


class SphereMode:
    """Spherical harmonic evaluator on the unit sphere; L^2 norm 1."""

    def __init__(self, kind: str, degree: int):
        if kind not in ("zonal", "highest_weight"):
            raise DomainError(f"unknown sphere mode kind {kind!r}")
        if degree < 1:
            raise DomainError("sphere modes need a degree >= 1")
        if degree > MAX_DEGREE:
            raise DomainError(f"degree above stability range {MAX_DEGREE}")
        self.kind = kind
        self.l = int(degree)
        self.lam = float(np.sqrt(self.l * (self.l + 1.0)))
        if kind == "highest_weight":
            self._log_c = _highest_weight_log_c(self.l)

    def value_angles(self, theta, phi) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if self.kind == "zonal":
            return (np.sqrt((2 * self.l + 1) / (4.0 * np.pi))
                    * _legendre_values(self.l, np.cos(theta))).astype(complex)
        st = np.clip(np.sin(theta), 0.0, 1.0)
        mag = np.where(st > 0, np.exp(self._log_c + self.l * np.log(np.maximum(st, 1e-300))), 0.0)
        return mag * np.exp(1j * self.l * phi)

    def value_xyz(self, xyz: np.ndarray) -> np.ndarray:
        x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
        theta = np.arccos(np.clip(z, -1.0, 1.0))
        phi = np.arctan2(y, x)
        return self.value_angles(theta, phi)


# ---------------------------------------------------------------------------
# geodesics, restriction norms, tube norms

def _rotation_from_axis_angle(psi: float) -> np.ndarray:
    """Rotation about the y-axis tilting the north pole by psi."""
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True)
class SphereGeodesic:
    """Unit-speed great-circle arc s -> R (cos s, sin s, 0)."""

    rotation: np.ndarray

    @classmethod
    def equator(cls) -> "SphereGeodesic":
        return cls(np.eye(3))

    @classmethod
    def meridian(cls) -> "SphereGeodesic":
        return cls(np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]]))

    def points(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        circ = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=-1)
        return circ @ self.rotation.T


def restriction_norm(mode, ell, mu: FractalMeasure) -> float:
    """||e||_{L^2(mu)} with mu's atoms pushed to the geodesic by arclength."""
    vals = mode.value_xyz(ell.points(mu.atoms))
    return float(np.sqrt(np.sum(mu.weights * np.abs(vals) ** 2)))


def _sphere_tube_mass(mode, psi: float, delta: float, n_along: int) -> float:
    """L^2 mass of the mode in the delta-collar of the great circle whose
    axis is tilted by psi from the pole."""
    R = _rotation_from_axis_angle(psi)
    t = 2.0 * np.pi * (np.arange(n_along) + 0.5) / n_along
    u = delta * (np.arange(SAMPLES_ACROSS) + 0.5) / SAMPLES_ACROSS
    u = np.concatenate([-u[::-1], u])
    circ = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)
    pole = np.array([0.0, 0.0, 1.0])
    pts = (np.cos(u)[:, None, None] * circ[None, :, :]
           + np.sin(u)[:, None, None] * pole[None, None, :])
    pts = pts @ R.T
    vals = np.abs(mode.value_xyz(pts)) ** 2
    du = u[1] - u[0]
    dt = 2.0 * np.pi / n_along
    return float((vals * np.cos(u)[:, None]).sum() * du * dt)


def kn_norm(mode: SphereMode) -> dict:
    """Kakeya-Nikodym norm: sup over great circles of the L^2 mass in the
    lam^(-1/2)-neighborhood, as the row {lambda, half_width, s_kn,
    search_resolution, max_axis_tilt}.

    Zonal and highest-weight modes are rotationally symmetric about the pole,
    so the axis search reduces to the polar tilt, gridded at a quarter of the
    half-width with golden-section refinement; a search of more than
    TUBE_BUDGET nodes is refused before it starts.
    """
    lam = mode.lam
    delta = lam ** -0.5
    step = delta / 4.0
    n_candidates = int(np.ceil((np.pi / 2) / step)) + 1
    n_along = max(256, 4 * mode.l + 32)
    if n_candidates * n_along * 2 * SAMPLES_ACROSS > TUBE_BUDGET:
        raise ResourceError(
            f"tube search needs {n_candidates} candidates x "
            f"{n_along * 2 * SAMPLES_ACROSS} nodes > budget {TUBE_BUDGET}")
    psis = np.arange(0.0, np.pi / 2 + step, step)
    masses = np.array([_sphere_tube_mass(mode, p, delta, n_along) for p in psis])
    i = int(np.argmax(masses))
    lo, hi = psis[max(0, i - 1)], psis[min(len(psis) - 1, i + 1)]
    psi_star, neg = _golden_min(lambda p: -_sphere_tube_mass(mode, p, delta, n_along),
                                lo, hi, tol=1e-6)
    return {"lambda": lam, "half_width": delta, "s_kn": float(-neg),
            "search_resolution": float(step), "max_axis_tilt": float(psi_star)}


def theorem_ratio_table(modes, mu: FractalMeasure, alpha: float):
    """Restriction norm on the equator against the tube-norm bound
    lam^(1/4) s_KN^(alpha-1/2).

    Rows: {lambda, lhs, skn, bound, ratio}; at alpha = 1 the bound carries the
    additional log(lam) factor.
    """
    if not 0.5 < alpha <= 1.0:
        raise DomainError("alpha must lie in (1/2, 1]")
    ell = SphereGeodesic.equator()
    rows = []
    for mode in modes:
        lhs = restriction_norm(mode, ell, mu)
        s_kn = kn_norm(mode)["s_kn"]
        bound = mode.lam ** 0.25 * s_kn ** (alpha - 0.5)
        if alpha == 1.0:
            bound *= max(np.log(mode.lam), 1.0)
        rows.append({"lambda": mode.lam, "lhs": lhs, "skn": s_kn,
                     "bound": bound, "ratio": lhs / bound})
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("inf")
    return rows, spread


# ---------------------------------------------------------------------------
# dyadic decomposition in Fermi coordinates

def lp_bump(tau) -> np.ndarray:
    """Littlewood-Paley bump beta supported in (1/2, 2), equal to 1 on
    [0.9, 1], built as psi(tau) - psi(tau/2) so sum_j beta(2^-j tau)
    telescopes to 1 for tau > 0."""
    tau = np.abs(np.asarray(tau, dtype=float))

    def psi(t):
        return smooth_step((t - 0.5) / 0.4)

    return psi(tau) - psi(tau / 2.0)


def _fermi_distance(s, y1, y2):
    """Great-circle distance from the equator point at arc s to the point
    with Fermi coordinates (y1, y2): arccos(cos y2 cos(y1 - s))."""
    return np.arccos(np.clip(np.cos(y2) * np.cos(y1 - s), -1.0, 1.0))


def _parametrix_amplitude(d: np.ndarray) -> np.ndarray:
    """Smooth stand-in amplitude supported where the distance lies in (1/2, 1)."""
    up = smooth_step((d - 0.5) / 0.1)
    down = smooth_step((1.0 - d) / 0.1)
    return up * down


def check_dyadic_budget(lam: float) -> int:
    """Nodes along y1 of one dyadic inner integral at lam; ResourceError when
    its grid of n_y1 x 384 nodes exceeds DYADIC_BUDGET, before anything is
    built."""
    n_y1 = max(256, int(3.0 * lam) + 64)
    if n_y1 * 384 > DYADIC_BUDGET:
        raise ResourceError(f"{n_y1} x 384 nodes of a dyadic inner integral exceed"
                            f" budget {DYADIC_BUDGET}")
    return n_y1


def check_dyadic_scale(lam: float, k_index: int) -> None:
    """DomainError unless lam^(-1/2) <= 2^k <= 1/2 (no 2^k formed for k >= 0)."""
    if k_index > -1 or 2.0 ** k_index < lam ** -0.5:
        raise DomainError("need lam^(-1/2) <= 2^k <= 1/2")


def dyadic_inner_integral(lam: float, k_index: int, s: float, sp: float):
    """Oscillatory y-integral over the dyadic collar Omega_k:

    int e^(i lam (d(l(s),y) - d(l(s'),y))) a a' beta_k^2(y2) cos(y2) dy,
    on y1 within 2.5 of s and s' and 192 nodes across each half of the
    collar, plus a degeneracy flag when the transverse phase derivative drops
    below a tenth of its expected 2^k |s - s'| size on over 10% of the nodes.
    """
    two_k = 2.0 ** k_index
    n_y1 = check_dyadic_budget(lam)
    y1 = np.linspace(min(s, sp) - 2.5, max(s, sp) + 2.5, n_y1)
    band = two_k * (0.5 + 1.5 * (np.arange(192) + 0.5) / 192)
    y2 = np.concatenate([-band[::-1], band])
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    d1 = _fermi_distance(s, Y1, Y2)
    d2 = _fermi_distance(sp, Y1, Y2)
    amp = _parametrix_amplitude(d1) * _parametrix_amplitude(d2)
    bk = lp_bump(np.abs(y2) / two_k) ** 2
    integrand = amp * np.exp(1j * lam * (d1 - d2)) * (bk * np.cos(y2))[None, :]
    h1 = y1[1] - y1[0]
    h2 = band[1] - band[0]
    value = complex(integrand.sum() * h1 * h2)
    # transverse phase-derivative screen on the amplitude's support
    dd = 1e-5
    ph_p = (_fermi_distance(s, Y1, Y2 + dd) - _fermi_distance(sp, Y1, Y2 + dd))
    ph_m = (_fermi_distance(s, Y1, Y2 - dd) - _fermi_distance(sp, Y1, Y2 - dd))
    dphase = np.abs(ph_p - ph_m) / (2 * dd)
    on_supp = amp > 1e-3
    expected = two_k * abs(s - sp)
    if expected > 0 and on_supp.any():
        frac_degenerate = float((dphase[on_supp] < 0.1 * expected).mean())
    else:
        frac_degenerate = 0.0
    return value, frac_degenerate > 0.10


def dyadic_kernel_check(lam: float, k_index: int, w: WeightFunction):
    """Measured decay of the dyadic inner integral against the model kernel
    2^k (1 + 2^(2k) lam |s-s'|)^(-2).

    Returns a report with the per-pair table, the sup of |value| / model,
    degeneracy flags, a fitted decay slope in the oscillatory regime, and the
    ratio of the w-weighted s-integral of the model kernel to
    2^k lam^(-alpha) 2^(-2 alpha k).
    """
    check_dyadic_scale(lam, k_index)
    two_k = 2.0 ** k_index
    # probe oscillation scales 2^(2k) lam |s-s'| from 1/2 to ~24; beyond
    # that the longitudinal oscillation drives values to the noise floor
    seps = np.geomspace(0.5, 24.0, 10) / (two_k ** 2 * lam)
    rows = []
    for s, sp in [(0.05, 0.05 + d) for d in seps if d <= 0.9]:
        val, flagged = dyadic_inner_integral(lam, k_index, s, sp)
        x = two_k ** 2 * lam * abs(s - sp)
        model = two_k * (1.0 + x) ** (-2)
        rows.append({"s": s, "s_prime": sp, "osc_scale": x, "abs_value": abs(val),
                     "model": model, "ratio": abs(val) / model, "flagged": flagged})
    sup_ratio = max(r["ratio"] for r in rows)
    floor = 1e-9 * max(r["abs_value"] for r in rows)
    osc = [(r["osc_scale"], r["abs_value"]) for r in rows
           if r["osc_scale"] >= 1.5 and r["abs_value"] > floor]
    slope = None
    if len(osc) >= 3:
        slope, _ = fit_exponent(osc)
    alpha = w.frostman_alpha
    sp0 = 0.05
    kernel_vals = two_k * (1.0 + two_k ** 2 * lam * np.abs(w.grid() - sp0)) ** (-2)
    lhs = float(np.sum(kernel_vals * w.values) * w.grid_step)
    target = two_k * lam ** (-alpha) * two_k ** (-2 * alpha)
    return {"rows": rows, "sup_ratio": sup_ratio, "decay_slope": slope,
            "any_flagged": any(r["flagged"] for r in rows),
            "weighted_ratio": lhs / target}

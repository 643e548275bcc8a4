"""Fractal measures on [0,1]: Frostman constants, Riesz s-energies, and the
smoothed weight obtained by mollifying a measure at spectral scale 1/lambda."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError

ATOM_BUDGET = 1 << 22
GRID_BUDGET = 1 << 24
# atoms x points of one pass per atom: the window points of one build_weight,
# or the radii of one `restrictlab measure` run
WORK_BUDGET = 1 << 27
WEIGHT_BLOCK = 1 << 16   # window points build_weight evaluates at once
# |u| past which the mollifier eta(u) is exactly 0: BumpPair tabulates eta up
# to here, so an atom changes the weight only within ETA_REACH / (4 C_ELL lam)
ETA_REACH = 800.0
# atom pairs of one exact energy sum
PAIR_BUDGET = 1 << 24
MIN_SAMPLES_PER_WAVELENGTH = 8   # least and default weight samples per wavelength 1/lam
WEIGHT_EDGE = 2.0   # the weight lives on [-WEIGHT_EDGE, WEIGHT_EDGE], exactly 0 past it

# Bound on the speed of the distance phase along a geodesic.  It depends on
# the metric, which no experiment here varies, so it is fixed at the value
# of the model surfaces.
C_ELL = 2.0


@dataclass(frozen=True)
class FractalMeasure:
    """Finite atomic approximation of an alpha-dimensional measure on [0,1].

    Atoms are sorted, distinct points; weights are nonnegative with total
    mass 1 (or exactly 0 for the empty measure).
    """

    atoms: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    alpha: float

    def __post_init__(self):
        atoms = np.ascontiguousarray(self.atoms, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if atoms.shape != weights.shape or atoms.ndim != 1:
            raise DomainError("atoms and weights must be 1-d arrays of equal length")
        if not 0 < self.alpha <= 1:
            raise DomainError(f"alpha must lie in (0,1], got {self.alpha}")
        if atoms.size:
            if atoms.min() < 0 or atoms.max() > 1:
                raise DomainError("atoms must lie in [0,1]")
            if np.any(np.diff(atoms) <= 0):
                raise DomainError("atoms must be strictly increasing (no duplicates)")
            if weights.min() < 0:
                raise DomainError("weights must be nonnegative")
            total = weights.sum()
            if total != 0 and abs(total - 1.0) > 1e-12:
                raise DomainError(f"total mass must be 1 (or 0), got {total}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def interval_mass(self, lo, hi) -> np.ndarray:
        """Measure of [lo, hi] (endpoints included); lo/hi may be arrays."""
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        i_lo = np.searchsorted(self.atoms, np.asarray(lo, dtype=float), side="left")
        i_hi = np.searchsorted(self.atoms, np.asarray(hi, dtype=float), side="right")
        return cum[i_hi] - cum[i_lo]


@dataclass(frozen=True)
class WeightFunction:
    """Smoothed weight on a uniform grid covering [-WEIGHT_EDGE, WEIGHT_EDGE].

    Treated as piecewise constant on cells of width grid_step for all
    integral operations, so singular kernels integrate exactly per cell.
    """

    grid_min: float
    grid_step: float
    values: np.ndarray = field(repr=False)
    frostman_alpha: float

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("values must be a 1-d array with >= 2 samples")
        if vals.min() < -1e-12:
            raise DomainError("weight values must be nonnegative")
        object.__setattr__(self, "values", np.maximum(vals, 0.0))
        outside = np.abs(self.grid()) > WEIGHT_EDGE + 1e-12
        if np.any(self.values[outside] != 0.0):
            raise DomainError(f"weight must vanish at grid points with |s| > {WEIGHT_EDGE:g}")

    def grid(self) -> np.ndarray:
        return self.grid_min + self.grid_step * np.arange(self.values.size)


def make_cantor_measure(alpha: float, depth: int) -> FractalMeasure:
    """Two-branch Cantor measure of dimension alpha at a finite refinement depth.

    The contraction ratio r solves alpha = ln 2 / ln(1/r), i.e. r = 2^(-1/alpha);
    atoms sit at the midpoints of the 2^depth surviving intervals with equal
    weights.  alpha = 1 gives the midpoint discretization of Lebesgue measure.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must lie in (0,1], got {alpha}")
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if depth >= ATOM_BUDGET.bit_length():   # 2^depth > ATOM_BUDGET, without 2^depth
        raise ResourceError(f"2^{depth} atoms exceed budget {ATOM_BUDGET}")
    r = 2.0 ** (-1.0 / alpha)
    mid = np.array([0.5])
    for _ in range(depth):   # r <= 1/2 puts the left copy below the right: increasing
        mid = np.concatenate([r * mid, r * mid + (1.0 - r)])
    if np.any(np.diff(mid) <= 0):
        raise DomainError(f"Cantor atoms collide in floating point at alpha = {alpha},"
                          f" depth = {depth}: cells are r^depth = {r ** depth:.3g} wide"
                          f" with r = 2^(-1/alpha) = {r:.6g}; lower depth or raise alpha")
    w = np.full(mid.size, 2.0 ** (-depth))
    return FractalMeasure(mid, w, alpha)


def frostman_ratio(m: FractalMeasure, r: float) -> float:
    """sup over atom centers x of mu([x-r, x+r]) / r^alpha at one radius r."""
    if not 0 < r <= 1:   # NaN fails it too
        raise DomainError(f"radius {r} must lie in (0, 1]")
    if m.atoms.size == 0:
        raise DomainError("measure must be nonempty")
    return float(m.interval_mass(m.atoms - r, m.atoms + r).max()) / r ** m.alpha


def energy(m: FractalMeasure, s: float) -> float:
    """Riesz s-energy I_s of an atomic measure: the exact pair sum with the
    diagonal excluded, refused past PAIR_BUDGET pairs."""
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0,1), got {s}")
    x, w = m.atoms, m.weights
    if x.size ** 2 > PAIR_BUDGET:
        raise ResourceError(f"{x.size}^2 atom pairs exceed budget {PAIR_BUDGET}")
    total = 0.0
    chunk = 1024
    for i0 in range(0, x.size, chunk):
        d = np.abs(x[i0:i0 + chunk, None] - x[None, :])
        ww = w[i0:i0 + chunk, None] * w[None, :]
        np.fill_diagonal(d[:, i0:i0 + chunk], np.inf)
        total += float(np.sum(ww * d ** (-s)))
    return total


def _window_points(lam: float, h: float, n: int) -> tuple[int, int]:
    """(reach, width) of an atom's window on the n + 1 points of the weight grid.

    eta(4 C_ELL lam (s0 - t)) vanishes at every grid point more than
    ETA_REACH / (4 C_ELL lam h) steps from s0, within half a step of
    `reach`; a window of `width` = min(2 reach + 4, n + 1) points starting
    reach + 1 steps below floor((s0 + WEIGHT_EDGE) / h) holds all the
    others, with a step to spare on each side.
    """
    reach = round(ETA_REACH / (4.0 * C_ELL * lam * h))
    return reach, min(2 * reach + 4, n + 1)


def check_weight_budget(atoms: int, lam: float,
                        samples_per_wavelength: int) -> tuple[float, int]:
    """(h, n) of the grid -WEIGHT_EDGE + h * arange(n + 1) that a weight of
    `atoms` atoms at lam is sampled on.

    Raises DomainError for an under-resolved grid, and ResourceError past
    GRID_BUDGET grid points or past WORK_BUDGET window points (atoms x the
    points of one atom's window), before anything is built.
    """
    if lam < 1:
        raise DomainError("lam must be >= 1")
    if samples_per_wavelength < MIN_SAMPLES_PER_WAVELENGTH:
        raise DomainError(
            f"need at least {MIN_SAMPLES_PER_WAVELENGTH} samples per wavelength 1/lam")
    if samples_per_wavelength > GRID_BUDGET:   # 4 lam spw + 1 points; lam spw may overflow
        raise ResourceError(f"{samples_per_wavelength} samples per wavelength exceed"
                            f" budget {GRID_BUDGET} grid points")
    if not np.isfinite(samples_per_wavelength * lam):
        raise ResourceError(f"lam x samples per wavelength = {lam} x {samples_per_wavelength}"
                            f" exceeds budget {GRID_BUDGET} grid points")
    h = 1.0 / (samples_per_wavelength * lam)
    n = int(round(2 * WEIGHT_EDGE / h))
    if n + 1 > GRID_BUDGET:
        raise ResourceError(f"{n + 1} grid points exceed budget {GRID_BUDGET}")
    width = _window_points(lam, h, n)[1]
    if atoms * width > WORK_BUDGET:
        raise ResourceError(f"{atoms} atoms x {width} window points exceed"
                            f" work budget {WORK_BUDGET}")
    return h, n


def build_weight(nu: FractalMeasure, lam: float, bump,
                 samples_per_wavelength: int = MIN_SAMPLES_PER_WAVELENGTH) -> WeightFunction:
    """Mollify nu at scale 1/lam into a smooth weight on [-WEIGHT_EDGE, WEIGHT_EDGE].

    w(t) = rho(t) * sum_i nu_i sqrt(lam^2 K(lam (s_i - t))^2 + 1), where bump
    is a BumpPair, rho = bump.rho is its plateau cutoff and K is bump.eta
    rescaled so its transform plateaus on |xi| <= 2 C_ELL and vanishes beyond
    4 C_ELL.

    K is exactly 0 past ETA_REACH / (4 C_ELL lam) of its atom, where the atom
    adds nu_i * 1; so the sum starts at sum_i nu_i and each atom adds
    nu_i (sqrt(...) - 1) on its own window only.  Atoms are taken in blocks
    of about WEIGHT_BLOCK window points, each added by one np.bincount.
    """
    h, n = check_weight_budget(nu.atoms.size, lam, samples_per_wavelength)
    t = -WEIGHT_EDGE + h * np.arange(n + 1)
    scale = 4.0 * C_ELL
    reach, width = _window_points(lam, h, n)
    # a window clipped at either end of the grid slides inside it; the points
    # it gains lie past the reach, where the atom adds exactly 0
    first = np.clip(np.floor((nu.atoms + WEIGHT_EDGE) / h).astype(np.intp) - reach - 1,
                    0, n + 1 - width)
    acc = np.full(n + 1, nu.weights.sum())
    block = max(1, WEIGHT_BLOCK // width)
    for i in range(0, nu.atoms.size, block):
        atoms, weights = nu.atoms[i:i + block, None], nu.weights[i:i + block, None]
        # atoms are sorted, so the block's windows span first[i] .. idx.max()
        idx = first[i:i + block, None] + np.arange(width)
        kern = scale * bump.eta(scale * lam * (atoms - t[idx]))
        extra = weights * (np.sqrt((lam * kern) ** 2 + 1.0) - 1.0)
        span = np.bincount((idx - first[i]).ravel(), extra.ravel())
        acc[first[i]:first[i] + span.size] += span
    vals = acc * bump.rho(t)
    vals[np.abs(t) > WEIGHT_EDGE] = 0.0   # rho already vanishes there; make it exact
    return WeightFunction(-WEIGHT_EDGE, h, vals, nu.alpha)

"""Uniformly sampled functions on an interval, the even function through a
radial table on uniform knots, the FFT linear convolution, and the head of
a long DFT that tabulates such a table.

The radial table's function is the not-a-knot cubic spline in B-spline form:
its coefficients come from the mirrored table by the closed-form prefilter
of cubic-spline interpolation on uniform knots (Unser, Aldroubi and Eden,
"B-spline signal processing" I-II, IEEE Trans. Signal Process. 1993) plus a
two-term end correction, and a point is evaluated in the knot interval found
by index arithmetic, with no search and no mask."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError


@dataclass(frozen=True)
class SampledFunction:
    """Complex-valued samples f(grid_min + k*grid_step), k = 0..n-1."""

    grid_min: float
    grid_step: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.grid_step <= 0:
            raise DomainError("grid_step must be positive")
        object.__setattr__(self, "values",
                           np.ascontiguousarray(self.values, dtype=complex))

    @property
    def n(self) -> int:
        return self.values.size

    def grid(self) -> np.ndarray:
        return self.grid_min + self.grid_step * np.arange(self.n)

    def require_same_grid(self, other: "SampledFunction") -> None:
        if (self.n != other.n or abs(self.grid_min - other.grid_min) > 1e-12
                or abs(self.grid_step - other.grid_step) > 1e-12):
            raise GridMismatchError(
                f"grid mismatch: ({self.grid_min}, {self.grid_step}, {self.n}) vs "
                f"({other.grid_min}, {other.grid_step}, {other.n})")


# pole of the cubic B-spline interpolation filter (1, 4, 1)/6; its inverse is
# sqrt(3) z^|j|, truncated to |j| <= PREFILTER_HALF_WIDTH (|z|^40 ~ 1e-23)
_Z = np.sqrt(3.0) - 2.0
PREFILTER_HALF_WIDTH = 40
_FOURTH_DIFFERENCE = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


def even_table(step: float, values: np.ndarray):
    """The even function f with f(x) = values[i] at |x| = i*step: the
    not-a-knot cubic spline through the table for |x| <= (n-1)*step, and 0
    beyond the last knot.

    The spline is sum_k c_k B(|x|/step - k), k = -1..n, in cubic B-splines
    B.  The prefilter gives the c of the mirrored table.  Adding
    A z^(k+1) + B z^(n-k), which interpolates zero, with A and B chosen so
    that the fourth difference of c vanishes over c_-1..c_3 and over
    c_n-4..c_n, makes the third derivative continuous at knots 1 and n-2:
    the not-a-knot end conditions.  A point in knot interval
    k = floor(|x|/step) is that interval's cubic, by Horner's rule on
    coefficients gathered at k.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 4:
        # at 3 values the two end conditions coincide
        raise DomainError(f"a not-a-knot spline needs at least 4 values, got {n}")
    w = PREFILTER_HALF_WIDTH
    taps = np.sqrt(3.0) * _Z ** np.abs(np.arange(-w, w + 1))
    c = np.convolve(np.pad(v, w, mode="reflect"), taps, "valid")
    c = np.concatenate((c[1:2], c, c[-2:-1]))   # c_-1 .. c_n, mirrored
    # z^(k+1) and z^(n-k) have fourth difference (1 - z)^4 at their own end
    # and z^(n-3) (1 - z)^4 at the other; both are below rounding past w terms
    g, p = (1.0 - _Z) ** 4, _Z ** (n - 3)
    r0, r1 = _FOURTH_DIFFERENCE @ c[:5], _FOURTH_DIFFERENCE @ c[-5:]
    a = (p * r1 - r0) / (g * (1.0 - p * p))
    b = (p * r0 - r1) / (g * (1.0 - p * p))
    decay = _Z ** np.arange(min(n + 2, w + 1))
    c[:decay.size] += a * decay
    c[-decay.size:] += b * decay[::-1]
    # interval k's cubic a0 + a1 t + a2 t^2 + a3 t^3 in t = |x|/step - k,
    # from c_(k-1..k+2); a0 is the table's value, by the interpolation condition
    cm, c0, c1, c2 = c[:-3], c[1:-2], c[2:-1], c[3:]
    a0, a1, a2, a3 = np.stack([v[:-1], 0.5 * (c1 - cm), 0.5 * (cm + c1) - c0,
                               (c2 - cm + 3.0 * (c0 - c1)) / 6.0])
    x_max = step * (n - 1)

    def f(x) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=float))
        inside = x <= x_max
        # every point reads an interval's cubic; a point past the last knot,
        # infinite or NaN reads interval 0, so no cast sees it, and gets 0
        u = np.where(inside, x, 0.0) / step
        k = np.minimum(u.astype(np.intp), n - 2)
        t = u - k
        return np.where(inside, ((a3[k] * t + a2[k]) * t + a1[k]) * t + a0[k], 0.0)

    return f


def smooth_length(m: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c >= m (1 for m <= 1): an
    FFT length that numpy's transforms take in mixed radix."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches m
            best = min(best, p35 << max(-(-m // p35) - 1, 0).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve_valid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)[a.size - 1 : b.size]: the entries of the linear convolution
    of a and b where a lies wholly inside b (a.size <= b.size), numpy's
    "valid" mode.  One circular FFT convolution at smooth_length(b.size)
    gives them: its wrap-around falls only in the a.size - 1 entries
    dropped."""
    N = smooth_length(b.size)
    X = np.fft.fft(a, N)
    X *= np.fft.fft(b, N)
    return np.fft.ifft(X)[a.size - 1:b.size]


def dft_head(c: np.ndarray, L: int, n: int) -> np.ndarray:
    """X_j = sum_m c_m exp(-2 pi i j m / L) for j < n: the first n terms of
    the length-L DFT of c, by Bluestein's chirp-z identity
    jm = (j^2 + m^2 - (j - m)^2) / 2, so cost and memory follow c.size + n,
    not L.  The chirp w_k = exp(-i pi k^2 / L) takes its phase from k^2 mod 2L
    in int64, exact for k up to about 3e9.  X_j = w_j sum_m c_m w_m
    conj(w_(j-m)) is one convolve_valid of c w against conj(w) at the lags
    1 - c.size .. n - 1, at the smallest 5-smooth length >= c.size + n - 1."""
    M = c.size
    k = np.arange(1 - M, n, dtype=np.int64)
    w = np.exp(-1j * np.pi * ((k * k) % (2 * L)) / L)   # w at lags 1 - M .. n - 1
    cw = c * w[M - 1::-1]
    X = convolve_valid(cw, np.conjugate(w, out=w))
    return X * w[M - 1:].conj()

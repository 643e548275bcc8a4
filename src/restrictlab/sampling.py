"""Uniformly sampled functions on an interval, the even function through a
radial table, and the head of a long DFT that tabulates such a table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

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


def even_table(knots: np.ndarray, values: np.ndarray):
    """The even function f with f(x) = values[i] at |x| = knots[i]: a cubic
    spline through the table for |x| <= knots[-1], and 0 beyond the last knot."""
    spline = CubicSpline(knots, values)
    x_max = knots[-1]

    def f(x) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        inside = x <= x_max
        out[inside] = spline(x[inside])
        return out

    return f


def dft_head(c: np.ndarray, L: int, n: int) -> np.ndarray:
    """X_j = sum_m c_m exp(-2 pi i j m / L) for j < n: the first n terms of
    the length-L DFT of c, by Bluestein's chirp-z identity
    jm = (j^2 + m^2 - (j - m)^2) / 2, so cost and memory follow c.size + n,
    not L.  The chirp phase is taken from k^2 mod 2L in int64, exact for
    k up to about 3e9."""
    M = c.size
    k = np.arange(max(M, n), dtype=np.int64)
    w = np.exp(-1j * np.pi * ((k * k) % (2 * L)) / L)
    N = 1 << (M + n - 2).bit_length()   # power of two >= M + n - 1: no wrap-around
    b = np.zeros(N, dtype=complex)
    b[:n] = w[:n].conj()
    b[N - M + 1:] = w[M - 1:0:-1].conj()
    X = np.fft.ifft(np.fft.fft(c * w[:M], N) * np.fft.fft(b))
    return w[:n] * X[:n]

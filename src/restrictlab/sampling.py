"""Uniformly sampled functions on an interval."""

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

    def embed(self, new_min: float, new_max: float) -> "SampledFunction":
        """Zero-extend onto a larger grid with the same step and aligned nodes."""
        h = self.grid_step
        k0 = int(round((self.grid_min - new_min) / h))
        if abs(new_min + k0 * h - self.grid_min) > 1e-9 * h:
            raise GridMismatchError("embedding target grid is not node-aligned")
        n_new = int(round((new_max - new_min) / h)) + 1
        if k0 < 0 or k0 + self.n > n_new:
            raise DomainError("embedding target does not contain the source grid")
        out = np.zeros(n_new, dtype=complex)
        out[k0:k0 + self.n] = self.values
        return SampledFunction(new_min, h, out)

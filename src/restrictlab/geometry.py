"""Upper half-plane model: PSL(2,R) elements, the Moebius action, hyperbolic
distance, and surrogate distances to the identity and to the diagonal
subgroup A."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError


def _canonical_sign(m: np.ndarray) -> np.ndarray:
    # projective representative: trace >= 0, ties broken by m11 then m12
    tr = m[0, 0] + m[1, 1]
    if tr < 0:
        return -m
    if tr == 0:
        if m[0, 0] < 0 or (m[0, 0] == 0 and m[0, 1] < 0):
            return -m
    return m


@dataclass(frozen=True)
class GroupElement:
    """Element of PSL(2,R): a unit-determinant 2x2 real matrix up to sign."""

    m: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.m, dtype=float)
        if m.shape != (2, 2):
            raise DomainError("GroupElement needs a 2x2 matrix")
        if not np.isfinite(m).all():
            raise DomainError(f"GroupElement entries must be finite, got {m.tolist()}")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det <= 0:
            raise DomainError(f"determinant must be positive, got {det}")
        m = m / np.sqrt(det)
        object.__setattr__(self, "m", _canonical_sign(m))

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(np.eye(2))

    @classmethod
    def diag_flow(cls, y: float) -> "GroupElement":
        """a(y): the diagonal one-parameter subgroup, a(y).i = e^y i."""
        return cls(np.array([[np.exp(y / 2.0), 0.0], [0.0, np.exp(-y / 2.0)]]))

    @classmethod
    def rotation(cls, theta: float) -> "GroupElement":
        return cls(np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]]))

    @classmethod
    def lower_shear(cls, t: float) -> "GroupElement":
        """exp(t E) for the lower off-diagonal generator E."""
        return cls(np.array([[1.0, 0.0], [t, 1.0]]))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m)

    def inv(self) -> "GroupElement":
        a, b, c, d = self.m.ravel()
        return GroupElement(np.array([[d, -b], [-c, a]]))

    def op_norm(self) -> float:
        return float(np.linalg.norm(self.m, 2))

    @cached_property
    def condition(self) -> float:
        """kappa = ||g|| ||g^-1||, computed once per element; at det 1 the
        singular values are s and 1/s, so ||g^-1|| = ||g|| and kappa =
        ||g||^2."""
        return self.op_norm() ** 2


def act(g: GroupElement, z: complex) -> complex:
    """Moebius action (a z + b) / (c z + d) on the upper half-plane."""
    if z.imag <= 0:
        raise DomainError("z must lie in the upper half-plane")
    a, b, c, d = g.m.ravel()
    den = c * z + d
    if abs(den) < 1e-300:
        raise DomainError("denominator underflow in Moebius action")
    return (a * z + b) / den


def dist_hyp(z: complex, w: complex) -> float:
    """Hyperbolic distance; 2 asinh(|z-w| / (2 sqrt(Im z Im w)))."""
    if z.imag <= 0 or w.imag <= 0:
        raise DomainError("points must lie in the upper half-plane")
    return 2.0 * np.arcsinh(abs(z - w) / (2.0 * np.sqrt(z.imag * w.imag)))


def _log_norm(m: np.ndarray) -> np.ndarray:
    """Left-invariant surrogate distance ||log g|| to the identity for
    g = +-m, elementwise over unit-determinant m[..., 2, 2]; exact on
    one-parameter subgroups, comparable to the true metric within fixed
    factors.

    The norm on trace-free X = [[X1,X2],[X3,-X1]] is
    ||X||^2 = 4 X1^2 + (X2+X3)^2 + (X2-X3)^2/4, normalized so the projection
    to the upper half-plane is a Riemannian submersion: diagonal flow a(y)
    then has ||log a(y)|| = |y| (matching its hyperbolic displacement) and
    small rotations by matrix angle theta have norm theta.  This is
    bi-Lipschitz to any other choice; only constants move.

    With p = |tr m|/2, the principal log of the trace >= 0 sign is
    X = scale (m - p I) (Cayley-Hamilton), scale = t/sinh t for p = cosh t > 1,
    theta/sin theta for p = cos theta < 1 and 1 at p = 1, so 2 X1 =
    scale (a - d).  The norm is even in the sign of m: no sign is chosen.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    p = 0.5 * np.abs(a + d)
    with np.errstate(invalid="ignore"):   # the branch np.where discards
        t, th = np.arccosh(np.maximum(p, 1.0)), np.arccos(np.minimum(p, 1.0))
        scale = np.where(p > 1.0 + 1e-13, t / np.sinh(t),
                         np.where(p < 1.0 - 1e-13, th / np.sin(th), 1.0))
    return scale * np.sqrt((a - d) ** 2 + (b + c) ** 2 + 0.25 * (b - c) ** 2)


def _golden_min(f, a, b, tol: float = 1e-10):
    """Golden-section minimum of f on [a, b], elementwise over arrays of
    brackets (f maps an array of points to its values); each bracket steps
    until it is narrower than tol, then stays put."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    s = np.array([a, b, c, d, f(c), f(d)])
    while np.any(live := s[1] - s[0] >= tol):
        a, b, c, d, fc, fd = s
        left = fc < fd   # keep [a, d], else [c, b]; one new point either way
        x = np.where(left, d - invphi * (d - a), c + invphi * (b - c))
        fx = f(x)
        s = np.where(live, np.where(left, [a, d, x, c, fx, fc], [c, b, d, x, fd, fx]), s)
    x = 0.5 * (s[0] + s[1])
    return x, f(x)


def dist_to_diag(m: np.ndarray):
    """inf over y in [-10, 10] of d(a(-y) g, e), with the minimizer, as the
    arrays (d, y, flagged) over unit-determinant g = +-m[..., 2, 2].

    A 64-cell bracket scan then golden-section refinement; the boundary flag
    is set when the minimizer sits at the bracket edge.
    """
    def objective(y):   # a(-y) g scales g's rows by e^(-y/2) and e^(y/2)
        return _log_norm(np.exp(0.5 * np.multiply.outer(y, [-1.0, 1.0]))[..., None] * m)

    ys = np.linspace(-10.0, 10.0, 65)
    vals = objective(ys.reshape((65,) + (1,) * (np.ndim(m) - 2)))
    i = np.argmin(vals, axis=0)
    y_star, d = _golden_min(objective, ys[np.maximum(0, i - 1)], ys[np.minimum(64, i + 1)])
    vi = vals.min(axis=0)
    node = vi < d   # a scan node (e.g. an exact zero on A) can beat golden
    return np.where(node, vi, d), np.where(node, ys[i], y_star), (i == 0) | (i == 64)
